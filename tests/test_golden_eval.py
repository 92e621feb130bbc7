"""Golden guard for the evaluation path: pinned `evaluate_case` reports.

Each case hashes the canonical JSON (``sort_keys=True``) of the report on a
fixed degraded phantom pair. The hashes pin every metric bit, so a change
meant only to make the evaluation faster must leave them alone. A hash may
change only in a change that means to alter evaluation results and says so
in CHANGES.md, together with the new value.
"""

import hashlib
import json

import pytest

from hepeval.metrics import evaluate_case
from hepeval.phantom import DegradeSpec, Sphere, axis_tree_spec, default_spec, degrade, generate_case

PAIRS = {
    "liver_gallbladder": (
        default_spec(gallbladder_present=True),
        DegradeSpec(
            seed=11,
            erode_steps={"hepatic_vein": 1, "portal_vein": 1},
            spurious_blobs=(("tumor", Sphere((150.0, 110.0, 200.0), 6.0)),),
            relabel_fraction=0.02,
        ),
        "fd93ea1c78ad24c77a592e4eb2114765cdf35510603c8d93972943089f95b5c9",
    ),
    "liver_no_gallbladder": (
        default_spec(gallbladder_present=False),
        DegradeSpec(
            seed=12,
            erode_steps={"hepatic_vein": 1},
            dilate_steps={"biliary_tree": 1},
            relabel_fraction=0.01,
        ),
        "89cd6d58bb09eb1252bc2ed6d13f31ecb71d219f24bcf37bd2328f7b42c72bfd",
    ),
    "htree_3": (
        axis_tree_spec(3),
        DegradeSpec(seed=13, drop_edge_ids=(4,), relabel_fraction=0.005),
        "f5757ad3806b600ce252f30661baf68a499f01a246a0de75b2d32068eb2d0536",
    ),
}


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_case_report_hash_is_pinned(name):
    spec, dspec, expected = PAIRS[name]
    truth = generate_case(spec)
    report = evaluate_case(truth.label_volume, degrade(truth, dspec), case_id=name)
    text = json.dumps(report.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == expected
