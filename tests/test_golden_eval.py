"""Golden guard for the evaluation path: pinned `evaluate_case` reports, their
`aggregate` summary, the files `hepeval eval` writes for them and pinned
`build_graph` outputs.

Each case hashes the canonical JSON (``sort_keys=True``) of a report on a
fixed degraded phantom pair, of the summary of those reports, or of a
skeleton graph with every node member, edge path and attach voxel, or the
bytes of an output file. The hashes pin every bit, so a change meant only
to make the evaluation faster or simpler must leave them alone. A hash may change only in a change that
means to alter evaluation results and says so in CHANGES.md, together with
the new value.
"""

import hashlib
import json

import pytest

from hepeval.cli import main
from hepeval.metrics import aggregate, evaluate_case
from hepeval.nifti import write_nifti
from hepeval.phantom import DegradeSpec, Sphere, axis_tree_spec, default_spec, degrade, generate_case
from hepeval.vessel import build_graph, skeletonize
from hepeval.volume import BinaryMask, _json_dict, extract_mask

from conftest import random_skeleton_mask

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


SUMMARY = "ef9fcc62bc81fc05fdf5cc209d9a66cfde1f67db20cfb1e8fde9c343a28b7af5"


def _digest(record) -> str:
    return hashlib.sha256(json.dumps(_json_dict(record), sort_keys=True).encode()).hexdigest()


# SHA-256 of each file `hepeval eval` writes for the three pairs, but the
# manifest, which holds a timestamp
EVAL_FILES = {
    "case_htree_3.report.json": "be876e34ae8e2f138960ed3a7a1f01cb9627a575a10a20fb16b57624eda0abf3",
    "case_liver_gallbladder.report.json": "c4cee08f9630c55c9844bd57b6d7097bcfa3918e770b1d58f073e6d416d3d52a",
    "case_liver_no_gallbladder.report.json": "c79dbf8f9f0d45887d3eb44c57e3d1104cee292bf401c02289dfbf03aedc3bd4",
    "cases.csv": "689a2750953b68f4e761b28c5a0c5a9c624c184900850c01f47d5e10fff5b54d",
    "summary.csv": "3be3109aa21ee32c7ee32d19f81d4b140c7c440ff128177949dd1417098c8be9",
    "summary.json": "6e80c73ba78365411b1eed60df651c8c2f980fe4dac4527591da1b031d22e2a9",
}


@pytest.fixture(scope="module")
def pairs():
    """(truth, prediction) label volumes of each pair, by name."""
    out = {}
    for name, (spec, dspec, _) in PAIRS.items():
        truth = generate_case(spec)
        out[name] = truth.label_volume, degrade(truth, dspec)
    return out


@pytest.fixture(scope="module")
def reports(pairs):
    """The report of each pair, by name."""
    return {name: evaluate_case(gt, pred, case_id=name) for name, (gt, pred) in pairs.items()}


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_case_report_hash_is_pinned(name, reports):
    assert _digest(reports[name]) == PAIRS[name][2]


def test_summary_hash_is_pinned(reports):
    assert _digest(aggregate(list(reports.values()))) == SUMMARY


def test_eval_output_files_are_pinned(pairs, tmp_path):
    (tmp_path / "pred").mkdir()
    gts, preds = [], []
    for name, (gt, pred) in pairs.items():
        gts.append(tmp_path / f"{name}.nii.gz")
        preds.append(tmp_path / "pred" / f"{name}.nii.gz")
        write_nifti(gt, gts[-1])
        write_nifti(pred, preds[-1])
    out = tmp_path / "run"
    assert main(["eval", "--gt", *map(str, gts), "--pred", *map(str, preds), "--out", str(out), "--jobs", "1"]) == 0
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir() if p.name != "manifest.json"}
    assert files == EVAL_FILES


def _graph_inputs(name: str) -> tuple[BinaryMask, BinaryMask]:
    """(skeleton, vessel mask): a random mask as its own skeleton, or the
    skeleton of a phantom vein."""
    if name.startswith("random_"):
        mask = random_skeleton_mask(int(name.removeprefix("random_")))
        return mask, mask
    phantom, vein = name.split("/")
    volume = generate_case({"liver": default_spec(), "htree": axis_tree_spec(4)}[phantom]).label_volume
    mask = extract_mask(volume, volume.schema.id_of(vein))
    return skeletonize(mask, 10), mask


def _graph_json(graph) -> str:
    doc = graph.to_json_dict()
    doc["node_voxels"] = [n.voxels.tolist() for n in graph.nodes]
    doc["edge_walks"] = [
        {
            "id": e.id,
            "path": e.path.tolist(),
            "attach": list(e.attach),
            "generation": e.generation,
            "strahler": e.strahler,
        }
        for e in graph.edges + graph.removed_edges
    ]
    return json.dumps(doc, sort_keys=True)


GRAPHS = {
    "random_0": "1d28f5f4a6a5d96d333d657248094cbfa0e86f9ba33c5c3364662de4fac4d856",
    "random_1": "a741572cee62ec7bd6cd1393cc6dc217ca33c9c1f6e1131949c11edab5ebd381",
    "random_2": "5d0537595b1aa4755111725ec2c6f769973b23b5d0e503ece6a6a4e572125156",
    "random_3": "4b4238442daa8c9d4cbcfdff5230715628c75641a5d38bba723f643fad9246bc",
    "random_4": "d8912cb22c84a8ad5d596477d9094d88fcd7e5c201b88f5a16ccd8eb245bd015",
    "random_5": "5e8ae4a212b1fe1302fdcb23e87091415db80ae40103e0d2d97c80af95bac729",
    "random_6": "4bd8d044a66e30f0c98ee4b24ba5a10287f233b1d3e266bc31c7840258d1d31a",
    "random_7": "532ea40e194460e5cd286ca4aeffba4fbd24b018de29095007f5828d1c45b9f6",
    "random_8": "f53bcc836920f626264cd70dd00b80f3daf50ece376e9572d2249da8736380b9",
    "random_9": "e71945572706ace5f39916a6025205c1141b0a30839b615a851478cd8a5c82aa",
    "random_10": "47d23fba309199cbaadd74f6251c6ed2737cdd2967bba981c2265a3083be1b5b",
    "random_11": "385ad6d18ac8cbdeec3ad5c13167c5e8f3103ec66eb621138cfb01a852d2ed36",
    "liver/portal_vein": "9f6ab4e7da779b118c239bb26f27aaf62066bedd70f2383d29f3367095158623",
    "liver/hepatic_vein": "a01d103219f8f974b882680a28b57cfe0f7ab847706e56d7050a81c4939519f9",
    "htree/portal_vein": "071885b466c35b2d81733df152e25b7ea5b406220764671da297e01c0c74702a",
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_skeleton_graph_hash_is_pinned(name):
    graph = build_graph(*_graph_inputs(name))
    assert hashlib.sha256(_graph_json(graph).encode()).hexdigest() == GRAPHS[name]


def test_random_graph_inputs_exercise_cycles():
    """The random set must hold self-loops (pure cycles and chains closing
    back onto their own node), or its hashes pin no cycle handling."""
    loops = 0
    for seed in range(12):
        graph = build_graph(*_graph_inputs(f"random_{seed}"))
        loops += sum(e.nodes[0] == e.nodes[1] for e in graph.removed_edges)
    assert loops > 0
