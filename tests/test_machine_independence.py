"""The central/peripheral split, the skeleton graph, the pinned loss input,
the phantom's edge geometry, a case report and its summary, and the
orientation read from a rotated NIfTI header are the same bytes under the
kernels NumPy and OpenBLAS pick at run time.

`digests` runs in a subprocess under each setting and must give the
SHA-256s of an in-process run: `OPENBLAS_CORETYPE=Nehalem` selects
OpenBLAS's pre-FMA kernels, and `NPY_DISABLE_CPU_FEATURES` turns NumPy's
AVX-512 loops off, as on a CPU without them. A setting this build cannot
apply skips its leg and says why.

A source scan also fails on any call in the package to `np.cross`, `np.dot`,
`np.inner`, `np.vdot`, `np.matmul`, `np.einsum` or `np.linalg`.
"""

import ast
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import hepeval
from hepeval.losses import loss_terms
from hepeval.metrics import _joint_box, aggregate, evaluate_case
from hepeval.morphology import label_boxes
from hepeval.nifti import read_nifti, write_nifti
from hepeval.phantom import (
    DegradeSpec,
    axis_tree_spec,
    default_spec,
    degrade,
    generate_case,
    straight_tube_mask,
    truth_manifest,
)
from hepeval.vessel import build_graph, classify_central_peripheral, skeletonize
from hepeval.volume import BinaryMask, Geometry, ProbVolume, _json_dict, extract_mask

from conftest import noisy_tube

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # NumPy 1.x
    from numpy.core._multiarray_umath import __cpu_features__

AVX512_OFF = "X86_V4 AVX512_ICL AVX512_SPR"

# A rational rotation (entries ±1/3 and 2/3), written as literals so that no
# kernel computes it, on an anisotropic grid with an off-grid origin: every
# product and sum in `position_mm` rounds.
ROTATED = Geometry(
    (128, 128, 128),
    (0.7, 0.9, 1.3),
    (-3.1, 2.2, 17.5),
    ((2 / 3, -1 / 3, 2 / 3), (2 / 3, 2 / 3, -1 / 3), (-1 / 3, 2 / 3, 2 / 3)),
)


def at_odd_spacing(spec) -> BinaryMask:
    """The truth portal of `spec` on a 0.7 x 0.9 x 1.3 mm grid."""
    values = extract_mask(generate_case(spec).label_volume, 3).values
    return BinaryMask(Geometry(values.shape[::-1], (0.7, 0.9, 1.3)), values)


def rotated_header_orientations() -> list:
    """The orientations read back from a file whose sform holds `ROTATED`'s
    spacing times a 0.3 rad turn about z, and from the same file with that
    sform off and a qform turning 0.3 rad about (1, 2, 2) / 3. The header
    stores both as float32, which the reader makes orthonormal again."""
    c, s = math.cos(0.3), math.sin(0.3)
    turn = ((c, -s, 0.0), (s, c, 0.0), (0.0, 0.0, 1.0))
    g = Geometry((4, 5, 6), ROTATED.spacing, ROTATED.origin, turn)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rotated.nii"
        write_nifti(BinaryMask(g, np.zeros(g.shape, bool)), path)
        sform = read_nifti(path, intent="labels").geometry.orientation
        raw = bytearray(path.read_bytes())
        struct.pack_into("<hh", raw, 252, 1, 0)  # qform_code 1, sform_code 0
        struct.pack_into("<3f", raw, 256, *(math.sin(0.15) * v / 3 for v in (1, 2, 2)))  # quatern_b, c, d
        path.write_bytes(raw)
        qform = read_nifti(path, intent="labels").geometry.orientation
    return [sform, qform]


def digests() -> dict[str, str]:
    """SHA-256s of the `axis_tree_spec(4)` truth portal's central mask and
    the `default_spec()` truth portal's graph JSON, both at 0.7 x 0.9 x 1.3 mm,
    of the pinned `noisy_tube` input and, at epochs 0 and 450, of its
    `loss_terms` clDice and combined gradients, with the clDice value and the
    combined gradient's norm as text, of the `default_spec()` edge records
    and edge tags, of the `evaluate_case` report of the `default_spec()`
    truth against its seeded 3 % relabel and of that report's `aggregate`
    summary, both as canonical JSON, of `ROTATED.position_mm` at a few
    indices, of the `_joint_box` geometries of the `default_spec()`
    structures on the `ROTATED` grid, and of `rotated_header_orientations()`.
    The `default_spec()` label array is the same under every kernel tried,
    so its digest checks the graph code. The bootstrapped CE's
    value, and so the combined value, is left out: at K = 1 it is a mean of
    `np.log` and `np.log1p` terms, which move in their last bit with the
    AVX-512 loops. Its gradient holds only divisions, which are correctly
    rounded on every kernel."""
    mask = at_odd_spacing(axis_tree_spec(4))
    split = classify_central_peripheral(build_graph(skeletonize(mask, 10), mask), mask)
    tube, _ = straight_tube_mask(length_vox=40, radius_vox=6.0, dims=(48, 48, 48))
    arrays = {"split": split.central.values, "noisy_tube": noisy_tube(tube, 48)}
    out = {name: hashlib.sha256(a.tobytes()).hexdigest() for name, a in arrays.items()}
    mask = at_odd_spacing(default_spec())
    graph = json.dumps(build_graph(skeletonize(mask, 10), mask).to_json_dict(), sort_keys=True)
    out["liver_portal_graph"] = hashlib.sha256(graph.encode()).hexdigest()
    truth = generate_case(default_spec())
    edges = json.dumps(truth_manifest(truth)["edges"])
    out["liver_edge_records"] = hashlib.sha256(edges.encode()).hexdigest()
    out["liver_edge_tag"] = hashlib.sha256(truth.edge_tag.tobytes()).hexdigest()
    report = evaluate_case(truth.label_volume, degrade(truth, DegradeSpec(seed=3, relabel_fraction=0.03)))
    for name, record in (("liver_case_report", report), ("liver_summary", aggregate([report]))):
        out[name] = hashlib.sha256(json.dumps(_json_dict(record), sort_keys=True).encode()).hexdigest()
    pred = ProbVolume(tube.geometry, arrays["noisy_tube"])
    for epoch in (0, 450):
        _, cld, _, combined = loss_terms(pred, tube, epoch)
        norm = math.sqrt(float(np.square(combined.gradient).sum()))  # as `hepeval loss` prints it
        out[f"noisy_tube_loss_{epoch}"] = json.dumps([cld.value, norm])
        for name, term in (("cl_dice", cld), ("combined", combined)):
            out[f"noisy_tube_{name}_gradient_{epoch}"] = hashlib.sha256(term.gradient.tobytes()).hexdigest()
    positions = [ROTATED.position_mm(i) for i in ((0, 0, 0), (1, 2, 3), (127, 5, 64), (31, 127, 90))]
    ids = truth.label_volume.schema.structure_ids()
    boxes = label_boxes(truth.label_volume.labels, ids)
    joint = [vars(_joint_box(ROTATED, boxes[sid])[1]) for sid in ids]
    for name, value in (
        ("rotated_positions", positions),
        ("liver_joint_box_geometries", joint),
        ("rotated_header_orientations", rotated_header_orientations()),
    ):
        out[name] = hashlib.sha256(json.dumps(value).encode()).hexdigest()
    return out


def avx512_loops() -> bool:
    return all(__cpu_features__.get(name, False) for name in AVX512_OFF.split())


def avx512_skip_reason() -> str | None:
    return None if avx512_loops() else "this CPU or NumPy build has no AVX-512 loops to turn off"


def openblas_skip_reason() -> str | None:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "this NumPy does not report its BLAS"
    if "openblas" not in str(blas.get("name", "")).lower():
        return f"NumPy uses {blas.get('name')!r}, not OpenBLAS"
    if "DYNAMIC_ARCH" not in str(blas.get("openblas configuration", "")):
        return "OpenBLAS is not a DYNAMIC_ARCH build, so OPENBLAS_CORETYPE selects nothing"
    return None


LEGS = {
    "openblas_nehalem": ({"OPENBLAS_CORETYPE": "Nehalem"}, openblas_skip_reason),
    "numpy_avx512_off": ({"NPY_DISABLE_CPU_FEATURES": AVX512_OFF}, avx512_skip_reason),
}


@pytest.fixture(scope="module")
def in_process():
    return digests()


@pytest.mark.parametrize("leg", sorted(LEGS))
def test_digests_match_in_process_run(leg, in_process):
    env, skip_reason = LEGS[leg]
    reason = skip_reason()
    if reason:
        pytest.skip(reason)
    code = "import json, test_machine_independence as t; print(json.dumps([t.digests(), t.avx512_loops()]))"
    run = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, **env, "PYTHONPATH": os.pathsep.join(sys.path)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    got, avx512 = json.loads(run.stdout)
    if leg == "numpy_avx512_off":
        assert not avx512  # the setting took effect
    assert got == in_process


VECTOR_PRODUCTS = {"np.cross", "np.dot", "np.inner", "np.vdot", "np.matmul", "np.einsum"}


def test_package_calls_no_numpy_vector_product():
    # NumPy's vector products and np.linalg run BLAS or SIMD kernels picked
    # per CPU, which can round the last bit differently; 3-vector arithmetic
    # goes through volume's _dot, _cross, _norm and _unit instead
    found = []
    for path in sorted(Path(hepeval.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                name = ast.unparse(node.func)
                if name in VECTOR_PRODUCTS or name.startswith("np.linalg."):
                    found.append(f"{path.name}:{node.lineno}: {name}")
    assert not found, found
