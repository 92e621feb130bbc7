"""Acceptance suite: one test per criterion, printed as PASS lines.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Tolerances are pinned here and nowhere else.
"""

import itertools
import json
import math
import struct
import time
from fractions import Fraction

import numpy as np
import pytest

from hepeval.cli import main
from hepeval.losses import (
    bootstrapped_ce_loss,
    cl_dice_loss,
    combined_loss,
    cross_entropy_loss,
    finite_difference_check,
    k_schedule,
    soft_dice_loss,
    LossConfig,
)
from hepeval.metrics import (
    EvalConfig,
    cl_dice_metric,
    dsc,
    evaluate_case,
    lesion_match,
    mann_whitney_u,
)
from hepeval.morphology import distance_transform_squared, pool_array
from hepeval.nifti import read_label_volume, read_nifti, write_nifti
from hepeval.phantom import (
    DegradeSpec,
    PhantomSpec,
    Sphere,
    axis_tree_spec,
    default_spec,
    degrade,
    generate_case,
    straight_tube_mask,
    y_phantom,
)
from hepeval.vessel import build_graph, classify_central_peripheral, skeletonize
from hepeval.volume import (
    BinaryMask,
    Geometry,
    LabelVolume,
    ProbVolume,
    extract_mask,
)

from conftest import brute_force_squared_edt, random_mask, root_edge, separated_prob_volume


def report(criterion: int, text: str):
    print(f"ACCEPTANCE {criterion:02d} PASS: {text}")


def test_criterion_01_gradient_suite():
    start = time.monotonic()
    g = Geometry(dims=(8, 8, 8), spacing=(1.0, 1.0, 1.0))
    worst = {"soft_dice": 0.0, "ce": 0.0, "bce": 0.0, "cl_dice": 0.0, "combined": 0.0}
    cfg = LossConfig(skeleton_iterations=4)
    for seed in range(5):
        pred = separated_prob_volume(g, seed=seed)
        gt = random_mask(g, seed=seed + 50)
        worst["soft_dice"] = max(
            worst["soft_dice"],
            finite_difference_check(lambda p, m: soft_dice_loss(p, m), pred, gt, 48, 1e-4, seed),
        )
        worst["ce"] = max(
            worst["ce"],
            finite_difference_check(lambda p, m: cross_entropy_loss(p, m)[1], pred, gt, 48, 1e-5, seed),
        )
        for k in (0.15, 0.5, 1.0):
            worst["bce"] = max(
                worst["bce"],
                finite_difference_check(
                    lambda p, m, k=k: bootstrapped_ce_loss(p, m, k), pred, gt, 48, 1e-6, seed
                ),
            )
        worst["cl_dice"] = max(
            worst["cl_dice"],
            finite_difference_check(
                lambda p, m: cl_dice_loss(p, m, iterations=4), pred, gt, 48, 1e-5, seed
            ),
        )
        worst["combined"] = max(
            worst["combined"],
            finite_difference_check(
                lambda p, m: combined_loss(p, m, epoch=450, config=cfg), pred, gt, 32, 1e-5, seed
            ),
        )
    elapsed = time.monotonic() - start
    assert worst["soft_dice"] < 1e-4
    assert worst["ce"] < 1e-4
    assert worst["bce"] < 1e-4
    assert worst["cl_dice"] < 1e-3
    assert worst["combined"] < 1e-3
    assert elapsed < 60.0
    report(1, f"gradients match central differences ({worst}) in {elapsed:.1f}s")


def test_criterion_02_schedule_exactness():
    cfg = LossConfig()
    for epoch in range(0, 400):
        assert k_schedule(epoch, cfg) == 1.0
    assert k_schedule(400, cfg) == 0.15
    assert k_schedule(499, cfg) == 0.50
    ramp = [k_schedule(e, cfg) for e in range(400, 500)]
    assert all(a <= b for a, b in zip(ramp, ramp[1:]))
    report(2, "K = 1.0 on epochs 0-399, 0.15 at 400, 0.50 at 499, monotone ramp")


def test_criterion_03_reduction_identity():
    g = Geometry(dims=(7, 6, 5), spacing=(1.0, 1.0, 1.0))
    worst = 0.0
    for seed in range(10):
        pred = separated_prob_volume(g, seed=seed)
        gt = random_mask(g, seed=seed + 500)
        _, plain = cross_entropy_loss(pred, gt)
        boot = bootstrapped_ce_loss(pred, gt, k=1.0)
        worst = max(worst, abs(plain.value - boot.value))
    assert worst < 1e-12
    report(3, f"bootstrapped CE at K=1 equals plain CE mean (max |diff| = {worst:.2e})")


def test_criterion_04_topology_sensitivity():
    tube, _ = straight_tube_mask(length_vox=40, radius_vox=0.5, dims=(56, 12, 12))
    dilated = pool_array(tube.values.astype(np.uint8), "max")
    pred = BinaryMask(tube.geometry, dilated > 0)
    cld = cl_dice_metric(pred, tube, iterations=4)
    plain = dsc(pred, tube)
    assert cld == 1.0
    assert plain < 0.9

    ph = y_phantom()
    dropped = BinaryMask(ph.mask.geometry, ph.mask.values & ~ph.branches[0].values)
    cld_y = cl_dice_metric(dropped, ph.mask, iterations=5)
    dsc_y = dsc(dropped, ph.mask)
    assert cld_y < dsc_y
    report(
        4,
        f"dilated tube: clDice {cld:.3f} vs DSC {plain:.3f}; "
        f"branch drop: clDice {cld_y:.3f} < DSC {dsc_y:.3f}",
    )


def test_criterion_05_strahler_oracle():
    for levels in (1, 2, 3, 4):
        truth = generate_case(axis_tree_spec(levels))
        mask = extract_mask(truth.label_volume, 3)
        graph = build_graph(skeletonize(mask, 6), mask)
        root = root_edge(graph)
        assert root.strahler == levels + 1, f"levels={levels}"
        split = classify_central_peripheral(graph, mask)
        tag_central = (truth.generation_tag >= 0) & (truth.generation_tag <= 1)
        agreement = (split.central.values == (tag_central & mask.values))[mask.values].mean()
        assert agreement >= 0.99, f"levels={levels}: {agreement:.4f}"
    report(5, "root Strahler order b+1 and >= 99% central/peripheral tag agreement for b = 1..4")


def _lesion_oracle(gt: BinaryMask, pred: BinaryMask):
    """Brute-force component-pair overlap scan (BFS labeling, full double loop)."""
    def components(mask):
        values = mask.values
        visited = np.zeros(values.shape, bool)
        comps = []
        offs = [
            (dz, dy, dx)
            for dz in (-1, 0, 1)
            for dy in (-1, 0, 1)
            for dx in (-1, 0, 1)
            if (dz, dy, dx) != (0, 0, 0)
        ]
        for start in zip(*np.nonzero(values)):
            if visited[start]:
                continue
            comp, stack = set(), [start]
            visited[start] = True
            while stack:
                z, y, x = stack.pop()
                comp.add((z, y, x))
                for dz, dy, dx in offs:
                    p = (z + dz, y + dy, x + dx)
                    if (
                        0 <= p[0] < values.shape[0]
                        and 0 <= p[1] < values.shape[1]
                        and 0 <= p[2] < values.shape[2]
                        and values[p]
                        and not visited[p]
                    ):
                        visited[p] = True
                        stack.append(p)
            comps.append(comp)
        return comps

    gts, preds = components(gt), components(pred)
    detected = sum(1 for gc in gts if any(gc & pc for pc in preds))
    fps = sum(1 for pc in preds if not any(pc & gc for gc in gts))
    rate = detected / max(len(gts), 1)
    return rate, fps


def _lesion_phantom_spec(seed: int) -> PhantomSpec:
    rng = np.random.default_rng(seed)
    centers = []
    while len(centers) < 3:
        c = rng.uniform((40, 40, 50), (88, 88, 94))
        if all(np.linalg.norm(c - np.asarray(o)) > 18 for o in centers):
            centers.append(tuple(float(v) for v in c))
    return PhantomSpec(
        geometry=Geometry(dims=(64, 64, 48), spacing=(2.0, 2.0, 3.0)),
        parenchyma_semiaxes_mm=(58.0, 58.0, 64.0),
        trees={},
        tumors=tuple(Sphere(center_mm=c, radius_mm=float(rng.uniform(5.0, 8.0))) for c in centers),
    )


def test_criterion_06_lesion_oracle():
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        truth = generate_case(_lesion_phantom_spec(seed))
        blob_center = tuple(float(v) for v in rng.uniform((14, 14, 18), (114, 114, 120)))
        dspec = DegradeSpec(
            seed=seed,
            spurious_blobs=(("tumor", Sphere(center_mm=blob_center, radius_mm=5.0)),),
            relabel_fraction=float(rng.uniform(0.0, 0.25)),
        )
        pred_volume = degrade(truth, dspec)
        gt_mask = extract_mask(truth.label_volume, 2)
        pred_mask = extract_mask(pred_volume, 2)
        got = lesion_match(gt_mask, pred_mask)
        want_rate, want_fps = _lesion_oracle(gt_mask, pred_mask)
        assert got.detection_rate == want_rate, f"seed {seed}"
        assert got.n_false_positive == want_fps, f"seed {seed}"
    report(6, "lesion detection rate and FP counts equal brute force on 20 degraded phantoms")


def test_criterion_07_edt_oracle():
    for spacing in ((1.0, 1.0, 1.0), (2.0, 2.0, 3.0)):
        for seed in range(5):
            g = Geometry(dims=(16, 16, 16), spacing=spacing)
            mask = random_mask(g, seed=seed, density=0.5)
            assert np.array_equal(distance_transform_squared(mask), brute_force_squared_edt(mask))
    report(7, "squared EDT equals the O(n^2) oracle exactly on 10 random 16^3 masks")


def _mw_oracle(xs, ys):
    pooled = list(xs) + list(ys)
    n1 = len(xs)
    order = sorted(range(len(pooled)), key=lambda i: pooled[i])
    ranks = [0.0] * len(pooled)
    for rank, idx in enumerate(order, start=1):
        ranks[idx] = rank
    u_x = sum(ranks[:n1]) - n1 * (n1 + 1) / 2
    u_min = min(u_x, n1 * len(ys) - u_x)
    count = sum(
        1
        for combo in itertools.combinations(range(len(pooled)), n1)
        if sum(ranks[i] for i in combo) - n1 * (n1 + 1) / 2 <= u_min
    )
    total = math.comb(len(pooled), n1)
    return u_x, min(Fraction(1), Fraction(2 * count, total))


def test_criterion_08_mann_whitney_oracle():
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 50:
        n1 = int(rng.integers(1, 10))
        n2 = int(rng.integers(1, 11 - n1))
        xs = rng.normal(size=n1).tolist()
        ys = rng.normal(size=n2).tolist()
        if len(set(xs + ys)) < n1 + n2:
            continue
        got = mann_whitney_u(xs, ys)
        u_o, p_o = _mw_oracle(xs, ys)
        assert got.method == "exact"
        assert abs(got.p_two_sided - float(p_o)) < 1e-9
        u_y = n1 * n2 - got.U
        assert got.U + u_y == n1 * n2
        assert got.U == pytest.approx(u_o)
        checked += 1
    report(8, "exact Mann-Whitney p equals full enumeration within 1e-9 on 50 cases")


def test_criterion_09_self_evaluation_identity(tmp_path):
    spec = default_spec(gallbladder_present=False)
    truth = generate_case(spec)
    gt_path = tmp_path / "case_a.nii.gz"
    write_nifti(truth.label_volume, gt_path)
    out = tmp_path / "run"
    code = main(
        ["eval", "--gt", str(gt_path), "--pred", str(gt_path), "--out", str(out),
         "--skeleton-iters", "6", "--jobs", "1"]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    for name, entry in summary["structures"].items():
        if name == "biliary_tree/central":
            assert entry is None  # cholecystectomy skip rule
        elif entry is not None:
            assert entry["mean"] == 1.0, name
    det = summary["tumor_detection"]
    assert det["rate_mean"] == 1.0
    assert det["median_false_positives"] == 0.0
    report(9, "self-evaluation: DSC 1.0 everywhere, 100% detection, 0 FP, null central biliary")


def test_criterion_10_format_fidelity(tmp_path):
    rng = np.random.default_rng(123)
    for i in range(50):
        dims = tuple(int(d) for d in rng.integers(2, 10, size=3))
        g = Geometry(dims=dims, spacing=tuple(float(s) for s in rng.uniform(0.5, 3.5, 3)))
        gz = ".gz" if i % 2 else ""
        path = tmp_path / f"vol{i}.nii{gz}"
        if i % 3 == 0:
            values = rng.random(g.shape, dtype=np.float32).astype(np.float64)
            vol = ProbVolume(g, values)
            write_nifti(vol, path)
            back = read_nifti(path, intent="prob")
            assert np.array_equal(back.values.astype(np.float32), values.astype(np.float32))
        else:
            vol = LabelVolume(g, rng.integers(0, 7, size=g.shape).astype(np.uint8))
            write_nifti(vol, path)
            back = read_label_volume(path)
            assert np.array_equal(back.labels, vol.labels)
        if gz:
            import gzip

            raw = gzip.open(path, "rb").read(348)
        else:
            raw = path.read_bytes()[:348]
        assert struct.unpack_from("<i", raw, 0)[0] == 348
        assert raw[344:348] == b"n+1\x00"
    report(10, "50 random volumes round trip bit-identically; header fields byte-exact")


def test_criterion_11_end_to_end_runtime(tmp_path):
    start = time.monotonic()
    spec = default_spec(gallbladder_present=True)
    truth = generate_case(spec)
    gt_path = tmp_path / "truth.nii.gz"
    write_nifti(truth.label_volume, gt_path)
    pred = degrade(truth, DegradeSpec(seed=2, erode_steps={"portal_vein": 1}))
    pred_path = tmp_path / "pred.nii.gz"
    write_nifti(pred, pred_path)
    gt = read_label_volume(gt_path)
    pr = read_label_volume(pred_path)
    case = evaluate_case(gt, pr, EvalConfig(skeleton_iterations=10), case_id="timing")
    elapsed = time.monotonic() - start
    assert case.dsc["parenchyma"] > 0.99
    assert elapsed < 30.0
    report(11, f"128^3 generate + degrade + write + read + evaluate in {elapsed:.1f}s")
