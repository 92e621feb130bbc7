import dataclasses
import itertools
import json
import logging
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

import hepeval.metrics
from hepeval import morphology
from hepeval.errors import ParameterError, ShapeMismatchError
from hepeval.metrics import (
    EvalConfig,
    _stats,
    _vessel_scores,
    aggregate,
    cl_dice_metric,
    dsc,
    evaluate_case,
    lesion_match,
    mann_whitney_u,
)
from hepeval.morphology import bounding_box, connected_components, pool_array
from hepeval.phantom import (
    DegradeSpec,
    Sphere,
    axis_tree_spec,
    default_spec,
    degrade,
    generate_case,
    straight_tube_mask,
    y_phantom,
)
from hepeval.vessel import identify_gallbladder
from hepeval.volume import DEFAULT_SCHEMA, BinaryMask, Geometry, LabelSchema, LabelVolume, _json_dict, extract_mask

from conftest import (
    EMBED_OFFSETS,
    embed,
    face_touching_values,
    grid_geometry,
    phantom_vessel_masks,
    random_mask,
    random_skeleton_mask,
    reference_gallbladder,
    reference_report,
    reference_vessel_scores,
)
from test_golden_eval import PAIRS


def mask_of(values, spacing=(1.0, 1.0, 1.0)):
    arr = np.asarray(values, dtype=bool).ravel()
    g = Geometry(dims=(len(arr), 1, 1), spacing=spacing)
    return BinaryMask(g, arr.reshape(g.shape))


class TestDsc:
    def test_identical_nonempty(self):
        m = random_mask(Geometry(dims=(6, 6, 6), spacing=(1, 1, 1)), seed=1)
        assert dsc(m, m) == 1.0

    def test_disjoint(self):
        a = mask_of([1, 1, 0, 0])
        b = mask_of([0, 0, 1, 1])
        assert dsc(a, b) == 0.0

    def test_hand_counts(self):
        a = mask_of([1, 1, 1, 0, 0, 0, 0, 0])
        b = mask_of([1, 1, 0, 1, 1, 1, 0, 0])
        assert dsc(a, b) == pytest.approx(4 / 8)

    def test_both_empty_is_one(self):
        a = mask_of([0, 0, 0])
        assert dsc(a, a) == 1.0

    def test_mismatch_raises(self):
        with pytest.raises(ShapeMismatchError):
            dsc(mask_of([1, 0]), mask_of([1, 0, 0]))

    @given(seed=st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_symmetry(self, seed):
        g = Geometry(dims=(5, 5, 5), spacing=(1, 1, 1))
        a, b = random_mask(g, seed), random_mask(g, seed + 1000)
        assert dsc(a, b) == dsc(b, a)


class TestClDiceMetric:
    def test_identity_is_one(self):
        tube, _ = straight_tube_mask(length_vox=20, radius_vox=1.9, dims=(30, 10, 10))
        assert cl_dice_metric(tube, tube, iterations=4) == 1.0

    def test_dilation_keeps_cldice_at_one_but_not_dsc(self):
        gt, _ = straight_tube_mask(length_vox=40, radius_vox=0.5, dims=(56, 12, 12))
        dilated = pool_array(gt.values.astype(np.uint8), "max")
        pred = BinaryMask(gt.geometry, dilated > 0)
        assert cl_dice_metric(pred, gt, iterations=4) == 1.0
        assert dsc(pred, gt) < 0.9

    def test_branch_drop_hits_cldice_harder_than_dsc(self):
        ph = y_phantom()
        pred = BinaryMask(ph.mask.geometry, ph.mask.values & ~ph.branches[0].values)
        d = dsc(pred, ph.mask)
        c = cl_dice_metric(pred, ph.mask, iterations=5)
        assert c < d

    def test_empty_cases(self):
        g = Geometry(dims=(6, 6, 6), spacing=(1, 1, 1))
        empty = BinaryMask(g, np.zeros(g.shape, bool))
        tube, _ = straight_tube_mask(length_vox=4, radius_vox=0.5, dims=(6, 6, 6))
        assert cl_dice_metric(empty, empty) == 1.0
        assert cl_dice_metric(empty, tube) == 0.0
        assert cl_dice_metric(tube, empty) == 0.0


def brute_force_lesion_scan(gt: BinaryMask, pred: BinaryMask, min_overlap=1):
    """Independent oracle: python BFS components + full pair scan."""

    def components(mask):
        values = mask.values
        visited = np.zeros(values.shape, bool)
        comps = []
        offsets = [
            (dz, dy, dx)
            for dz in (-1, 0, 1)
            for dy in (-1, 0, 1)
            for dx in (-1, 0, 1)
            if (dz, dy, dx) != (0, 0, 0)
        ]
        for start in zip(*np.nonzero(values)):
            if visited[start]:
                continue
            comp = set()
            stack = [start]
            visited[start] = True
            while stack:
                z, y, x = stack.pop()
                comp.add((z, y, x))
                for dz, dy, dx in offsets:
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

    gt_comps = components(gt)
    pred_comps = components(pred)
    detected = 0
    for gc in gt_comps:
        if any(len(gc & pc) >= min_overlap for pc in pred_comps):
            detected += 1
    fps = sum(1 for pc in pred_comps if all(len(pc & gc) == 0 for gc in gt_comps))
    return len(gt_comps), detected, fps


class TestLesionMatch:
    def geometry(self):
        return Geometry(dims=(24, 24, 24), spacing=(1, 1, 1))

    def blob(self, mask, center, r=2):
        z, y, x = center
        mask[z - r : z + r + 1, y - r : y + r + 1, x - r : x + r + 1] = True

    def test_identity_three_lesions(self):
        g = self.geometry()
        m = np.zeros(g.shape, bool)
        for c in ((4, 4, 4), (12, 12, 12), (19, 19, 19)):
            self.blob(m, c)
        gt = BinaryMask(g, m)
        report = lesion_match(gt, gt)
        assert report.n_gt == 3
        assert report.detection_rate == 1.0
        assert report.n_false_positive == 0
        assert all(r.best_overlap_dsc == 1.0 for r in report.lesions)

    def test_empty_prediction(self):
        g = self.geometry()
        m = np.zeros(g.shape, bool)
        self.blob(m, (5, 5, 5))
        self.blob(m, (15, 15, 15))
        report = lesion_match(BinaryMask(g, m), BinaryMask(g, np.zeros(g.shape, bool)))
        assert report.n_gt == 2
        assert report.detection_rate == 0.0
        assert report.n_false_positive == 0

    def test_half_detection_plus_false_positive(self):
        g = self.geometry()
        gt = np.zeros(g.shape, bool)
        self.blob(gt, (5, 5, 5))
        self.blob(gt, (18, 18, 18))
        pred = np.zeros(g.shape, bool)
        self.blob(pred, (5, 5, 5))
        self.blob(pred, (18, 5, 5))  # spurious, far from both lesions
        report = lesion_match(BinaryMask(g, gt), BinaryMask(g, pred))
        assert report.detection_rate == 0.5
        assert report.n_false_positive == 1
        n_gt, det, fp = brute_force_lesion_scan(BinaryMask(g, gt), BinaryMask(g, pred))
        assert (report.n_gt, report.n_detected, report.n_false_positive) == (n_gt, det, fp)

    def test_min_overlap_threshold(self):
        g = self.geometry()
        gt = np.zeros(g.shape, bool)
        self.blob(gt, (6, 6, 6), r=1)
        pred = np.zeros(g.shape, bool)
        pred[7, 7, 7] = True  # single-voxel touch
        report = lesion_match(BinaryMask(g, gt), BinaryMask(g, pred), min_overlap_voxels=1)
        assert report.n_detected == 1 and report.n_false_positive == 0
        report = lesion_match(BinaryMask(g, gt), BinaryMask(g, pred), min_overlap_voxels=2)
        assert report.n_detected == 0
        # an overlapping-but-below-threshold component is not a false positive
        assert report.n_false_positive == 0

    @given(seed=st.integers(0, 100))
    @settings(max_examples=10, deadline=None)
    def test_matches_brute_force_on_random_masks(self, seed):
        g = Geometry(dims=(12, 12, 12), spacing=(1, 1, 1))
        gt = random_mask(g, seed, density=0.08)
        pred = random_mask(g, seed + 999, density=0.08)
        # Also confine the masks to boxes that do not intersect (x < 6 and
        # x >= 7), and the prediction to a box inside the truth's that leaves
        # truth lesions outside it.
        left, right, inner = (np.zeros(g.shape, bool) for _ in range(3))
        left[:, :, :6] = right[:, :, 7:] = inner[3:9, 3:9, 3:9] = True
        assert (gt.values & ~inner).any()
        pairs = [
            (gt, pred),
            (BinaryMask(g, gt.values & left), BinaryMask(g, pred.values & right)),
            (gt, BinaryMask(g, pred.values & inner)),
        ]
        for a, b in pairs:
            report = lesion_match(a, b)
            n_gt, det, fp = brute_force_lesion_scan(a, b)
            assert report.n_gt == n_gt
            assert report.n_detected == det
            assert report.n_false_positive == fp

    def test_golden_liver_pair_finds_no_component_boxes(self, monkeypatch):
        # lesion rows read component sizes and labels only, so no box is
        # ever found for them; the gallbladder split, which reads the boxes,
        # finds them once per labelling and gets `find_objects`'s own
        spec, dspec, _ = PAIRS["liver_gallbladder"]
        truth = generate_case(spec)
        pred = degrade(truth, dspec)
        find_objects, found = morphology.ndimage.find_objects, []
        monkeypatch.setattr(
            morphology.ndimage, "find_objects", lambda labels: found.append(find_objects(labels)) or found[-1]
        )
        report = lesion_match(*(extract_mask(v, 2) for v in (truth.label_volume, pred)))
        assert report.n_gt == 2 and found == []

        biliary = extract_mask(truth.label_volume, 5)
        cc = connected_components(biliary, 26)
        assert cc.bounding_boxes == tuple(find_objects(cc.labels)) and len(found) == 1
        assert cc.bounding_boxes is cc.bounding_boxes and len(found) == 1
        found.clear()
        got = identify_gallbladder(biliary)
        assert len(found) == 1 and found[0] == list(cc.bounding_boxes)
        want = reference_gallbladder(biliary, 5000.0, 0.5)
        assert all(np.array_equal(a.values, b.values) for a, b in zip(got, want))
        assert got[0].popcount() > 0


@pytest.fixture(scope="module")
def truth():
    return generate_case(default_spec(gallbladder_present=True))


@pytest.fixture(scope="module")
def config():
    return EvalConfig(skeleton_iterations=6)


class TestEvaluateCase:

    def test_self_comparison_is_perfect(self, truth, config):
        report = evaluate_case(truth.label_volume, truth.label_volume, config, case_id="self")
        assert all(v == 1.0 for v in report.dsc.values())
        assert report.lesions.detection_rate == 1.0
        assert report.lesions.n_false_positive == 0
        for v in report.central_dsc.values():
            assert v is None or v == 1.0
        for v in report.peripheral_dsc.values():
            assert v == 1.0
        assert report.cl_dice["portal_vein"] == 1.0
        assert not report.flags.gallbladder_absent_gt

    def test_tumor_ablation_only_hits_tumor(self, truth, config):
        labels = truth.label_volume.labels.copy()
        labels[labels == 2] = 1
        pred = LabelVolume(truth.label_volume.geometry, labels, truth.label_volume.schema)
        report = evaluate_case(truth.label_volume, pred, config)
        assert report.dsc["tumor"] == 0.0
        assert report.dsc["portal_vein"] == 1.0
        assert report.dsc["biliary_tree"] == 1.0
        assert report.lesions.detection_rate == 0.0

    def test_cholecystectomy_skips_central_biliary(self, config):
        truth = generate_case(default_spec(gallbladder_present=False))
        report = evaluate_case(truth.label_volume, truth.label_volume, config)
        assert report.flags.gallbladder_absent_gt
        assert report.central_dsc["biliary_tree"] is None
        assert report.peripheral_dsc["biliary_tree"] == 1.0

    def test_degraded_case_matches_independent_recompute(self, truth, config):
        dspec = DegradeSpec(
            seed=3,
            erode_steps={"portal_vein": 1},
            drop_edge_ids=(2,),
            spurious_blobs=(("tumor", Sphere(center_mm=(170.0, 96.0, 130.0), radius_mm=8.0)),),
        )
        pred = degrade(truth, dspec)
        report = evaluate_case(truth.label_volume, pred, config)
        # independent recompute of per-structure DSC from raw label arrays
        gt_labels = truth.label_volume.labels
        pr_labels = pred.labels
        for sid, name in truth.label_volume.schema.ids.items():
            if sid == 0:
                continue
            inter = int(((gt_labels == sid) & (pr_labels == sid)).sum())
            na, nb = int((gt_labels == sid).sum()), int((pr_labels == sid).sum())
            want = 1.0 if na + nb == 0 else 2.0 * inter / (na + nb)
            assert report.dsc[name] == pytest.approx(want, abs=1e-12)
        assert report.dsc["portal_vein"] < 1.0
        assert report.lesions.n_false_positive == 1
        assert report.lesions.detection_rate == 1.0

    def test_extracts_each_structure_once(self, truth, config, monkeypatch):
        # Every structure mask is built by `_box_mask`, once per volume.
        calls = []
        real = hepeval.metrics._box_mask

        def counted(volume, label_id, box, geometry):
            calls.append(label_id)
            return real(volume, label_id, box, geometry)

        monkeypatch.setattr(hepeval.metrics, "_box_mask", counted)
        evaluate_case(truth.label_volume, truth.label_volume, config)
        assert sorted(calls) == sorted(2 * DEFAULT_SCHEMA.structure_ids())
        assert len(calls) == 12

    def test_ids_of_eight_and_above_give_the_same_report(self, truth, config):
        # Ids 1-6 moved to 9/17/64/130/200/255, each in its own group of 8
        # for `label_boxes`, in the same order, so the JSON keeps its keys.
        dspec = DegradeSpec(seed=11, erode_steps={"portal_vein": 1}, relabel_fraction=0.02)
        pair = truth.label_volume, degrade(truth, dspec)
        new_ids = [0, 9, 17, 64, 130, 200, 255]
        schema = LabelSchema({new_ids[i]: name for i, name in DEFAULT_SCHEMA.ids.items()})
        lut = np.array(new_ids, dtype=np.uint8)
        moved = [LabelVolume(v.geometry, lut[v.labels], schema) for v in pair]
        base = json.dumps(_json_dict(evaluate_case(*pair, config)))
        assert json.dumps(_json_dict(evaluate_case(*moved, config))) == base

    def test_degenerate_split_is_logged(self, truth, caplog):
        with caplog.at_level(logging.WARNING, logger="hepeval.metrics"):
            evaluate_case(truth.label_volume, truth.label_volume, case_id="liver")
        messages = [r.getMessage() for r in caplog.records if r.name == "hepeval.metrics"]
        assert [m.split(":")[:2] for m in messages] == [
            ["liver", " degenerate portal_vein split"],
            ["liver", " degenerate hepatic_vein split"],
        ]

    def test_healthy_split_is_not_logged(self, caplog):
        # The H-tree has no hepatic vein: an absent tree is not a degenerate split.
        htree = generate_case(axis_tree_spec(4)).label_volume
        with caplog.at_level(logging.WARNING, logger="hepeval.metrics"):
            evaluate_case(htree, htree, case_id="htree")
        assert [r for r in caplog.records if r.name == "hepeval.metrics"] == []

    def test_absent_truth_tree_logs_one_empty_graph_warning_per_tree(self, caplog):
        # The H-tree has no hepatic vein. A prediction that has 27 hepatic
        # voxels gets them all peripheral from the one split of the tree,
        # over truth and prediction together.
        htree = generate_case(axis_tree_spec(4)).label_volume
        labels = htree.labels.copy()
        assert not labels[:3, :3, :3].any()
        labels[:3, :3, :3] = DEFAULT_SCHEMA.id_of("hepatic_vein")
        pred = LabelVolume(htree.geometry, labels, htree.schema)
        with caplog.at_level(logging.WARNING):
            report = evaluate_case(htree, pred, case_id="htree")
        assert [r.getMessage() for r in caplog.records if r.name == "hepeval.vessel"] == [
            "empty skeleton graph: classifying all 27 vessel voxels as peripheral"
        ]
        assert report.central_dsc["hepatic_vein"] == 1.0 and report.peripheral_dsc["hepatic_vein"] == 0.0

    def test_gallbladder_label_folded_into_biliary_scores_the_same(self, truth, config):
        # The phantom writes the gallbladder as biliary tree (5); give it its
        # own label (6) for the default schema, and drop 6 from the other.
        pred = degrade(truth, DegradeSpec(seed=5, relabel_fraction=0.05))
        geometry = truth.label_volume.geometry
        folded = LabelSchema({i: n for i, n in DEFAULT_SCHEMA.ids.items() if n != "gallbladder"})

        def split(labels):
            out = labels.copy()
            out[(labels == 5) & truth.gallbladder_mask] = 6
            return LabelVolume(geometry, out, DEFAULT_SCHEMA)

        def biliary(report):
            return (
                report.central_dsc["biliary_tree"],
                report.peripheral_dsc["biliary_tree"],
                report.cl_dice["biliary_ducts"],
            )

        labels = truth.label_volume.labels, pred.labels
        separate = evaluate_case(*(split(v) for v in labels), config)
        together = evaluate_case(*(LabelVolume(geometry, v, folded) for v in labels), config)
        assert "gallbladder" in separate.dsc and "gallbladder" not in together.dsc
        assert biliary(separate) == biliary(together)
        assert all(v < 1.0 for v in biliary(together))


def report_of(gt_labels, pred_labels, spacing, config):
    geometry = grid_geometry(gt_labels.shape, spacing)
    return _json_dict(evaluate_case(LabelVolume(geometry, gt_labels), LabelVolume(geometry, pred_labels), config))


def uncropped(monkeypatch):
    """Score every structure on the whole grid: an oracle for the
    per-structure crops, which take their box from `_joint_box`."""
    monkeypatch.setattr(
        hepeval.metrics, "_joint_box", lambda geometry, *boxes: (tuple(slice(0, n) for n in geometry.shape), geometry)
    )


def random_labels(seed):
    """Labels 1..6 on a grid whose foreground touches all six faces."""
    values = face_touching_values(seed, max_side=9)
    ids = np.random.default_rng(seed).integers(1, 7, size=values.shape)
    return np.where(values, ids, 0).astype(np.uint8)


class TestVesselScores:
    """`_vessel_scores` counts each region's DSC on the union's voxels; the
    mask oracle builds the regions and cuts and calls `dsc`. They agree to
    the bit."""

    def test_matches_mask_oracle_on_random_trees(self):
        # random masks around random skeletons, rich in branches and cycles;
        # every tenth pair has an empty prediction and the next an empty
        # truth, and some pairs share part of both regions
        config = EvalConfig()
        two_regions = 0
        for seed in range(100):
            skeleton = random_skeleton_mask(seed)
            rng = np.random.default_rng(seed)
            shape = skeleton.values.shape
            gt = skeleton.values | (rng.random(shape) < rng.uniform(0.0, 0.2))
            pred = (gt & (rng.random(shape) >= rng.uniform(0.0, 0.3))) | (rng.random(shape) < rng.uniform(0.0, 0.3))
            if seed % 10 == 0:
                pred[...] = False
            if seed % 10 == 1:
                gt[...] = False
            gt, pred = (BinaryMask(skeleton.geometry, m) for m in (gt, pred))
            want = reference_vessel_scores(gt, pred, config)
            assert _vessel_scores(gt, pred, config, "case", "portal_vein") == want
            two_regions += 0 < want[0] < 1 and 0 < want[1] < 1
        assert two_regions >= 5

    @pytest.mark.parametrize("spacing", [(0.7, 0.9, 1.3), (0.3, 0.7, 1.1), (0.8, 0.8, 1.25), (0.6, 0.7, 1.9)])
    @pytest.mark.parametrize("tree", ["htree4_portal", "liver_portal"])
    def test_matches_mask_oracle_on_phantom_trees(self, tree, spacing):
        # the truth re-wrapped at non-integer spacings, where exact ties
        # between mirrored skeleton voxels are common; the prediction drops
        # 5 % of it and adds half of its one-voxel rim
        portal = phantom_vessel_masks()[tree].values
        rng = np.random.default_rng(7)
        rim = ndimage.binary_dilation(portal, np.ones((3, 3, 3), bool)) & ~portal
        pred = (portal & (rng.random(portal.shape) >= 0.05)) | (rim & (rng.random(portal.shape) < 0.5))
        geometry = Geometry(portal.shape[::-1], spacing)
        gt, pred = BinaryMask(geometry, portal), BinaryMask(geometry, pred)
        config = EvalConfig()
        assert _vessel_scores(gt, pred, config, "case", "portal_vein") == reference_vessel_scores(gt, pred, config)


class TestJointForegroundCrop:
    """A pair embedded at an offset in a larger zero grid gives the same
    report, with or without each structure's crop to its joint box."""

    @pytest.mark.parametrize("spacing", [(2.0, 2.0, 3.0), (0.7, 0.9, 1.3)])
    def test_liver_pair_report_is_padding_invariant(self, truth, config, spacing, monkeypatch):
        pred = degrade(
            truth,
            DegradeSpec(
                seed=7,
                erode_steps={"portal_vein": 1},
                drop_edge_ids=(2,),
                spurious_blobs=(("tumor", Sphere(center_mm=(170.0, 96.0, 130.0), radius_mm=8.0)),),
                relabel_fraction=0.01,
            ),
        )
        pair = truth.label_volume.labels, pred.labels
        base = report_of(*pair, spacing, config)
        for offset in EMBED_OFFSETS[:3]:
            assert report_of(*(embed(v, offset) for v in pair), spacing, config) == base
        uncropped(monkeypatch)
        assert report_of(*(embed(v, EMBED_OFFSETS[-1]) for v in pair), spacing, config) == base

    def test_htree_pair_report_is_padding_invariant(self, config, monkeypatch):
        # At this spacing mirrored skeleton voxels tie exactly; the split
        # must break each tie the same way wherever the vessel sits.
        truth = generate_case(axis_tree_spec(4))
        pred = degrade(truth, DegradeSpec(seed=1, erode_steps={"portal_vein": 1}, relabel_fraction=0.01))
        pair = truth.label_volume.labels, pred.labels
        base = report_of(*pair, (0.7, 0.9, 1.3), config)
        uncropped(monkeypatch)
        for pad in ((3, 5, 7), (0, 0, 0)):
            padded = [np.pad(v, [(p, 0) for p in pad]) for v in pair]
            assert report_of(*padded, (0.7, 0.9, 1.3), config) == base

    @pytest.mark.parametrize("case", ["far_portal_blob", "truth_only_hepatic_vein"])
    def test_structure_boxes_far_apart_or_one_sided(self, truth, config, case, monkeypatch):
        # A spurious portal blob clear of the tree stretches the portal box
        # over both; a hepatic vein missing from the prediction leaves its
        # box to the truth alone.
        labels = truth.label_volume.labels
        if case == "far_portal_blob":
            blob = Sphere(center_mm=(170.0, 96.0, 130.0), radius_mm=8.0)
            pred = degrade(truth, DegradeSpec(spurious_blobs=(("portal_vein", blob),))).labels
        else:
            pred = np.where(labels == DEFAULT_SCHEMA.id_of("hepatic_vein"), 0, labels).astype(np.uint8)
        base = report_of(labels, pred, (2.0, 2.0, 3.0), config)
        uncropped(monkeypatch)
        assert report_of(labels, pred, (2.0, 2.0, 3.0), config) == base

    def test_each_structure_is_scored_on_its_joint_box(self, truth, config, monkeypatch):
        shapes = {}

        def spy(name):
            real = getattr(hepeval.metrics, name)

            def recorded(*args):
                shapes.setdefault(name, []).extend(a.values.shape for a in args if isinstance(a, BinaryMask))
                return real(*args)

            return recorded

        for name in ("build_graph", "identify_gallbladder", "lesion_match"):
            monkeypatch.setattr(hepeval.metrics, name, spy(name))
        evaluate_case(truth.label_volume, truth.label_volume, config)

        labels = truth.label_volume.labels

        def box_shape(*names):
            index = np.nonzero(np.isin(labels, [DEFAULT_SCHEMA.id_of(n) for n in names]))
            return tuple(int(i.max() - i.min() + 1) for i in index)

        portal, hepatic = box_shape("portal_vein"), box_shape("hepatic_vein")
        assert portal == (43, 27, 6)
        assert shapes == {
            # the skeleton and the truth mask of each tree
            "build_graph": [portal, portal, hepatic, hepatic],
            # the phantom writes the gallbladder as biliary tree
            "identify_gallbladder": [box_shape("biliary_tree", "gallbladder")] * 2,
            "lesion_match": [box_shape("tumor")] * 2,
        }

    @pytest.mark.parametrize("side", ["truth", "prediction", "neither"])
    def test_one_sided_and_empty_pairs(self, config, side, monkeypatch):
        for seed in range(4):
            labels = random_labels(seed)
            zeros = np.zeros_like(labels)
            pair = {"truth": (labels, zeros), "prediction": (zeros, labels), "neither": (zeros, zeros)}[side]
            base = report_of(*pair, (0.7, 0.9, 1.3), config)
            for offset in EMBED_OFFSETS:
                assert report_of(*(embed(v, offset) for v in pair), (0.7, 0.9, 1.3), config) == base
            with monkeypatch.context() as m:
                uncropped(m)
                assert report_of(*(embed(v, EMBED_OFFSETS[1]) for v in pair), (0.7, 0.9, 1.3), config) == base

    def test_joint_box_geometry(self):
        labels = random_labels(3)  # foreground touches every face
        swap_xy = ((0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0))
        whole = Geometry(labels.shape[::-1], (0.7, 0.9, 1.3), origin=(5.0, -2.0, 1.5), orientation=swap_xy)
        grid = tuple(slice(0, n) for n in labels.shape)
        assert bounding_box(labels) == grid
        for boxes in ((grid, grid), (grid, None), (None, grid)):
            assert hepeval.metrics._joint_box(whole, *boxes) == (grid, whole)
        # A structure absent from both volumes is cut to one voxel at the
        # grid's first voxel.
        box, geometry = hepeval.metrics._joint_box(whole, None, None)
        assert box == (slice(0, 1),) * 3 and geometry.dims == (1, 1, 1)
        assert (geometry.spacing, geometry.origin, geometry.orientation) == (whole.spacing, whole.origin, swap_xy)

        offset = (2, 1, 3)
        big_labels = embed(labels, offset)
        big = Geometry(big_labels.shape[::-1], whole.spacing, whole.origin, swap_xy)
        box, geometry = hepeval.metrics._joint_box(big, bounding_box(big_labels), None)
        assert np.array_equal(big_labels[box], labels)
        assert geometry.dims == whole.dims
        assert (geometry.spacing, geometry.orientation) == (whole.spacing, swap_xy)
        assert geometry.origin == tuple(big.position_mm(offset[::-1]))
        # The union of two boxes spans both.
        parts = (slice(2, 3), slice(1, 4), slice(5, 6)), (slice(4, 6), slice(0, 2), slice(3, 4))
        box, geometry = hepeval.metrics._joint_box(big, *parts)
        assert box == (slice(2, 6), slice(0, 4), slice(3, 6))
        assert geometry.origin == tuple(big.position_mm((3, 0, 2)))


@lru_cache(maxsize=None)
def small_truth(kind: str):
    """`default_spec()` on a 64³ grid (dims halved, spacing doubled), with or
    without a gallbladder, or `axis_tree_spec(2 or 3)`; generated once."""
    if kind.startswith("htree"):
        return generate_case(axis_tree_spec(int(kind[-1])))
    spec = default_spec(gallbladder_present=kind == "liver_gallbladder")
    g = spec.geometry
    geometry = dataclasses.replace(g, dims=tuple(d // 2 for d in g.dims), spacing=tuple(2 * s for s in g.spacing))
    return generate_case(dataclasses.replace(spec, geometry=geometry))


@st.composite
def degraded_cases(draw, kinds: tuple[str, ...]):
    """One of `kinds` of `small_truth`, a `DegradeSpec` that mixes erosion,
    dilation, edge drops, a blob and dropout, the pair's spacing (its own
    or a non-integer one, where mirrored skeleton voxels tie), and an
    `EvalConfig` whose split depth and lesion connectivity vary."""
    kind = draw(st.sampled_from(kinds))
    truth = small_truth(kind)
    geometry = truth.label_volume.geometry
    liver = kind.startswith("liver")
    erode, dilate = {}, {}
    for name in ("portal_vein", "hepatic_vein", "biliary_tree", "tumor") if liver else ("portal_vein",):
        steps = draw(st.sampled_from([0, 0, 1, -1]))
        if steps:
            (erode if steps > 0 else dilate)[name] = abs(steps)
    blobs = ()
    if draw(st.booleans()):
        center = tuple(draw(st.floats(0.25 * n * s, 0.75 * n * s)) for n, s in zip(geometry.dims, geometry.spacing))
        structure = draw(st.sampled_from(["tumor", "portal_vein", "biliary_tree"]))
        blobs = ((structure, Sphere(center, draw(st.floats(3.0, 12.0)))),)
    dspec = DegradeSpec(
        seed=draw(st.integers(0, 1000)),
        erode_steps=erode,
        dilate_steps=dilate,
        drop_edge_ids=tuple(draw(st.lists(st.sampled_from([e.edge_id for e in truth.edges]), max_size=2, unique=True))),
        spurious_blobs=blobs,
        relabel_fraction=draw(st.sampled_from([0.0, 0.01, 0.05])),
    )
    spacing = draw(st.sampled_from([geometry.spacing, (3.7, 4.3, 5.9) if liver else (0.7, 0.9, 1.3)]))
    config = EvalConfig(connectivity=draw(st.sampled_from([6, 26])), max_central_generation=draw(st.integers(0, 2)))
    return kind, dspec, spacing, config


class TestReferenceReport:
    """`evaluate_case` against `reference_report`, the plain whole-grid
    pipeline, byte for byte: every crop, shortcut and vectorised count
    must leave the report as it is."""

    def check(self, case):
        kind, dspec, spacing, config = case
        truth = small_truth(kind)
        gt, pred = (
            LabelVolume(Geometry(v.geometry.dims, spacing), v.labels, v.schema)
            for v in (truth.label_volume, degrade(truth, dspec))
        )
        fast, slow = (
            json.dumps(_json_dict(f(gt, pred, config)), sort_keys=True) for f in (evaluate_case, reference_report)
        )
        assert fast == slow

    @settings(max_examples=12, deadline=None)
    @given(case=degraded_cases(("liver_gallbladder", "liver_no_gallbladder")))
    def test_liver_reports_match(self, case):
        self.check(case)

    @settings(max_examples=6, deadline=None)
    @given(case=degraded_cases(("htree2", "htree3")))
    def test_htree_reports_match(self, case):
        self.check(case)


class TestAggregate:
    def _report(self, case_id, tumor_dsc, rate=1.0, fps=0, central_biliary=0.9):
        from hepeval.metrics import CaseFlags, CaseReport, LesionReport

        return CaseReport(
            case_id=case_id,
            dsc={"tumor": tumor_dsc, "parenchyma": 0.95},
            central_dsc={"biliary_tree": central_biliary},
            peripheral_dsc={"biliary_tree": 0.8},
            cl_dice={"portal_vein": 0.88},
            lesions=LesionReport(4, int(4 * rate), rate, fps, (), ()),
            flags=CaseFlags(gallbladder_absent_gt=central_biliary is None, gallbladder_absent_pred=False),
        )

    def test_single_report(self):
        s = aggregate([self._report("a", 0.8)])
        assert s.structures["tumor"].mean == 0.8
        assert s.structures["tumor"].sd == 0.0

    def test_two_values_sample_sd(self):
        s = aggregate([self._report("a", 0.8), self._report("b", 1.0)])
        e = s.structures["tumor"]
        assert e.mean == pytest.approx(0.9)
        assert e.sd == pytest.approx(0.1414, abs=2e-4)
        assert e.median == pytest.approx(0.9)
        assert (e.min, e.max) == (0.8, 1.0)

    def test_structure_absent_everywhere_stays_null(self):
        reports = [
            self._report("a", 0.7, central_biliary=None),
            self._report("b", 0.9, central_biliary=None),
        ]
        s = aggregate(reports)
        assert s.structures["biliary_tree/central"] is None

    def test_detection_aggregates(self):
        s = aggregate([self._report("a", 0.8, rate=0.5, fps=1), self._report("b", 0.9, rate=1.0, fps=3)])
        assert s.tumor_detection.rate_mean == pytest.approx(0.75)
        assert s.tumor_detection.rate_pooled == pytest.approx(0.75)
        assert s.tumor_detection.median_false_positives == 2.0

    def test_empty_raises(self):
        with pytest.raises(ParameterError):
            aggregate([])

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0), min_size=1, max_size=40))
    def test_stats_match_numpy_bit_for_bit(self, values):
        # ties come from the sampled values; every statistic is compared by
        # its float bits
        arr = np.asarray(values, dtype=np.float64)
        e = _stats(values)
        got = [e.mean, e.sd, e.median, e.min, e.max]
        want = [arr.mean(), arr.std(ddof=1) if len(arr) > 1 else 0.0, np.median(arr), arr.min(), arr.max()]
        assert [float(v).hex() for v in got] == [float(v).hex() for v in want] and e.n == len(values)

    def test_csv_rows_have_fixed_columns(self):
        s = aggregate([self._report("a", 0.8)])
        rows = s.to_csv_rows()
        assert rows[0] == ["structure", "mean", "sd", "median", "min", "max"]
        assert all(len(r) == 6 for r in rows)


def exact_mw_oracle(xs, ys):
    """Full permutation enumeration with exact rational arithmetic."""
    pooled = list(xs) + list(ys)
    n1 = len(xs)
    order = sorted(range(len(pooled)), key=lambda i: pooled[i])
    ranks = [0.0] * len(pooled)
    for rank, idx in enumerate(order, start=1):
        ranks[idx] = rank
    u_x = sum(ranks[:n1]) - n1 * (n1 + 1) / 2
    u_min = min(u_x, n1 * len(ys) - u_x)
    count = 0
    total = 0
    for combo in itertools.combinations(range(len(pooled)), n1):
        u = sum(ranks[i] for i in combo) - n1 * (n1 + 1) / 2
        count += u <= u_min
        total += 1
    return u_x, min(1, Fraction(2 * count, total))


class TestMannWhitney:
    def test_two_vs_two(self):
        r = mann_whitney_u([1, 2], [3, 4])
        assert r.U == 0
        assert r.method == "exact"
        assert r.p_two_sided == pytest.approx(2 / 6, abs=1e-12)

    def test_three_vs_three(self):
        r = mann_whitney_u([1, 2, 3], [4, 5, 6])
        assert r.U == 0
        assert r.p_two_sided == pytest.approx(0.1, abs=1e-12)

    def test_identical_samples_give_p_one(self):
        r = mann_whitney_u([1, 2, 3], [1, 2, 3])
        assert r.p_two_sided == 1.0
        assert r.method == "normal_approximation"

    def test_u_sums_to_product(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n1, n2 = rng.integers(1, 8, size=2)
            xs = rng.normal(size=n1).tolist()
            ys = rng.normal(size=n2).tolist()
            r = mann_whitney_u(xs, ys)
            pooled = xs + ys
            order = np.argsort(pooled, kind="stable")
            ranks = np.empty(len(pooled))
            ranks[order] = np.arange(1, len(pooled) + 1)
            u_y = float(ranks[n1:].sum()) - n2 * (n2 + 1) / 2
            assert r.U + u_y == pytest.approx(n1 * n2)

    def test_exact_matches_enumeration_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n1 = int(rng.integers(1, 6))
            n2 = int(rng.integers(1, 11 - n1))
            xs = rng.normal(size=n1).tolist()
            ys = rng.normal(size=n2).tolist()
            r = mann_whitney_u(xs, ys)
            u_o, p_o = exact_mw_oracle(xs, ys)
            assert r.method == "exact"
            assert r.U == pytest.approx(u_o)
            assert abs(r.p_two_sided - float(p_o)) < 1e-9

    def test_large_samples_use_normal_approximation(self):
        rng = np.random.default_rng(2)
        xs = rng.normal(size=18).tolist()
        ys = rng.normal(0.5, size=10).tolist()
        r = mann_whitney_u(xs, ys)
        assert r.method == "normal_approximation"
        assert 0 < r.p_two_sided <= 1.0

    def test_empty_sample_raises(self):
        with pytest.raises(ParameterError):
            mann_whitney_u([], [1.0])

    def test_u_with_ties_counts_won_and_half_the_tied_pairs(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n1, n2 = rng.integers(1, 15, size=2)
            xs = rng.choice([-np.inf, 0.0, 1.0, 2.0, 3.0, np.inf], n1).tolist()
            ys = rng.choice([-np.inf, 0.0, 1.0, 2.0, 3.0, np.inf], n2).tolist()
            want = sum((x > y) + 0.5 * (x == y) for x in xs for y in ys)
            assert mann_whitney_u(xs, ys).U == want

    @pytest.mark.parametrize("xs, ys", [([np.nan, 1.0], [2.0, 3.0]), ([1.0, 2.0], [3.0, np.nan])])
    def test_nan_raises(self, xs, ys):
        # NaN has no rank; ranked above every value, the first pair gave U = 2
        with pytest.raises(ParameterError, match="NaN"):
            mann_whitney_u(xs, ys)

    def test_infinities_rank_at_the_ends(self):
        r = mann_whitney_u([-np.inf, 3.0], [2.0, np.inf])
        assert r.U == 1.0
        assert r.method == "exact"
