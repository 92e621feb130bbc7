"""Response cases on the liver-scale phantom.

Each case degrades the `default_spec()` truth in one known way, or scores
a truth without a gallbladder against it, and checks that the report
fields it touches move in the direction the construction says, by the
amount it gives where it gives one, and that the fields it does not touch
stay put.
"""

import copy

import numpy as np
import pytest
from scipy import ndimage

from hepeval.metrics import LesionRow, evaluate_case
from hepeval.phantom import DegradeSpec, Sphere, default_spec, degrade, generate_case, rasterize_sphere
from hepeval.volume import DEFAULT_SCHEMA, LabelVolume, _json_dict


@pytest.fixture(scope="module")
def truth():
    return generate_case(default_spec())


@pytest.fixture(scope="module")
def perfect(truth):
    return evaluate_case(truth.label_volume, truth.label_volume)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dropout_keeps_the_gallbladder(truth, seed):
    # Relabelling a fraction f of the foreground as background keeps about
    # (1 - f) of each structure, so its DSC is near 2(1 - f)/(2 - f). The
    # voxels dropped inside the gallbladder are enclosed holes: counted as
    # surface, they would sink its sphericity below the threshold and make
    # the case read as a cholecystectomy.
    f = 0.05
    report = evaluate_case(truth.label_volume, degrade(truth, DegradeSpec(seed=seed, relabel_fraction=f)))
    assert not report.flags.gallbladder_absent_gt and not report.flags.gallbladder_absent_pred
    for scores in (report.central_dsc, report.peripheral_dsc):
        assert abs(scores["biliary_tree"] - 2 * (1 - f) / (2 - f)) <= 0.01


def test_spurious_tumour_adds_one_false_positive(truth, perfect):
    labels = truth.label_volume.labels
    geometry = truth.label_volume.geometry
    blob = Sphere(center_mm=(170.0, 96.0, 130.0), radius_mm=8.0)
    inside, box, _ = rasterize_sphere(geometry, blob.center_mm, blob.radius_mm)
    stamped = np.zeros(labels.shape, dtype=bool)
    stamped[box] = inside
    # inside the parenchyma and not 26-adjacent to anything else
    parenchyma, tumour = DEFAULT_SCHEMA.id_of("parenchyma"), DEFAULT_SCHEMA.id_of("tumor")
    assert np.unique(labels[ndimage.binary_dilation(stamped, np.ones((3, 3, 3)))]).tolist() == [parenchyma]

    report = evaluate_case(truth.label_volume, degrade(truth, DegradeSpec(spurious_blobs=(("tumor", blob),))))
    n_blob, n_tumour, n_parenchyma = (
        int(np.count_nonzero(m)) for m in (stamped, labels == tumour, labels == parenchyma)
    )
    lesions = report.lesions
    assert lesions.n_gt == lesions.n_detected == perfect.lesions.n_detected == 2
    assert lesions.lesions == perfect.lesions.lesions
    assert lesions.n_false_positive == perfect.lesions.n_false_positive + 1 == 1
    assert lesions.false_positives[0].volume_mm3 == pytest.approx(n_blob * geometry.voxel_volume_mm3, rel=1e-12)
    assert report.dsc["tumor"] == 2 * n_tumour / (2 * n_tumour + n_blob)
    assert report.dsc["parenchyma"] == 2 * (n_parenchyma - n_blob) / (2 * n_parenchyma - n_blob)
    untouched = {k: v for k, v in report.dsc.items() if k not in ("tumor", "parenchyma")}
    assert untouched == {k: perfect.dsc[k] for k in untouched}
    for field in ("central_dsc", "peripheral_dsc", "cl_dice"):
        assert getattr(report, field) == getattr(perfect, field)
    assert (report.flags.gallbladder_absent_gt, report.flags.gallbladder_absent_pred) == (False, False)


def test_spurious_portal_blob_widens_only_the_portal_scores(truth, perfect):
    # The blob of the tumour case above, stamped as portal vein: the portal
    # box then spans the tree and the blob, the widest structure box of any
    # case here.
    labels = truth.label_volume.labels
    blob = Sphere(center_mm=(170.0, 96.0, 130.0), radius_mm=8.0)
    inside, _, _ = rasterize_sphere(truth.label_volume.geometry, blob.center_mm, blob.radius_mm)
    report = evaluate_case(truth.label_volume, degrade(truth, DegradeSpec(spurious_blobs=(("portal_vein", blob),))))
    n_blob = int(np.count_nonzero(inside))
    n_portal, n_parenchyma = (
        int(np.count_nonzero(labels == DEFAULT_SCHEMA.id_of(name))) for name in ("portal_vein", "parenchyma")
    )
    assert report.dsc["portal_vein"] == 2 * n_portal / (2 * n_portal + n_blob)
    assert report.dsc["parenchyma"] == 2 * (n_parenchyma - n_blob) / (2 * n_parenchyma - n_blob)
    assert report.cl_dice["portal_vein"] < 1.0
    sides = report.central_dsc["portal_vein"], report.peripheral_dsc["portal_vein"]
    assert min(sides) < 1.0 and max(sides) <= 1.0
    assert report.lesions == perfect.lesions
    untouched = {k: v for k, v in report.dsc.items() if k not in ("portal_vein", "parenchyma")}
    assert untouched == {k: perfect.dsc[k] for k in untouched}
    for field in ("central_dsc", "peripheral_dsc", "cl_dice"):
        others = {k: v for k, v in getattr(report, field).items() if k != "portal_vein"}
        assert others == {k: getattr(perfect, field)[k] for k in others}
    assert (report.flags.gallbladder_absent_gt, report.flags.gallbladder_absent_pred) == (False, False)


def test_tumour_erosion_keeps_both_lesions(truth, perfect):
    # Erosion keeps each lesion's core, e of its t voxels, as one component
    # inside it: the lesion is still detected and its best overlap DSC is
    # 2e/(t + e).
    tumour = DEFAULT_SCHEMA.id_of("tumor")
    pred = degrade(truth, DegradeSpec(erode_steps={"tumor": 1}))
    report = evaluate_case(truth.label_volume, pred)
    lesions, n = ndimage.label(truth.label_volume.labels == tumour, np.ones((3, 3, 3)))
    eroded = pred.labels == tumour
    t = np.bincount(lesions.ravel(), minlength=n + 1)[1:]
    e = np.bincount(lesions[eroded], minlength=n + 1)[1:]
    assert n == ndimage.label(eroded, np.ones((3, 3, 3)))[1] == 2 and not (eroded & (lesions == 0)).any()
    assert report.lesions.n_gt == report.lesions.n_detected == 2
    assert report.lesions.n_false_positive == 0
    dscs = [r.best_overlap_dsc for r in report.lesions.lesions]
    assert dscs == [2 * int(ei) / (int(ti) + int(ei)) for ti, ei in zip(t, e)]
    assert [round(v, 3) for v in dscs] == [0.515, 0.322]
    untouched = {k: v for k, v in report.dsc.items() if k != "tumor"}
    assert untouched == {k: perfect.dsc[k] for k in untouched}
    for field in ("central_dsc", "peripheral_dsc", "cl_dice"):
        assert getattr(report, field) == getattr(perfect, field)
    assert (report.flags.gallbladder_absent_gt, report.flags.gallbladder_absent_pred) == (False, False)


@pytest.mark.parametrize("vein, other", [("portal_vein", "hepatic_vein"), ("hepatic_vein", "portal_vein")])
def test_dilated_vein_keeps_its_topology(truth, perfect, vein, other):
    # One dilation step grows the vein by a voxel shell: the truth lies
    # inside the prediction, so its DSC is 2n/(n + m) from the two counts,
    # while the skeleton, and so clDice, stays near the truth's.
    pred = degrade(truth, DegradeSpec(dilate_steps={vein: 1}))
    report = evaluate_case(truth.label_volume, pred)
    vein_id = DEFAULT_SCHEMA.id_of(vein)
    gt_mask, pred_mask = truth.label_volume.labels == vein_id, pred.labels == vein_id
    assert not (gt_mask & ~pred_mask).any()
    n, m = int(np.count_nonzero(gt_mask)), int(np.count_nonzero(pred_mask))
    assert report.dsc[vein] == 2 * n / (n + m)
    assert report.cl_dice[vein] >= 0.98
    # the other vein and the biliary tree in every field, and the lesions
    for field in ("dsc", "central_dsc", "peripheral_dsc", "cl_dice"):
        kept = {k: v for k, v in getattr(perfect, field).items() if k in (other, "biliary_tree")}
        assert {k: getattr(report, field)[k] for k in kept} == kept
    assert other in report.cl_dice and "biliary_tree" in report.central_dsc
    assert report.lesions == perfect.lesions
    assert (report.flags.gallbladder_absent_gt, report.flags.gallbladder_absent_pred) == (False, False)


def without(report, paths):
    """A copy of the report's JSON dict with the dotted `paths` left out."""
    doc = copy.deepcopy(_json_dict(report))
    for path in paths:
        *head, last = path.split(".")
        node = doc
        for key in head:
            node = node[key]
        del node[last]
    return doc


def subset_dsc(inner, outer):
    """DSC of two masks, one inside the other: 2n/(n + m) from the counts."""
    assert not (inner & ~outer).any()
    n, m = int(np.count_nonzero(inner)), int(np.count_nonzero(outer))
    return 2 * n / (n + m)


def test_parenchyma_over_the_gallbladder_reads_it_absent(truth, perfect):
    # A parenchyma blob a little wider than the gallbladder (16 mm) and on
    # its centre erases it from the prediction: the central biliary DSC
    # drops to 0, while the ducts, and so the peripheral DSC and clDice,
    # stay whole.
    labels = truth.label_volume.labels
    blob = Sphere(center_mm=(62.0, 108.0, 116.0), radius_mm=17.5)
    predicted = degrade(truth, DegradeSpec(spurious_blobs=(("parenchyma", blob),)))
    report, pred = evaluate_case(truth.label_volume, predicted), predicted.labels
    parenchyma, biliary = DEFAULT_SCHEMA.id_of("parenchyma"), DEFAULT_SCHEMA.id_of("biliary_tree")
    assert (report.flags.gallbladder_absent_gt, report.flags.gallbladder_absent_pred) == (False, True)
    assert report.central_dsc["biliary_tree"] == 0.0 and report.peripheral_dsc["biliary_tree"] == 1.0
    assert report.dsc["biliary_tree"] == subset_dsc(pred == biliary, labels == biliary)
    assert report.dsc["parenchyma"] == subset_dsc(labels == parenchyma, pred == parenchyma)
    moved = ("dsc.parenchyma", "dsc.biliary_tree", "central_dsc.biliary_tree", "flags.gallbladder_absent_pred")
    assert without(report, moved) == without(perfect, moved)


def test_parenchyma_over_a_tumour_misses_that_lesion(truth, perfect):
    # A parenchyma blob wider than tumour 2 (9 mm) on its centre erases it:
    # one of two lesions is detected, and the missed one keeps its truth
    # volume with a best overlap DSC of 0.
    labels = truth.label_volume.labels
    blob = Sphere(center_mm=(90.0, 150.0, 250.0), radius_mm=10.5)
    predicted = degrade(truth, DegradeSpec(spurious_blobs=(("parenchyma", blob),)))
    report, pred = evaluate_case(truth.label_volume, predicted), predicted.labels
    tumour, parenchyma = DEFAULT_SCHEMA.id_of("tumor"), DEFAULT_SCHEMA.id_of("parenchyma")
    lesions = report.lesions
    assert (lesions.n_gt, lesions.n_detected, lesions.detection_rate, lesions.n_false_positive) == (2, 1, 0.5, 0)
    assert lesions.lesions[0] == perfect.lesions.lesions[0]
    missed = perfect.lesions.lesions[1]
    assert lesions.lesions[1] == LesionRow(missed.id, missed.volume_mm3, False, 0.0)
    assert report.dsc["tumor"] == subset_dsc(pred == tumour, labels == tumour)
    assert report.dsc["parenchyma"] == subset_dsc(labels == parenchyma, pred == parenchyma)
    moved = ("dsc.tumor", "dsc.parenchyma", "lesions.n_detected", "lesions.detection_rate", "lesions.lesions")
    assert without(report, moved) == without(perfect, moved)


def test_cholecystectomy_truth_leaves_biliary_central_out(truth, perfect):
    # Truth without a gallbladder against a prediction with one: the central
    # biliary comparison is left out (null), and the prediction's
    # gallbladder counts against the biliary and parenchyma DSCs only.
    gt = generate_case(default_spec(gallbladder_present=False)).label_volume
    report = evaluate_case(gt, truth.label_volume)
    labels = truth.label_volume.labels
    parenchyma, biliary = DEFAULT_SCHEMA.id_of("parenchyma"), DEFAULT_SCHEMA.id_of("biliary_tree")
    assert (report.flags.gallbladder_absent_gt, report.flags.gallbladder_absent_pred) == (True, False)
    assert report.central_dsc["biliary_tree"] is None
    assert _json_dict(report)["central_dsc"]["biliary_tree"] is None
    assert report.dsc["biliary_tree"] == subset_dsc(gt.labels == biliary, labels == biliary)
    assert report.dsc["parenchyma"] == subset_dsc(labels == parenchyma, gt.labels == parenchyma)
    moved = ("dsc.parenchyma", "dsc.biliary_tree", "central_dsc.biliary_tree", "flags.gallbladder_absent_gt")
    assert without(report, moved) == without(perfect, moved)


def test_dropped_biliary_edge_lowers_duct_scores(truth, perfect):
    # Dropping one generation-2 duct removes a branch from the ducts alone:
    # the biliary DSC, the peripheral (duct) DSC and the duct clDice fall,
    # and the gallbladder comparison stays whole.
    edge = min(e.edge_id for e in truth.edges if e.tree == "biliary_tree" and e.generation == 2)
    predicted = degrade(truth, DegradeSpec(drop_edge_ids=(edge,)))
    report, pred = evaluate_case(truth.label_volume, predicted), predicted.labels
    biliary = DEFAULT_SCHEMA.id_of("biliary_tree")
    assert report.dsc["biliary_tree"] == subset_dsc(pred == biliary, truth.label_volume.labels == biliary) < 1.0
    assert report.peripheral_dsc["biliary_tree"] < 1.0
    assert 0.9 <= report.cl_dice["biliary_ducts"] < 1.0
    moved = ("dsc.biliary_tree", "peripheral_dsc.biliary_tree", "cl_dice.biliary_ducts")
    assert without(report, moved) == without(perfect, moved)


def test_gallbladder_relabelled_moves_only_its_dsc_and_the_biliary_dsc(truth, perfect):
    # The phantom draws its gallbladder as biliary tree (5). A prediction
    # that labels those voxels gallbladder (6) scores 0 on a structure the
    # truth lacks and loses them from the biliary DSC; the split and the
    # flags work on the biliary union, so nothing else moves.
    labels = truth.label_volume.labels
    gallbladder, biliary = DEFAULT_SCHEMA.id_of("gallbladder"), DEFAULT_SCHEMA.id_of("biliary_tree")
    relabelled = np.where(truth.gallbladder_mask, gallbladder, labels)
    pred = LabelVolume(truth.label_volume.geometry, relabelled)
    report = evaluate_case(truth.label_volume, pred)
    assert perfect.dsc["gallbladder"] == 1.0 and report.dsc["gallbladder"] == 0.0
    assert report.dsc["biliary_tree"] == subset_dsc(relabelled == biliary, labels == biliary)
    assert report.dsc["biliary_tree"] == pytest.approx(0.4545, abs=1e-4)
    moved = ("dsc.gallbladder", "dsc.biliary_tree")
    assert without(report, moved) == without(perfect, moved)
