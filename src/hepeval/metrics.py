"""Evaluation protocol: DSC, binary clDice, lesion-wise detection, per-case
reports, aggregation, and the unpaired Mann-Whitney U test.

Each structure is scored on the joint box of its own truth and prediction
masks: the union of its parts' boxes in the two volumes, which
`label_boxes` gives exactly from one shift-and-or pass per volume (bit k
of a group's shifted grid marks one id's voxels, so an or-profile holds
the bit at every plane the id meets); a structure absent from both gets
one voxel at the grid's first voxel. This is exact. Every number reported
for a structure is a count or a ratio of counts from its own two masks,
and both lie inside its box; cropping is a translation, which keeps the
(z, y, x) lexicographic order that component ids, node and edge ids and
the split's smallest-index tie rule follow; pooling, the distance
transform and the face counts already treat the outside of a box as
background; and the nearest-skeleton split computes each distance from
integer index differences alone, which a shift leaves unchanged.

A venous tree's central and peripheral DSC need no region masks: the split
flags each voxel of truth ∪ prediction once, and the six counts that the
two DSCs are made of (each side's central voxels, each side's voxels, and
their shared ones) are read off those flags. `dsc` and the vessel scores
share one `_dice` rule.

`evaluate_case` is one straight run of stage functions that it calls by
name, so a test can swap any of them on this module: `structure_masks`,
`skeletonize`, `build_graph`, `_split_flags`, `_cl_dice_from_skeletons`
(every tree's clDice), `identify_gallbladder` and `lesion_match`.

A report is its dataclasses: `CaseReport`, `LesionReport`, `Summary` and
the records they hold name their fields by their JSON keys, and each one
serialises through `volume._json_dict`, so a key is written once in code
and once in its schema.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ParameterError, SchemaError
from .morphology import connected_components, label_boxes
from .vessel import _split_flags, build_graph, identify_gallbladder, skeletonize
from .volume import (
    VESSEL_STRUCTURES,
    BinaryMask,
    Geometry,
    LabelVolume,
    _check_fields,
    require_same_geometry,
)

log = logging.getLogger(__name__)


def _dice(na: int, nb: int, inter: int) -> float:
    """2 inter / (na + nb) for sets of na and nb voxels sharing inter; 1.0
    when both are empty."""
    if na == 0 and nb == 0:
        return 1.0
    return 2.0 * inter / (na + nb)


def dsc(a: BinaryMask, b: BinaryMask) -> float:
    """Dice similarity coefficient; 1.0 when both masks are empty."""
    require_same_geometry(a, b)
    return _dice(a.popcount(), b.popcount(), int(np.count_nonzero(a.values & b.values)))


def cl_dice_metric(pred: BinaryMask, gt: BinaryMask, iterations: int = 10) -> float:
    """Binary centerline-Dice between prediction and truth masks.

    Harmonic mean of skeleton precision (predicted skeleton inside the truth
    mask) and skeleton recall (truth skeleton inside the prediction). Both
    skeletons empty gives 1.0; exactly one empty gives 0.0.
    """
    require_same_geometry(pred, gt)
    return _cl_dice_from_skeletons(pred, gt, skeletonize(pred, iterations), skeletonize(gt, iterations))


def _cl_dice_from_skeletons(
    pred: BinaryMask, gt: BinaryMask, pred_skel: BinaryMask, gt_skel: BinaryMask
) -> float:
    """`cl_dice_metric` on skeletons the caller already has."""
    skel_p, skel_g = pred_skel.values, gt_skel.values
    np_, ng = int(np.count_nonzero(skel_p)), int(np.count_nonzero(skel_g))
    if np_ == 0 and ng == 0:
        return 1.0
    if np_ == 0 or ng == 0:
        return 0.0
    tprec = int(np.count_nonzero(skel_p & gt.values)) / np_
    tsens = int(np.count_nonzero(skel_g & pred.values)) / ng
    if tprec + tsens == 0.0:
        return 0.0
    return 2.0 * tprec * tsens / (tprec + tsens)


@dataclass(frozen=True)
class LesionRow:
    id: int
    volume_mm3: float
    detected: bool
    best_overlap_dsc: float


@dataclass(frozen=True)
class FalsePositiveRow:
    id: int
    volume_mm3: float


@dataclass(frozen=True)
class LesionReport:
    n_gt: int
    n_detected: int
    detection_rate: float
    n_false_positive: int
    lesions: tuple[LesionRow, ...]
    false_positives: tuple[FalsePositiveRow, ...]


def lesion_match(
    gt_tumors: BinaryMask,
    pred_tumors: BinaryMask,
    connectivity: int = 26,
    min_overlap_voxels: int = 1,
) -> LesionReport:
    """Instance-wise tumor detection.

    A truth lesion counts as detected when some single predicted component
    overlaps it by at least ``min_overlap_voxels``; a predicted component
    overlapping no truth lesion at all is a false positive.
    """
    require_same_geometry(gt_tumors, pred_tumors)
    if min_overlap_voxels < 1:
        raise ParameterError("min_overlap_voxels must be >= 1")
    gt_cc = connected_components(gt_tumors, connectivity)
    pr_cc = connected_components(pred_tumors, connectivity)
    voxvol = gt_tumors.geometry.voxel_volume_mm3

    # Overlap counts: a joint histogram of (gt id, pred id) on the boxes'
    # intersection, the only place both can be nonzero; row/column 0 go unread.
    lo = [max(a.start, b.start) for a, b in zip(gt_cc.box, pr_cc.box)]
    hi = [max(min(a.stop, b.stop), start) for a, b, start in zip(gt_cc.box, pr_cc.box, lo)]
    g, p = (
        cc.labels[tuple(slice(a - s.start, b - s.start) for a, b, s in zip(lo, hi, cc.box))].astype(np.int64)
        for cc in (gt_cc, pr_cc)
    )
    shape = (gt_cc.count + 1, pr_cc.count + 1)
    overlap = np.bincount((g * shape[1] + p).ravel(), minlength=shape[0] * shape[1]).reshape(shape)

    ov = overlap[1:, 1:]
    detected = (ov >= min_overlap_voxels).any(axis=1)
    best_dsc = (2.0 * ov / (gt_cc.sizes[1:, None] + pr_cc.sizes[None, 1:])).max(axis=1, initial=0.0)
    lesions = [
        LesionRow(gid, float(gt_cc.sizes[gid]) * voxvol, bool(hit), float(dsc))
        for gid, hit, dsc in zip(range(1, gt_cc.count + 1), detected, best_dsc)
    ]
    false_positives = [
        FalsePositiveRow(pid, float(pr_cc.sizes[pid]) * voxvol)
        for pid in (np.flatnonzero(~ov.any(axis=0)) + 1).tolist()
    ]
    n_detected = int(detected.sum())

    return LesionReport(
        n_gt=gt_cc.count,
        n_detected=n_detected,
        detection_rate=n_detected / max(gt_cc.count, 1),
        n_false_positive=len(false_positives),
        lesions=tuple(lesions),
        false_positives=tuple(false_positives),
    )


@dataclass(frozen=True)
class EvalConfig:
    """Options for the per-case evaluation protocol."""

    connectivity: int = 26
    skeleton_iterations: int = 10
    min_overlap_voxels: int = 1
    max_central_generation: int = 1
    gallbladder_min_volume_mm3: float = 5000.0
    gallbladder_min_sphericity: float = 0.5

    def __post_init__(self):
        _check_fields(
            self,
            integers=("connectivity", "skeleton_iterations", "min_overlap_voxels", "max_central_generation"),
            reals=("gallbladder_min_volume_mm3", "gallbladder_min_sphericity"),
        )
        if self.connectivity not in (6, 18, 26):
            raise ParameterError(f"connectivity must be 6, 18 or 26, got {self.connectivity}")
        if self.skeleton_iterations < 1 or self.min_overlap_voxels < 1:
            raise ParameterError("skeleton_iterations and min_overlap_voxels must be >= 1")
        if self.max_central_generation < 0 or self.gallbladder_min_volume_mm3 < 0:
            raise ParameterError("max_central_generation and gallbladder_min_volume_mm3 must be >= 0")
        if not 0 <= self.gallbladder_min_sphericity <= 1:
            raise ParameterError("gallbladder_min_sphericity must be in [0, 1]")


@dataclass(frozen=True)
class CaseFlags:
    gallbladder_absent_gt: bool
    gallbladder_absent_pred: bool


@dataclass(frozen=True)
class CaseReport:
    """Per-case evaluation record mirroring the reporting protocol."""

    case_id: str
    dsc: dict[str, float]
    central_dsc: dict[str, float | None]
    peripheral_dsc: dict[str, float | None]
    cl_dice: dict[str, float]
    lesions: LesionReport
    flags: CaseFlags


def _joint_box(geometry: Geometry, *boxes: tuple[slice, ...] | None) -> tuple[tuple[slice, ...], Geometry]:
    """The union of the boxes (None for an absent structure), and the
    geometry of the grid cut to it; one voxel at the grid's first voxel when
    every box is None.

    A cut grid keeps its spacing and orientation; its origin is the position
    of the box's first voxel."""
    boxes = [b for b in boxes if b is not None] or [(slice(0, 1),) * 3]
    box = tuple(slice(min(b[i].start for b in boxes), max(b[i].stop for b in boxes)) for i in range(3))
    first_xyz = [s.start for s in box[::-1]]
    dims = [s.stop - s.start for s in box[::-1]]
    return box, Geometry(dims, geometry.spacing, tuple(geometry.position_mm(first_xyz)), geometry.orientation)


def structure_masks(
    gt: LabelVolume, pred: LabelVolume, boxes: tuple[dict, dict], parts: tuple[str, ...]
) -> tuple[tuple[BinaryMask, BinaryMask], dict[str, float]]:
    """Truth and prediction masks of the union of `parts`, on the `_joint_box`
    of the parts' boxes in both volumes (`boxes` holds each volume's
    `label_boxes`), and each part's DSC there."""
    sids = [gt.schema.id_of(name) for name in parts]
    box, geometry = _joint_box(gt.geometry, *(b[sid] for sid in sids for b in boxes))
    union, part_dsc = None, {}
    for name, sid in zip(parts, sids):
        pair = tuple(BinaryMask(geometry, v.labels[box] == sid) for v in (gt, pred))
        part_dsc[name] = dsc(*pair)
        if union is not None:
            pair = tuple(BinaryMask(geometry, u.values | m.values) for u, m in zip(union, pair))
        union = pair
    return union, part_dsc


def evaluate_case(
    gt: LabelVolume,
    pred: LabelVolume,
    config: EvalConfig = EvalConfig(),
    case_id: str = "case",
) -> CaseReport:
    """Full per-case evaluation.

    Per-structure DSC over the schema; central/peripheral DSC for the venous
    trees using the split derived from the truth mask's skeleton graph and
    applied to both masks; gallbladder/ducts subdivision of the biliary tree
    with the central (gallbladder) comparison skipped for cholecystectomy
    cases; clDice for veins and ducts; lesion-wise tumor detection.

    The stages, called by name in this order (calls per case under the
    default schema): `structure_masks` (5) for the structures no later
    stage reads, then for each vein, the biliary union and the tumour; per
    vein, `skeletonize` of its truth, `build_graph` (2), `_split_flags` (2)
    over truth ∪ prediction, `skeletonize` of its prediction and
    `_cl_dice_from_skeletons`; `identify_gallbladder` (2), the ducts' two
    `skeletonize` (6 in all) and `_cl_dice_from_skeletons` (3 in all);
    `lesion_match` (1).

    A WARNING names a present truth tree whose split leaves a side empty or
    keeps no graph edge, as its region scores then say nothing about two
    regions; an absent truth tree logs the split's "empty skeleton graph".
    """
    require_same_geometry(gt, pred)
    if gt.schema != pred.schema:
        raise SchemaError("ground truth and prediction use different label schemas")
    ids = gt.schema.structure_ids()
    names = list(map(gt.schema.name_of, ids))
    boxes = label_boxes(gt.labels, ids), label_boxes(pred.labels, ids)
    structure_dsc = dict.fromkeys(names)
    central, peripheral, cl = {}, {}, {}
    # A dataset may fold the gallbladder into the biliary tree label; the
    # union is subdivided again by `identify_gallbladder`.
    biliary = ("biliary_tree", "gallbladder") if "gallbladder" in names else ("biliary_tree",)

    # Structures no later stage reads, such as the parenchyma, get their DSC
    # only. They go first, while no other stage's arrays are alive.
    for name in names:
        if name not in (*VESSEL_STRUCTURES, *biliary, "tumor"):
            structure_dsc.update(structure_masks(gt, pred, boxes, (name,))[1])

    for name in VESSEL_STRUCTURES:
        (gt_mask, pred_mask), part_dsc = structure_masks(gt, pred, boxes, (name,))
        structure_dsc.update(part_dsc)
        gt_skel = skeletonize(gt_mask, config.skeleton_iterations)
        graph = build_graph(gt_skel, gt_mask)
        union = BinaryMask(gt_mask.geometry, gt_mask.values | pred_mask.values)
        targets, is_central = _split_flags(graph, union, config.max_central_generation)
        in_gt, in_pred = gt_mask.values.ravel()[targets], pred_mask.values.ravel()[targets]
        in_both = in_gt & in_pred
        counted = in_gt, in_pred, in_both, in_gt & is_central, in_pred & is_central, in_both & is_central
        n_gt, n_pred, n_both, n_central, pred_central, both_central = map(int, map(np.count_nonzero, counted))
        n_peripheral = n_gt - n_central
        if n_gt and (n_central == 0 or n_peripheral == 0 or not graph.edges):
            log.warning(
                "%s: degenerate %s split: %d central and %d peripheral truth voxels, %d kept edge(s)",
                case_id, name, n_central, n_peripheral, len(graph.edges)
            )
        central[name] = _dice(n_central, pred_central, both_central)
        peripheral[name] = _dice(n_peripheral, n_pred - pred_central, n_both - both_central)
        pred_skel = skeletonize(pred_mask, config.skeleton_iterations)
        cl[name] = _cl_dice_from_skeletons(pred_mask, gt_mask, pred_skel, gt_skel)

    (gt_mask, pred_mask), part_dsc = structure_masks(gt, pred, boxes, biliary)
    structure_dsc.update(part_dsc)
    thresholds = config.gallbladder_min_volume_mm3, config.gallbladder_min_sphericity
    gb_gt, ducts_gt = identify_gallbladder(gt_mask, *thresholds)
    gb_pred, ducts_pred = identify_gallbladder(pred_mask, *thresholds)
    flags = CaseFlags(gb_gt.popcount() == 0, gb_pred.popcount() == 0)
    # Cholecystectomy rule: no truth gallbladder means the central biliary
    # comparison is left out of the analysis entirely.
    central["biliary_tree"] = None if flags.gallbladder_absent_gt else dsc(gb_gt, gb_pred)
    peripheral["biliary_tree"] = dsc(ducts_gt, ducts_pred)
    gt_skel = skeletonize(ducts_gt, config.skeleton_iterations)
    pred_skel = skeletonize(ducts_pred, config.skeleton_iterations)
    cl["biliary_ducts"] = _cl_dice_from_skeletons(ducts_pred, ducts_gt, pred_skel, gt_skel)

    (gt_mask, pred_mask), part_dsc = structure_masks(gt, pred, boxes, ("tumor",))
    structure_dsc.update(part_dsc)
    lesions = lesion_match(gt_mask, pred_mask, config.connectivity, config.min_overlap_voxels)

    return CaseReport(
        case_id=case_id,
        dsc=structure_dsc,
        central_dsc=central,
        peripheral_dsc=peripheral,
        cl_dice=cl,
        lesions=lesions,
        flags=flags,
    )


@dataclass(frozen=True)
class SummaryEntry:
    mean: float
    sd: float
    median: float
    min: float
    max: float
    n: int


@dataclass(frozen=True)
class TumorDetection:
    rate_mean: float
    rate_sd: float
    rate_pooled: float
    median_false_positives: float


@dataclass(frozen=True)
class Summary:
    n_cases: int
    structures: dict[str, SummaryEntry | None]
    tumor_detection: TumorDetection

    def to_csv_rows(self) -> list[list]:
        rows = [["structure", "mean", "sd", "median", "min", "max"]]
        for key, e in self.structures.items():
            if e is None:
                rows.append([key, "", "", "", "", ""])
            else:
                rows.append([key, e.mean, e.sd, e.median, e.min, e.max])
        return rows


def _stats(values: list[float]) -> SummaryEntry | None:
    """Mean and sample sd as NumPy reductions; median, min and max from one
    sorted copy, where the median of an even count is the float mean of
    the middle pair, as `np.median` takes it."""
    if not values:
        return None
    arr = np.asarray(values, dtype=np.float64)
    ordered = sorted(arr.tolist())
    n, mid = len(ordered), len(ordered) // 2
    return SummaryEntry(
        mean=float(arr.mean()),
        sd=float(arr.std(ddof=1)) if n > 1 else 0.0,
        median=ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0,
        min=ordered[0],
        max=ordered[-1],
        n=n,
    )


def aggregate(reports: list[CaseReport]) -> Summary:
    """Summarize case reports as mean +- sample sd, median, min, max.

    Entries absent from every case (for example the central biliary DSC when
    all cases lack a gallbladder) stay null instead of 0. Reports are
    aggregated in case-id order.
    """
    if not reports:
        raise ParameterError("aggregate requires at least one case report")
    reports = sorted(reports, key=lambda r: r.case_id)

    columns: dict[str, list[float]] = {}

    def put(key: str, value: float | None):
        columns.setdefault(key, [])
        if value is not None:
            columns[key].append(value)

    for r in reports:
        for name, v in r.dsc.items():
            put(name, v)
        for name, v in r.central_dsc.items():
            put(f"{name}/central", v)
        for name, v in r.peripheral_dsc.items():
            put(f"{name}/peripheral", v)
        for name, v in r.cl_dice.items():
            put(f"{name}/cl_dice", v)

    rates = [r.lesions.detection_rate for r in reports]
    rate_stats = _stats(rates)
    total_gt = sum(r.lesions.n_gt for r in reports)
    total_detected = sum(r.lesions.n_detected for r in reports)
    fp_counts = [r.lesions.n_false_positive for r in reports]
    return Summary(
        n_cases=len(reports),
        structures={key: _stats(vals) for key, vals in columns.items()},
        tumor_detection=TumorDetection(
            rate_mean=rate_stats.mean,
            rate_sd=rate_stats.sd,
            rate_pooled=total_detected / max(total_gt, 1),
            median_false_positives=float(np.median(fp_counts)),
        ),
    )


@dataclass(frozen=True)
class MannWhitneyResult:
    U: float
    p_two_sided: float
    method: str  # "exact" or "normal_approximation"
    tie_correction_applied: bool


EXACT_LIMIT = 12


def mann_whitney_u(xs, ys) -> MannWhitneyResult:
    """Unpaired two-sided Mann-Whitney U test.

    U is the statistic of the first sample, from midrank sums. The p-value is
    exact (full enumeration over label assignments) for tie-free samples with
    n1 + n2 <= 12, otherwise a normal approximation with tie and continuity
    corrections. Two-sided p = min(1, 2 * one-sided). NaN has no rank and
    raises ParameterError; +-inf ranks like any other value.
    """
    xs = [float(v) for v in xs]
    ys = [float(v) for v in ys]
    if not xs or not ys:
        raise ParameterError("both samples must be non-empty")
    n1, n2 = len(xs), len(ys)
    pooled = np.asarray(xs + ys, dtype=np.float64)
    if np.isnan(pooled).any():
        raise ParameterError("samples must not contain NaN")
    # midranks: a run of t equal values ending at rank c takes c - (t - 1) / 2
    _, inverse, tie_counts = np.unique(pooled, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(tie_counts) - (tie_counts - 1) / 2.0)[inverse]
    u_x = float(ranks[:n1].sum()) - n1 * (n1 + 1) / 2.0
    u_y = n1 * n2 - u_x
    u_min = min(u_x, u_y)

    has_ties = len(tie_counts) < len(pooled)
    if not has_ties and n1 + n2 <= EXACT_LIMIT:
        total = math.comb(n1 + n2, n1)
        all_ranks = ranks  # a permutation of 1..n when tie-free
        base = n1 * (n1 + 1) / 2.0
        count = 0
        for combo in combinations(range(n1 + n2), n1):
            u = sum(all_ranks[i] for i in combo) - base
            if u <= u_min:
                count += 1
        p = min(1.0, 2.0 * count / total)
        return MannWhitneyResult(U=u_x, p_two_sided=p, method="exact", tie_correction_applied=False)

    n = n1 + n2
    mu = n1 * n2 / 2.0
    tie_term = float((tie_counts**3 - tie_counts).sum())
    sigma2 = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if sigma2 <= 0:
        return MannWhitneyResult(
            U=u_x, p_two_sided=1.0, method="normal_approximation", tie_correction_applied=True
        )
    z = max(0.0, abs(u_x - mu) - 0.5) / math.sqrt(sigma2)
    p_one = 0.5 * math.erfc(z / math.sqrt(2.0))
    return MannWhitneyResult(
        U=u_x,
        p_two_sided=min(1.0, 2.0 * p_one),
        method="normal_approximation",
        tie_correction_applied=bool(tie_term > 0),
    )
