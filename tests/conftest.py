import struct
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import settings
from scipy import ndimage

from hepeval.errors import FormatError
from hepeval.metrics import (
    CaseFlags,
    CaseReport,
    EvalConfig,
    FalsePositiveRow,
    LesionReport,
    LesionRow,
    cl_dice_metric,
    dsc,
)
from hepeval.morphology import bounding_box, distance_transform_box
from hepeval.nifti import _orthonormalize
from hepeval.phantom import axis_tree_spec, default_spec, generate_case
from hepeval.vessel import (
    OFFSETS_26,
    SkeletonEdge,
    SkeletonGraph,
    VesselRegionSplit,
    _node_clusters,
    _skeleton_central_flags,
    _spanning_forest,
    build_graph,
    classify_central_peripheral,
    skeletonize,
)
from hepeval.volume import VESSEL_STRUCTURES, BinaryMask, Geometry, LabelVolume, ProbVolume, extract_mask

# Every run draws the same examples, from a seed derived from each test, and
# replays none saved by an earlier run: tier-1 is deterministic. Each test's
# own @settings still sets its number of examples.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def unit_geometry():
    return Geometry(dims=(8, 8, 8), spacing=(1.0, 1.0, 1.0))


def random_prob_volume(geometry: Geometry, seed: int, low: float = 0.05, high: float = 0.95) -> ProbVolume:
    """Random prediction with distinct per-voxel values, away from clip bands."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(low, high, size=geometry.shape)
    return ProbVolume(geometry, values)


def random_mask(geometry: Geometry, seed: int, density: float = 0.3) -> BinaryMask:
    rng = np.random.default_rng(seed)
    return BinaryMask(geometry, rng.random(geometry.shape) < density)


def separated_prob_volume(geometry: Geometry, seed: int) -> ProbVolume:
    """Random volume whose values have a guaranteed minimum gap.

    A permutation of an evenly spaced grid keeps every pair of values at
    least ~0.8/N apart, so finite-difference steps cannot cross pooling or
    top-k ties.
    """
    rng = np.random.default_rng(seed)
    n = int(np.prod(geometry.shape))
    values = np.linspace(0.1, 0.9, n)
    rng.shuffle(values)
    return ProbVolume(geometry, values.reshape(geometry.shape))


def face_touching_values(seed: int, max_side: int = 7) -> np.ndarray:
    """Random boolean grid whose foreground touches all six faces, so its
    bounding box is the whole array. The density varies by seed; dense
    grids are tie-heavy for the distance transform."""
    rng = np.random.default_rng(seed)
    shape = tuple(int(n) for n in rng.integers(1, max_side + 1, size=3))
    density = (0.25, 0.6, 0.9)[seed % 3]
    values = rng.random(shape) < density
    for axis, n in enumerate(shape):
        for side in (0, n - 1):
            voxel = [int(rng.integers(0, m)) for m in shape]
            voxel[axis] = side
            values[tuple(voxel)] = True
    return values


# Offsets (z, y, x) into a grid 4 voxels larger per axis: each face of the
# larger grid is touched by at least one of them.
EMBED_MARGIN = 4
EMBED_OFFSETS = ((0, 0, 0), (4, 4, 4), (0, 4, 2), (4, 0, 2), (2, 2, 0), (2, 2, 4), (2, 2, 2))


def embed(values: np.ndarray, offset) -> np.ndarray:
    """`values` placed at `offset` in a zero grid EMBED_MARGIN larger per axis."""
    out = np.zeros(tuple(n + EMBED_MARGIN for n in values.shape), dtype=values.dtype)
    out[tuple(slice(o, o + n) for o, n in zip(offset, values.shape))] = values
    return out


def grid_geometry(shape, spacing=(1.0, 1.0, 1.0)) -> Geometry:
    """Geometry of an array indexed [z, y, x]."""
    nz, ny, nx = shape
    return Geometry(dims=(nx, ny, nz), spacing=spacing)


def random_skeleton_mask(seed: int) -> BinaryMask:
    """Seeded random mask, 4-11 voxels per axis, density 0.05-0.4: used as its
    own skeleton it is rich in pure cycles and chains that close back onto
    their own node."""
    rng = np.random.default_rng(seed)
    shape = tuple(int(n) for n in rng.integers(4, 12, size=3))
    density = rng.uniform(0.05, 0.4)
    return BinaryMask(grid_geometry(shape, (0.8, 1.0, 1.5)), rng.random(shape) < density)


def brute_force_squared_edt(mask: BinaryMask) -> np.ndarray:
    """O(n^2) oracle: padded background ring, exhaustive nearest scan."""
    padded = np.pad(mask.values, 1, constant_values=False)
    spacing = np.asarray(mask.geometry.spacing)
    bg = np.argwhere(~padded).astype(np.float64)
    out = np.zeros(padded.shape)
    for z, y, x in np.argwhere(padded):
        deltas = (bg - [z, y, x]) * spacing[::-1]
        out[z, y, x] = (deltas**2).sum(axis=1).min()
    return out[1:-1, 1:-1, 1:-1]


def separable_squared_edt(mask: BinaryMask) -> np.ndarray:
    """Dense separable oracle of `distance_transform_squared`, in its float order.

    On the whole grid padded by one background voxel: an x pass from the
    nearest background index on each side, then per y and z line the
    minimum over every offset d of f + (d * step)^2, as whole-grid passes
    with a cutoff once d^2 step^2 exceeds the largest value left. It sums
    in the library's order, so it matches bit for bit at any spacing.
    """
    sx, sy, sz = mask.geometry.spacing
    padded = np.pad(mask.values, 1, constant_values=False)
    nx = padded.shape[2]
    pos = np.arange(nx, dtype=np.int64)
    bg = ~padded
    left = np.maximum.accumulate(np.where(bg, pos, -nx - 1), axis=2)
    right = np.flip(np.minimum.accumulate(np.flip(np.where(bg, pos, 2 * nx + 2), axis=2), axis=2), axis=2)
    f = (np.minimum(pos - left, right - pos).astype(np.float64) * sx) ** 2
    for axis, step in ((1, sy), (0, sz)):
        out = f.copy()
        moved_f, moved_out = np.moveaxis(f, axis, 0), np.moveaxis(out, axis, 0)
        w2 = step * step
        for d in range(1, moved_f.shape[0]):
            c = d * d * w2
            if c >= moved_out.max():
                break
            np.minimum(moved_out[d:], moved_f[:-d] + c, out=moved_out[d:])
            np.minimum(moved_out[:-d], moved_f[d:] + c, out=moved_out[:-d])
        f = out
    return f[1:-1, 1:-1, 1:-1]


def reference_graph(skeleton: BinaryMask, vessel_mask: BinaryMask) -> SkeletonGraph:
    """Per-voxel oracle of `build_graph`'s walk, with the library's node
    clusters and forest step.

    Each skeleton voxel gets a Python list of its neighbours in `OFFSETS_26`
    order, from 26 separate gathers. Every node voxel, by node id and then
    voxel, scans its neighbours and walks a chain from each one not yet
    claimed; then a scan of every voxel anchors each pure cycle at its
    smallest unclaimed chain voxel. Edge lengths and radii use the library's
    arrays and reductions, so the graphs match bit for bit.
    """
    geometry, sk = skeleton.geometry, skeleton.values
    if not sk.any():
        return SkeletonGraph(geometry, [], [], [], None)
    box = bounding_box(sk)
    padded = np.pad(sk[box], 1)
    _, py, px = padded.shape
    at = np.flatnonzero(padded)
    slot = np.full(padded.size, -1, dtype=np.intp)
    slot[at] = np.arange(len(at))
    table = np.stack([slot[at + (dz * py + dy) * px + dx] for dz, dy, dx in OFFSETS_26], axis=1)
    nbrs = [[j for j in row if j >= 0] for row in table.tolist()]
    zyx = np.stack(np.unravel_index(at, padded.shape)) + np.array([[s.start - 1] for s in box])
    lin, xyz = np.ravel_multi_index(tuple(zyx), sk.shape), zyx[::-1].T

    node_of = _node_clusters(table).tolist()
    node_members = [[] for _ in range(max(node_of) + 1)]
    for i, node in enumerate(node_of):
        if node >= 0:
            node_members[node].append(i)
    spacing = np.asarray(geometry.spacing)
    dt_box, dt2 = distance_transform_box(vessel_mask)
    dt = np.sqrt(dt2)
    dt_at = xyz[:, ::-1] - [s.start for s in dt_box]
    claimed = [False] * len(lin)
    edges = []

    def walk_chains(node_a, attach_a):
        for first in nbrs[attach_a]:
            if node_of[first] >= 0 or claimed[first]:
                continue
            path = []
            prev, cur = attach_a, first
            while node_of[cur] < 0:
                claimed[cur] = True
                path.append(cur)
                a, b = nbrs[cur]
                prev, cur = cur, (b if a == prev else a)
            walk = [attach_a, *path, cur]
            steps = np.diff(xyz[walk].astype(np.float64), axis=0) * spacing
            edges.append(
                SkeletonEdge(
                    id=len(edges),
                    nodes=(node_a, node_of[cur]),
                    path=lin[path],
                    attach=(int(lin[attach_a]), int(lin[cur])),
                    length_mm=float(np.sqrt((steps**2).sum(axis=1)).sum()),
                    mean_radius_mm=float(dt[tuple(dt_at[walk].T)].mean()),
                )
            )

    for node_id, members in enumerate(node_members):
        for v in members:
            walk_chains(node_id, v)
    for i in range(len(lin)):
        if node_of[i] < 0 and not claimed[i]:
            node_of[i] = len(node_members)
            node_members.append([i])
            claimed[i] = True
            walk_chains(node_of[i], i)
    members = [np.array(m, dtype=np.intp) for m in node_members]
    return _spanning_forest(geometry, lin, xyz, members, edges)


def root_edge(graph: SkeletonGraph) -> SkeletonEdge:
    """The kept edge whose id is the graph's `root_edge_id`."""
    (root,) = (e for e in graph.edges if e.id == graph.root_edge_id)
    return root


def nearest_labels_oracle(geometry, targets, sources, flags):
    """Plain loop over `_nearest_labels`'s documented rule: d² from integer
    index differences, and only a strictly smaller d² replaces the best."""
    sx2, sy2, sz2 = (s * s for s in geometry.spacing)
    src = list(zip(*(a.tolist() for a in np.unravel_index(sources, geometry.shape)), flags.tolist()))
    out = []
    for z, y, x in zip(*(a.tolist() for a in np.unravel_index(targets, geometry.shape))):
        best = None
        for c, b, a, flag in src:
            d2 = ((x - a) * (x - a) * sx2 + (y - b) * (y - b) * sy2) + (z - c) * (z - c) * sz2
            if best is None or d2 < best:
                best, best_flag = d2, flag
        out.append(best_flag)
    return np.array(out, dtype=bool)


def region_scores(gt: BinaryMask, pred: BinaryMask, split: VesselRegionSplit) -> tuple[float, float]:
    """Central and peripheral DSC: each region of a split of truth ∪
    prediction is cut to each side, and each region's pair is scored by `dsc`."""
    gt_central, gt_peripheral, pred_central, pred_peripheral = (
        BinaryMask(gt.geometry, region.values & m.values)
        for m in (gt, pred)
        for region in (split.central, split.peripheral)
    )
    return dsc(gt_central, pred_central), dsc(gt_peripheral, pred_peripheral)


def reference_vessel_scores(gt: BinaryMask, pred: BinaryMask, config: EvalConfig) -> tuple[float, float, float]:
    """Mask oracle of a vein's `central_dsc`, `peripheral_dsc` and `cl_dice`
    in `evaluate_case`: the truth's graph splits truth ∪ prediction into two
    region masks (`region_scores`); clDice by `cl_dice_metric`."""
    graph = build_graph(skeletonize(gt, config.skeleton_iterations), gt)
    union = BinaryMask(gt.geometry, gt.values | pred.values)
    split = classify_central_peripheral(graph, union, config.max_central_generation)
    return (*region_scores(gt, pred, split), cl_dice_metric(pred, gt, config.skeleton_iterations))


def reference_split(graph: SkeletonGraph, mask: BinaryMask, max_generation: int) -> VesselRegionSplit:
    """Oracle of `classify_central_peripheral`: every mask voxel takes the
    flag of its nearest skeleton voxel from `nearest_labels_oracle`, also
    when every skeleton voxel carries one flag; no skeleton voxel leaves
    every voxel peripheral."""
    targets = np.flatnonzero(mask.values)
    sources, flags = _skeleton_central_flags(graph, max_generation)
    central = np.zeros(mask.values.shape, dtype=bool)
    if len(sources):
        central.ravel()[targets[nearest_labels_oracle(mask.geometry, targets, sources, flags)]] = True
    return VesselRegionSplit(BinaryMask(mask.geometry, central), BinaryMask(mask.geometry, mask.values & ~central))


@lru_cache(maxsize=1)
def phantom_vessel_masks() -> dict[str, BinaryMask]:
    """The `default_spec()` portal and hepatic vein masks and the
    `axis_tree_spec(3)` and `axis_tree_spec(4)` portal masks, generated once
    and shared: callers must not modify them."""
    liver = generate_case(default_spec()).label_volume
    masks = {"liver_portal": extract_mask(liver, 3), "liver_hepatic": extract_mask(liver, 4)}
    for levels in (3, 4):
        masks[f"htree{levels}_portal"] = extract_mask(generate_case(axis_tree_spec(levels)).label_volume, 3)
    return masks


def noisy_tube(mask: BinaryMask, seed: int) -> np.ndarray:
    """A softsign squashing, 0.5 + 0.5 z / (1 + |z|), of +-2 logits plus
    Gaussian noise on a tube mask: inside (0, 1) without clipping, so no two
    values tie, nor any with the exterior. It takes only basic IEEE
    operations, so its bytes are the same on every machine; `np.exp` is not
    (its AVX-512 and AVX2 kernels differ in the last bit)."""
    rng = np.random.default_rng(seed)
    z = np.where(mask.values, 2.0, -2.0) + rng.normal(0.0, 0.5, mask.values.shape)
    return 0.5 + 0.5 * z / (1.0 + np.abs(z))


def reference_candidates(biliary_mask: BinaryMask) -> list[tuple[float, float, tuple[slice, ...], np.ndarray]]:
    """(volume mm³, sphericity, box, crop) of every 26-connected component of
    a biliary mask, in label order. Every component is hole-filled, then its
    exposed faces are counted from the differences of the filled crop padded
    by background, and the area is summed in `vessel`'s float order."""
    geometry = biliary_mask.geometry
    sx, sy, sz = geometry.spacing
    labels, _ = ndimage.label(biliary_mask.values, structure=np.ones((3, 3, 3), dtype=bool))
    out = []
    for cid, box in enumerate(ndimage.find_objects(labels), start=1):
        crop = labels[box] == cid
        volume = float(np.count_nonzero(crop)) * geometry.voxel_volume_mm3
        filled = np.pad(ndimage.binary_fill_holes(crop), 1).astype(np.int8)
        area = 0.0
        for axis, face_area in enumerate((sx * sy, sx * sz, sy * sz)):  # faces normal to z, y, x
            area += float(np.abs(np.diff(filled, axis=axis)).sum()) * face_area
        out.append((volume, np.pi ** (1 / 3) * (6.0 * volume) ** (2 / 3) / area, box, crop))
    return out


def reference_gallbladder(
    biliary_mask: BinaryMask, min_volume_mm3: float, min_sphericity: float
) -> tuple[BinaryMask, BinaryMask]:
    """Oracle of `identify_gallbladder`: every candidate is filled and scored
    (`reference_candidates`). The first component of largest volume times
    sphericity among those at or above both thresholds is the gallbladder;
    the rest of the mask is ducts."""
    geometry = biliary_mask.geometry
    gb = np.zeros(geometry.shape, dtype=bool)
    best = None
    for volume, sphericity, box, crop in reference_candidates(biliary_mask):
        if volume >= min_volume_mm3 and sphericity >= min_sphericity:
            if best is None or volume * sphericity > best[0]:
                best = (volume * sphericity, box, crop)
    if best is not None:
        gb[best[1]] = best[2]
    return BinaryMask(geometry, gb), BinaryMask(geometry, biliary_mask.values & ~gb)


def reference_lesions(gt: BinaryMask, pred: BinaryMask, config: EvalConfig) -> LesionReport:
    """Whole-grid oracle of `lesion_match`: `ndimage.label` on each grid,
    sizes and the overlap histogram from `np.bincount` over every voxel,
    and each row scored in a plain loop."""
    structure = ndimage.generate_binary_structure(3, {6: 1, 18: 2, 26: 3}[config.connectivity])
    (g, n_gt), (p, n_pred) = (ndimage.label(m.values, structure=structure) for m in (gt, pred))
    gt_sizes, pred_sizes = (np.bincount(a.ravel(), minlength=n + 1).tolist() for a, n in ((g, n_gt), (p, n_pred)))
    overlap = np.bincount(
        (g.astype(np.int64) * (n_pred + 1) + p).ravel(), minlength=(n_gt + 1) * (n_pred + 1)
    ).reshape(n_gt + 1, n_pred + 1).tolist()
    voxvol = gt.geometry.voxel_volume_mm3
    lesions = []
    for i in range(1, n_gt + 1):
        hit = any(overlap[i][j] >= config.min_overlap_voxels for j in range(1, n_pred + 1))
        best = max((2.0 * overlap[i][j] / (gt_sizes[i] + pred_sizes[j]) for j in range(1, n_pred + 1)), default=0.0)
        lesions.append(LesionRow(i, float(gt_sizes[i]) * voxvol, hit, best))
    false_positives = tuple(
        FalsePositiveRow(j, float(pred_sizes[j]) * voxvol)
        for j in range(1, n_pred + 1)
        if not any(overlap[i][j] for i in range(1, n_gt + 1))
    )
    n_detected = sum(row.detected for row in lesions)
    n_false = len(false_positives)
    return LesionReport(n_gt, n_detected, n_detected / max(n_gt, 1), n_false, tuple(lesions), false_positives)


def reference_report(gt: LabelVolume, pred: LabelVolume, config: EvalConfig) -> CaseReport:
    """Whole-grid oracle of `evaluate_case`, with no crop anywhere: every
    structure's masks from `extract_mask`, scored by `dsc`; each vein's
    truth graph from `reference_graph` and its split from `reference_split`;
    the biliary union split by `reference_gallbladder`; lesion rows from
    `reference_lesions`. Its case id is `evaluate_case`'s default."""
    schema = gt.schema
    names = [schema.name_of(sid) for sid in schema.structure_ids()]
    masks = {name: tuple(extract_mask(v, schema.id_of(name)) for v in (gt, pred)) for name in names}
    central, peripheral, cl = {}, {}, {}
    for name in VESSEL_STRUCTURES:
        g, p = masks[name]
        graph = reference_graph(skeletonize(g, config.skeleton_iterations), g)
        split = reference_split(graph, BinaryMask(g.geometry, g.values | p.values), config.max_central_generation)
        central[name], peripheral[name] = region_scores(g, p, split)
        cl[name] = cl_dice_metric(p, g, config.skeleton_iterations)
    biliary = [masks[name] for name in ("biliary_tree", "gallbladder") if name in masks]
    (gb_gt, ducts_gt), (gb_pred, ducts_pred) = (
        reference_gallbladder(
            BinaryMask(gt.geometry, np.logical_or.reduce([pair[side].values for pair in biliary])),
            config.gallbladder_min_volume_mm3,
            config.gallbladder_min_sphericity,
        )
        for side in (0, 1)
    )
    flags = CaseFlags(gb_gt.popcount() == 0, gb_pred.popcount() == 0)
    central["biliary_tree"] = None if flags.gallbladder_absent_gt else dsc(gb_gt, gb_pred)
    peripheral["biliary_tree"] = dsc(ducts_gt, ducts_pred)
    cl["biliary_ducts"] = cl_dice_metric(ducts_pred, ducts_gt, config.skeleton_iterations)
    return CaseReport(
        case_id="case",
        dsc={name: dsc(*masks[name]) for name in names},
        central_dsc=central,
        peripheral_dsc=peripheral,
        cl_dice=cl,
        lesions=reference_lesions(*masks["tumor"], config),
        flags=flags,
    )


def reference_quaternion_rotation(b: float, c: float, d: float, qfac: float) -> np.ndarray:
    """The qform rotation as a NumPy matrix; a negative qfac negates the
    third column in place."""
    a = np.sqrt(max(1.0 - (b * b + c * c + d * d), 0.0))
    r = np.array(
        [
            [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
            [2 * (b * c + a * d), a * a + c * c - b * b - d * d, 2 * (c * d - a * b)],
            [2 * (b * d - a * c), 2 * (c * d + a * b), a * a + d * d - b * b - c * c],
        ]
    )
    if qfac < 0:
        r[:, 2] *= -1.0
    return r


def reference_geometry(hdr: dict) -> Geometry:
    """Oracle of `nifti._geometry_from_header` for a header with finite
    transform fields, from NumPy matrices: each sform column divided by its
    `np.linalg.norm(axis=0)`, or the qform's `reference_quaternion_rotation`,
    then the library's `_orthonormalize`."""
    dims = tuple(int(d) for d in hdr["dim"][1:4])
    spacing = tuple(abs(float(s)) for s in hdr["pixdim"][1:4])
    origin, orientation = (0.0, 0.0, 0.0), np.eye(3)
    if hdr["sform_code"] > 0:
        rows = np.array([hdr["srow_x"], hdr["srow_y"], hdr["srow_z"]], dtype=np.float64)
        origin, cols = tuple(float(v) for v in rows[:, 3]), rows[:, :3]
        norms = np.linalg.norm(cols, axis=0)
        if (norms == 0).any():
            raise FormatError("sform (srow_x, srow_y, srow_z) has a zero-length column")
        orientation = _orthonormalize(cols / norms, "sform (srow_x, srow_y, srow_z)")
    elif hdr["qform_code"] > 0:
        qfac = float(hdr["pixdim"][0]) if hdr["pixdim"][0] != 0 else 1.0
        rotation = reference_quaternion_rotation(hdr["quatern_b"], hdr["quatern_c"], hdr["quatern_d"], qfac)
        orientation = _orthonormalize(rotation, "qform (quatern_b, quatern_c, quatern_d)")
        origin = (float(hdr["qoffset_x"]), float(hdr["qoffset_y"]), float(hdr["qoffset_z"]))
    return Geometry(dims=dims, spacing=spacing, origin=origin, orientation=orientation)


def reference_header_bytes(geometry: Geometry) -> bytes:
    """The 348 header bytes of a uint8 file of `geometry`, packed field by
    field at their NIfTI-1 offsets. The srows are the orientation as a NumPy
    array times the spacing with the origin joined on by `np.concatenate`."""
    affine = np.asarray(geometry.orientation) * np.array(geometry.spacing)
    srow = np.concatenate([affine, np.array(geometry.origin).reshape(3, 1)], axis=1)
    raw = bytearray(348)
    struct.pack_into("<i", raw, 0, 348)  # sizeof_hdr
    raw[38:39] = b"r"  # regular
    struct.pack_into("<8h", raw, 40, 3, *geometry.dims, 1, 1, 1, 1)  # dim
    struct.pack_into("<2h", raw, 70, 2, 8)  # datatype uint8, bitpix
    struct.pack_into("<8f", raw, 76, 1.0, *geometry.spacing, 0.0, 0.0, 0.0, 0.0)  # pixdim
    struct.pack_into("<2f", raw, 108, 352.0, 1.0)  # vox_offset, scl_slope
    raw[123] = 2  # xyzt_units: mm
    raw[148:155] = b"hepeval"  # descrip
    struct.pack_into("<h", raw, 254, 1)  # sform_code
    struct.pack_into("<12f", raw, 280, *srow.ravel().tolist())  # srow_x, srow_y, srow_z
    raw[344:348] = b"n+1\x00"
    return bytes(raw)
