from functools import lru_cache

import numpy as np
import pytest

from hepeval.metrics import EvalConfig, cl_dice_metric, dsc
from hepeval.morphology import bounding_box, distance_transform_box
from hepeval.phantom import axis_tree_spec, default_spec, generate_case
from hepeval.vessel import (
    OFFSETS_26,
    SkeletonEdge,
    SkeletonGraph,
    _node_clusters,
    _spanning_forest,
    build_graph,
    classify_central_peripheral,
    skeletonize,
)
from hepeval.volume import BinaryMask, Geometry, ProbVolume, extract_mask


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


def reference_vessel_scores(gt: BinaryMask, pred: BinaryMask, config: EvalConfig) -> tuple[float, float, float]:
    """Mask oracle of `metrics._vessel_scores`: the truth's graph splits
    truth ∪ prediction into two region masks, each region is cut to each
    side, and each region's pair is scored by `dsc`; clDice by
    `cl_dice_metric`."""
    graph = build_graph(skeletonize(gt, config.skeleton_iterations), gt)
    union = BinaryMask(gt.geometry, gt.values | pred.values)
    split = classify_central_peripheral(graph, union, config.central_rule, config.max_central_generation)
    gt_central, gt_peripheral, pred_central, pred_peripheral = (
        BinaryMask(gt.geometry, region.values & m.values)
        for m in (gt, pred)
        for region in (split.central, split.peripheral)
    )
    return (
        dsc(gt_central, pred_central),
        dsc(gt_peripheral, pred_peripheral),
        cl_dice_metric(pred, gt, config.skeleton_iterations),
    )


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
