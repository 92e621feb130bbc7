"""Differentiable 3D morphology, connected components, exact distance transform.

Pooling uses the full 3x3x3 neighborhood with exterior cells contributing 0,
so solid structures erode from the volume border. The box window is separable,
so each pool runs as three 1D passes. The soft skeleton keeps only its stage
inputs and running skeletons; its gradient recomputes each stage's pools with
per-pass winner masks and routes the gradient like an autodiff max-pool. The
per-pass tie rule (in-volume beats exterior, then smallest coordinate)
composes to the global rule: ties go to the smallest linear index, and the
exterior wins, taking no gradient, only on a strict extremum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import ParameterError
from .volume import BinaryMask, Geometry, ProbVolume


def _shifted(axis: int, lo: int, hi: int):
    """Index selecting [lo, n + hi) along `axis` (hi <= 0)."""
    sl = [slice(None)] * 3
    sl[axis] = slice(lo, hi if hi else None)
    return tuple(sl)


def pool_array(values: np.ndarray, mode: str) -> np.ndarray:
    """Box pool; dtype-preserving, used on float and uint8 grids."""
    if mode not in ("min", "max"):
        raise ParameterError(f"mode must be 'min' or 'max', got {mode!r}")
    op = np.minimum if mode == "min" else np.maximum
    cur = np.pad(values, 1)
    for axis in (2, 1, 0):
        a, b, c = (cur[_shifted(axis, s, s - 2)] for s in range(3))
        cur = op(op(a, b), c)
    return cur


def _pool_winners(values: np.ndarray, mode: str):
    """Box pool plus, per 1D pass, masks of the window that won each output.

    A pass's winner is the first in-volume window attaining the extremum. An
    output without one took the exterior 0, and a flag carries that to the
    next pass, where such a 0 loses ties like the exterior itself.
    """
    op = np.minimum if mode == "min" else np.maximum
    cur = values
    inside = np.ones(values.shape, dtype=bool)  # the winner is in the volume
    passes = []
    for axis in (2, 1, 0):
        width = [(0, 0)] * 3
        width[axis] = (1, 1)
        v = np.pad(cur, width)
        f = np.pad(inside, width)
        wins = [_shifted(axis, s, s - 2) for s in range(3)]
        cur = op(op(v[wins[0]], v[wins[1]]), v[wins[2]])
        hit = [(v[w] == cur) & f[w] for w in wins]
        hit[1] &= ~hit[0]
        inside = hit[0] | hit[1]
        hit[2] &= ~inside
        inside |= hit[2]
        passes.append((axis, hit))
    return cur, passes


def _pool_vjp(passes, grad: np.ndarray) -> np.ndarray:
    """Route output gradients to the winning inputs, last pass first."""
    for axis, (prev, centre, nxt) in reversed(passes):
        out = grad * centre
        out[_shifted(axis, 0, -1)] += (grad * prev)[_shifted(axis, 1, 0)]
        out[_shifted(axis, 1, 0)] += (grad * nxt)[_shifted(axis, 0, -1)]
        grad = out
    return grad


def soft_skeleton_array(values: np.ndarray, iterations: int) -> tuple[np.ndarray, list]:
    """Iterative soft skeleton in the input dtype, plus its stages.

    S = relu(I - open(I)); then `iterations` times:
    I = min_pool(I);  S = S + (1 - S) * relu(I - open(I)).
    Stage k's erosion min_pool(I_k) is the next stage input, so it is pooled
    once. Returns ``(S, stages)``, where ``stages`` lists per stage the input
    I_k and the running skeleton before it (None for stage 0). The loop stops
    early once I is all zero, since later stages add nothing.
    """
    if iterations < 1:
        raise ParameterError(f"iterations must be >= 1, got {iterations}")
    stages = []
    current, skel = values, None
    for k in range(iterations + 1):
        eroded = pool_array(current, "min")
        delta = np.maximum(current - pool_array(eroded, "max"), 0)
        stages.append((current, skel))
        skel = delta if skel is None else skel + (1 - skel) * delta
        if k == iterations or not eroded.any():
            break
        current = eroded
    return skel, stages


def soft_skeleton(volume: ProbVolume, iterations: int = 10) -> tuple[ProbVolume, list]:
    skel, stages = soft_skeleton_array(volume.values, iterations)
    return ProbVolume(volume.geometry, np.clip(skel, 0.0, 1.0)), stages


def soft_skeleton_grad(stages: list, grad_skel: np.ndarray) -> np.ndarray:
    """Gradient of the soft skeleton w.r.t. its input, stage by stage in reverse.

    Each stage recomputes its two pools with winner masks. The gradient that
    reaches I_{k+1} from later stages joins the one reaching stage k's eroded
    image before the single min-pool backward.
    """
    grad_s = grad_skel
    grad_next = None  # dL/dI_{k+1} from stages after k
    for current, skel_before in reversed(stages):
        eroded, min_passes = _pool_winners(current, "min")
        opened, max_passes = _pool_winners(eroded, "max")
        resid = current - opened
        if skel_before is None:
            grad_delta = grad_s
        else:
            grad_delta = grad_s * (1 - skel_before)
            grad_s = grad_s * (1 - np.maximum(resid, 0))
        grad_resid = np.where(resid > 0, grad_delta, 0.0)
        grad_eroded = -_pool_vjp(max_passes, grad_resid)
        if grad_next is not None:
            grad_eroded += grad_next
        grad_next = grad_resid + _pool_vjp(min_passes, grad_eroded)
    return grad_next


@dataclass(frozen=True)
class ComponentLabeling:
    """Connected components with ids assigned by first-voxel linear index."""

    geometry: Geometry
    labels: np.ndarray  # int32, 0 = background
    count: int
    sizes: np.ndarray  # voxel count per component, index 0 unused
    bounding_boxes: tuple  # per component: ((x0,x1), (y0,y1), (z0,z1)), exclusive upper


_STRUCTURES = {6: 1, 18: 2, 26: 3}


def connected_components(mask: BinaryMask, connectivity: int = 26) -> ComponentLabeling:
    """Label components under 6/18/26 adjacency, deterministically ordered."""
    if connectivity not in _STRUCTURES:
        raise ParameterError(f"connectivity must be 6, 18 or 26, got {connectivity}")
    structure = ndimage.generate_binary_structure(3, _STRUCTURES[connectivity])
    raw, count = ndimage.label(mask.values, structure=structure)
    raw = raw.astype(np.int32)
    if count == 0:
        return ComponentLabeling(mask.geometry, raw, 0, np.zeros(1, dtype=np.int64), ())

    # Renumber so component ids follow the first-voxel linear order.
    flat = raw.ravel()
    fg = np.flatnonzero(flat)
    ids, firsts = np.unique(flat[fg], return_index=True)
    order = np.argsort(firsts, kind="stable")
    remap = np.zeros(count + 1, dtype=np.int32)
    remap[ids[order]] = np.arange(1, count + 1, dtype=np.int32)
    labels = remap[raw]

    sizes = np.bincount(labels.ravel(), minlength=count + 1).astype(np.int64)
    sizes[0] = 0
    boxes = []
    for sl in ndimage.find_objects(labels):
        zs, ys, xs = sl
        boxes.append(((xs.start, xs.stop), (ys.start, ys.stop), (zs.start, zs.stop)))
    return ComponentLabeling(mask.geometry, labels, count, sizes, tuple(boxes))


def _squared_edt_axis(f: np.ndarray, axis: int, step: float) -> np.ndarray:
    """Exact min over shifts of f + (d * step)^2 along one axis.

    Brute force over offsets with an early cutoff once d^2 step^2 exceeds the
    largest remaining value; exact because every quantity is an exact float.
    """
    out = f.copy()
    moved_f = np.moveaxis(f, axis, 0)
    moved_out = np.moveaxis(out, axis, 0)
    n = moved_f.shape[0]
    w2 = step * step
    for d in range(1, n):
        c = d * d * w2
        if c >= moved_out.max():
            break
        np.minimum(moved_out[d:], moved_f[:-d] + c, out=moved_out[d:])
        np.minimum(moved_out[:-d], moved_f[d:] + c, out=moved_out[:-d])
    return out


def distance_transform_squared(mask: BinaryMask) -> np.ndarray:
    """Exact squared Euclidean distance (mm^2) to the nearest background.

    The exterior counts as background adjacent to the border; background
    voxels map to 0. Separable passes keep all arithmetic exact for rational
    spacings, so squared values can be compared to a brute-force oracle
    bit for bit.
    """
    sx, sy, sz = mask.geometry.spacing
    padded = np.pad(mask.values, 1, constant_values=False)

    # 1D pass along x via nearest-background index arithmetic.
    nz, ny, nx = padded.shape
    pos = np.arange(nx, dtype=np.int64)
    big = nx + 1
    bg = ~padded
    left_src = np.where(bg, pos, -big)
    left = np.maximum.accumulate(left_src, axis=2)
    right_src = np.where(bg, pos, 2 * big)
    right = np.flip(np.minimum.accumulate(np.flip(right_src, axis=2), axis=2), axis=2)
    dist_vox = np.minimum(pos - left, right - pos).astype(np.float64)
    f = (dist_vox * sx) ** 2

    f = _squared_edt_axis(f, axis=1, step=sy)
    f = _squared_edt_axis(f, axis=0, step=sz)
    return np.ascontiguousarray(f[1:-1, 1:-1, 1:-1])


def distance_transform(mask: BinaryMask) -> np.ndarray:
    """Exact Euclidean distance in mm to the nearest background voxel."""
    return np.sqrt(distance_transform_squared(mask))
