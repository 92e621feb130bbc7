"""Differentiable 3D morphology, connected components, exact distance transform.

Pooling uses the full 3x3x3 neighborhood with exterior cells contributing 0,
so solid structures erode from the volume border. The box window is separable,
so each pool runs as three 1D passes.

The soft skeleton's gradient is checkpointed (Chen et al. 2016, "Training
Deep Nets with Sublinear Memory Cost"). The forward keeps references to the
stage input I_k and the running skeleton S_{k-1} every
ceil(sqrt(iterations + 1)) stages, and the backward replays one segment at
a time from its checkpoint. The replay is exact: it repeats the forward's
arithmetic in the same order on the same inputs, and the winner-recording
pool returns the same values as `pool_array`, so every replayed array is
bit-identical to the forward's. The replay records one uint8 winner code
per pooled voxel, the winner's 3-D offset, and the pool's backward is one
`np.bincount` scatter through it, like an autodiff max-pool. The per-pass
tie rule (in-volume beats exterior, then smallest coordinate) composes to
the global rule: ties go to the smallest linear index, and the exterior
wins, taking no gradient, only on a strict extremum.

Connected components and the distance transform run on the bounding box of
the mask's foreground. Components keep their labels on that box only, with
the box beside them: labelling is exact there because every component lies
inside it, and translation keeps the first-voxel linear order that numbers
them. The distance transform likewise returns its distances on the box
(`distance_transform_box`; the full-grid forms embed them in zeros), and it
pads the box with one background voxel: clamping any background voxel's
coordinates onto the padded box lands on background and never increases a
per-axis distance, and the separable passes are monotone in each per-axis
distance, so the minimum, rounding included, is unchanged.
"""

from __future__ import annotations

import math
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
        cur = op(a, b)
        op(cur, c, out=cur)
    return cur


_EXTERIOR = 27  # winner code of an output that only the exterior attains


def _pool_winners(values: np.ndarray, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Box pool plus each output's winner code.

    The code is one uint8 per voxel: the winner's offset
    9(dz+1) + 3(dy+1) + (dx+1), or 27 where only the exterior attains the
    extremum. It is built pass by pass like the pool: a pass's winner is the
    first in-volume window attaining the extremum, and its code is the
    window's code plus the window's offset times the pass stride. The padding
    and any output that took the exterior 0 carry code 27, so they lose ties
    like the exterior itself. Writing windows last-first with the wrapping
    uint8 blend ``code += hit * (candidate - code)`` leaves the first hit.
    """
    op = np.minimum if mode == "min" else np.maximum
    cur = np.pad(values, 1)
    code = np.pad(np.zeros(values.shape, dtype=np.uint8), 1, constant_values=_EXTERIOR)
    for axis, stride in ((2, 1), (1, 3), (0, 9)):
        wins = [_shifted(axis, s, s - 2) for s in range(3)]
        pooled = op(cur[wins[0]], cur[wins[1]])
        op(pooled, cur[wins[2]], out=pooled)
        blended = np.full(pooled.shape, _EXTERIOR, dtype=np.uint8)
        for s in (2, 1, 0):
            hit = cur[wins[s]] == pooled
            hit &= code[wins[s]] != _EXTERIOR
            candidate = code[wins[s]] + np.uint8(s * stride)
            candidate -= blended
            candidate *= hit
            blended += candidate
        cur, code = pooled, blended
    return cur, code


def _pool_vjp(code: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Send each output's gradient to its winner in one `np.bincount` scatter.

    Outputs with code 27 go to a spare last bin that is dropped, so the
    exterior takes no gradient.
    """
    nz, ny, nx = code.shape
    c = np.arange(_EXTERIOR)
    offsets = np.append((c // 9 - 1) * (ny * nx) + (c // 3 % 3 - 1) * nx + (c % 3 - 1), 0)
    target = offsets[code.ravel()]
    target += np.arange(code.size)
    target[code.ravel() == _EXTERIOR] = code.size
    return np.bincount(target, grad.ravel(), minlength=code.size + 1)[:-1].reshape(code.shape)


def soft_skeleton_array(values: np.ndarray, iterations: int) -> tuple[np.ndarray, tuple]:
    """Iterative soft skeleton in the input dtype, plus its checkpoints.

    S = relu(I - open(I)); then `iterations` times:
    I = min_pool(I);  S = S + (1 - S) * relu(I - open(I)).
    Stage k's erosion min_pool(I_k) is the next stage input, so it is pooled
    once. The loop stops early once I is all zero, since later stages add
    nothing. Returns ``(S, (checkpoints, stages))``: ``checkpoints`` lists
    ``(k, I_k, S_{k-1})`` every ceil(sqrt(iterations + 1)) stages from k = 0
    (S_{-1} is None), as references to the arrays the loop built, and
    ``stages`` counts the stages run. S is updated in place except when a
    checkpoint holds it.
    """
    if iterations < 1:
        raise ParameterError(f"iterations must be >= 1, got {iterations}")
    spacing = math.isqrt(iterations) + 1  # ceil(sqrt(iterations + 1))
    checkpoints = []
    current, skel = values, None
    for k in range(iterations + 1):
        held = k % spacing == 0  # a checkpoint holds I_k and S_{k-1}
        if held:
            checkpoints.append((k, current, skel))
        eroded = pool_array(current, "min")
        delta = pool_array(eroded, "max")
        np.subtract(current, delta, out=delta)
        np.maximum(delta, 0, out=delta)
        if skel is None:
            skel = delta
        elif held:
            skel = skel + (1 - skel) * delta
        else:
            delta *= 1 - skel
            skel += delta
        if k == iterations or not eroded.any():
            break
        current = eroded
    return skel, (checkpoints, k + 1)


def soft_skeleton(volume: ProbVolume, iterations: int = 10) -> tuple[ProbVolume, tuple]:
    skel, checkpoints = soft_skeleton_array(volume.values, iterations)
    return ProbVolume(volume.geometry, np.clip(skel, 0.0, 1.0)), checkpoints


def _replay_segment(checkpoint: tuple, stages: int) -> list:
    """Rerun `stages` forward stages from a checkpoint with winner-recording
    pools: per stage (S before it, delta, min-pool code, max-pool code).

    Holds no reference to the checkpoint itself, so its stage input is
    freed once the replay has moved past it.
    """
    _, current, skel = checkpoint
    del checkpoint
    segment = []
    for j in range(stages):
        eroded, min_code = _pool_winners(current, "min")
        delta, max_code = _pool_winners(eroded, "max")
        np.subtract(current, delta, out=delta)
        np.maximum(delta, 0, out=delta)
        segment.append((skel, delta, min_code, max_code))
        if j + 1 < stages:
            skel = delta if skel is None else (1 - skel) * delta + skel
            current = eroded
    return segment


def soft_skeleton_grad(checkpoints: tuple, grad_skel: np.ndarray) -> np.ndarray:
    """Gradient of the soft skeleton w.r.t. its input.

    Walks the checkpoint segments last-first. Each segment is replayed once
    from its checkpoint, keeping per stage its delta and pool winner codes,
    and its stages then run in reverse. Every pool is computed twice in
    all, once forward and once here, and one segment is alive at a time.
    The gradient that reaches I_{k+1} from later stages joins the one
    reaching stage k's eroded image before the single min-pool backward.
    The checkpoint list is consumed: each checkpoint is dropped once its
    segment is replayed, so its arrays can be freed. `grad_skel` is not
    modified.
    """
    saved, stages = checkpoints
    grad_s = grad_skel
    grad_next = None  # dL/dI_{k+1} from stages after k
    end = stages
    while saved:
        start = saved[-1][0]
        segment = _replay_segment(saved.pop(), end - start)
        end = start
        while segment:
            skel_before, delta, min_code, max_code = segment.pop()
            positive = delta > 0
            if skel_before is None:
                grad_resid = grad_s * positive
            else:
                grad_resid = 1 - skel_before
                grad_resid *= grad_s
                grad_resid *= positive
                np.subtract(1, delta, out=delta)
                delta *= grad_s
                grad_s = delta
            del skel_before, delta, positive  # drop what is read before the VJPs allocate
            grad_eroded = _pool_vjp(max_code, grad_resid)
            np.negative(grad_eroded, out=grad_eroded)
            if grad_next is not None:
                grad_eroded += grad_next
            grad_next = _pool_vjp(min_code, grad_eroded)
            grad_next += grad_resid
            del grad_eroded, grad_resid
    return grad_next


@dataclass(frozen=True)
class ComponentLabeling:
    """Connected components with ids assigned by first-voxel linear index."""

    geometry: Geometry
    box: tuple[slice, ...]  # (z, y, x) slices of the foreground's bounding box; size 0 when empty
    labels: np.ndarray  # int32 over `box` only, 0 = background
    count: int
    sizes: np.ndarray  # voxel count per component, index 0 unused
    bounding_boxes: tuple  # per component: (z, y, x) slices into `labels`, from ndimage.find_objects


_STRUCTURES = {6: 1, 18: 2, 26: 3}


def bounding_box(values: np.ndarray) -> tuple[slice, ...] | None:
    """Slices (z, y, x) of the smallest box holding every nonzero voxel.

    Returns None when there is no nonzero voxel. Each axis is found on the
    slab already cut to the earlier axes' extent.
    """
    box: tuple[slice, ...] = ()
    for axis in range(values.ndim):
        others = tuple(a for a in range(values.ndim) if a != axis)
        hit = np.flatnonzero(values[box].any(axis=others))
        if hit.size == 0:
            return None
        box += (slice(int(hit[0]), int(hit[-1]) + 1),)
    return box


def connected_components(mask: BinaryMask, connectivity: int = 26) -> ComponentLabeling:
    """Label components under 6/18/26 adjacency, deterministically ordered."""
    if connectivity not in _STRUCTURES:
        raise ParameterError(f"connectivity must be 6, 18 or 26, got {connectivity}")
    structure = ndimage.generate_binary_structure(3, _STRUCTURES[connectivity])
    box = bounding_box(mask.values) or (slice(0, 0),) * 3
    raw, count = ndimage.label(mask.values[box], structure=structure)

    # Renumber so component ids follow the first-voxel linear order.
    flat = raw.ravel()
    fg = np.flatnonzero(flat)
    _, firsts = np.unique(flat[fg], return_index=True)  # raw ids are 1..count
    remap = np.zeros(count + 1, dtype=np.int32)
    remap[1 + np.argsort(firsts, kind="stable")] = np.arange(1, count + 1, dtype=np.int32)
    labels = remap[raw]

    sizes = np.bincount(labels.ravel(), minlength=count + 1).astype(np.int64)
    sizes[0] = 0
    boxes = tuple(ndimage.find_objects(labels)) if count else ()
    return ComponentLabeling(mask.geometry, box, labels, count, sizes, boxes)


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


def distance_transform_box(mask: BinaryMask, squared: bool = False) -> tuple[tuple[slice, ...], np.ndarray]:
    """Exact distances on the mask's bounding box, and that box.

    Returns ``(box, dist)``: `box` is the foreground's (z, y, x) bounding box
    (zero-size slices when empty) and `dist` the distances over it, in mm,
    or mm^2 when `squared`. Every voxel outside the box is background, at
    distance 0.
    """
    sx, sy, sz = mask.geometry.spacing
    box = bounding_box(mask.values)
    if box is None:
        return (slice(0, 0),) * 3, np.zeros((0, 0, 0))
    padded = np.pad(mask.values[box], 1, constant_values=False)

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
    f = _squared_edt_axis(f, axis=0, step=sz)[1:-1, 1:-1, 1:-1]
    return box, f if squared else np.sqrt(f)


def _edt_grid(mask: BinaryMask, squared: bool) -> np.ndarray:
    """`distance_transform_box` written into a zeroed full-size grid."""
    box, dist = distance_transform_box(mask, squared)
    out = np.zeros(mask.values.shape, dtype=np.float64)
    out[box] = dist
    return out


def distance_transform_squared(mask: BinaryMask) -> np.ndarray:
    """Exact squared Euclidean distance (mm^2) to the nearest background.

    The exterior counts as background adjacent to the border; background
    voxels map to 0. Separable passes keep all arithmetic exact for rational
    spacings, so squared values can be compared to a brute-force oracle
    bit for bit. The passes run on the mask's bounding box padded by one
    background voxel, which is exact: see the module docstring.
    """
    return _edt_grid(mask, squared=True)


def distance_transform(mask: BinaryMask) -> np.ndarray:
    """Exact Euclidean distance in mm to the nearest background voxel."""
    return _edt_grid(mask, squared=False)
