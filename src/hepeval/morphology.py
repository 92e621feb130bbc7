"""Differentiable 3D morphology, connected components, exact distance transform.

Pooling uses the full 3x3x3 neighborhood with exterior cells contributing 0,
so solid structures erode from the volume border. The box window is separable,
so each pool runs as three 1D passes.

The soft skeleton takes probabilities: float64 values in [0, 1], which
the exterior 0 lies at or below. It records where every value came from.
Min and max over a box are separable under any total order, so the same
`pool_array` pools int32 keys that order the values strictly: the n voxels
and the exterior, a 0 beside them, are ranked by (value, input voxel
index), with the exterior first among the zeros, so its rank is 0, the
padding. Each rank belongs to one voxel, so a pooled rank names its source.
At a tie the pools are not differentiable, and any tied voxel gives a valid
subgradient; this order picks one: a min pool takes the tied voxel with the
smallest input index, a max pool the one with the largest, and the exterior
wins every tie at 0 in a min pool, so it takes no gradient there.

Erosion thins the int32 ranks: on a noisy 128^3 prediction 62,944 distinct
keys are left after two stages. So after each stage, until they narrow, the
next stage's ranks are renumbered densely over the keys present, in order
and with the exterior's 0 kept, on the narrowest unsigned type that holds
them (uint16 there). A strictly increasing relabelling that fixes 0
commutes with min and max pools and with the zero padding, so every pool
and comparison gives the same voxels, and the sources are then read from
the table of the keys present. Keys that thin too slowly to fit in time,
as on a strongly smoothed prediction, stop the counting after one scan. A
count that a floor on the keys left shows cannot narrow is skipped: after
stage 0 on cubes of 123^3 and more.

The ranks come from one int64 sort, with no argsort over the grid. Each
value gets an order-preserving int64 code (its float64 bits, which sort as
the values do for values >= 0; -0.0 is first made 0.0), and the top 64 - b
bits of the code are packed over the voxel index + 1 in the low b bits,
b = n.bit_length(), so the exterior's word is 0. Values closer than 2^b
code steps can share those top bits: such prefix runs come out sorted by
index, so only their positions are sorted again, stably, by full code
(about 2,000 of 2.1 M positions on a 128^3 sigmoid prediction). Every value
below 0 and -NaN sort first, and every value above 1, +inf and +NaN last,
so reading the two ends of the sorted codes finds any value outside [0, 1],
and it raises ParameterError. The codes are written straight from the
input, so a C-contiguous input is never copied.

Each stage keeps, on the voxels where its residual relu(I_k - open(I_k)) is
positive, the input voxels that I_k and its opening took their values from;
the residual is recomputed there from the input by the same float
subtraction, so the skeleton is bit-identical to value pooling. The
opening's keys are compared with I_k's, and their sources are read where
I_k's key is the larger; of those, the voxels whose values tie, which add
nothing, are dropped. Stage 0 runs on the whole grid: off P_0 a voxel's
opening source holds its own value, so the difference is +0.0 there, as a
scatter on P_0 only would leave it. Once the keys narrow, a stage's
sources are its keys, read through the one table of the keys present. The
tape reads the values through a view of the input, where a source equal
to n, the exterior, reads 0.0, and stage 1 keeps no S_0: the backward
recomputes it on P_1 from stage 0's sources by the forward's own float
operations. The backward scatters each stage onto those sources in place
(`_at` with `np.add` and `np.subtract`), the narrowed stages into a
table-sized array first, and runs no pool.

The stages index grids and key tables with int32, uint16 and uint8 arrays.
NumPy's fancy indexing runs such an index through a casting path (a
584,000-element gather from a 63,000-entry table took 1.74 ms with uint16
indices and 0.66 ms with intp ones on NumPy 2.4), and `np.take` first
copies the whole index into intp, which raises the peak. So every such
gather, store and `ufunc.at` goes through `_gather`, `_store` and `_at`,
which widen the index to intp a block of `_BLOCK` elements at a time (a
block of an intp index is a view): a few pages more memory, the same
elements in the same order, so every sum keeps its bits. The tape itself
stays narrow: its positions are int32 and its narrowed keys uint16 or
uint8.

Connected components and the distance transform run on the bounding box of
the mask's foreground. Components keep their labels on that box only, with
the box beside them: labelling is exact there because every component lies
inside it, and translation keeps the first-voxel linear order that numbers
them. Sizes are counted over the labelled voxels only, so background, most
of a sparse box, is never counted, and each component's own box is found
the first time it is read. The distance transform likewise returns its
squared distances on the box (`distance_transform_box`;
`distance_transform_squared` embeds them in zeros), and it pads the box
with one background voxel: clamping any background voxel's coordinates
onto the padded box lands on background and never increases a per-axis
distance, and the separable passes are monotone in each per-axis
distance, so the minimum, rounding included, is unchanged.
The passes visit foreground voxels only, each voxel stopping once no
farther offset can lower its value; `distance_transform_box` says why that
keeps every bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
from scipy import ndimage

from .errors import ParameterError
from .volume import BinaryMask, Geometry


def _shifted(axis: int, lo: int, hi: int):
    """Index selecting [lo, n + hi) along `axis` (hi <= 0)."""
    sl = [slice(None)] * 3
    sl[axis] = slice(lo, hi if hi else None)
    return tuple(sl)


def _padded(values: np.ndarray) -> np.ndarray:
    """`values` inside a one-voxel border of zeros: ``np.pad(values, 1)``,
    without its per-call argument handling, which costs more than the copy
    on an eval-sized box."""
    out = np.zeros(tuple(n + 2 for n in values.shape), dtype=values.dtype)
    out[(slice(1, -1),) * values.ndim] = values
    return out


def pool_array(values: np.ndarray, mode: str) -> np.ndarray:
    """Box pool; dtype-preserving, used on integer rank keys, depth maps and uint8 masks."""
    if mode not in ("min", "max"):
        raise ParameterError(f"mode must be 'min' or 'max', got {mode!r}")
    op = np.minimum if mode == "min" else np.maximum
    cur = _padded(values)
    for axis in (2, 1, 0):
        a, b, c = (cur[_shifted(axis, s, s - 2)] for s in range(3))
        cur = op(a, b)
        op(cur, c, out=cur)
    return cur


def _value_codes(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """int64 codes ordered as the float64 values of `x` in [0, 1], written
    into the int64 array `out` if one is given.

    The float64 bits of a value >= 0 sort in its order. Adding 0.0 turns
    -0.0 into 0.0, whose code is 0. Any value below 0 (or -NaN) codes below
    0, and any above 1 (+inf and +NaN too) above 1.0's code.
    """
    return np.add(x, 0.0, out=None if out is None else out.view(np.float64)).view(np.int64)


# index elements that `_gather`, `_store` and `_at` widen to intp at a time:
# 2^12 runs about as fast, and 2^15 lifts the fwd + bwd peak on a noisy
# 64^3 tube from 5.32 to 5.503 grids, past `test_backward_peak_memory`'s 5.5
_BLOCK = 1 << 13


def _blocks(idx: np.ndarray):
    """``(slice, block)`` over the flat `idx`, each block widened to intp
    (an intp block is a view, not a copy)."""
    flat = idx.reshape(-1)
    for start in range(0, flat.size, _BLOCK):
        yield slice(start, start + _BLOCK), flat[start : start + _BLOCK].astype(np.intp, copy=False)


def _gather(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``a[idx]`` for a flat `a`, the index widened to intp a block at a
    time (see the module docstring)."""
    # `out` itself, not a reshaped view of it, is returned: NumPy overwrites
    # a temporary that owns its data in place, as in `_gather(...) - b`
    out = np.empty(idx.shape, dtype=a.dtype)
    flat = out.reshape(-1)
    for at, block in _blocks(idx):
        flat[at] = a[block]
    return out


def _store(a: np.ndarray, idx: np.ndarray, v) -> None:
    """``a[idx] = v`` for a flat `a` and a scalar `v` or a flat one of idx's
    size, the index widened to intp a block at a time."""
    for at, block in _blocks(idx):
        a[block] = v if np.ndim(v) == 0 else v[at]


def _at(ufunc: np.ufunc, a: np.ndarray, idx: np.ndarray, v: np.ndarray) -> None:
    """``ufunc.at(a, idx, v)`` for a flat `a` and a `v` of idx's size, the
    index widened to intp a block at a time. The blocks go in order, so
    repeated indices are summed in the same order, bit for bit."""
    for at, block in _blocks(idx):
        ufunc.at(a, block, v[at])


def _read(value: np.ndarray, route: np.ndarray) -> np.ndarray:
    """``value[route]``, where a route equal to value.size names the exterior
    and reads its 0.0."""
    outside = np.flatnonzero(route == value.size)
    if outside.size:
        route = route.copy()
        route[outside] = 0
    out = _gather(value, route)
    out[outside] = 0.0
    return out


def _rank_keys(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(keys, voxel)`` for the soft skeleton's pools of a grid in [0, 1].

    The voxels are indexed as in ``values.ravel()``, and the exterior, a 0
    beside them, as n. `keys` holds each voxel's int32 rank among these
    n + 1 values, ordered by (value, index) with the exterior first among
    the zeros, so its rank is 0, `pool_array`'s padding, and `voxel` maps a
    rank back to its index.

    The order comes from one in-place sort of words holding each value's
    code over its index + 1 (see the module docstring), written straight
    from `values`, with the exterior's word 0, and a stable argsort of the
    prefix runs' positions by full code. A value outside [0, 1] or a NaN,
    which sorts to an end of the codes, raises ParameterError. Both read
    values by index through `_read`, so a C-contiguous grid is not copied.
    """
    n = values.size
    if n >= 1 << 31:  # int32 ranks and routes
        raise ParameterError(f"a soft skeleton gradient needs fewer than 2^31 voxels, got {n}")
    value = values.ravel()
    b = n.bit_length()
    word = np.empty(n + 1, dtype=np.int64)
    _value_codes(value, out=word[:n])
    word[n] = 0
    word &= -1 << b
    word[:n] |= np.arange(1, n + 1)
    word.sort()
    outside = np.searchsorted(word, 0)  # the exterior's word, the only 0
    order = word & ((1 << b) - 1)
    order -= 1
    order[outside] = n
    word >>= b
    runs = np.flatnonzero(word[1:] == word[:-1])
    member = np.zeros(n + 1, dtype=bool)
    member[runs] = True
    member[runs + 1] = True
    at = np.flatnonzero(member)  # the positions in prefix runs
    del word, runs, member
    resort = np.argsort(_value_codes(_read(value, order[at])), kind="stable")
    order[at] = order[at[resort]]
    lo, hi = _read(value, order[[0, -1]])
    if not (lo >= 0 and hi <= 1):
        raise ParameterError(f"a soft skeleton needs values in [0, 1] and no NaN, got {lo} to {hi}")
    keys = np.empty(n + 1, dtype=np.int32)
    keys[order] = np.arange(n + 1, dtype=np.int32)
    return keys[:n].reshape(values.shape), order.astype(np.int32)


def _narrowed(keys: np.ndarray, voxel: np.ndarray) -> tuple:
    """``(keys, voxel, count)``: `count` is the number of rank keys present in
    int32 `keys`, the exterior's 0 included. If uint16 holds that many,
    `keys` comes back renumbered densely on the narrowest unsigned type, in
    order and with 0 kept, and `voxel` as the table of the keys present by
    new key; otherwise both come back as given.
    """
    present = np.zeros(voxel.size, dtype=bool)
    present[0] = True
    _store(present, keys, True)
    count = int(np.count_nonzero(present))
    if count > 1 << 16:  # no type narrower than int32 holds them
        return keys, voxel, count
    at = np.flatnonzero(present)
    recode = np.zeros(voxel.size, dtype=np.min_scalar_type(count - 1))
    recode[at] = np.arange(count)
    return _gather(recode, keys), voxel[at], count


def _fewest_keys(shape: tuple, k: int) -> int:
    """A floor on `_narrowed`'s count of the int32 ranks after stage k.

    Those are the ranks of I_{k+1}, whose voxels each hold the minimum of
    the (2k + 3)^3 input window around them. A voxel whose window lies
    inside the grid holds the rank of one input voxel, and one input voxel
    lies in at most (2k + 3)^3 such windows, so at least the windows inside
    over (2k + 3)^3 distinct ranks are present, and the exterior's 0.
    """
    width = 2 * k + 3
    inside = math.prod(max(d - width + 1, 0) for d in shape)
    return -(-inside // width**3) + 1


def _first_skeleton(value: np.ndarray, route_0: np.ndarray, where: np.ndarray | None = None) -> np.ndarray:
    """S_0 = I_0 - O_0 on the int32 positions `where` (None: the whole
    grid), from the input `value` and O_0's sources `route_0` on the whole
    grid, plus +0.0.

    A -0.0 input whose opening takes a 0.0 from a tied voxel or the exterior
    differs from it by -0.0, which adding +0.0 makes +0.0; every other
    difference is kept.
    """
    # each gathered index or value is freed before the next grid is made
    skel = _read(value, route_0 if where is None else _gather(route_0, where))
    np.subtract(value if where is None else _gather(value, where), skel, out=skel)
    skel += 0.0
    return skel


def soft_skeleton_array(values: np.ndarray, iterations: int) -> tuple[np.ndarray, tuple]:
    """Iterative soft skeleton of a float64 grid, plus its gradient tape.

    S = relu(I - open(I)); then `iterations` times:
    I = min_pool(I);  S = S + (1 - S) * relu(I - open(I)).
    Stage k's erosion min_pool(I_k) is the next stage input, so it is pooled
    once. The loop stops early once I is all zero, since later stages add
    nothing. The input must be float64, with every value in [0, 1]; any
    other raises ParameterError (a binary mask's skeleton is
    `vessel.skeletonize`).

    The input is pooled as the int32 ranks of `_rank_keys`, which order the
    voxels and the exterior strictly by (value, input voxel index), so every
    value of I_k and of its opening O_k names the input voxel it came from
    (n for the exterior), and the sources come from `voxel` by rank. At a
    tie the pools pick by that order: a min pool takes the tied voxel with
    the smallest input index, a max pool the one with the largest, and the
    exterior wins every tie at 0 in a min pool, so it takes no gradient
    there. Once the next stage's keys fit a narrower type, `_narrowed`
    renumbers them and swaps `voxel` for the table of the keys present. The
    renumbering is strictly increasing and keeps the exterior at 0, so it
    commutes with the min and max pools and their zero padding, and every
    bit is kept. Each stage's keys are counted, one grid scan each, until
    they narrow or until they thin too slowly to pay: at the rate per stage
    since the last count (against the grid's n + 1 before the first), they
    would not fit a narrower type within half the stages left, and the
    narrow pools of the rest would not save what the counts up to then
    cost. A count that `_fewest_keys` shows cannot narrow is skipped (the
    one after stage 0 on a cube of 123^3 or more). Exact zeros hold ranks
    1..z beside the exterior's 0, so the early stop reads the value of
    I's largest key.

    The residual is positive exactly on P_k = {I_k > O_k}, compared by
    value: a voxel whose key exceeds O_k's raw pooled key can hold a value
    tied with it, which adds nothing and routes no gradient. The residual
    is recomputed from the sources where the keys differ, and S is updated
    only where it is positive, except at stage 0, which runs on the whole
    grid: S_0 is `_first_skeleton`, I_0 - O_0 from O_0's source at every
    voxel, with no compaction, no scatter and no relu, and P_0 is S_0 > 0.
    No value lies below the exterior 0, so O_0 <= I_0, and off P_0 the
    source holds the voxel's own value, giving +0.0 once `_first_skeleton`
    adds +0.0. So S_0 is +0.0 off P_0, bit for bit as if it were written on
    P_0 only.

    The tape is ``(stages, keyed, table, value)``, where `value` is
    ``values.ravel()``, a view of a C-contiguous input: the input must not
    be written before `soft_skeleton_grad` has run. A route equal to n, the
    exterior, reads 0.0 (`_read`); I_k's sources on P_k never name it,
    because I_k's value there is above O_k's. Stage k >= 2 is ``(P_k,
    S_{k-1} on P_k, source of I_k, source of O_k)``, all on P_k, in int32
    voxel indices. Stage 1 holds None for S_0 on P_1, which the backward
    recomputes from stage 0 by the forward's own float operations. Stage 0
    is ``(P_0 as a bool grid, None, None, source of O_0 on the whole
    grid)``: I_0's source is the voxel itself. The stages after the keys
    narrow are `keyed`: their sources are the narrowed keys themselves, and
    `table` (None if the keys never narrow) maps a key to its voxel, so
    their residual is read from the table's values, at most 65,536, in
    which the exterior's key 0 reads 0.0.
    """
    if iterations < 1:
        raise ParameterError(f"iterations must be >= 1, got {iterations}")
    if values.dtype != np.float64:
        raise ParameterError(f"a soft skeleton needs float64 values in [0, 1], got {values.dtype}")
    keys_in, voxel = _rank_keys(values)
    value = values.ravel()
    # keys at the last count and the stage after which they were counted
    # (the input's n + 1 before stage 0); no count once last_count is 0
    last_count, counted = values.size + 1, -1
    lookup, table = value, None  # value by route: by voxel, then by key once the keys narrow
    stages, keyed = [], []
    for k in range(iterations + 1):
        eroded = pool_array(keys_in, "min")
        opened = pool_array(eroded, "max").ravel()
        if k == 0:
            # The whole grid: off P_0 the source holds the voxel's own value,
            # so the difference is +0.0 there (see the docstring).
            route_out = _gather(voxel, opened)
            del opened, keys_in
            skel = _first_skeleton(value, route_out)
            stages.append((skel > 0, None, None, route_out))
        else:
            where = np.flatnonzero(keys_in.ravel() > opened).astype(np.int32)
            route_in, route_out = _gather(keys_in.ravel(), where), _gather(opened, where)
            if table is None:
                route_in, route_out = _gather(voxel, route_in), _gather(voxel, route_out)
            del opened, keys_in
            delta = _gather(lookup, route_in) - _read(lookup, route_out)
            strict = delta > 0  # drops the keys above their opening's whose values tie it
            if not strict.all():
                where, route_in, route_out, delta = (a[strict] for a in (where, route_in, route_out, delta))
            before = _gather(skel, where)
            delta *= 1 - before
            delta += before
            _store(skel, where, delta)
            stage = (where, before if k > 1 else None, route_in, route_out)
            (stages if table is None else keyed).append(stage)
            del delta, before, strict  # S_0 on P_1 is the backward's to recompute
        if k == iterations or _read(value, voxel[[eroded.max()]])[0] == 0:  # I_{k+1} is all zero
            break
        if last_count and _fewest_keys(values.shape, k) <= 1 << 16:
            narrowed, voxel, count = _narrowed(eroded, voxel)
            late = count * (count / last_count) ** ((iterations - k) / 2 / (k - counted)) > 1 << 16
            if narrowed.dtype != eroded.dtype:
                last_count, table, lookup = 0, voxel, _read(value, voxel)
            else:
                last_count, counted = (0 if late else count), k
            eroded = narrowed
        keys_in = eroded
    return skel.reshape(values.shape), (stages, keyed, table, value)


def soft_skeleton_grad(tape: tuple, grad_skel: np.ndarray) -> np.ndarray:
    """Gradient of the soft skeleton w.r.t. its float64 input.

    Walks the tape's stages last-first, each on its P_k only: with grad_s =
    dL/dS_k, (1 - S_{k-1}) grad_s goes to the source of I_k and, negated,
    to the source of O_k (the exterior's bin n is dropped), and grad_s
    becomes (1 - delta) grad_s. Both scatters add into the gradient in place
    by `_at`, `np.add.at` and `np.subtract.at` over a block of the narrow
    routes at a time, which sums repeated sources in order. The stage lists
    are consumed, so their arrays are freed as they go, and `grad_skel` is
    the working dL/dS, so it is overwritten: pass a copy to keep it. The
    tape reads the forward's input, which must not have been written
    since. S_0 on P_1 is recomputed by `_first_skeleton`, the forward's own
    float operations, so it has the same bits.

    The keyed stages, the last ones, scatter into an array indexed by key,
    which then lands in the zero gradient at once through the injective
    table: each voxel gets the same sums in the same order, from +0.0.
    Stage 0, last, adds its dL/dS, masked to 0.0 off P_0, over the grid and
    subtracts it at every voxel's O_0 source. The gradient starts at +0.0
    and only gains sums, which are never -0.0, so adding +0.0 or
    subtracting 0.0 keeps every bit, and on P_0 each voxel gets the same
    sums in the same order as from scatters on P_0 only.
    """
    stages, keyed, table, value = tape
    grad_s = grad_skel.ravel()
    grad = np.zeros(value.size + 1)
    skel_0 = partial(_first_skeleton, value, stages[0][3])
    if keyed:
        by_key = np.zeros(table.size)
        _scatter_stages(keyed, grad_s, _read(value, table), by_key, skel_0)
        _store(grad, table, by_key)
    _scatter_stages(stages, grad_s, value, grad, skel_0)
    return grad[:-1].reshape(grad_skel.shape)


def _scatter_stages(stages: list, grad_s: np.ndarray, value: np.ndarray, grad: np.ndarray, skel_0) -> None:
    """Pop `stages` last-first, scattering each into `grad` at its routes,
    which index `value` (by `_read`) and `grad` alike, by `_at` in block
    order; stage 0 has P_0 as a bool grid, no route_in (the identity) and
    route_out on the whole grid, and stage 1 has no S_0, which
    ``skel_0(P_1)`` gives."""
    while stages:
        where, before, route_in, route_out = stages.pop()
        if route_in is None:
            resid = grad_s  # dL/dS_0, read by no later step: masked in place
            np.copyto(resid, 0.0, where=~where)
            grad[:-1] += resid
        else:
            resid = _gather(grad_s, where)
            delta = _gather(value, route_in) - _read(value, route_out)
            _store(grad_s, where, resid * (1 - delta))
            resid *= 1 - (skel_0(where) if before is None else before)
            del before
            _at(np.add, grad, route_in, resid)
        _at(np.subtract, grad, route_out, resid)


@dataclass(frozen=True)
class ComponentLabeling:
    """Connected components with ids assigned by first-voxel linear index.

    `bounding_boxes` is found on its first read and kept: a caller that
    reads only sizes and labels, as lesion matching does, never pays for it."""

    geometry: Geometry
    box: tuple[slice, ...]  # (z, y, x) slices of the foreground's bounding box; size 0 when empty
    labels: np.ndarray  # int32 over `box` only, 0 = background
    count: int
    sizes: np.ndarray  # voxel count per component, index 0 unused

    @cached_property
    def bounding_boxes(self) -> tuple:
        """Per component: (z, y, x) slices into `labels`, from ndimage.find_objects."""
        return tuple(ndimage.find_objects(self.labels)) if self.count else ()


def _structure(rank: int) -> np.ndarray:
    s = ndimage.generate_binary_structure(3, rank)
    s.flags.writeable = False
    return s


# structuring element by connectivity, built once and shared read-only
_STRUCTURES = {6: _structure(1), 18: _structure(2), 26: _structure(3)}


def bounding_box(values: np.ndarray) -> tuple[slice, ...] | None:
    """Slices (z, y, x) of the smallest box holding every True voxel of a
    bool grid; any other dtype raises ParameterError.

    Returns None when there is no True voxel. Every reduction is a `max`
    over a contiguous axis of the grid read as uint8: each z-slice's maximum
    gives the z extent, and the element-wise maximum of the slices in it the
    y and x extents.
    """
    if values.dtype != bool:
        raise ParameterError(f"bounding_box takes a bool grid, got {values.dtype}")
    v = values.view(np.uint8)
    if v.size == 0:
        return None
    z = np.flatnonzero(v.reshape(len(v), -1).max(axis=1))
    if z.size == 0:
        return None
    plane = v[z[0] : z[-1] + 1].max(axis=0)
    y, x = np.flatnonzero(plane.max(axis=1)), np.flatnonzero(plane.max(axis=0))
    return tuple(slice(int(h[0]), int(h[-1]) + 1) for h in (z, y, x))


def label_boxes(labels: np.ndarray, ids: list[int]) -> dict[int, tuple[slice, ...] | None]:
    """`bounding_box(labels == i)` for each id in `ids` of a uint8 grid, from
    one shift-and-or pass per group g of 8 ids.

    Bit k of `1 << (labels - 8g)` is set exactly at the voxels of id 8g + k:
    any other id leaves a uint8 shift of 8 or more (one below 8g wraps to at
    least 256 - 8g), which NumPy takes to 0. So bit k of an or over (y, x),
    the z profile, or over the z extent and then x or y, the y and x
    profiles, is set exactly at the planes that hold id 8g + k."""
    boxes = dict.fromkeys(ids)
    for g in {i >> 3 for i in ids}:
        bits = np.left_shift(np.uint8(1), labels - np.uint8(8 * g) if g else labels, dtype=np.uint8)
        z = np.bitwise_or.reduce(bits, axis=(1, 2))
        hit = np.flatnonzero(z)
        if hit.size == 0:
            continue
        plane = np.bitwise_or.reduce(bits[hit[0] : hit[-1] + 1], axis=0)
        profiles = z, np.bitwise_or.reduce(plane, axis=1), np.bitwise_or.reduce(plane, axis=0)
        for i in (i for i in ids if i >> 3 == g):
            hits = [np.flatnonzero(p & np.uint8(1 << (i & 7))) for p in profiles]
            if hits[0].size:
                boxes[i] = tuple(slice(int(h[0]), int(h[-1]) + 1) for h in hits)
    return boxes


def connected_components(mask: BinaryMask, connectivity: int = 26) -> ComponentLabeling:
    """Label components under 6/18/26 adjacency; `ndimage.label` numbers them
    in the linear order of their first voxels, which a test pins."""
    if connectivity not in _STRUCTURES:
        raise ParameterError(f"connectivity must be 6, 18 or 26, got {connectivity}")
    box = bounding_box(mask.values) or (slice(0, 0),) * 3
    labels, count = ndimage.label(mask.values[box], structure=_STRUCTURES[connectivity])
    sizes = np.bincount(labels[labels != 0], minlength=count + 1)
    return ComponentLabeling(mask.geometry, box, labels, count, sizes)


def _squared_edt_pass(g: np.ndarray, at: np.ndarray, stride: int, w2: float) -> np.ndarray:
    """Min over offsets d of g[j] + d * d * w2, j = at +- d * stride, per
    voxel of `at`; a voxel leaves the active set once d * d * w2 reaches its
    value (see `distance_transform_box`)."""
    out = g[at]
    live, src, cur = np.arange(len(at)), at, out.copy()
    d = 1
    while live.size:
        c = d * d * w2
        done = c >= cur
        out[live[done]] = cur[done]
        live, src, cur = live[~done], src[~done], cur[~done]
        np.minimum(cur, np.minimum(g[src - d * stride], g[src + d * stride]) + c, out=cur)
        d += 1
    return out


def distance_transform_box(mask: BinaryMask) -> tuple[tuple[slice, ...], np.ndarray]:
    """Exact squared distances on the mask's bounding box, and that box.

    Returns ``(box, dist2)``: `box` is the foreground's (z, y, x) bounding
    box (zero-size slices when empty) and `dist2` the squared distances over
    it, in mm^2. Every voxel outside the box is background, at distance 0.

    The separable passes visit the foreground voxels of the box padded by
    one background voxel. Along x, a voxel's distance d to background comes
    from its run of consecutive foreground indices, which the pad ends on
    its own line: f = (d * sx)^2. Along y, then z, a voxel takes the minimum
    of f[j] + d^2 w^2 over the voxels j at offset +-d, f being 0 on
    background, and stops once d^2 w^2 reaches its value. Every candidate
    skipped is at least that value, as f >= 0, so the result is the minimum
    of the same floats as a pass over every offset. The pad voxel k lines
    away caps the value at k^2 w^2, so the voxel stops by offset k + 1,
    before any probe leaves its line.
    """
    sx, sy, sz = mask.geometry.spacing
    box = bounding_box(mask.values)
    if box is None:
        return (slice(0, 0),) * 3, np.zeros((0, 0, 0))
    padded = _padded(mask.values[box])
    _, ny, nx = padded.shape
    at = np.flatnonzero(padded)
    starts = np.flatnonzero(np.diff(at, prepend=-2) != 1)
    runs = np.diff(starts, append=len(at))
    i = np.arange(len(at)) - np.repeat(starts, runs)  # position in its run
    dist_vox = np.minimum(i, np.repeat(runs, runs) - 1 - i) + 1
    g = np.zeros(padded.size)
    g[at] = (dist_vox.astype(np.float64) * sx) ** 2
    g[at] = _squared_edt_pass(g, at, nx, sy * sy)
    g[at] = _squared_edt_pass(g, at, ny * nx, sz * sz)
    return box, g.reshape(padded.shape)[1:-1, 1:-1, 1:-1]


def distance_transform_squared(mask: BinaryMask) -> np.ndarray:
    """Exact squared Euclidean distance (mm^2) to the nearest background.

    The exterior counts as background adjacent to the border; background
    voxels map to 0. Separable passes keep all arithmetic exact for rational
    spacings, so squared values can be compared to a brute-force oracle
    bit for bit. The passes run on the mask's bounding box padded by one
    background voxel, which is exact: see the module docstring.
    """
    box, dist2 = distance_transform_box(mask)
    out = np.zeros(mask.values.shape, dtype=np.float64)
    out[box] = dist2
    return out
