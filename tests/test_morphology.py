import itertools
import hashlib
import struct
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from hepeval import morphology
from hepeval.errors import ParameterError
from hepeval.losses import cl_dice_loss, combined_loss
from hepeval.morphology import (
    _keyed_pool,
    _packed_keys,
    _rank_keys,
    bounding_box,
    connected_components,
    distance_transform_squared,
    label_boxes,
    pool_array,
    soft_skeleton_array,
    soft_skeleton_grad,
)
from hepeval.phantom import DegradeSpec, default_spec, degrade, generate_case, straight_tube_mask
from hepeval.vessel import skeletonize
from hepeval.volume import BinaryMask, Geometry, ProbVolume

from conftest import (
    EMBED_OFFSETS,
    brute_force_squared_edt,
    embed,
    face_touching_values,
    grid_geometry,
    noisy_tube,
    phantom_vessel_masks,
    random_mask,
    random_prob_volume,
    separable_squared_edt,
)


def geometry(dims):
    return Geometry(dims=dims, spacing=(1.0, 1.0, 1.0))


def tie_heavy_grid(seed):
    """Small grid of a few quantised levels and sparse zeros: pools tie, also
    with the exterior 0, and erosion leaves a core for the later stages."""
    rng = np.random.default_rng(seed)
    shape = rng.integers(1, 9, size=3)
    levels = int(rng.integers(1, 4))
    values = rng.integers(1, levels + 1, size=shape) / levels
    return np.where(rng.random(shape) < 0.05, 0.0, values)


def oracle_pool(values, mode):
    """Pooled values and winners from the 27 neighbours of each voxel.

    The winner is the smallest linear index among in-volume neighbours
    attaining the extremum over the neighbourhood and the exterior 0; -1
    where only the exterior attains it.
    """
    padded = np.pad(values, 1)
    index = np.pad(np.arange(values.size).reshape(values.shape), 1, constant_values=-1)
    out, win = np.zeros(values.shape), np.full(values.shape, -1)
    for z, y, x in np.ndindex(values.shape):
        cells = padded[z : z + 3, y : y + 3, x : x + 3].ravel()  # ascending linear index
        ids = index[z : z + 3, y : y + 3, x : x + 3].ravel()
        out[z, y, x] = extremum = cells.min() if mode == "min" else cells.max()
        hits = ids[(cells == extremum) & (ids >= 0)]
        win[z, y, x] = hits[0] if hits.size else -1
    return out, win


def oracle_vjp(win, grad_out):
    keep = win >= 0
    return np.bincount(win[keep], grad_out[keep], minlength=win.size).reshape(win.shape)


def oracle_skeleton_grad(values, iterations, grad_skel):
    """Reverse mode of the soft skeleton over the oracle pools."""
    stages, skel, current = [], None, values
    for _ in range(iterations + 1):
        eroded, min_win = oracle_pool(current, "min")
        opened, max_win = oracle_pool(eroded, "max")
        delta = np.maximum(current - opened, 0.0)
        stages.append((min_win, max_win, delta, skel))
        skel = delta if skel is None else skel + (1.0 - skel) * delta
        current = eroded

    grad_next, grad_s = np.zeros(values.shape), grad_skel
    for min_win, max_win, delta, skel_before in reversed(stages):
        grad_delta = grad_s if skel_before is None else grad_s * (1.0 - skel_before)
        grad_s = grad_s * (1.0 - delta)
        grad_resid = np.where(delta > 0, grad_delta, 0.0)
        grad_next = grad_resid + oracle_vjp(min_win, grad_next - oracle_vjp(max_win, grad_resid))
    return grad_next


def packed_rank_keys(values):
    """`_rank_keys` with packed keys, whether or not the grid has ties."""
    flat = np.append(values.ravel(), 0.0)
    ordered = np.sort(flat)
    high = _packed_keys(np.argsort(flat), ordered[1:] != ordered[:-1])
    return flat, high[:-1].reshape(values.shape), None


def argsort_rank_keys(values):
    """`_rank_keys` by argsort, as the reference: int32 ranks when `flat`
    holds no two equal values, else `packed_rank_keys`. The exterior 0 is
    the least value, so it has rank 0."""
    flat = np.append(values.ravel(), 0.0)
    order = np.argsort(flat)
    ordered = flat[order]
    if not (ordered[1:] != ordered[:-1]).all():
        return packed_rank_keys(values)
    keys = np.empty(flat.size, dtype=np.int32)
    keys[order] = np.arange(flat.size)
    return flat, keys[:-1].reshape(values.shape), order.astype(np.int32)


def keyed_pool(values, mode):
    """Pooled values, pooled rank keys and winners (values.size for the
    exterior) from `_keyed_pool`, plus the rank key of each winner."""
    flat, high, _ = packed_rank_keys(values)
    offset = np.arange(-values.size, 0).reshape(values.shape)
    key = _keyed_pool(high, offset, mode)
    index_term = key & ((1 << values.size.bit_length()) - 1)
    winner = index_term if mode == "min" else values.size - index_term
    return flat[winner], key - index_term, winner, np.append(high.ravel(), 0)[winner]


def tie_free_grid(seed):
    """Small grid of distinct values, with no exact 0: anywhere in (0, 1)
    for odd seeds, in [0.05, 0.95] for even ones."""
    rng = np.random.default_rng(seed)
    shape = tuple(int(d) for d in rng.integers(1, 9, size=3))
    if seed % 2:
        return rng.uniform(size=shape)
    return random_prob_volume(grid_geometry(shape), seed).values.copy()


def pool_grad(values, mode, grad_out):
    winner = keyed_pool(values, mode)[2]
    return np.bincount(winner.ravel(), grad_out.ravel(), minlength=values.size + 1)[:-1].reshape(values.shape)


# fwd+bwd tracemalloc peak of a 10-iteration soft skeleton, in float64 grids
# of its input: with the sparse tape 11.5 on packed keys and 8.5 on int32
# ranks, 28.3 when every stage is kept
GRID_PEAK_BOUND = 20.0

MIN3 = partial(ndimage.minimum_filter, size=3, mode="constant", cval=0)
MAX3 = partial(ndimage.maximum_filter, size=3, mode="constant", cval=0)


def scipy_skeleton(values, iterations):
    current = values
    skel = np.maximum(current - MAX3(MIN3(current)), 0)
    for _ in range(iterations):
        current = MIN3(current)
        skel = skel + (1 - skel) * np.maximum(current - MAX3(MIN3(current)), 0)
    return skel


def stage_key_types(values, iterations):
    """The integer type of each stage's pooled keys on a tie-free grid: int32
    ranks until the first stage k >= 1 whose input I_k (SciPy erosions) and
    the exterior 0 hold few enough distinct values, counted by `np.unique`,
    for a narrower unsigned type, and that type from then on. Counting stops
    at the first count c that, at the rate c / (the count before, n + 1 at
    first), would not fit 2^16 within half the stages left."""
    types, current, narrow, present = [], values, None, values.size + 1
    for k in range(iterations + 1):
        if k and narrow is None and present:
            distinct = np.unique(np.append(current, 0.0))
            fit = np.min_scalar_type(distinct.size - 1)
            narrow = fit if fit.itemsize < 4 else None
            left = iterations + 1 - k
            present = 0 if distinct.size * (distinct.size / present) ** (left / 2) > 1 << 16 else distinct.size
        types.append(narrow or np.dtype(np.int32))
        current = MIN3(current)
        if not current.any():
            break
    return types


def pooled_key_types(monkeypatch, values, iterations):
    """The dtype of every `pool_array` call of one `soft_skeleton_array` run."""
    seen = []

    def spy(keys, mode):
        seen.append(keys.dtype)
        return pool_array(keys, mode)

    monkeypatch.setattr(morphology, "pool_array", spy)
    run = soft_skeleton_array(values, iterations)
    monkeypatch.undo()
    return seen, run


def tape_stages(tape):
    """``(stages, flat)`` of a soft skeleton tape, each stage as ``(P_k,
    S_{k-1} on P_k or None, source of I_k, source of O_k)`` in int32 input
    voxel indices on P_k: the tape keeps stage 0's P_0 as a bool grid, no
    source of I_0 and the source of O_0 on the whole grid, and a stage after
    the keys narrow routes by key into the tape's table."""
    stages, keyed, table, flat = tape
    decoded = []
    for where, before, route_in, route_out in stages:
        if route_in is None:
            where = np.flatnonzero(where).astype(np.int32)
            route_in, route_out = where, route_out[where]
        decoded.append((where, before, route_in, route_out))
    decoded += [(where, before, table[key_in], table[key_out]) for where, before, key_in, key_out in keyed]
    return decoded, flat


def sparse_replay(tape, shape, grad_skel):
    """The skeleton and its gradient at `grad_skel`, replayed from the tape's
    decoded stages by scatters on P_k only: every stage sparse, in voxel
    indices, in the float operations and order of the skeleton's forward."""
    stages, flat = tape_stages(tape)
    skel = np.zeros(flat.size - 1, dtype=flat.dtype)
    for where, before, route_in, route_out in stages:
        delta = flat[route_in] - flat[route_out]
        skel[where] = delta if before is None else delta * (1 - before) + before
    grad_s, grad = grad_skel.ravel().copy(), np.zeros(flat.size)
    for where, before, route_in, route_out in reversed(stages):
        resid = grad_s[where]
        if before is not None:
            grad_s[where] = resid * (1 - (flat[route_in] - flat[route_out]))
            resid *= 1 - before
        np.add.at(grad, route_in, resid)
        np.subtract.at(grad, route_out, resid)
    return skel.reshape(shape), grad[:-1].reshape(shape)


def assert_matches_sparse_replay(values, iterations):
    """One run's skeleton and gradient bytes, stage 0 on the whole grid,
    equal `sparse_replay`'s."""
    grad_skel = np.random.default_rng(values.size).normal(size=values.shape)
    skel, tape = soft_skeleton_array(values, iterations)
    assert tape[0][0][0].dtype == bool
    want_skel, want_grad = sparse_replay(tape, values.shape, grad_skel)
    assert skel.tobytes() == want_skel.tobytes()
    assert soft_skeleton_grad(tape, grad_skel.copy()).tobytes() == want_grad.tobytes()


def assert_tape_matches_packed_keys(monkeypatch, values, iterations, run):
    """`run`'s skeleton and tape equal the packed keys', array for array."""
    skel, tape = run
    stages, flat = tape_stages(tape)
    monkeypatch.setattr(morphology, "_rank_keys", packed_rank_keys)
    want_skel, want_tape = soft_skeleton_array(values, iterations)
    want_stages, want_flat = tape_stages(want_tape)
    monkeypatch.undo()
    assert np.array_equal(skel, want_skel) and np.array_equal(flat, want_flat)
    assert len(stages) == len(want_stages)
    for k, (stage, want) in enumerate(zip(stages, want_stages)):
        if k == 0:
            assert stage[1] is None and stage[2] is stage[0]
        for got, expected in zip(stage, want):
            assert (got is None) == (expected is None)
            if got is not None:
                assert got.dtype == expected.dtype and np.array_equal(got, expected)


class TestPools:
    def test_constant_volume_interior_stays(self):
        pooled = pool_array(np.full((5, 5, 5), 0.7), "max")
        assert pooled[2, 2, 2] == 0.7

    def test_single_one_dilates_to_block(self):
        values = np.zeros((5, 5, 5))
        values[2, 2, 2] = 1.0
        pooled = pool_array(values, "max")
        expected = np.zeros(values.shape)
        expected[1:4, 1:4, 1:4] = 1.0
        assert np.array_equal(pooled, expected)

    def test_min_pool_erodes_border_of_all_ones(self):
        pooled = pool_array(np.ones((4, 4, 4)), "min")
        assert pooled[1:3, 1:3, 1:3].min() == 1.0
        assert pooled[0].max() == 0.0
        assert pooled[:, 0].max() == 0.0
        assert pooled[:, :, -1].max() == 0.0

    def test_min_pool_kills_isolated_one(self):
        values = np.zeros((5, 5, 5))
        values[2, 2, 2] = 1.0
        assert pool_array(values, "min").max() == 0.0

    def test_min_pool_idempotence_bound(self):
        vol = random_prob_volume(geometry((6, 6, 6)), seed=1)
        once = pool_array(vol.values, "min")
        twice = pool_array(once, "min")
        assert (twice <= once + 1e-15).all()

    @given(seed=st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_duality_on_border_safe_masks(self, seed):
        # the exterior-0 rule is self-dual once the border shell agrees with
        # the complement: background shell for the min form, foreground shell
        # for the max form
        rng = np.random.default_rng(seed)
        values = np.zeros((5, 7, 6))
        values[1:-1, 1:-1, 1:-1] = (rng.random((3, 5, 4)) < 0.5).astype(float)

        mn = pool_array(values, "min")
        mx_c = pool_array(1.0 - values, "max")
        assert np.array_equal(mn, 1.0 - mx_c)

        filled = 1.0 - values  # foreground border shell
        mx = pool_array(filled, "max")
        mn_c = pool_array(1.0 - filled, "min")
        assert np.array_equal(mx, 1.0 - mn_c)

    @pytest.mark.parametrize("mode", ["min", "max"])
    def test_pool_vjp_matches_brute_force_oracle(self, mode):
        rng = np.random.default_rng(7)
        for seed in range(40):
            values = tie_heavy_grid(seed)
            grad_out = rng.normal(size=values.shape)
            want_pooled, win = oracle_pool(values, mode)
            pooled, pooled_high, winner, winner_high = keyed_pool(values, mode)
            assert np.array_equal(pooled, want_pooled)
            assert np.array_equal(pooled, pool_array(values, mode))
            assert np.array_equal(pooled_high, winner_high)
            got = pool_grad(values, mode, grad_out)
            assert np.abs(got - oracle_vjp(win, grad_out)).max() <= 1e-12

    def test_tie_breaks_to_smallest_linear_index(self):
        values = np.array([[[0.2, 0.5, 0.5, 0.5, 0.1]]])
        grad_out = np.zeros(values.shape)
        grad_out[0, 0, 2] = 1.0
        # at x=2 all of x=1,2,3 hold the max 0.5: smallest linear index wins
        assert pool_grad(values, "max", grad_out).ravel().tolist() == [0, 1, 0, 0, 0]

    def test_tie_with_exterior_goes_in_volume(self):
        # every output's minimum 0 is attained by the exterior and by the one
        # in-volume 0, which takes all the gradient; at z=0 the x pass leaves
        # an exterior 0 that comes before it in the z pass
        values = np.array([[[0.5, 0.5]], [[0.0, 0.5]]])
        grad = pool_grad(values, "min", np.ones(values.shape))
        assert grad.ravel().tolist() == [0, 0, 4, 0]

    def test_exterior_strict_win_takes_no_gradient(self):
        values = np.array([[[0.4, 0.5, 0.6]]])
        grad_out = np.zeros(values.shape)
        grad_out[0, 0, 0] = 1.0
        # border voxel: exterior 0 strictly beats every in-volume value
        assert not pool_grad(values, "min", grad_out).any()


class TestSoftSkeleton:
    def test_all_zero_gives_all_zero(self):
        g = geometry((5, 5, 5))
        skel, _ = soft_skeleton_array(np.zeros(g.shape), iterations=3)
        assert skel.max() == 0.0

    def test_isolated_voxel_is_its_own_skeleton(self):
        g = geometry((5, 5, 5))
        values = np.zeros(g.shape)
        values[2, 2, 2] = 1.0
        skel, _ = soft_skeleton_array(values, iterations=2)
        assert np.array_equal(skel, values)

    def test_tube_skeleton_hugs_centerline(self):
        mask, (start, end) = straight_tube_mask(length_vox=30, radius_vox=2.0, dims=(40, 12, 12))
        skel, _ = soft_skeleton_array(mask.values.astype(float), iterations=4)
        coords = np.argwhere(skel > 0.5)  # (z, y, x)
        assert len(coords) > 0
        axis = np.stack([coords[:, 2], coords[:, 1], coords[:, 0]], axis=1).astype(float)
        seg = end - start
        t = np.clip((axis - start) @ seg / (seg @ seg), 0.0, 1.0)
        nearest = start + t[:, None] * seg
        dist = np.linalg.norm(axis - nearest, axis=1)
        assert dist.max() <= 1.0

    def test_output_in_unit_interval_and_below_binary_input(self):
        mask = random_mask(geometry((8, 8, 8)), seed=11, density=0.4)
        values = mask.values.astype(float)
        skel, _ = soft_skeleton_array(values, iterations=3)
        assert skel.min() >= 0.0 and skel.max() <= 1.0
        assert (skel <= values + 1e-15).all()

    def test_iteration_count_saturates(self):
        mask, _ = straight_tube_mask(length_vox=20, radius_vox=2.0, dims=(30, 12, 12))
        values = mask.values.astype(float)
        # max inscribed radius ~2 voxels: anything beyond ceil(r)+1 is stable
        base, _ = soft_skeleton_array(values, iterations=3)
        for extra in (4, 6, 9):
            more, _ = soft_skeleton_array(values, iterations=extra)
            assert np.array_equal(base, more)

    def test_forward_matches_scipy_filters(self):
        for seed in range(4):
            vol = random_prob_volume(geometry((9, 8, 7)), seed=seed)
            skel, _ = soft_skeleton_array(vol.values, iterations=3)
            assert np.array_equal(skel, scipy_skeleton(vol.values, 3))
        for seed in range(20):
            values = tie_heavy_grid(seed)
            skel, _ = soft_skeleton_array(values, iterations=2)
            assert np.array_equal(skel, scipy_skeleton(values, 2))
        # a 0/1 field on the float path, and `skeletonize` of its mask
        mask = random_mask(geometry((10, 9, 8)), seed=3, density=0.7)
        skel, _ = soft_skeleton_array(mask.values.astype(float), iterations=4)
        assert np.array_equal(skel, scipy_skeleton(mask.values.astype(float), 4))
        assert np.array_equal(skeletonize(mask, 4).values, skel > 0)

    def test_tape_matches_scipy_stages(self):
        # P_k is where the SciPy reference residual is > 0, the routes
        # recompute it there, and the tape keeps S_{k-1} on P_k
        grids = [random_prob_volume(geometry((9, 8, 7)), seed=s).values for s in range(3)]
        grids += [tie_heavy_grid(seed) for seed in range(20)]
        for values in grids:
            stages, flat = tape_stages(soft_skeleton_array(values, iterations=4)[1])
            assert np.array_equal(flat, np.append(values.ravel(), 0.0))
            inputs = [values]  # I_k of each stage run: the loop stops once I is all zero
            while len(inputs) < 5 and MIN3(inputs[-1]).any():
                inputs.append(MIN3(inputs[-1]))
            assert len(stages) == len(inputs)
            for k, (current, (where, before, route_in, route_out)) in enumerate(zip(inputs, stages)):
                delta = np.maximum(current - MAX3(MIN3(current)), 0).ravel()
                assert where.dtype == route_in.dtype == route_out.dtype == np.int32
                assert np.array_equal(where, np.flatnonzero(delta > 0))
                assert np.array_equal(flat[route_in] - flat[route_out], delta[where])
                if k == 0:
                    assert before is None and route_in is where
                else:
                    assert np.array_equal(before, scipy_skeleton(values, k - 1).ravel()[where])
        vol = random_prob_volume(geometry((23, 23, 23)), seed=2)
        for iterations in (1, 3, 5, 8, 10):
            stages, _ = tape_stages(soft_skeleton_array(vol.values, iterations)[1])
            assert len(stages) == iterations + 1
        # stops once the input has eroded away
        stages, _ = tape_stages(soft_skeleton_array(np.ones((3, 3, 3)), iterations=5)[1])
        assert len(stages) == 2

    def test_integer_input_has_no_gradient(self):
        # a mask's skeleton is a constant of the loss: `skeletonize` gives it
        # as a mask, with no tape, and the soft skeleton takes no integer grid
        mask = random_mask(geometry((6, 5, 4)), seed=1, density=0.6)
        skel, _ = soft_skeleton_array(mask.values.astype(float), iterations=3)
        assert np.array_equal(skeletonize(mask, 3).values, skel > 0)
        with pytest.raises(ParameterError, match="float64"):
            soft_skeleton_array(mask.values.astype(np.uint8), iterations=3)

    def test_keys_that_do_not_fit_raise(self):
        # a 2^31-voxel view allocates nothing: the check comes first
        huge = np.broadcast_to(np.float64(0.5), (1 << 11, 1 << 10, 1 << 10))
        with pytest.raises(ParameterError):
            soft_skeleton_array(huge, iterations=1)

    @given(
        shape=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
        thin_axis=st.sampled_from([None, 0, 1, 2]),
        seed=st.integers(0, 2**16),
        iterations=st.integers(1, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_key_encoding_matches_oracles(self, shape, thin_axis, seed, iterations):
        # exact duplicates, -0.0 beside 0.0 and the exterior 0, 1.0, and a
        # 1-voxel axis
        shape = tuple(1 if axis == thin_axis else d for axis, d in enumerate(shape))
        rng = np.random.default_rng(seed)
        values = rng.choice(np.array([-0.0, 0.0, 0.25, 0.5, 0.75, 1.0]), size=shape)
        grad_skel = rng.normal(size=shape)
        skel, tape = soft_skeleton_array(values, iterations)
        assert np.array_equal(skel, scipy_skeleton(values, iterations))
        got = soft_skeleton_grad(tape, grad_skel.copy())
        assert np.abs(got - oracle_skeleton_grad(values, iterations, grad_skel)).max() <= 1e-12

    def test_gradient_matches_brute_force_oracle(self):
        # tie-heavy grids pool packed keys, tie-free ones int32 ranks
        rng = np.random.default_rng(5)
        grids = [tie_heavy_grid(seed) for seed in range(60)]
        grids += [tie_free_grid(seed) for seed in range(30)]
        for values in grids:
            iterations = int(rng.integers(1, 11))
            grad_skel = rng.normal(size=values.shape)
            _, tape = soft_skeleton_array(values, iterations)
            got = soft_skeleton_grad(tape, grad_skel.copy())
            want = oracle_skeleton_grad(values, iterations, grad_skel)
            assert np.abs(got - want).max() <= 1e-12

    def test_noisy_grid_narrows_its_keys_at_stage_two(self, monkeypatch):
        # as on a noisy 128^3 prediction: the first erosion keeps more than
        # 2^16 distinct values, the second fewer, so stages 0 and 1 pool
        # int32 ranks and the later ones uint16 keys, with the same tape
        mask, _ = straight_tube_mask(length_vox=80, radius_vox=12.0, dims=(96, 96, 96))
        values = noisy_tube(mask, 96)
        assert np.unique(MIN3(values)).size + 1 > 1 << 16
        seen, run = pooled_key_types(monkeypatch, values, iterations=10)
        types = stage_key_types(values, 10)
        assert types[:3] == [np.int32, np.int32, np.uint16]
        assert seen == [t for t in types for _ in ("min", "max")]
        assert np.array_equal(run[0], scipy_skeleton(values, 10))
        assert_tape_matches_packed_keys(monkeypatch, values, 10, run)

    @pytest.mark.parametrize("side, counted", [(48, 4), (64, 1)])
    def test_slowly_thinning_keys_are_counted_while_they_can_fit_in_time(self, monkeypatch, side, counted):
        # each erosion of a ramp keeps its interior, (side - 2k)^3 values and
        # the exterior's 0: at 48^3 the keys would fit 2^16 within half the
        # stages left, so they are counted until they narrow at stage 4; at
        # 64^3 they would not, so one count stops it and they stay int32
        z, y, x = np.indices((side, side, side))
        values = (x + side * y + side * side * z + 1.0) / side**3
        counts = []

        def counted_keys(keys, voxel):
            out = narrowed(keys, voxel)
            counts.append(out[2])
            return out

        narrowed = morphology._narrowed
        monkeypatch.setattr(morphology, "_narrowed", counted_keys)
        seen, run = pooled_key_types(monkeypatch, values, iterations=10)
        assert counts == [(side - 2 * k) ** 3 + 1 for k in range(1, counted + 1)]
        assert seen == [t for t in stage_key_types(values, 10) for _ in ("min", "max")]
        assert (seen[-1] == np.int32) == (counted == 1)
        assert np.array_equal(run[0], scipy_skeleton(values, 10))

    def test_tie_free_grids_pool_int32_ranks(self, monkeypatch):
        # without ties each rank names one voxel, and the tape is the one the
        # packed keys give, array for array
        grids = [tie_free_grid(seed) for seed in range(12)]
        mask, _ = straight_tube_mask(length_vox=14, radius_vox=3.0, dims=(16, 16, 16))
        grids.append(noisy_tube(mask, 16))
        for values in grids:
            _, keys, voxel = _rank_keys(values)
            assert keys.dtype == voxel.dtype == np.int32
            assert_tape_matches_packed_keys(monkeypatch, values, 6, soft_skeleton_array(values, iterations=6))

    def test_dense_stage_zero_on_a_noisy_grid(self, monkeypatch):
        # stage 0 on the whole grid gives the bytes of scatters on P_0 only,
        # on int32 ranks and packed keys
        mask, _ = straight_tube_mask(length_vox=20, radius_vox=5.0, dims=(24, 24, 24))
        values = noisy_tube(mask, 24)
        assert_matches_sparse_replay(values, 10)
        monkeypatch.setattr(morphology, "_rank_keys", packed_rank_keys)
        assert_matches_sparse_replay(values, 10)

    def test_dense_stage_zero_off_p0_is_plus_zero_beside_negative_zero(self):
        # -0.0 ties 0.0, so off P_0 a -0.0 voxel can take its opening from a
        # 0.0 one: -0.0 - 0.0 is -0.0, which the packed keys make +0.0
        values = np.array([1.0, 1.0, 1.0, 0.0, -0.0, 1.0, 0.5, 0.0, -0.0]).reshape(3, 3, 1)
        assert_matches_sparse_replay(values, 1)

    @pytest.mark.parametrize("tie", ["duplicate", "zero", "negative zero"])
    def test_one_tie_selects_packed_keys(self, tie):
        # one repeated value, or a 0.0 or -0.0 tying the exterior, needs the
        # stage-grid positions of the packed keys
        rng = np.random.default_rng(17)
        for seed in range(12):
            values = tie_free_grid(seed)
            if values.size == 1 and tie == "duplicate":
                continue
            flat = values.reshape(-1)
            i, j = rng.choice(values.size, size=2, replace=values.size == 1)
            flat[i] = {"duplicate": flat[j], "zero": 0.0, "negative zero": -0.0}[tie]
            assert _rank_keys(values)[2] is None
            iterations = int(rng.integers(1, 7))
            grad_skel = rng.normal(size=values.shape)
            skel, tape = soft_skeleton_array(values, iterations)
            assert np.array_equal(skel, scipy_skeleton(values, iterations))
            got = soft_skeleton_grad(tape, grad_skel.copy())
            assert np.abs(got - oracle_skeleton_grad(values, iterations, grad_skel)).max() <= 1e-12

    def test_gradient_on_routes_sharing_one_source(self):
        # a plateau around a unique minimum: erosion spreads the centre's
        # value, so hundreds of P_k voxels route to the same input voxel
        values = np.zeros((13, 13, 13))
        values[1:-1, 1:-1, 1:-1] = 0.9
        values[6, 6, 6] = 0.3
        grad_skel = np.random.default_rng(13).normal(size=values.shape)
        _, tape = soft_skeleton_array(values, iterations=5)
        shared = max(np.bincount(route, minlength=1).max() for stage in tape_stages(tape)[0] for route in stage[2:])
        assert shared >= 100
        got = soft_skeleton_grad(tape, grad_skel.copy())
        assert np.abs(got - oracle_skeleton_grad(values, 5, grad_skel)).max() <= 1e-12

    def test_pinned_skeleton_and_loss_bytes(self):
        # S, the clDice value and gradient, and the combined gradient at
        # K = 1 (epoch 0) and K < 1 (epoch 450) on two noisy 48^3 tube pairs
        # are pinned byte for byte: a change to the keyed pools or the loss
        # arithmetic must not move them. The clipped tube has exact-0 ties,
        # so it pools packed keys; the unclipped softsign tube has none, so it
        # pools int32 ranks.
        mask, _ = straight_tube_mask(length_vox=40, radius_vox=6.0, dims=(48, 48, 48))
        rng = np.random.default_rng(48)
        clipped = np.clip(mask.values * 0.8 + 0.1 + rng.normal(0.0, 0.05, mask.values.shape), 0.0, 1.0)
        pins = [
            (clipped, False, "fb512871506bdd3957a3fc49f8e0263f72b7b07ab8ea452f494a55a33962b331",
             "464a91003e2b73c8a40afa72323c80058656adbcd35aa76b43d2f1beb38fd607",
             ["5014b2e142429d0c7c3bc31648b37475f63ced6319cae15d2946c25b4af70638",
              "dbb3042eb8ba429e86bc843739ff00eed2c4745255eb67c82f02f97fceaf26ab",
              "0757728745c3a24af53faf3f3b9648508f8285b5991b6ea94d324888857403a4"]),
            (noisy_tube(mask, 48), True, "0b43b10a0eb396ba1c392cba6c207ea5254b51270ce2974f652e24b19a8dab5c",
             "6e7ff907b0fa8d47f2b24cece84fa5eb8a582fa49ce77a3d73c848f733355a45",
             ["a7a96e2ca585d0d03969f84637c003f980d006d669d40f556477ebf0e04c7357",
              "e995867205ee6d02ec2ca9889509bdebe5edf05148d494f1febba88cead6ca63",
              "5590570e1a3e0e87b23bbb46137e7dae620c0a7a6c85dc58f2b3701db7767333"]),
        ]
        for values, ranks, skel_hash, loss_hash, grad_hashes in pins:
            assert (_rank_keys(values)[2] is not None) == ranks
            skel, _ = soft_skeleton_array(values, iterations=10)
            assert hashlib.sha256(skel.tobytes()).hexdigest() == skel_hash
            pred = ProbVolume(mask.geometry, values)
            cld = cl_dice_loss(pred, mask)
            assert hashlib.sha256(struct.pack("<d", cld.value)).hexdigest() == loss_hash
            grads = [cld.gradient] + [combined_loss(pred, mask, epoch).gradient for epoch in (0, 450)]
            assert [hashlib.sha256(g.tobytes()).hexdigest() for g in grads] == grad_hashes

    @given(
        shape=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
        start=st.floats(0.0, 1.0),
        special=st.sampled_from([0.0, 0.1, 0.5]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_rank_keys_match_argsort_oracle(self, shape, start, special, seed):
        # an np.nextafter chain toward 0 or 1: neighbours share their top
        # 64 - b bits, so the sorted words form prefix runs; mixed with -0.0
        # beside 0.0, 1.0, subnormals and exact duplicates
        rng = np.random.default_rng(seed)
        chain = [start]
        toward = rng.choice([0.0, 1.0])
        while len(chain) < np.prod(shape):
            chain.append(np.nextafter(chain[-1], toward))
        specials = np.array([-0.0, 0.0, 1.0, 5e-324, 2.2250738585072014e-308, np.nextafter(1.0, 0.0), start])
        values = np.where(
            rng.random(len(chain)) < special, rng.choice(specials, len(chain)), rng.permutation(chain)
        ).reshape(shape)
        flat, keys, voxel = _rank_keys(values)
        want_flat, want_keys, want_voxel = argsort_rank_keys(values)
        assert flat.tobytes() == want_flat.tobytes()
        assert keys.dtype == want_keys.dtype and np.array_equal(keys, want_keys)
        assert (voxel is None) == (want_voxel is None)
        if voxel is not None:
            assert voxel.dtype == want_voxel.dtype and np.array_equal(voxel, want_voxel)

    @pytest.mark.parametrize(
        "dtype",
        [
            np.float32,
            np.float16,
            pytest.param(
                np.longdouble,
                marks=pytest.mark.skipif(np.dtype(np.longdouble).itemsize <= 8, reason="long double is float64 here"),
            ),
        ],
        ids=["float32", "float16", "longdouble"],
    )
    def test_input_other_than_float64_raises(self, dtype):
        # float64 only: the codes are float64 bits, which would merge
        # distinct long doubles, and a narrower grid is the caller's to widen
        with pytest.raises(ParameterError, match="float64"):
            soft_skeleton_array(tie_free_grid(3).astype(dtype), iterations=2)

    @pytest.mark.parametrize(
        "bad", [-5e-324, -0.5, np.nextafter(1.0, 2.0), np.inf, -np.inf, np.nan, -np.nan, None],
        ids=["-subnormal", "-0.5", "above-1", "+inf", "-inf", "+NaN", "-NaN", "uint8"],
    )
    def test_values_outside_the_unit_interval_raise(self, bad):
        # any value below 0 or -NaN sorts to the first code, any above 1,
        # +inf or +NaN to the last; -0.0 codes as 0.0 and is accepted
        values = random_prob_volume(geometry((5, 4, 3)), seed=6).values.copy()
        values[0, 0, 0] = -0.0
        soft_skeleton_array(values, iterations=2)
        if bad is None:
            values = (values > 0.5).astype(np.uint8)
        else:
            values[2, 1, 1] = bad
        with pytest.raises(ParameterError):
            soft_skeleton_array(values, iterations=2)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_nan_input_raises(self, sign):
        # a NaN's code sorts beyond 1.0's (or below 0's, with its sign bit
        # set), and it has no place in the order
        values = tie_free_grid(3)
        values.flat[values.size // 2] = np.copysign(np.nan, sign)
        with pytest.raises(ParameterError, match="NaN"):
            _rank_keys(values)
        with pytest.raises(ParameterError, match="NaN"):
            soft_skeleton_array(values, iterations=2)

    def test_gradient_consumes_its_arguments(self):
        # the backward pops the tape's stages and works in grad_skel, so a
        # caller that needs grad_skel again passes a copy, which gives the
        # same bits
        vol = random_prob_volume(geometry((9, 8, 7)), seed=4)
        grad_skel = np.random.default_rng(4).normal(size=vol.values.shape)
        _, tape = soft_skeleton_array(vol.values, iterations=5)
        _, other_tape = soft_skeleton_array(vol.values, iterations=5)
        want = soft_skeleton_grad(other_tape, grad_skel.copy())
        got = soft_skeleton_grad(tape, grad_skel)
        assert tape[:2] == ([], []) and other_tape[:2] == ([], [])
        assert got.tobytes() == want.tobytes()

    def test_backward_peak_memory(self):
        # forward plus backward on a noisy tube, in float64 grids: the tape
        # holds the stages after the first on their residual support only.
        # The clipped tube has exact-0 ties (packed keys), the other none.
        mask, _ = straight_tube_mask(length_vox=56, radius_vox=8.0, dims=(64, 64, 64))
        rng = np.random.default_rng(0)
        clipped = np.clip(mask.values * 0.8 + 0.1 + rng.normal(0.0, 0.05, mask.values.shape), 0.0, 1.0)
        for values in (clipped, noisy_tube(mask, 0)):
            grad_skel = rng.normal(size=values.shape)
            tracemalloc.start()
            try:
                _, tape = soft_skeleton_array(values, iterations=10)
                soft_skeleton_grad(tape, grad_skel)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak / values.nbytes <= GRID_PEAK_BOUND


def binary_skeleton_cases() -> list[np.ndarray]:
    """200 seeded 0/1 grids, in turn: random at density 0.3-0.95, a single
    voxel, face-touching, and a solid block 20-27 voxels a side (deeper
    than 11 erosions), some with a few voxels cut out."""
    cases = []
    for seed in range(200):
        rng = np.random.default_rng(seed)
        kind = seed % 4
        if kind == 0:
            shape = tuple(int(n) for n in rng.integers(1, 13, size=3))
            cases.append(rng.random(shape) < rng.uniform(0.3, 0.95))
        elif kind == 1:
            values = np.zeros(tuple(int(n) for n in rng.integers(1, 6, size=3)), dtype=bool)
            values[tuple(int(rng.integers(0, n)) for n in values.shape)] = True
            cases.append(values)
        elif kind == 2:
            cases.append(face_touching_values(seed, max_side=10))
        else:
            side = tuple(int(n) for n in rng.integers(20, 28, size=3))
            values = np.zeros(tuple(n + 4 for n in side), dtype=bool)
            values[tuple(slice(2, 2 + n) for n in side)] = True
            if seed % 8 == 7:
                values &= rng.random(values.shape) > 0.002
            cases.append(values)
    return cases


class TestBinarySkeleton:
    @pytest.mark.parametrize("iterations", [1, 2, 3, 10])
    def test_matches_scipy_soft_skeleton(self, iterations):
        # the depth-map skeleton against the soft skeleton of the 0/1 field
        # from SciPy's min/max filters, stage by stage
        for values in binary_skeleton_cases():
            got = skeletonize(BinaryMask(grid_geometry(values.shape), values), iterations).values
            assert np.array_equal(got, scipy_skeleton(values.astype(float), iterations) > 0)

    @pytest.mark.parametrize("iterations", [1, 2, 3, 10])
    def test_matches_scipy_on_phantom_trees(self, iterations):
        # SciPy runs on the trees' boxes: its exterior is 0 as the grid's is
        for name, mask in phantom_vessel_masks().items():
            box = bounding_box(mask.values)
            got = skeletonize(mask, iterations).values
            want = scipy_skeleton(mask.values[box].astype(float), iterations) > 0
            assert got.sum() == want.sum() > 0, name
            assert np.array_equal(got[box], want), name


class TestConnectedComponents:
    def test_empty_mask(self):
        g = geometry((4, 4, 4))
        cc = connected_components(BinaryMask(g, np.zeros(g.shape, bool)), 26)
        assert cc.count == 0

    def test_diagonal_offset_connectivity(self):
        g = geometry((4, 4, 4))
        m = np.zeros(g.shape, bool)
        m[1, 1, 1] = m[2, 2, 2] = True
        mask = BinaryMask(g, m)
        assert connected_components(mask, 26).count == 1
        assert connected_components(mask, 6).count == 2

    def test_two_separated_cubes(self):
        g = geometry((12, 5, 5))
        m = np.zeros(g.shape, bool)
        m[1:3, 1:3, 1:3] = True
        m[1:3, 1:3, 6:8] = True
        cc = connected_components(BinaryMask(g, m), 26)
        assert cc.count == 2
        assert sorted(cc.sizes[1:].tolist()) == [8, 8]

    def test_ids_follow_first_voxel_order(self):
        g = geometry((10, 3, 3))
        m = np.zeros(g.shape, bool)
        m[0, 0, 7] = True  # later in linear order
        m[2, 2, 1] = True  # later z: larger linear index
        cc = connected_components(BinaryMask(g, m), 26)
        flat = cc.labels.ravel()
        firsts = [np.flatnonzero(flat == cid)[0] for cid in (1, 2)]
        assert firsts[0] < firsts[1]

    @given(seed=st.integers(0, 300))
    @settings(max_examples=15, deadline=None)
    def test_six_connectivity_never_fewer_components(self, seed):
        mask = random_mask(geometry((8, 8, 8)), seed=seed, density=0.35)
        c26 = connected_components(mask, 26).count
        c6 = connected_components(mask, 6).count
        assert c6 >= c26

    def test_sizes_sum_to_popcount(self):
        mask = random_mask(geometry((9, 9, 9)), seed=77, density=0.4)
        cc = connected_components(mask, 18)
        assert cc.sizes.sum() == mask.popcount()

    def test_bounding_boxes(self):
        g = geometry((6, 6, 6))
        m = np.zeros(g.shape, bool)
        m[1:3, 2:4, 3:5] = True
        cc = connected_components(BinaryMask(g, m), 6)
        assert grid_boxes(cc) == [((3, 5), (2, 4), (1, 3))]


    @pytest.mark.parametrize("connectivity", [6, 18, 26])
    def test_scipy_label_ids_follow_first_voxel_order(self, connectivity):
        # `connected_components` keeps `ndimage.label`'s ids as they come, so
        # their first-voxel linear order is pinned here, on whole grids and
        # on the box views it labels: a SciPy that numbers components in
        # another order must fail this test rather than reorder reports.
        structure = ndimage.generate_binary_structure(3, {6: 1, 18: 2, 26: 3}[connectivity])
        truth = generate_case(default_spec())
        cases = []
        for volume in (truth.label_volume, degrade(truth, DegradeSpec(seed=2, relabel_fraction=0.05))):
            cases += [volume.labels == 2, volume.labels == 5]  # tumours; biliary tree with the gallbladder
        rng = np.random.default_rng(23)
        for density in (0.02, 0.06, 0.12, 0.2, 0.3, 0.45):
            for _ in range(16):
                cases.append(rng.random(tuple(int(n) for n in rng.integers(1, 21, size=3))) < density)
        counts = []
        for values in cases:
            box = bounding_box(values) or (slice(0, 0),) * 3
            for grid in (values, values[box]):
                labels, count = ndimage.label(grid, structure=structure)
                flat = labels.ravel()
                ids, firsts = np.unique(flat, return_index=True)
                assert flat[np.sort(firsts[ids > 0])].tolist() == list(range(1, count + 1))
            counts.append(count)
        assert sum(counts) >= 1000  # the order is checked over many components


EDT_SPACINGS = [(1.0, 1.0, 1.0), (2.0, 2.0, 3.0), (0.7, 0.9, 1.3), (0.7, 1.3, 2.1)]


def same_order_cases() -> list[np.ndarray]:
    """Phantom vessel masks; one-voxel lines and planes along each axis,
    through the middle and along the grid's faces; random masks of density
    0.02-0.3."""
    cases = [m.values for m in phantom_vessel_masks().values()]
    shape = (5, 6, 7)
    for axis in range(3):
        for at in (0, 2, -1):
            line = np.zeros(shape, dtype=bool)
            line[tuple(slice(None) if a == axis else at for a in range(3))] = True
            plane = np.zeros(shape, dtype=bool)
            plane[tuple(at if a == axis else slice(None) for a in range(3))] = True
            cases += [line, plane]
    rng = np.random.default_rng(19)
    for density in (0.02, 0.05, 0.1, 0.2, 0.3):
        for _ in range(4):
            cases.append(rng.random(tuple(int(n) for n in rng.integers(1, 24, size=3))) < density)
    return cases


class TestDistanceTransform:
    def test_isolated_voxel_distance_one(self):
        g = geometry((5, 5, 5))
        m = np.zeros(g.shape, bool)
        m[2, 2, 2] = True
        dt = np.sqrt(distance_transform_squared(BinaryMask(g, m)))
        assert dt[2, 2, 2] == 1.0
        assert dt[0, 0, 0] == 0.0

    def test_slab_center_distance(self):
        g = geometry((5, 5, 5))
        m = np.zeros(g.shape, bool)
        m[:, :, 1:4] = True  # 3 voxels thick along x
        dt = np.sqrt(distance_transform_squared(BinaryMask(g, m)))
        assert dt[2, 2, 2] == 2.0

    @pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (2.0, 2.0, 3.0)])
    def test_matches_brute_force_exactly(self, spacing):
        for seed in range(4):
            g = Geometry(dims=(16, 16, 16), spacing=spacing)
            mask = random_mask(g, seed=seed, density=0.5)
            got = distance_transform_squared(mask)
            want = brute_force_squared_edt(mask)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("spacing", EDT_SPACINGS)
    def test_matches_same_order_oracle(self, spacing):
        for values in same_order_cases():
            mask = BinaryMask(grid_geometry(values.shape, spacing), values)
            assert np.array_equal(distance_transform_squared(mask), separable_squared_edt(mask))

    def test_background_maps_to_zero(self):
        mask = random_mask(geometry((6, 6, 6)), seed=5, density=0.3)
        dt = np.sqrt(distance_transform_squared(mask))
        assert (dt[~mask.values] == 0.0).all()
        assert (dt[mask.values] > 0.0).all()


def oracle_components(values, connectivity):
    """scipy labels on the whole grid, renumbered by first-voxel linear index,
    with sizes and per-component boxes ((x0, x1), (y0, y1), (z0, z1))."""
    structure = ndimage.generate_binary_structure(3, {6: 1, 18: 2, 26: 3}[connectivity])
    raw, count = ndimage.label(values, structure=structure)
    ids, firsts = np.unique(raw.ravel(), return_index=True)
    fg = ids > 0
    remap = np.zeros(count + 1, dtype=np.int64)
    remap[ids[fg][np.argsort(firsts[fg])]] = np.arange(1, count + 1)
    labels = remap[raw]
    sizes = np.bincount(labels.ravel(), minlength=count + 1)
    sizes[0] = 0
    boxes = []
    for cid in range(1, count + 1):
        coords = np.argwhere(labels == cid)
        (z0, y0, x0), (z1, y1, x1) = coords.min(axis=0), coords.max(axis=0) + 1
        boxes.append(((x0, x1), (y0, y1), (z0, z1)))
    return labels, count, sizes, boxes


def grid_labels(cc):
    """The labels embedded at `cc.box` in a zeroed whole grid."""
    out = np.zeros(cc.geometry.shape, dtype=np.int32)
    out[cc.box] = cc.labels
    return out


def grid_boxes(cc):
    """Per-component boxes ((x0, x1), (y0, y1), (z0, z1)) on the whole grid."""
    return [
        tuple((b.start + s.start, b.start + s.stop) for b, s in zip(cc.box, sub))[::-1]
        for sub in cc.bounding_boxes
    ]


# A lone voxel, then grids whose foreground touches every face.
CROP_CASES = [np.ones((1, 1, 1), dtype=bool)] + [face_touching_values(seed) for seed in range(12)]


class TestBoundingBox:
    def test_empty_is_none(self):
        assert bounding_box(np.zeros((3, 4, 5), dtype=bool)) is None
        assert bounding_box(np.zeros((0, 4, 5), dtype=bool)) is None

    def test_matches_foreground_extent(self):
        for values in CROP_CASES:
            for offset in EMBED_OFFSETS:
                grid = embed(values, offset)
                box = bounding_box(grid)
                assert box == tuple(slice(o, o + n) for o, n in zip(offset, values.shape))
                assert np.array_equal(grid[box], values)

    def test_counts_any_nonzero_value(self):
        grid = np.zeros((4, 4, 4), dtype=np.uint8)
        grid[1, 3, 0] = grid[2, 0, 2] = 7
        assert bounding_box(grid) == (slice(1, 3), slice(0, 4), slice(0, 3))

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.uint16, np.int8, np.int32, np.float32, np.float64])
    def test_matches_nonzero_oracle_on_random_grids(self, dtype):
        rng = np.random.default_rng(11)
        for density in (0.0, 0.002, 0.02, 0.2):
            for _ in range(8):
                shape = tuple(int(n) for n in rng.integers(1, 12, size=3))
                values = np.where(rng.random(shape) < density, rng.choice([-3, -1, 1, 200], size=shape), 0)
                # a grid whose only foreground is one negative voxel
                lone = np.zeros(shape, dtype=np.int64)
                lone[tuple(int(rng.integers(0, n)) for n in shape)] = -1
                for grid in (values.astype(dtype), lone.astype(dtype), values.astype(dtype)[::2, :, ::-1]):
                    hit = np.nonzero(grid)
                    want = tuple(slice(int(i.min()), int(i.max()) + 1) for i in hit) if hit[0].size else None
                    assert bounding_box(grid) == want


def nonzero_box(grid):
    hit = np.nonzero(grid)
    return tuple(slice(int(i.min()), int(i.max()) + 1) for i in hit) if hit[0].size else None


class TestLabelBoxes:
    """`label_boxes` against `bounding_box(labels == id)` and a nonzero
    oracle, for every id asked for."""

    def check(self, labels, ids):
        got = label_boxes(labels, ids)
        assert list(got) == list(ids)
        for i in ids:
            assert got[i] == bounding_box(labels == i) == nonzero_box(labels == i)

    def test_random_label_grids(self):
        rng = np.random.default_rng(29)
        for density in (0.0, 0.01, 0.1, 0.5, 1.0):
            for _ in range(12):
                shape = tuple(int(n) for n in rng.integers(1, 14, size=3))
                labels = np.where(rng.random(shape) < density, rng.integers(1, 7, size=shape), 0).astype(np.uint8)
                self.check(labels, list(range(1, 7)))
                self.check(labels[::2, 1:, ::-1], [1, 3, 6])

    def test_all_background(self):
        labels = np.zeros((4, 5, 6), dtype=np.uint8)
        assert label_boxes(labels, [1, 2, 9, 255]) == dict.fromkeys([1, 2, 9, 255])
        self.check(labels, [0, 1])

    def test_one_voxel_at_each_corner(self):
        shape = (5, 6, 7)
        for corner in itertools.product(*((0, n - 1) for n in shape)):
            for label in (1, 7, 8, 255):
                labels = np.zeros(shape, dtype=np.uint8)
                labels[corner] = label
                assert label_boxes(labels, [label])[label] == tuple(slice(c, c + 1) for c in corner)
                self.check(labels, [1, 7, 8, 255])

    def test_ids_of_eight_and_above(self):
        # Groups of 8 ids: each id below its group's base wraps to a shift of
        # 8 or more, which must give 0, never a stray bit.
        ids = [9, 17, 64, 130, 200, 255]
        rng = np.random.default_rng(31)
        for density in (0.005, 0.05, 0.5):
            for _ in range(8):
                shape = tuple(int(n) for n in rng.integers(1, 14, size=3))
                labels = np.where(rng.random(shape) < density, rng.choice(ids, size=shape), 0).astype(np.uint8)
                self.check(labels, ids)
                self.check(labels, [0, 1, 8, 16, 254])  # absent ids beside present ones
        labels = np.arange(256, dtype=np.uint8).reshape(4, 8, 8)  # every id, once
        self.check(labels, list(range(256)))


class TestCropInvariance:
    """A mask embedded at an offset in a larger zero grid gives the results
    of the mask alone, shifted, and whole-grid oracles agree."""

    @pytest.mark.parametrize("connectivity", [6, 26])
    def test_components_match_oracle_and_shift(self, connectivity):
        for small in CROP_CASES:
            base = connected_components(BinaryMask(grid_geometry(small.shape), small), connectivity)
            for offset in EMBED_OFFSETS:
                values = embed(small, offset)
                cc = connected_components(BinaryMask(grid_geometry(values.shape), values), connectivity)
                labels, count, sizes, boxes = oracle_components(values, connectivity)
                assert cc.labels.dtype == np.int32
                assert np.array_equal(grid_labels(cc), labels)
                assert np.array_equal(grid_labels(cc), embed(grid_labels(base), offset))
                assert cc.count == count == base.count
                assert np.array_equal(cc.sizes, sizes)
                assert np.array_equal(cc.sizes, base.sizes)
                assert grid_boxes(cc) == boxes
                shift = offset[::-1]  # (x, y, z)
                shifted = [
                    tuple((lo + o, hi + o) for (lo, hi), o in zip(box, shift)) for box in grid_boxes(base)
                ]
                assert grid_boxes(cc) == shifted

    @pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (2.0, 2.0, 3.0), (0.7, 1.3, 2.1)])
    def test_distance_transform_matches_oracle_and_shifts(self, spacing):
        for small in CROP_CASES:
            mask = BinaryMask(grid_geometry(small.shape, spacing), small)
            base = distance_transform_squared(mask)
            assert np.array_equal(base, separable_squared_edt(mask))
            if spacing != (0.7, 1.3, 2.1):  # the oracle sums in another order
                assert np.array_equal(base, brute_force_squared_edt(mask))
            for offset in EMBED_OFFSETS:
                values = embed(small, offset)
                mask = BinaryMask(grid_geometry(values.shape, spacing), values)
                got = distance_transform_squared(mask)
                assert got.dtype == np.float64
                assert np.array_equal(got, embed(base, offset))

    def test_empty_mask_gives_zeros(self):
        mask = BinaryMask(grid_geometry((3, 4, 5)), np.zeros((3, 4, 5), dtype=bool))
        cc = connected_components(mask, 26)
        assert cc.labels.dtype == np.int32 and cc.labels.size == 0
        assert grid_labels(cc).shape == (3, 4, 5) and not grid_labels(cc).any()
        assert (cc.count, cc.sizes.tolist(), cc.bounding_boxes) == (0, [0], ())
        dt = distance_transform_squared(mask)
        assert dt.dtype == np.float64 and dt.shape == (3, 4, 5)
        assert not dt.any()
