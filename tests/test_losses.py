import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hepeval.errors import ParameterError, RangeError, ShapeMismatchError
from hepeval.losses import (
    GradedScalar,
    _ce_field_and_grad,
    LossConfig,
    bootstrapped_ce_loss,
    cl_dice_loss,
    combined_loss,
    cross_entropy_loss,
    finite_difference_check,
    k_schedule,
    soft_dice_loss,
)
from hepeval.phantom import straight_tube_mask
from hepeval.volume import BinaryMask, Geometry, ProbVolume

from conftest import noisy_tube, random_mask, separated_prob_volume


def plain_ce(p, g, clip):
    """The CE field and derivative as whole-grid expressions."""
    pc = np.clip(p, clip, 1.0 - clip)
    field = -(g * np.log(pc) + (1.0 - g) * np.log1p(-pc))
    active = (p >= clip) & (p <= 1.0 - clip)
    return field, np.where(active, -g / pc + (1.0 - g) / (1.0 - pc), 0.0)


def line_geometry(n):
    return Geometry(dims=(n, 1, 1), spacing=(1.0, 1.0, 1.0))


def vec_volume(values):
    g = line_geometry(len(values))
    return ProbVolume(g, np.asarray(values, dtype=float).reshape(g.shape))


def vec_mask(values):
    g = line_geometry(len(values))
    return BinaryMask(g, np.asarray(values, dtype=bool).reshape(g.shape))


class TestSoftDice:
    def test_identity_is_exactly_zero(self):
        gt = vec_mask([1, 1, 0, 1])
        pred = ProbVolume(gt.geometry, gt.values.astype(float))
        assert soft_dice_loss(pred, gt).value == 0.0

    def test_all_zero_pred_against_four_foreground(self):
        gt = vec_mask([1, 1, 1, 1])
        pred = vec_volume([0, 0, 0, 0])
        got = soft_dice_loss(pred, gt, epsilon=1e-5).value
        assert got == pytest.approx(1.0 - 1e-5 / (4 + 1e-5), abs=1e-12)

    def test_half_overlap(self):
        pred = vec_volume([1, 1, 0, 0])
        gt = vec_mask([1, 0, 1, 0])
        got = soft_dice_loss(pred, gt, epsilon=1e-5).value
        assert got == pytest.approx(1.0 - (2 + 1e-5) / (4 + 1e-5), abs=1e-12)

    def test_geometry_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            soft_dice_loss(vec_volume([0.5, 0.5]), vec_mask([1, 0, 0]))

    def test_value_in_unit_interval(self):
        g = Geometry(dims=(6, 6, 6), spacing=(1, 1, 1))
        pred = separated_prob_volume(g, seed=4)
        gt = random_mask(g, seed=5)
        v = soft_dice_loss(pred, gt).value
        assert 0.0 <= v <= 1.0


class TestCrossEntropy:
    def test_perfect_prediction_is_near_zero(self):
        gt = vec_mask([1, 0, 1, 0])
        pred = ProbVolume(gt.geometry, gt.values.astype(float))
        _, graded = cross_entropy_loss(pred, gt, clip=1e-7)
        assert graded.value == pytest.approx(-math.log(1 - 1e-7), abs=1e-12)

    def test_uniform_half_gives_ln2(self):
        gt = vec_mask([1, 0, 1, 1])
        pred = vec_volume([0.5] * 4)
        _, graded = cross_entropy_loss(pred, gt)
        assert graded.value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_single_voxel_value(self):
        gt = vec_mask([1])
        pred = vec_volume([0.9])
        field, graded = cross_entropy_loss(pred, gt)
        assert field[0, 0, 0] == pytest.approx(0.105361, abs=1e-6)
        assert graded.value == pytest.approx(-math.log(0.9), abs=1e-12)

    def test_bounded_by_clip(self):
        gt = vec_mask([1, 0])
        pred = vec_volume([0.0, 1.0])
        field, graded = cross_entropy_loss(pred, gt, clip=1e-7)
        # bound up to float representation of 1 - clip
        assert graded.value <= -math.log(1e-7) + 1e-9
        assert (graded.gradient == 0).all()  # both voxels clipped


class TestKSchedule:
    def test_warmup_is_exactly_one(self):
        cfg = LossConfig()
        assert all(k_schedule(e, cfg) == 1.0 for e in (0, 1, 200, 399))

    def test_ramp_endpoints_exact(self):
        cfg = LossConfig()
        assert k_schedule(400, cfg) == 0.15
        assert k_schedule(499, cfg) == 0.50

    def test_monotone_on_ramp(self):
        cfg = LossConfig()
        ks = [k_schedule(e, cfg) for e in range(400, 500)]
        assert all(a <= b for a, b in zip(ks, ks[1:]))

    def test_out_of_range_raises(self):
        with pytest.raises(RangeError):
            k_schedule(500, LossConfig())
        with pytest.raises(RangeError):
            k_schedule(-1, LossConfig())

    def test_one_ramp_epoch_is_k_end(self):
        cfg = LossConfig(warmup_epochs=3, ramp_epochs=1, k_start=0.2, k_end=0.6)
        assert [k_schedule(e, cfg) for e in range(4)] == [1.0, 1.0, 1.0, 0.6]

    def test_total_epochs_is_warmup_plus_ramp(self):
        cfg = LossConfig(warmup_epochs=10, ramp_epochs=7)
        assert k_schedule(16, cfg) == cfg.k_end
        with pytest.raises(RangeError):
            k_schedule(17, cfg)


class TestLossConfig:
    @pytest.mark.parametrize("fields, message", [
        ({"w_cldice": -1.0}, "weights"),
        ({"w_bce": -0.5}, "weights"),
        ({"skeleton_iterations": 0}, "skeleton_iterations"),
        ({"warmup_epochs": -1}, "warmup_epochs"),
        ({"ramp_epochs": -1}, "ramp_epochs"),
        ({"epsilon": 0.0}, "epsilon"),
        ({"ce_clip": -1e-7}, "ce_clip"),
        ({"k_start": 0.0}, "k_start"),
        ({"k_start": 0.6, "k_end": 0.5}, "k_start <= k_end"),
        ({"k_end": 1.5}, "k_end <= 1"),
    ])
    def test_out_of_range_field_raises(self, fields, message):
        with pytest.raises(ParameterError, match=message):
            LossConfig(**fields)


class TestBootstrappedCE:
    def test_k_one_reduces_to_plain_mean(self):
        for seed in range(10):
            g = Geometry(dims=(5, 4, 3), spacing=(1, 1, 1))
            pred = separated_prob_volume(g, seed=seed)
            gt = random_mask(g, seed=seed + 100)
            _, plain = cross_entropy_loss(pred, gt)
            boot = bootstrapped_ce_loss(pred, gt, k=1.0)
            assert abs(boot.value - plain.value) < 1e-12
            assert np.allclose(boot.gradient, plain.gradient, atol=1e-15)

    def test_hand_computed_top_half(self):
        gt = vec_mask([1, 1, 0, 0])
        pred = vec_volume([0.9, 0.6, 0.4, 0.1])
        got = bootstrapped_ce_loss(pred, gt, k=0.5)
        assert got.value == pytest.approx(0.510826, abs=1e-6)

    def test_hand_computed_full_mean(self):
        gt = vec_mask([1, 1, 0, 0])
        pred = vec_volume([0.9, 0.6, 0.4, 0.1])
        got = bootstrapped_ce_loss(pred, gt, k=1.0)
        assert got.value == pytest.approx(0.308093, abs=1e-6)

    def test_gradient_zero_outside_selection(self):
        gt = vec_mask([1, 1, 0, 0])
        pred = vec_volume([0.9, 0.6, 0.4, 0.1])
        got = bootstrapped_ce_loss(pred, gt, k=0.5)
        flat = got.gradient.ravel()
        assert flat[0] == 0.0 and flat[3] == 0.0
        assert flat[1] != 0.0 and flat[2] != 0.0

    def test_invalid_k(self):
        gt = vec_mask([1, 0])
        pred = vec_volume([0.5, 0.5])
        for k in (0.0, -0.5, 1.5):
            with pytest.raises(ParameterError):
                bootstrapped_ce_loss(pred, gt, k=k)

    def test_tied_selection_matches_stable_argsort(self):
        # a quantised field ties thousands of voxels at every threshold; the
        # selection must equal the first m of a stable descending sort
        g = Geometry(dims=(17, 13, 11), spacing=(1, 1, 1))
        rng = np.random.default_rng(3)
        pred = ProbVolume(g, rng.integers(1, 6, size=g.shape) / 6.0)
        gt = random_mask(g, seed=4, density=0.5)
        field, dfield = _ce_field_and_grad(pred.values, gt.values, 1e-7)
        flat = field.ravel()
        for k in (0.01, 0.15, 0.333, 0.5, 0.77, 1.0):
            m = max(1, math.ceil(k * flat.size))
            selected = np.sort(np.argsort(-flat, kind="stable")[:m])
            want_grad = np.zeros(flat.size)
            want_grad[selected] = dfield.ravel()[selected] / m
            got = bootstrapped_ce_loss(pred, gt, k)
            assert got.value == float(flat[selected].mean())
            assert np.array_equal(got.gradient.ravel(), want_grad)

    @given(seed=st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_value_non_increasing_in_k(self, seed):
        g = Geometry(dims=(4, 4, 4), spacing=(1, 1, 1))
        pred = separated_prob_volume(g, seed=seed)
        gt = random_mask(g, seed=seed + 1)
        values = [bootstrapped_ce_loss(pred, gt, k=k).value for k in (0.1, 0.3, 0.5, 0.8, 1.0)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_field_is_bit_equal_to_plain_expressions(self):
        rng = np.random.default_rng(8)
        p = rng.random((9, 8, 7))
        p.ravel()[:6] = [0.0, 1.0, 1e-9, 1 - 1e-9, 1e-7, 1 - 1e-7]  # clipped and edge voxels
        g = rng.random(p.shape) < 0.4
        want_field, want_dfield = plain_ce(p, g.astype(np.float64), 1e-7)
        field, dfield = _ce_field_and_grad(p, g, 1e-7)
        assert field.tobytes() == want_field.tobytes()
        assert dfield.tobytes() == want_dfield.tobytes()

    @pytest.mark.parametrize("k", [1.0, 0.3])
    def test_peak_memory(self, k):
        # one call's tracemalloc peak in float64 grids of its input: 5.0
        # in place, 6.1 from whole-grid expressions
        g = Geometry(dims=(64, 64, 64), spacing=(1, 1, 1))
        pred = separated_prob_volume(g, seed=2)
        gt = random_mask(g, seed=3)
        tracemalloc.start()
        try:
            bootstrapped_ce_loss(pred, gt, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / pred.values.nbytes <= 5.1


def make_tube_pair():
    """Stored 40-voxel straight tube and its one-step dilation."""
    from hepeval.morphology import pool_array

    gt, _ = straight_tube_mask(length_vox=40, radius_vox=0.5, dims=(56, 12, 12))
    dilated = pool_array(gt.values.astype(np.uint8), "max")
    pred = BinaryMask(gt.geometry, dilated > 0)
    return gt, pred


class TestClDice:
    def test_identity_tube_is_near_zero(self):
        gt, _ = straight_tube_mask(length_vox=20, radius_vox=2.0, dims=(30, 12, 12))
        pred = ProbVolume(gt.geometry, gt.values.astype(float))
        loss = cl_dice_loss(pred, gt, iterations=4)
        assert loss.value == pytest.approx(0.0, abs=1e-4)

    def test_disjoint_prediction_approaches_one(self):
        g = Geometry(dims=(12, 8, 8), spacing=(1, 1, 1))
        gt_vals = np.zeros(g.shape, bool)
        gt_vals[2:6, 2:6, 1:4] = True
        pred_vals = np.zeros(g.shape)
        pred_vals[2:6, 2:6, 8:11] = 1.0
        loss = cl_dice_loss(ProbVolume(g, pred_vals), BinaryMask(g, gt_vals), iterations=3)
        assert loss.value > 0.999

    def test_peak_memory(self):
        # one call's tracemalloc peak in float64 grids of a tie-free (int32
        # rank) 64^3 prediction: 5.4 with the tape reading the input through
        # a view, 6.7 with a copy of it, stage 0 on the whole grid and the
        # narrowed stages routed by key, 7.4 with stage 0 on P_0 only and
        # every stage routed by voxel index, 8.6 with int32 keys throughout
        # and a copied dL/dS
        mask, _ = straight_tube_mask(length_vox=56, radius_vox=8.0, dims=(64, 64, 64))
        pred = ProbVolume(mask.geometry, noisy_tube(mask, 0))
        tracemalloc.start()
        try:
            cl_dice_loss(pred, mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / pred.values.nbytes <= 5.5

    def test_dilated_tube_cldice_small_but_dice_large(self):
        gt, pred_mask = make_tube_pair()
        pred = ProbVolume(gt.geometry, pred_mask.values.astype(float))
        cld = cl_dice_loss(pred, gt, iterations=4)
        dice = soft_dice_loss(pred, gt)
        assert cld.value < 0.02
        assert dice.value > 0.15


class TestCombined:
    def test_epoch_zero_composition(self):
        g = Geometry(dims=(6, 5, 4), spacing=(1, 1, 1))
        pred = separated_prob_volume(g, seed=8)
        gt = random_mask(g, seed=9)
        cfg = LossConfig()
        combined = combined_loss(pred, gt, epoch=0, config=cfg)
        cld = cl_dice_loss(pred, gt, cfg.skeleton_iterations, cfg.epsilon)
        _, plain = cross_entropy_loss(pred, gt, cfg.ce_clip)
        assert combined.value == pytest.approx(cld.value + plain.value, abs=1e-12)

    def test_zero_cldice_weight_equals_bce(self):
        g = Geometry(dims=(5, 5, 5), spacing=(1, 1, 1))
        pred = separated_prob_volume(g, seed=12)
        gt = random_mask(g, seed=13)
        cfg = LossConfig(w_cldice=0.0)
        combined = combined_loss(pred, gt, epoch=450, config=cfg)
        k = k_schedule(450, cfg)
        bce = bootstrapped_ce_loss(pred, gt, k, cfg.ce_clip)
        assert combined.value == bce.value
        assert np.array_equal(combined.gradient, 1.0 * bce.gradient)

    def test_final_epoch_hand_composition(self):
        gt = vec_mask([1, 1, 0, 0])
        pred = vec_volume([0.9, 0.6, 0.4, 0.1])
        cfg = LossConfig(skeleton_iterations=2)
        combined = combined_loss(pred, gt, epoch=499, config=cfg)
        cld = cl_dice_loss(pred, gt, 2, cfg.epsilon)
        assert combined.value == pytest.approx(cld.value + 0.510826, abs=1e-6)

    def test_gradient_is_weighted_sum(self):
        g = Geometry(dims=(4, 4, 4), spacing=(1, 1, 1))
        pred = separated_prob_volume(g, seed=30)
        gt = random_mask(g, seed=31)
        cfg = LossConfig(w_cldice=0.7, w_bce=1.3, skeleton_iterations=3)
        combined = combined_loss(pred, gt, epoch=0, config=cfg)
        cld = cl_dice_loss(pred, gt, 3, cfg.epsilon)
        bce = bootstrapped_ce_loss(pred, gt, 1.0, cfg.ce_clip)
        expected = 0.7 * cld.gradient + 1.3 * bce.gradient
        assert np.array_equal(combined.gradient, expected)


class TestFiniteDifferences:
    def test_soft_dice_gradient(self):
        g = Geometry(dims=(8, 8, 8), spacing=(1, 1, 1))
        pred = separated_prob_volume(g, seed=1)
        gt = random_mask(g, seed=2)
        err = finite_difference_check(
            lambda p, m: soft_dice_loss(p, m), pred, gt, samples=64, h=1e-4
        )
        assert err < 1e-4

    def test_cross_entropy_gradient(self):
        g = Geometry(dims=(8, 8, 8), spacing=(1, 1, 1))
        pred = separated_prob_volume(g, seed=3)
        gt = random_mask(g, seed=4)
        err = finite_difference_check(
            lambda p, m: cross_entropy_loss(p, m)[1], pred, gt, samples=64, h=1e-5
        )
        assert err < 1e-4

    def test_cl_dice_gradient(self):
        g = Geometry(dims=(8, 8, 8), spacing=(1, 1, 1))
        pred = separated_prob_volume(g, seed=5)
        gt = random_mask(g, seed=6)
        err = finite_difference_check(
            lambda p, m: cl_dice_loss(p, m, iterations=3), pred, gt, samples=48, h=1e-5
        )
        assert err < 1e-3

    def test_perturbed_gradients_are_caught(self):
        # with the analytic value in the denominator, a halved gradient shows
        # a relative error of ~1.0 and a doubled one of ~0.5
        g = Geometry(dims=(6, 6, 6), spacing=(1, 1, 1))
        pred = separated_prob_volume(g, seed=7)
        gt = random_mask(g, seed=8)

        def scaled(factor):
            def loss(p, m):
                graded = soft_dice_loss(p, m)
                return GradedScalar(graded.value, factor * graded.gradient)

            return loss

        assert finite_difference_check(scaled(0.5), pred, gt, samples=32, h=1e-4) == pytest.approx(
            1.0, rel=0.05
        )
        assert finite_difference_check(scaled(2.0), pred, gt, samples=32, h=1e-4) == pytest.approx(
            0.5, rel=0.05
        )
