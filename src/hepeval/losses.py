"""Training losses with exact analytic gradients w.r.t. the prediction.

Soft Dice, (bootstrapped) cross-entropy with the warm-up K schedule, and the
centerline-Dice loss, whose gradient runs back through the soft skeleton's
stages with max-pool style argmax routing. The skeleton's forward records,
on each stage's residual support, the input voxels its values came from
(see `morphology`), so the backward is sparse in-place scatters
(`ufunc.at`, a block of the narrow routes at a time) onto the input and
runs no pool. Its tape reads their values through a view of the
prediction's read-only grid, with no copy of it.
Arrays no later step reads are updated in place or released before the
backward runs. The binary truth is read as booleans and never copied to
floats: each CE and clDice term takes one of two forms on and off the truth
(or its skeleton), and the skeleton's backward works in its own dL/dS
argument. At 128^3, `cl_dice_loss` peaks at 92.1 MB (tracemalloc), on a
float64 prediction and on its float32 cast alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, RangeError
from .morphology import soft_skeleton_array, soft_skeleton_grad
from .vessel import skeletonize
from .volume import BinaryMask, ProbVolume, _check_fields, require_same_geometry


@dataclass(frozen=True)
class GradedScalar:
    """A loss value paired with its gradient over the prediction grid."""

    value: float
    gradient: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ParameterError(f"loss value is not finite: {self.value}")
        if not np.isfinite(self.gradient).all():
            raise ParameterError("loss gradient contains non-finite entries")


@dataclass(frozen=True)
class LossConfig:
    """Weights, smoothing and the bootstrapped-CE warm-up schedule.

    The schedule keeps K at 100% for `warmup_epochs`, then ramps linearly
    from `k_start` to `k_end` over the remaining `ramp_epochs`.
    """

    w_cldice: float = 1.0
    w_bce: float = 1.0
    skeleton_iterations: int = 10
    epsilon: float = 1e-5
    ce_clip: float = 1e-7
    warmup_epochs: int = 400
    ramp_epochs: int = 100
    k_start: float = 0.15
    k_end: float = 0.50

    def __post_init__(self):
        _check_fields(
            self,
            integers=("skeleton_iterations", "warmup_epochs", "ramp_epochs"),
            reals=("w_cldice", "w_bce", "epsilon", "ce_clip", "k_start", "k_end"),
        )
        if self.w_cldice < 0 or self.w_bce < 0:
            raise ParameterError("loss weights must be >= 0")
        if self.skeleton_iterations < 1:
            raise ParameterError("skeleton_iterations must be >= 1")
        if self.warmup_epochs < 0 or self.ramp_epochs < 0:
            raise ParameterError("warmup_epochs and ramp_epochs must be >= 0")
        if self.epsilon <= 0 or self.ce_clip <= 0:
            raise ParameterError("epsilon and ce_clip must be > 0")
        if not 0 < self.k_start <= self.k_end <= 1:
            raise ParameterError("need 0 < k_start <= k_end <= 1")

    @property
    def total_epochs(self) -> int:
        """Epochs the schedule covers: the warm-up followed by the ramp."""
        return self.warmup_epochs + self.ramp_epochs


def soft_dice_loss(pred: ProbVolume, gt: BinaryMask, epsilon: float = 1e-5) -> GradedScalar:
    """1 - (2 sum(p g) + eps) / (sum p + sum g + eps), with exact gradient."""
    require_same_geometry(pred, gt)
    p = pred.values
    g = gt.values.astype(np.float64)
    inter = float((p * g).sum())
    denom = float(p.sum() + g.sum()) + epsilon
    num = 2.0 * inter + epsilon
    value = 1.0 - num / denom
    grad = -(2.0 * g * denom - num) / (denom * denom)
    return GradedScalar(value, grad)


def _ce_field_and_grad(p: np.ndarray, g: np.ndarray, clip: float):
    """Per-voxel CE for the boolean truth `g`, pc = clip(p), and its derivative:
    -log(pc) and -1/pc where g is set, -log1p(-pc) and 1/(1 - pc) elsewhere.
    The derivative is zero where clipping moved p.

    These are the bits of -(g log pc + (1 - g) log1p(-pc)) with g as 0.0 or
    1.0, because the term that drops out is a signed zero added to a nonzero
    value. log1p runs on every voxel; log runs on the truth voxels only and
    overwrites it there.
    """
    pc = np.clip(p, clip, 1.0 - clip)
    at = np.flatnonzero(g)
    fg = pc.ravel()[at]
    field = np.negative(pc)
    np.log1p(field, out=field)
    field.ravel()[at] = np.log(fg)
    np.negative(field, out=field)
    dfield = np.subtract(1.0, pc)
    np.divide(1.0, dfield, out=dfield)
    dfield.ravel()[at] = np.divide(-1.0, fg)
    dfield[pc != p] = 0.0
    return field, dfield


def cross_entropy_loss(
    pred: ProbVolume, gt: BinaryMask, clip: float = 1e-7
) -> tuple[np.ndarray, GradedScalar]:
    """Per-voxel cross-entropy field plus its mean with exact gradient.

    Probabilities are clamped to [clip, 1 - clip]; clipped voxels carry zero
    gradient.
    """
    require_same_geometry(pred, gt)
    field, dfield = _ce_field_and_grad(pred.values, gt.values, clip)
    dfield /= field.size
    mean = GradedScalar(float(field.mean()), dfield)
    return field, mean


def k_schedule(epoch: int, config: LossConfig = LossConfig()) -> float:
    """Top-K fraction for a training epoch: 1.0 during warm-up, then a ramp
    hitting k_start at the first ramp epoch and exactly k_end at the last."""
    if not 0 <= epoch < config.total_epochs:
        raise RangeError(f"epoch {epoch} outside [0, {config.total_epochs})")
    if epoch < config.warmup_epochs:
        return 1.0
    if config.ramp_epochs == 1:
        return config.k_end
    t = (epoch - config.warmup_epochs) / (config.ramp_epochs - 1)
    return config.k_start + (config.k_end - config.k_start) * t


def bootstrapped_ce_loss(
    pred: ProbVolume, gt: BinaryMask, k: float, clip: float = 1e-7
) -> GradedScalar:
    """Mean of the top ceil(k*N) per-voxel cross-entropy losses.

    Voxels tied at the selection threshold enter by smallest linear index.
    The gradient is the per-voxel CE derivative scaled by 1/m on selected
    voxels and zero elsewhere.
    """
    require_same_geometry(pred, gt)
    if not 0.0 < k <= 1.0:
        raise ParameterError(f"k must be in (0, 1], got {k}")
    field, dfield = _ce_field_and_grad(pred.values, gt.values, clip)
    flat = field.ravel()
    m = max(1, int(np.ceil(k * flat.size)))
    dfield /= m
    if m == flat.size:
        return GradedScalar(float(flat.mean()), dfield)
    # The m-th largest loss is the threshold; everything above it is in, and
    # voxels tied at it enter by smallest linear index.
    threshold = np.partition(flat, flat.size - m)[flat.size - m]
    selected = flat > threshold
    tied = np.flatnonzero(flat == threshold)
    selected[tied[: m - np.count_nonzero(selected)]] = True
    value = float(flat[np.flatnonzero(selected)].mean())  # the same array as flat[selected], gathered faster
    np.logical_not(selected, out=selected)
    dfield.ravel()[selected] = 0.0
    return GradedScalar(value, dfield)


def cl_dice_loss(
    pred: ProbVolume,
    gt: BinaryMask,
    iterations: int = 10,
    epsilon: float = 1e-5,
) -> GradedScalar:
    """Centerline-Dice loss between a soft prediction and a binary truth.

    Topology precision compares the predicted soft skeleton against the truth
    mask; topology sensitivity compares the truth skeleton against the
    prediction. The truth skeleton is a constant, the binary `skeletonize`
    (on 0/1 input every soft-skeleton value is exactly 0 or 1), so the
    gradient combines the direct sensitivity path with the backward pass of
    the prediction's skeleton. Both paths take one value on the truth (or
    its skeleton) and another off it, built from scalars in the operation
    order of the whole-grid expressions, so their bits are the same.
    """
    require_same_geometry(pred, gt)
    p = pred.values
    g = gt.values

    skel_g = skeletonize(gt, iterations).values
    skel_p, tape = soft_skeleton_array(p, iterations)

    sum_sp = float(skel_p.sum())
    sum_sg = float(np.count_nonzero(skel_g))
    tprec_num = float((skel_p * g).sum()) + epsilon
    del skel_p
    tprec_den = sum_sp + epsilon
    tsens_num = float((skel_g * p).sum()) + epsilon
    tsens_den = sum_sg + epsilon
    tprec = tprec_num / tprec_den
    tsens = tsens_num / tsens_den
    value = 1.0 - 2.0 * tprec * tsens / (tprec + tsens)

    s = tprec + tsens
    dl_dtprec = -2.0 * tsens * tsens / (s * s)
    dl_dtsens = -2.0 * tprec * tprec / (s * s)

    # Skeleton path: d tprec / d skel_p is (g tprec_den - tprec_num) /
    # tprec_den^2, scaled, then back through the skeleton to p.
    den2 = tprec_den * tprec_den
    on = (tprec_den - tprec_num) / den2 * dl_dtprec
    off = -tprec_num / den2 * dl_dtprec
    grad = soft_skeleton_grad(tape, np.where(g, on, off))
    del tape
    # Direct path: d tsens / d p, which is -0.0 off the skeleton, and
    # x + (-0.0) = x.
    grad[skel_g] += dl_dtsens / tsens_den
    return GradedScalar(value, grad)


def loss_terms(
    pred: ProbVolume, gt: BinaryMask, epoch: int, config: LossConfig = LossConfig()
) -> tuple[float, GradedScalar, GradedScalar, GradedScalar]:
    """(K, clDice, bootstrapped CE at K, their weighted sum) for an epoch."""
    k = k_schedule(epoch, config)
    cld = cl_dice_loss(pred, gt, config.skeleton_iterations, config.epsilon)
    bce = bootstrapped_ce_loss(pred, gt, k, config.ce_clip)
    value = config.w_cldice * cld.value + config.w_bce * bce.value
    gradient = config.w_cldice * cld.gradient
    gradient += config.w_bce * bce.gradient
    return k, cld, bce, GradedScalar(value, gradient)


def combined_loss(
    pred: ProbVolume, gt: BinaryMask, epoch: int, config: LossConfig = LossConfig()
) -> GradedScalar:
    """w_cldice * clDice + w_bce * bootstrapped CE at the scheduled K."""
    return loss_terms(pred, gt, epoch, config)[3]


def finite_difference_check(
    loss_fn,
    pred: ProbVolume,
    gt: BinaryMask,
    samples: int = 64,
    h: float = 1e-5,
    seed: int = 0,
) -> float:
    """Max relative error between analytic gradient and central differences.

    ``loss_fn(pred, gt) -> GradedScalar``. The prediction should sit strictly
    inside the CE clip band and carry enough per-voxel noise that pooling and
    top-k ties do not move within +-h.
    """
    analytic = loss_fn(pred, gt)
    rng = np.random.default_rng(seed)
    flat_idx = rng.choice(pred.values.size, size=min(samples, pred.values.size), replace=False)
    worst = 0.0
    base = pred.values
    for idx in flat_idx:
        bumped = base.copy().reshape(-1)
        bumped[idx] += h
        plus = loss_fn(ProbVolume(pred.geometry, bumped.reshape(base.shape)), gt).value
        bumped[idx] -= 2 * h
        minus = loss_fn(ProbVolume(pred.geometry, bumped.reshape(base.shape)), gt).value
        fd = (plus - minus) / (2.0 * h)
        ana = analytic.gradient.ravel()[idx]
        rel = abs(fd - ana) / max(abs(ana), 1e-8)
        worst = max(worst, rel)
    return worst
