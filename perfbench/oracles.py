"""Reference results computed without hepeval's own algorithms.

Each check returns a list of problem strings; an empty list means the
output is correct. A non-empty list marks the op as failed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import ndimage

FD_TOLERANCE = 1e-3  # the acceptance tolerance for clDice gradients
TOPK_TOLERANCE = 1e-12  # the acceptance tolerance for the top-K identity
FD_STEP = 1e-5


# ---------------------------------------------------------------- evaluation


def label_dsc(gt_labels: np.ndarray, pred_labels: np.ndarray, label_id: int) -> float:
    """2|A∩B| / (|A| + |B|) of one label; 1.0 when both are empty."""
    a = gt_labels == label_id
    b = pred_labels == label_id
    total = int(a.sum()) + int(b.sum())
    return 1.0 if total == 0 else 2.0 * int((a & b).sum()) / total


def lesion_counts(gt_tumor: np.ndarray, pred_tumor: np.ndarray) -> dict[str, int]:
    """Truth lesions, detected lesions and false positives under 26-adjacency."""
    box = np.ones((3, 3, 3), dtype=bool)
    gt_cc, n_gt = ndimage.label(gt_tumor, structure=box)
    pred_cc, n_pred = ndimage.label(pred_tumor, structure=box)
    detected = np.unique(gt_cc[pred_tumor & (gt_cc > 0)])
    hit_pred = np.unique(pred_cc[gt_tumor & (pred_cc > 0)])
    return {
        "n_gt": int(n_gt),
        "n_detected": int(detected.size),
        "n_false_positive": int(n_pred - hit_pred.size),
    }


def case_oracle(gt_labels: np.ndarray, pred_labels: np.ndarray, label_ids: dict[str, int]) -> dict:
    """Expected per-structure DSC and lesion counts for one label pair."""
    tumor = label_ids["tumor"]
    return {
        "dsc": {
            name: label_dsc(gt_labels, pred_labels, i)
            for name, i in label_ids.items()
            if name != "background"
        },
        "lesions": lesion_counts(gt_labels == tumor, pred_labels == tumor),
    }


def check_case_report(report: dict, oracle: dict, validator, self_pair: bool) -> list[str]:
    problems = [f"schema: {e.message}" for e in validator.iter_errors(report)]
    if problems:
        return problems
    for name, expected in oracle["dsc"].items():
        got = report["dsc"].get(name)
        if got is None or abs(got - expected) > 1e-12:
            problems.append(f"dsc[{name}] = {got}, expected {expected}")
    for key, expected in oracle["lesions"].items():
        if report["lesions"][key] != expected:
            problems.append(f"lesions.{key} = {report['lesions'][key]}, expected {expected}")
    if self_pair:
        for block in ("dsc", "central_dsc", "peripheral_dsc", "cl_dice"):
            for name, value in report[block].items():
                if value is not None and value != 1.0:
                    problems.append(f"self-pair {block}[{name}] = {value}, expected 1.0")
        if report["lesions"]["n_false_positive"] != 0:
            problems.append("self-pair has false-positive lesions")
    return problems


# -------------------------------------------------------------- training loss


def _min3(a):
    return ndimage.minimum_filter(a, size=3, mode="constant", cval=0.0)


def _max3(a):
    return ndimage.maximum_filter(a, size=3, mode="constant", cval=0.0)


def soft_skeleton(values: np.ndarray, iterations: int) -> np.ndarray:
    """Soft skeleton (clDice, Shit et al. 2021) from SciPy 3x3x3 min/max
    filters with a zero exterior.

    Keeps the input dtype: on a 0/1 uint8 mask every step is exactly 0 or 1,
    as it is in float64, and the filters run several times faster.
    """
    current = values
    skel = np.maximum(current - _max3(_min3(current)), 0)
    for _ in range(iterations):
        current = _min3(current)
        delta = np.maximum(current - _max3(_min3(current)), 0)
        skel = skel + (1 - skel) * delta
    return skel


def _cl_dice(sum_sp, sum_sp_g, sum_sg_p, sum_sg, eps):
    tprec = (sum_sp_g + eps) / (sum_sp + eps)
    tsens = (sum_sg_p + eps) / (sum_sg + eps)
    return 1.0 - 2.0 * tprec * tsens / (tprec + tsens)


class LossOracle:
    """Reference clDice value, its central-difference gradient at a few
    voxels, and np.sort-based top-K cross-entropy for a fixed input pair."""

    def __init__(self, p: np.ndarray, g: np.ndarray, config, voxels):
        self.p = p
        self.g = g
        self.config = config
        self.voxels = [tuple(int(c) for c in v) for v in voxels]
        iters, eps = config.skeleton_iterations, config.epsilon
        self.skel_p = soft_skeleton(p, iters)
        self.skel_g = soft_skeleton(g.astype(np.uint8), iters).astype(np.float64)
        self.sums = (
            float(self.skel_p.sum()),
            float((self.skel_p * g).sum()),
            float((self.skel_g * p).sum()),
            float(self.skel_g.sum()),
        )
        self.cl_value = _cl_dice(*self.sums, eps)
        self.cl_grad = [self._cl_fd(v) for v in self.voxels]
        self._ce = {}

    def _cl_fd(self, v) -> float:
        """Central difference of the clDice value at voxel v.

        A voxel moves the soft skeleton only within r = iterations + 2 of
        it, and that window depends on inputs within 2r, so both sides are
        recomputed on a crop and the sums are updated by the difference.
        """
        r = self.config.skeleton_iterations + 2
        crop = tuple(slice(max(c - 2 * r, 0), min(c + 2 * r + 1, n)) for c, n in zip(v, self.p.shape))
        inner = tuple(slice(max(c - r, 0), min(c + r + 1, n)) for c, n in zip(v, self.p.shape))
        inner_in_crop = tuple(slice(i.start - c.start, i.stop - c.start) for i, c in zip(inner, crop))
        local_v = tuple(c - s.start for c, s in zip(v, crop))
        base = self.skel_p[inner]
        g_inner = self.g[inner]
        sum_sp, sum_sp_g, sum_sg_p, sum_sg = self.sums
        values = []
        for sign in (1.0, -1.0):
            patch = self.p[crop].copy()
            patch[local_v] += sign * FD_STEP
            moved = soft_skeleton(patch, self.config.skeleton_iterations)[inner_in_crop] - base
            values.append(
                _cl_dice(
                    sum_sp + float(moved.sum()),
                    sum_sp_g + float((moved * g_inner).sum()),
                    sum_sg_p + sign * FD_STEP * float(self.skel_g[v]),
                    sum_sg,
                    self.config.epsilon,
                )
            )
        return (values[0] - values[1]) / (2.0 * FD_STEP)

    def k_for(self, epoch: int) -> float:
        c = self.config
        if epoch < c.warmup_epochs:
            return 1.0
        return c.k_start + (c.k_end - c.k_start) * (epoch - c.warmup_epochs) / (c.ramp_epochs - 1)

    def ce(self, epoch: int) -> tuple[float, list[float]]:
        """Top-K CE value and its gradient at the oracle voxels."""
        if epoch not in self._ce:
            clip = self.config.ce_clip
            pc = np.clip(self.p, clip, 1.0 - clip)
            field = -(self.g * np.log(pc) + (1.0 - self.g) * np.log(1.0 - pc))
            n = field.size
            m = max(1, math.ceil(self.k_for(epoch) * n))
            ranked = np.sort(field, axis=None)
            threshold = ranked[n - m]
            grads = []
            for v in self.voxels:
                pv, gv = self.p[v], self.g[v]
                active = clip <= pv <= 1.0 - clip
                d = (-gv / pv + (1.0 - gv) / (1.0 - pv)) if active else 0.0
                grads.append(d / m if field[v] >= threshold else 0.0)
            self._ce[epoch] = (float(ranked[n - m :].mean()), grads)
        return self._ce[epoch]

    def _grad_problems(self, gradient: np.ndarray, expected: list[float]) -> list[str]:
        problems = []
        for v, want in zip(self.voxels, expected):
            got = float(gradient[v])
            if abs(got - want) > FD_TOLERANCE * max(abs(want), 1e-8):
                problems.append(f"gradient at {v} = {got!r}, reference {want!r}")
        return problems

    def check_cl_dice(self, result) -> list[str]:
        problems = []
        if result.value != self.cl_value:
            problems.append(f"clDice {result.value!r} is not bit-equal to reference {self.cl_value!r}")
        return problems + self._grad_problems(result.gradient, self.cl_grad)

    def check_combined(self, result, epoch: int) -> list[str]:
        c = self.config
        ce_value, ce_grad = self.ce(epoch)
        want = c.w_cldice * self.cl_value + c.w_bce * ce_value
        problems = []
        if not abs(result.value - want) <= TOPK_TOLERANCE:
            problems.append(f"combined loss {result.value!r}, reference {want!r}")
        expected = [c.w_cldice * a + c.w_bce * b for a, b in zip(self.cl_grad, ce_grad)]
        return problems + self._grad_problems(result.gradient, expected)
