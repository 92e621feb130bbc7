"""The benchmark's workloads: seeded inputs, one operation, output checks.

Each workload builds its inputs from the seed with the package's phantom
generator, then runs one operation per call of `op`. Only the generated
volumes reach the package: `PhantomSpec.seed` is read by nothing in
`generate_case`, so every seeded choice is made here and passed as data.

- `eval_liver`: `hepeval eval` on liver-scale phantoms. Reading, skeletons,
  the skeleton graph (connected components and EDT dominate), the split,
  binary clDice, lesion matching and the gallbladder split all run; the loss
  path stays idle.
- `eval_htree`: the same operation on axis-aligned H-tree phantoms. The
  graph is a real tree, so chain walking, cycle breaking, generations and
  Strahler orders do most of the graph work; there are no tumours and the
  grid is smaller.
- `loss_train`: `combined_loss` on a 128^3 prediction/truth pair. Pooling,
  the soft-skeleton gradient and top-K CE do all the work; the evaluation
  layers stay idle.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np

# Package functions are called through their modules, so that the tracer's
# rebinding reaches them.
from hepeval import cli, losses, nifti, phantom
from hepeval.phantom import DegradeSpec, Sphere, axis_tree_spec, default_spec
from hepeval.volume import DEFAULT_SCHEMA, BinaryMask, Geometry, ProbVolume

import oracles

def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _scaled(spec, scale: int):
    """The same physical phantom on a grid `scale` times coarser."""
    if scale == 1:
        return spec
    g = spec.geometry
    geometry = Geometry(
        dims=tuple(d // scale for d in g.dims),
        spacing=tuple(s * scale for s in g.spacing),
        origin=g.origin,
        orientation=g.orientation,
    )
    return dataclasses.replace(spec, geometry=geometry)


class EvalWorkload:
    """One op = one in-process `hepeval eval --jobs 1` call on one pair."""

    def __init__(self, work: Path, scale: int = 1):
        self.work = work
        self.scale = scale
        self.out = work / "out"
        self.pairs: list[dict] = []
        schema = json.loads(
            resources.files("hepeval").joinpath("schemas/case_report.schema.json").read_text()
        )
        self.validator = jsonschema.Draft7Validator(schema)

    def choices(self, seed: int) -> list[tuple]:
        """Per pair: (phantom spec, degrade spec)."""
        raise NotImplementedError

    def setup(self, seed: int) -> None:
        self.pairs = []
        for k, (spec, dspec) in enumerate(self.choices(seed)):
            truth = phantom.generate_case(_scaled(spec, self.scale))
            pred = phantom.degrade(truth, dspec)
            gt_path = self.work / f"case{k}.nii.gz"
            pred_path = self.work / f"case{k}_pred.nii.gz"
            nifti.write_nifti(truth.label_volume, gt_path)
            nifti.write_nifti(pred, pred_path)
            self.pairs.append(
                {
                    "gt": gt_path,
                    "pred": pred_path,
                    "report": self.out / f"case_case{k}.report.json",
                    "gt_labels": truth.label_volume.labels,
                    "pred_labels": pred.labels,
                }
            )

    def digests(self) -> dict[str, str]:
        return {
            path.name: _sha256(path.read_bytes())
            for pair in self.pairs
            for path in (pair["gt"], pair["pred"])
        }

    def prepare(self) -> None:
        label_ids = {name: i for i, name in DEFAULT_SCHEMA.ids.items()}
        for pair in self.pairs:
            pair["oracle"] = oracles.case_oracle(pair["gt_labels"], pair["pred_labels"], label_ids)
        gt = self.pairs[0]["gt_labels"]
        self.self_oracle = oracles.case_oracle(gt, gt, label_ids)

    def _run(self, gt: Path, pred: Path, report: Path):
        report.unlink(missing_ok=True)
        args = ["eval", "--gt", str(gt), "--pred", str(pred), "--out", str(self.out), "--jobs", "1"]
        return cli.main(args), report

    def _check(self, outcome, oracle: dict, self_pair: bool) -> list[str]:
        code, report = outcome
        if code != 0:
            return [f"hepeval eval exited with {code}"]
        if not report.exists():
            return [f"no case report at {report.name}"]
        return oracles.check_case_report(
            json.loads(report.read_text()), oracle, self.validator, self_pair
        )

    def warmup(self) -> list[str]:
        """A self-pair (pred = gt) op, checked for the identity result."""
        pair = self.pairs[0]
        outcome = self._run(pair["gt"], pair["gt"], pair["report"])
        return self._check(outcome, self.self_oracle, self_pair=True)

    def op(self, i: int):
        pair = self.pairs[i % len(self.pairs)]
        return self._run(pair["gt"], pair["pred"], pair["report"])

    def check(self, i: int, outcome) -> list[str]:
        return self._check(outcome, self.pairs[i % len(self.pairs)]["oracle"], self_pair=False)


class EvalLiver(EvalWorkload):
    """`default_spec()` truths; the seed sets gallbladder presence (two of
    the four pairs have one), erosion severity, relabel dropout of 0-5 % and
    a spurious tumour blob."""

    def choices(self, seed: int) -> list[tuple]:
        rng = np.random.default_rng(seed)
        out = []
        for gallbladder in rng.permutation([True, True, False, False]):
            erode = {"hepatic_vein": 1}
            if rng.random() < 0.5:
                erode["portal_vein"] = 1
            blob = Sphere(
                center_mm=tuple(float(c) for c in rng.uniform((90, 90, 130), (170, 170, 260))),
                radius_mm=float(rng.uniform(5.0, 8.0)),
            )
            dspec = DegradeSpec(
                seed=int(rng.integers(2**31)),
                erode_steps=erode,
                spurious_blobs=(("tumor", blob),),
                relabel_fraction=float(rng.uniform(0.0, 0.05)),
            )
            out.append((default_spec(gallbladder_present=bool(gallbladder)), dspec))
        return out


class EvalHTree(EvalWorkload):
    """`axis_tree_spec(levels)` truths, levels 3 and 4 (two pairs each); the
    seed picks the dropped branch edges and a relabel dropout of 0-1 %."""

    def choices(self, seed: int) -> list[tuple]:
        rng = np.random.default_rng(seed)
        out = []
        for levels in rng.permutation([3, 3, 4, 4]):
            # Edges are numbered parent-first; ids >= 3 are generation >= 2.
            n_edges = 2 ** (int(levels) + 1) - 1
            drop = rng.choice(np.arange(3, n_edges), size=int(rng.integers(0, 3)), replace=False)
            dspec = DegradeSpec(
                seed=int(rng.integers(2**31)),
                drop_edge_ids=tuple(sorted(int(e) for e in drop)),
                relabel_fraction=float(rng.uniform(0.0, 0.01)),
            )
            out.append((axis_tree_spec(int(levels)), dspec))
        return out


class LossTrain:
    """One op = one `combined_loss(pred, gt, epoch, LossConfig())` call.

    `gt` is the liver phantom's venous mask (portal and hepatic veins);
    `pred` is a sigmoid of +-2 logits plus seeded Gaussian noise, so it
    stays inside the CE clip band and has no pooling ties. The seed draws
    one warm-up epoch (K = 1) and one ramp epoch (K < 1); ops alternate.
    """

    NOISE_SD = 0.5

    def __init__(self, work: Path, scale: int = 1):
        self.scale = scale
        self.config = losses.LossConfig()

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        truth = phantom.generate_case(_scaled(default_spec(), self.scale))
        labels = truth.label_volume.labels
        vessel_ids = [DEFAULT_SCHEMA.id_of(n) for n in ("portal_vein", "hepatic_vein")]
        g = np.isin(labels, vessel_ids)
        logits = np.where(g, 2.0, -2.0) + rng.normal(0.0, self.NOISE_SD, g.shape)
        geometry = truth.label_volume.geometry
        self.pred = ProbVolume(geometry, 1.0 / (1.0 + np.exp(-logits)))
        self.gt = BinaryMask(geometry, g)
        c = self.config
        self.epochs = (
            int(rng.integers(c.warmup_epochs, c.total_epochs)),
            int(rng.integers(0, c.warmup_epochs)),
        )
        # Gradient-check voxels: one on the vessels, two anywhere.
        fg = np.flatnonzero(g)
        flat = [int(rng.choice(fg)), *rng.integers(0, g.size, size=2).tolist()]
        self.voxels = [np.unravel_index(v, g.shape) for v in flat]

    def digests(self) -> dict[str, str]:
        return {
            "pred": _sha256(self.pred.values.tobytes()),
            "gt": _sha256(self.gt.values.tobytes()),
            "epochs": ",".join(map(str, self.epochs)),
        }

    def prepare(self) -> None:
        self.oracle = oracles.LossOracle(
            self.pred.values, self.gt.values.astype(np.float64), self.config, self.voxels
        )

    def warmup(self) -> list[str]:
        """`cl_dice_loss` alone: its value must be bit-equal to the reference."""
        c = self.config
        result = losses.cl_dice_loss(self.pred, self.gt, c.skeleton_iterations, c.epsilon)
        return self.oracle.check_cl_dice(result)

    def op(self, i: int):
        return losses.combined_loss(self.pred, self.gt, self.epochs[i % 2], self.config)

    def check(self, i: int, outcome) -> list[str]:
        return self.oracle.check_combined(outcome, self.epochs[i % 2])


WORKLOADS = {"eval_liver": EvalLiver, "eval_htree": EvalHTree, "loss_train": LossTrain}
