#!/usr/bin/env python3
"""End-to-end phantom experiment.

Generates a batch of liver phantoms, degrades each one into a synthetic
prediction at two severity levels, evaluates both batches, and compares the
per-structure DSC populations with the Mann-Whitney U test. The cases of a
batch differ only in gallbladder presence (every other case has one) and in
the degrade seed, which drives the relabel dropout of the severe batch.

Usage:
    python scripts/run_phantom_eval.py --out out/experiment --cases 6
"""

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
os.environ.setdefault("HEPEVAL_LOG", "WARNING")

from hepeval.cli import main as cli_main
from hepeval.nifti import write_nifti
from hepeval.phantom import DegradeSpec, Sphere, default_spec, degrade, generate_case

MILD = dict(erode_steps={"hepatic_vein": 1})
SEVERE = dict(
    erode_steps={"hepatic_vein": 1, "portal_vein": 1},
    relabel_fraction=0.05,
)


def build_batch(out: Path, cases: int, severity: dict, tag: str) -> tuple[list[str], list[str]]:
    gt_paths, pred_paths = [], []
    for i in range(cases):
        truth = generate_case(default_spec(gallbladder_present=i % 2 == 0))
        dspec = DegradeSpec(
            seed=100 + i,
            spurious_blobs=(("tumor", Sphere(center_mm=(176.0, 96.0, 150.0), radius_mm=7.0)),),
            **severity,
        )
        pred = degrade(truth, dspec)
        gt_path = out / f"{tag}_case{i:02d}.nii.gz"
        pred_path = out / f"{tag}_case{i:02d}_pred.nii.gz"
        write_nifti(truth.label_volume, gt_path)
        write_nifti(pred, pred_path)
        gt_paths.append(str(gt_path))
        pred_paths.append(str(pred_path))
    return gt_paths, pred_paths


def run(out_dir: str, cases: int) -> int:
    out = Path(out_dir)
    (out / "volumes").mkdir(parents=True, exist_ok=True)

    runs = {}
    for tag, severity in (("mild", MILD), ("severe", SEVERE)):
        gt, pred = build_batch(out / "volumes", cases, severity, tag)
        run_dir = out / f"eval_{tag}"
        code = cli_main(["eval", "--gt", *gt, "--pred", *pred, "--out", str(run_dir)])
        if code != 0:
            print(f"eval batch {tag} failed with exit code {code}", file=sys.stderr)
            return code
        runs[tag] = run_dir
        summary = json.loads((run_dir / "summary.json").read_text())
        print(f"\n=== {tag} degradation ({cases} cases) ===")
        for name, entry in sorted(summary["structures"].items()):
            if entry is None:
                print(f"  {name:28s} (absent in every case)")
            elif "/" not in name or name.endswith(("central", "peripheral")):
                print(f"  {name:28s} {entry['mean']:.3f} +- {entry['sd']:.3f}")
        det = summary["tumor_detection"]
        print(f"  tumor detection rate         {det['rate_mean']:.3f} +- {det['rate_sd']:.3f}")
        print(f"  median false positives       {det['median_false_positives']:.1f}")

    print("\n=== Mann-Whitney: mild vs severe, per structure ===")
    return cli_main(["stats", str(runs["mild"] / "cases.csv"), str(runs["severe"] / "cases.csv")])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/experiment")
    parser.add_argument("--cases", type=int, default=4)
    args = parser.parse_args()
    sys.exit(run(args.out, args.cases))
