"""Command-line surface: eval, phantom, loss, skeleton, stats.

Exit codes: 0 success, 1 usage/config error, 2 partial data failure (a batch
ran but at least one case failed). Outputs are UTF-8 JSON and RFC 4180 CSV;
eval, phantom and skeleton write a run manifest with the SHA-256 digest of
the bytes each input held when it was read.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import logging
import math
import os
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import HepevalError, ParameterError, RangeError
from .losses import LossConfig, loss_terms
from .metrics import CaseReport, EvalConfig, aggregate, evaluate_case, mann_whitney_u
from .nifti import (
    read_binary_mask,
    read_label_volume,
    read_prob_volume,
    write_int_nifti,
    write_nifti,
)
from .phantom import (
    degrade,
    degrade_from_json_dict,
    generate_case,
    spec_from_json_dict,
    truth_manifest,
)
from .vessel import build_graph, classify_central_peripheral, skeletonize

log = logging.getLogger("hepeval")


def _read_json(path, digests: dict[str, str | None]):
    """Parse the JSON file at `path`, storing the SHA-256 of the bytes parsed
    in `digests` under ``str(path)``."""
    data = Path(path).read_bytes()
    digests[str(path)] = hashlib.sha256(data).hexdigest()
    return json.loads(data)


def _atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: Path, obj) -> None:
    _atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, rows: list[list]) -> None:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerows(rows)
    _atomic_write_text(path, buf.getvalue())


def _run_manifest(command: list[str], config: dict, input_digests: dict[str, str]) -> dict:
    return {
        "tool_version": __version__,
        "command": command,
        "config": config,
        "input_digests": input_digests,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _load_config(path: str | None, digests: dict[str, str | None]) -> tuple[LossConfig, EvalConfig, dict]:
    raw = _read_json(path, digests) if path else {}
    if not isinstance(raw, dict):
        raise ParameterError(f"a config must be a JSON object, got {type(raw).__name__}")
    loss_fields = set(LossConfig.__dataclass_fields__)
    eval_fields = set(EvalConfig.__dataclass_fields__)
    unknown = set(raw) - loss_fields - eval_fields
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(unknown)}")
    loss = LossConfig(**{k: v for k, v in raw.items() if k in loss_fields})
    ev = EvalConfig(**{k: v for k, v in raw.items() if k in eval_fields})
    return loss, ev, raw


def _case_id(path: str | Path) -> str:
    name = Path(path).name
    for suffix in (".nii.gz", ".nii"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def cmd_eval(args) -> int:
    if len(args.gt) != len(args.pred):
        log.error("need equally many --gt and --pred paths")
        return 1
    if args.jobs < 0:
        log.error("usage error: --jobs must be >= 0, got %d", args.jobs)
        return 1
    # each case writes case_<id>.report.json, so no two --gt paths may share
    # an id, the same path given twice included
    ids = Counter(map(_case_id, args.gt))
    repeated = sorted(case for case, n in ids.items() if n > 1)
    if repeated:
        log.error("usage error: more than one --gt file gives case id %r", repeated[0])
        return 1
    # an input the batch never reads keeps a null digest
    digests = dict.fromkeys(map(str, [*args.gt, *args.pred]))
    try:
        _, eval_cfg, raw_cfg = _load_config(args.config, digests)
        if args.connectivity is not None:
            eval_cfg = replace(eval_cfg, connectivity=args.connectivity)
        if args.skeleton_iters is not None:
            eval_cfg = replace(eval_cfg, skeleton_iterations=args.skeleton_iters)
    except (OSError, ValueError, HepevalError, TypeError) as exc:
        log.error("config error: %s", exc)
        return 1

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pairs = list(zip(args.gt, args.pred))

    def run_one(pair):
        gt_path, pred_path = pair
        case = _case_id(gt_path)
        gt = read_label_volume(gt_path, digests=digests)
        pred = read_label_volume(pred_path, digests=digests)
        report = evaluate_case(gt, pred, eval_cfg, case_id=case)
        _write_json(out / f"case_{case}.report.json", report.to_json_dict())
        return report

    # One worker runs the cases in this thread: a pool thread made per batch
    # works in its own malloc arena, which can be trimmed and grown again on
    # every case (about 2,000 minor page faults per 128x80x112 case).
    jobs = min(args.jobs or os.cpu_count() or 1, len(pairs))
    reports: list[CaseReport] = []
    failures: list[dict] = []  # {"case_id", "error": exception class name}, in batch order
    with ThreadPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        results = (pool.map if pool else map)(lambda p: _try(run_one, p), pairs)
        for pair, result in zip(pairs, results):
            if isinstance(result, Exception):
                log.error("case %s failed: %s", _case_id(pair[0]), result)
                failures.append({"case_id": _case_id(pair[0]), "error": type(result).__name__})
            else:
                reports.append(result)

    manifest = _run_manifest(["eval", *map(str, args.gt), *map(str, args.pred)], raw_cfg, digests)
    manifest["failed_cases"] = failures
    _write_json(out / "manifest.json", manifest)

    if reports:
        summary = aggregate(reports)
        _write_json(out / "summary.json", summary.to_json_dict())
        _write_csv(out / "summary.csv", summary.to_csv_rows())
        _write_csv(out / "cases.csv", _case_rows(reports))
    return 2 if failures else 0


def _try(fn, arg):
    try:
        return fn(arg)
    except Exception as exc:  # per-case isolation: batch keeps going
        return exc


def _case_rows(reports: list[CaseReport]) -> list[list]:
    rows = [["case_id", "structure", "dsc", "central_dsc", "peripheral_dsc", "cl_dice"]]
    for r in sorted(reports, key=lambda r: r.case_id):
        for name, value in r.dsc.items():
            rows.append(
                [
                    r.case_id,
                    name,
                    value,
                    _blank(r.central_dsc.get(name)),
                    _blank(r.peripheral_dsc.get(name)),
                    _blank(r.cl_dice.get(name)),
                ]
            )
    return rows


def _blank(v):
    return "" if v is None else v


def cmd_phantom(args) -> int:
    digests: dict[str, str | None] = {}
    try:
        spec = spec_from_json_dict(_read_json(args.spec, digests))
        truth = generate_case(spec)
    except (OSError, ValueError, HepevalError) as exc:
        log.error("invalid phantom spec: %s", exc)
        return 1

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_nifti(truth.label_volume, out / "truth.nii.gz")
    geometry = truth.label_volume.geometry
    write_int_nifti(geometry, truth.edge_tag, out / "edge_tags.nii.gz")
    write_int_nifti(geometry, truth.generation_tag.astype(np.int32), out / "generation_tags.nii.gz")
    manifest = truth_manifest(truth)

    if args.degrade:
        try:
            dspec = degrade_from_json_dict(_read_json(args.degrade, digests))
            degraded = degrade(truth, dspec)
        except (OSError, ValueError, HepevalError) as exc:
            log.error("invalid degrade spec: %s", exc)
            return 1
        write_nifti(degraded, out / "prediction.nii.gz")
        manifest["degrade_applied"] = True

    manifest["run"] = _run_manifest(["phantom", str(args.spec)], {}, digests)
    _write_json(out / "truth_manifest.json", manifest)
    return 0


def cmd_loss(args) -> int:
    try:
        loss_cfg, _, _ = _load_config(args.config, {})
    except (OSError, ValueError, HepevalError, TypeError) as exc:
        log.error("config error: %s", exc)
        return 1
    try:
        pred = read_prob_volume(args.pred)
        gt = read_binary_mask(args.gt)
        k, cld, bce, combined = loss_terms(pred, gt, args.epoch, loss_cfg)
    except RangeError as exc:
        log.error("epoch out of range: %s", exc)
        return 1
    except (OSError, HepevalError) as exc:
        log.error("%s", exc)
        return 1
    # np.linalg.norm is BLAS ddot, whose kernel and last bits vary by CPU
    norm = math.sqrt(float(np.square(combined.gradient).sum()))
    print(
        json.dumps(
            {
                "cl_dice": cld.value,
                "bootstrapped_ce": bce.value,
                "combined": combined.value,
                "k_used": k,
                "gradient_norm": norm,
            },
            indent=2,
            sort_keys=True,
        )
    )
    return 0


def cmd_skeleton(args) -> int:
    iterations = EvalConfig.skeleton_iterations if args.skeleton_iters is None else args.skeleton_iters
    if iterations < 1:
        log.error("config error: --skeleton-iters must be >= 1, got %d", iterations)
        return 1
    digests: dict[str, str | None] = {}
    try:
        mask = read_binary_mask(args.mask, digests=digests)
    except (OSError, HepevalError) as exc:
        log.error("%s", exc)
        return 1

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    skel = skeletonize(mask, iterations)
    if skel.popcount() == 0:
        log.warning("empty skeleton: input mask has no stable foreground")
    graph = build_graph(skel, mask)
    split = classify_central_peripheral(graph, mask)

    write_nifti(skel, out / "skeleton.nii.gz")
    write_nifti(split.central, out / "central.nii.gz")
    write_nifti(split.peripheral, out / "peripheral.nii.gz")
    _write_json(out / "graph.json", graph.to_json_dict())
    manifest = _run_manifest(
        ["skeleton", str(args.mask)],
        {"skeleton_iterations": iterations},
        digests,
    )
    _write_json(out / "manifest.json", manifest)
    return 0


def cmd_stats(args) -> int:
    try:
        a = _read_case_csv(args.csv_a)
        b = _read_case_csv(args.csv_b)
    except (OSError, KeyError, ValueError) as exc:
        log.error("cannot read per-case CSV: %s", exc)
        return 1
    structures = sorted(set(a) & set(b))
    if not structures:
        log.error("the two CSV files share no structures")
        return 1
    results = {}
    for name in structures:
        try:
            r = mann_whitney_u(a[name], b[name])
        except ParameterError as exc:
            log.error("%s: %s", name, exc)
            return 1
        results[name] = {
            "U": r.U,
            "p_two_sided": r.p_two_sided,
            "method": r.method,
            "tie_correction_applied": r.tie_correction_applied,
            "n1": len(a[name]),
            "n2": len(b[name]),
        }
    print(json.dumps(results, indent=2, sort_keys=True))
    return 0


def _read_case_csv(path) -> dict[str, list[float]]:
    """Per-structure DSC samples from an eval run's cases.csv."""
    out: dict[str, list[float]] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            if None in row:  # DictReader keeps a row's extra fields under the key None
                raise ValueError(f"{path}: line {reader.line_num} has more fields than the header")
            if None in row.values():
                raise ValueError(f"{path}: line {reader.line_num} has fewer fields than the header")
            if row["dsc"] != "":
                out.setdefault(row["structure"], []).append(float(row["dsc"]))
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hepeval",
        description="Topology-aware losses and hepatic segmentation evaluation",
    )
    parser.add_argument("--version", action="version", version=f"hepeval {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate prediction/truth label volume pairs")
    p_eval.add_argument("--gt", nargs="+", required=True, help="ground-truth NIfTI paths")
    p_eval.add_argument("--pred", nargs="+", required=True, help="prediction NIfTI paths")
    p_eval.add_argument("--config", help="JSON config file")
    p_eval.add_argument("--out", required=True, help="output directory")
    p_eval.add_argument("--connectivity", type=int, choices=(6, 18, 26))
    p_eval.add_argument("--skeleton-iters", type=int, dest="skeleton_iters")
    p_eval.add_argument("--jobs", type=int, default=0, help="worker threads (0: one per CPU)")
    p_eval.set_defaults(func=cmd_eval)

    p_ph = sub.add_parser("phantom", help="generate a phantom case from a JSON spec")
    p_ph.add_argument("spec", help="phantom spec JSON")
    p_ph.add_argument("--degrade", help="optional degrade spec JSON producing a prediction")
    p_ph.add_argument("--out", required=True)
    p_ph.set_defaults(func=cmd_phantom)

    p_loss = sub.add_parser("loss", help="compute the combined training loss for one pair")
    p_loss.add_argument("--pred", required=True, help="probability volume NIfTI")
    p_loss.add_argument("--gt", required=True, help="binary mask NIfTI")
    p_loss.add_argument("--epoch", type=int, default=0)
    p_loss.add_argument("--config", help="JSON config file")
    p_loss.set_defaults(func=cmd_loss)

    p_sk = sub.add_parser("skeleton", help="skeletonize a vessel mask and export its graph")
    p_sk.add_argument("mask", help="binary mask NIfTI")
    p_sk.add_argument("--out", required=True)
    p_sk.add_argument("--skeleton-iters", type=int, dest="skeleton_iters")
    p_sk.set_defaults(func=cmd_skeleton)

    p_st = sub.add_parser("stats", help="Mann-Whitney U over two eval runs' per-case CSVs")
    p_st.add_argument("csv_a")
    p_st.add_argument("csv_b")
    p_st.set_defaults(func=cmd_stats)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("HEPEVAL_LOG", "INFO").upper()
    logging.basicConfig(level=getattr(logging, level, logging.INFO), format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (HepevalError, OSError) as exc:
        log.error("%s", exc)
        return 1


def entrypoint() -> None:
    sys.exit(main())
