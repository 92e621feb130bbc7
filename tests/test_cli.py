import copy
import csv
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import threading
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import hepeval
from hepeval.cli import build_parser, main
from hepeval.losses import LossConfig, bootstrapped_ce_loss, cl_dice_loss, combined_loss, k_schedule
from hepeval.metrics import aggregate, evaluate_case
from hepeval.nifti import write_nifti
from hepeval.phantom import (
    DegradeSpec,
    axis_tree_spec,
    default_spec,
    degrade,
    generate_case,
    spec_to_json_dict,
    straight_tube_mask,
    y_phantom,
)
from hepeval.volume import DEFAULT_SCHEMA, BinaryMask, Geometry, LabelVolume, ProbVolume, _json_dict, extract_mask

from conftest import noisy_tube


def write_nan_srow(volume, path):
    """Write `volume` uncompressed, then set its sform's srow_x[0] to NaN."""
    write_nifti(volume, path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<f", raw, 280, float("nan"))
    path.write_bytes(bytes(raw))


SCHEMAS = Path(hepeval.__file__).parent / "schemas"

# Draft 7 reads 1.0 as an integer; an integer field of a written file holds
# JSON integers only
StrictDraft7 = jsonschema.validators.extend(
    jsonschema.Draft7Validator,
    type_checker=jsonschema.Draft7Validator.TYPE_CHECKER.redefine(
        "integer", lambda checker, instance: isinstance(instance, int) and not isinstance(instance, bool)
    ),
)


def validator(name):
    """The validator of the shipped schema `name`."""
    return StrictDraft7(json.loads((SCHEMAS / f"{name}.schema.json").read_text()))


@pytest.fixture(scope="module")
def phantom_pair(tmp_path_factory):
    """Small phantom truth + degraded prediction written as NIfTI files."""
    root = tmp_path_factory.mktemp("cases")
    spec = default_spec(gallbladder_present=False)
    truth = generate_case(spec)
    pred = degrade(truth, DegradeSpec(seed=5, erode_steps={"hepatic_vein": 1}))
    gt_path = root / "case01.nii.gz"
    pred_path = root / "case01_pred.nii.gz"
    write_nifti(truth.label_volume, gt_path)
    write_nifti(pred, pred_path)
    return truth, gt_path, pred_path


class TestEvalCommand:
    def test_self_comparison_summary(self, phantom_pair, tmp_path):
        truth, gt_path, _ = phantom_pair
        out = tmp_path / "run"
        code = main(["eval", "--gt", str(gt_path), "--pred", str(gt_path), "--out", str(out),
                     "--skeleton-iters", "6", "--jobs", "1"])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        for name, entry in summary["structures"].items():
            if entry is not None and not name.endswith("cl_dice"):
                assert entry["mean"] == 1.0, name
        assert summary["tumor_detection"]["rate_mean"] == 1.0
        assert summary["tumor_detection"]["median_false_positives"] == 0.0
        # cholecystectomy spec: central biliary stays null
        assert summary["structures"]["biliary_tree/central"] is None
        validator("summary").validate(summary)
        report = json.loads((out / "case_case01.report.json").read_text())
        validator("case_report").validate(report)
        manifest = json.loads((out / "manifest.json").read_text())
        validator("manifest").validate(manifest)
        assert manifest["failed_cases"] == []

    def test_partial_failure_exits_2_and_writes_rest(self, phantom_pair, tmp_path):
        truth, gt_path, pred_path = phantom_pair
        gt3 = tmp_path / "case03.nii.gz"
        gt3.write_bytes(gt_path.read_bytes())
        missing = tmp_path / "nope.nii.gz"
        out = tmp_path / "run2"
        code = main([
            "eval",
            "--gt", str(gt_path), str(missing), str(gt3),
            "--pred", str(pred_path), str(gt_path), str(gt3),
            "--out", str(out), "--skeleton-iters", "4", "--jobs", "2",
        ])
        assert code == 2
        reports = sorted(p.name for p in out.glob("case_*.report.json"))
        assert len(reports) == 2
        assert (out / "summary.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        validator("manifest").validate(manifest)
        assert manifest["failed_cases"] == [{"case_id": "nope", "error": "FileNotFoundError"}]

    def test_corrupt_gzip_case_is_named_in_failed_cases(self, phantom_pair, tmp_path):
        # one flipped bit in the CRC-32: the labels decode, the check fails
        _, gt_path, pred_path = phantom_pair
        data = bytearray(gt_path.read_bytes())
        data[-8] ^= 1
        bad = tmp_path / "case02.nii.gz"
        bad.write_bytes(bytes(data))
        out = tmp_path / "run"
        code = main(["eval", "--gt", str(gt_path), str(bad), "--pred", str(pred_path), str(pred_path),
                     "--out", str(out), "--skeleton-iters", "4", "--jobs", "1"])
        assert code == 2
        assert [p.name for p in out.glob("case_*.report.json")] == ["case_case01.report.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failed_cases"] == [{"case_id": "case02", "error": "FormatError"}]

    @pytest.mark.parametrize("jobs", [["--jobs", "1"], []])
    def test_one_worker_runs_cases_in_calling_thread(self, phantom_pair, tmp_path, monkeypatch, jobs):
        import hepeval.cli
        from hepeval.metrics import evaluate_case

        _, gt_path, pred_path = phantom_pair
        threads = []

        def recording(*args, **kwargs):
            threads.append(threading.get_ident())
            return evaluate_case(*args, **kwargs)

        monkeypatch.setattr(hepeval.cli, "evaluate_case", recording)
        # --jobs 1 on two pairs; the default --jobs on one pair
        gts, preds = [str(gt_path)], [str(pred_path)]
        if jobs:
            copy = tmp_path / "case02.nii.gz"
            copy.write_bytes(gt_path.read_bytes())
            gts, preds = gts + [str(copy)], preds + [str(gt_path)]
        code = main(["eval", "--gt", *gts, "--pred", *preds, "--out", str(tmp_path / "run"),
                     "--skeleton-iters", "4", *jobs])
        assert code == 0
        assert threads == [threading.get_ident()] * len(gts)

    def test_two_workers_write_what_one_worker_writes(self, phantom_pair, tmp_path):
        _, gt_path, pred_path = phantom_pair
        gt2 = tmp_path / "case02.nii.gz"
        gt2.write_bytes(gt_path.read_bytes())
        gts = [str(gt_path), str(tmp_path / "nope.nii.gz"), str(gt2)]
        preds = [str(pred_path), str(gt_path), str(pred_path)]
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"run{jobs}"
            code = main(["eval", "--gt", *gts, "--pred", *preds, "--out", str(out),
                         "--skeleton-iters", "4", "--jobs", jobs])
            assert code == 2
            manifest = json.loads((out / "manifest.json").read_text())
            del manifest["timestamp"]
            files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
            outputs.append((files, manifest))
        assert sorted(outputs[0][0]) == [
            "case_case01.report.json", "case_case02.report.json", "cases.csv", "summary.csv", "summary.json",
        ]
        assert outputs[0] == outputs[1]
        assert outputs[0][1]["failed_cases"] == [{"case_id": "nope", "error": "FileNotFoundError"}]

    def test_manifest_names_the_bytes_evaluated(self, phantom_pair, tmp_path, monkeypatch):
        # the truth file is overwritten after both reads: the manifest still
        # names the bytes that were scored, and the config's own bytes
        import hepeval.cli
        from hepeval.metrics import evaluate_case

        _, gt_path, pred_path = phantom_pair
        gt = tmp_path / "case01.nii.gz"
        evaluated = gt_path.read_bytes()
        gt.write_bytes(evaluated)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"skeleton_iterations": 4}))

        def overwriting(*args, **kwargs):
            gt.write_bytes(pred_path.read_bytes())
            return evaluate_case(*args, **kwargs)

        monkeypatch.setattr(hepeval.cli, "evaluate_case", overwriting)
        out = tmp_path / "run"
        code = main(["eval", "--gt", str(gt), "--pred", str(pred_path), "--out", str(out),
                     "--config", str(cfg), "--jobs", "1"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["input_digests"] == {
            str(gt): hashlib.sha256(evaluated).hexdigest(),
            str(pred_path): hashlib.sha256(pred_path.read_bytes()).hexdigest(),
            str(cfg): hashlib.sha256(cfg.read_bytes()).hexdigest(),
        }

    def test_an_input_never_read_has_a_null_digest(self, phantom_pair, tmp_path):
        # the missing truth fails its case before that case's prediction is read
        _, gt_path, pred_path = phantom_pair
        pred = tmp_path / "unread_pred.nii.gz"
        pred.write_bytes(pred_path.read_bytes())
        missing = tmp_path / "nope.nii.gz"
        out = tmp_path / "run"
        code = main(["eval", "--gt", str(missing), "--pred", str(pred), "--out", str(out), "--jobs", "1"])
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        validator("manifest").validate(manifest)
        assert manifest["input_digests"] == {str(missing): None, str(pred): None}

    def test_negative_jobs_exits_1(self, phantom_pair, tmp_path, caplog):
        _, gt_path, pred_path = phantom_pair
        code = main(["eval", "--gt", str(gt_path), "--pred", str(pred_path),
                     "--out", str(tmp_path / "x"), "--jobs", "-1"])
        assert code == 1
        assert "--jobs" in caplog.text

    def test_duplicate_case_ids_exit_1_before_any_read(self, phantom_pair, tmp_path, caplog):
        # two truths named case01.nii.gz would write one case_case01.report.json
        _, gt_path, pred_path = phantom_pair
        other = tmp_path / "elsewhere" / gt_path.name
        other.parent.mkdir()
        other.write_bytes(gt_path.read_bytes())
        out = tmp_path / "run"
        code = main(["eval", "--gt", str(gt_path), str(other), "--pred", str(pred_path), str(pred_path),
                     "--out", str(out)])
        assert code == 1
        assert "usage error" in caplog.text and "'case01'" in caplog.text
        assert not out.exists()

    def test_repeated_truth_path_exits_1_and_writes_no_report(self, phantom_pair, tmp_path, caplog):
        # one truth path given twice would write one report for two cases
        _, gt_path, pred_path = phantom_pair
        out = tmp_path / "run"
        code = main(["eval", "--gt", str(gt_path), str(gt_path), "--pred", str(gt_path), str(pred_path),
                     "--out", str(out), "--jobs", "1"])
        assert code == 1
        assert "usage error" in caplog.text and "'case01'" in caplog.text
        assert not out.exists()

    def test_mismatched_lists_exit_1(self, tmp_path):
        code = main(["eval", "--gt", "a.nii", "--pred", "b.nii", "c.nii", "--out", str(tmp_path)])
        assert code == 1

    def test_csv_matches_module_recompute(self, phantom_pair, tmp_path):
        from hepeval.metrics import EvalConfig, evaluate_case
        from hepeval.nifti import read_label_volume

        truth, gt_path, pred_path = phantom_pair
        out = tmp_path / "run3"
        code = main(["eval", "--gt", str(gt_path), "--pred", str(pred_path), "--out", str(out),
                     "--skeleton-iters", "4", "--jobs", "1"])
        assert code == 0
        with (out / "cases.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        report = evaluate_case(
            read_label_volume(gt_path),
            read_label_volume(pred_path),
            EvalConfig(skeleton_iterations=4),
            case_id="case01",
        )
        by_structure = {r["structure"]: r for r in rows}
        for name, value in report.dsc.items():
            assert float(by_structure[name]["dsc"]) == pytest.approx(value, abs=1e-12)

    def test_config_file_and_unknown_key(self, phantom_pair, tmp_path):
        truth, gt_path, _ = phantom_pair
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"skeleton_iterations": 4, "bogus_key": 1}))
        code = main(["eval", "--gt", str(gt_path), "--pred", str(gt_path),
                     "--out", str(tmp_path / "x"), "--config", str(cfg)])
        assert code == 1

    @pytest.mark.parametrize("raw", [
        {"skeleton_iterations": 2.5},
        {"min_overlap_voxels": 0},
        {"central_rule": "generation"},
        {"max_central_generation": -1},
        {"gallbladder_min_sphericity": -0.1},
        {"gallbladder_min_sphericity": 1.5},
        {"connectivity": 7},
        [],
        "",
        ["w_bce"],
    ])
    def test_bad_config_value_is_a_config_error(self, phantom_pair, tmp_path, caplog, raw):
        # caught before any case runs: exit 1, not 2 with every case failed
        _, gt_path, pred_path = phantom_pair
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        code = main(["eval", "--gt", str(gt_path), "--pred", str(pred_path),
                     "--out", str(tmp_path / "x"), "--config", str(cfg)])
        assert code == 1
        assert "config error" in caplog.text

    def test_zero_skeleton_iters_flag_exits_1(self, phantom_pair, tmp_path, caplog):
        # 0 is a value, not a missing flag
        _, gt_path, pred_path = phantom_pair
        code = main(["eval", "--gt", str(gt_path), "--pred", str(pred_path),
                     "--out", str(tmp_path / "x"), "--skeleton-iters", "0"])
        assert code == 1
        assert "config error" in caplog.text

    @pytest.mark.parametrize("flags, n_gt", [(["--connectivity", "6"], 2), ([], 1)])
    def test_connectivity_flag_sets_the_lesion_connectivity(self, tmp_path, flags, n_gt):
        # two 3x3x3 tumour cubes that share only an edge: two lesions under
        # 6-connectivity, one under the default 26
        labels = np.zeros((10, 10, 10), dtype=np.uint8)
        labels[1:4, 1:4, 1:4] = 2
        labels[4:7, 4:7, 1:4] = 2
        path = tmp_path / "edge.nii.gz"
        write_nifti(LabelVolume(Geometry(dims=(10, 10, 10), spacing=(1, 1, 1)), labels), path)
        out = tmp_path / "run"
        assert main(["eval", "--gt", str(path), "--pred", str(path), "--out", str(out), "--jobs", "1", *flags]) == 0
        assert json.loads((out / "case_edge.report.json").read_text())["lesions"]["n_gt"] == n_gt

    def test_failed_replace_exits_1_and_leaves_no_temporary_file(self, phantom_pair, tmp_path, caplog, monkeypatch):
        # the directory appears while the case runs, after the batch cleared
        # its output names, so the summary's rename onto it fails
        import hepeval.cli
        from hepeval.metrics import evaluate_case

        _, gt_path, pred_path = phantom_pair
        out = tmp_path / "run"

        def blocking(*args, **kwargs):
            (out / "summary.json").mkdir()
            return evaluate_case(*args, **kwargs)

        monkeypatch.setattr(hepeval.cli, "evaluate_case", blocking)
        with caplog.at_level("ERROR"):
            code = main(["eval", "--gt", str(gt_path), "--pred", str(pred_path), "--out", str(out), "--jobs", "1"])
        assert code == 1
        assert "summary.json" in caplog.text
        assert list(out.glob("summary.json.*")) == []
        assert (out / "summary.json").is_dir()
        # the manifest comes last: a batch whose summary was not written has none
        assert not (out / "manifest.json").exists()

    def test_reused_out_keeps_no_output_of_the_earlier_batch(self, phantom_pair, tmp_path):
        # a second batch into the same directory, whose one case fails,
        # leaves only its manifest beside the report of a case it did not name
        _, gt_path, pred_path = phantom_pair
        gt2 = tmp_path / "case02.nii.gz"
        gt2.write_bytes(gt_path.read_bytes())
        out = tmp_path / "run"
        assert main(["eval", "--gt", str(gt_path), str(gt2), "--pred", str(pred_path), str(pred_path),
                     "--out", str(out), "--jobs", "1"]) == 0
        code = main(["eval", "--gt", str(gt_path), "--pred", str(tmp_path / "nope.nii.gz"),
                     "--out", str(out), "--jobs", "1"])
        assert code == 2
        assert sorted(p.name for p in out.iterdir()) == ["case_case02.report.json", "manifest.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failed_cases"] == [{"case_id": "case01", "error": "FileNotFoundError"}]

    def test_manifest_records_the_config_the_batch_ran_with(self, phantom_pair, tmp_path):
        # the file's value and both flags, over EvalConfig's defaults
        _, gt_path, pred_path = phantom_pair
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"min_overlap_voxels": 2, "w_bce": 0.5}))
        out = tmp_path / "run"
        code = main(["eval", "--gt", str(gt_path), "--pred", str(pred_path), "--out", str(out), "--jobs", "1",
                     "--config", str(cfg), "--connectivity", "6", "--skeleton-iters", "4"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        validator("manifest").validate(manifest)
        assert manifest["config"] == {
            "connectivity": 6,
            "skeleton_iterations": 4,
            "min_overlap_voxels": 2,
            "max_central_generation": 1,
            "gallbladder_min_volume_mm3": 5000.0,
            "gallbladder_min_sphericity": 0.5,
        }


@pytest.fixture(scope="module")
def report_and_summary():
    """The JSON of a report with one detected lesion and one false positive,
    and of its summary."""
    tumor = DEFAULT_SCHEMA.id_of("tumor")
    gt = np.zeros((8, 8, 8), np.uint8)
    gt[1:3, 1:3, 1:3] = tumor
    pred = gt.copy()
    pred[5:7, 5:7, 5:7] = tumor
    geometry = Geometry(dims=(8, 8, 8), spacing=(1, 1, 1))
    report = evaluate_case(LabelVolume(geometry, gt), LabelVolume(geometry, pred))
    return {"case_report": _json_dict(report), "summary": _json_dict(aggregate([report]))}


@pytest.mark.parametrize("name, path", [
    ("case_report", ""),
    ("case_report", "lesions"),
    ("case_report", "lesions.lesions.0"),
    ("case_report", "lesions.false_positives.0"),
    ("case_report", "flags"),
    ("summary", ""),
    ("summary", "structures.tumor"),
    ("summary", "tumor_detection"),
])
def test_stray_key_fails_validation(report_and_summary, name, path):
    check, doc = validator(name), copy.deepcopy(report_and_summary[name])
    check.validate(doc)
    node = doc
    for key in path.split(".") if path else ():
        node = node[int(key)] if isinstance(node, list) else node[key]
    node["stray"] = 0
    assert [e.validator for e in check.iter_errors(doc)] == ["additionalProperties"]


def test_shipped_schemas_are_valid_draft7():
    paths = sorted(SCHEMAS.glob("*.json"))
    assert [p.name.split(".")[0] for p in paths] == ["case_report", "graph", "manifest", "summary"]
    for path in paths:
        jsonschema.Draft7Validator.check_schema(json.loads(path.read_text()))


class TestPhantomCommand:
    def test_default_spec_generates_files(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_to_json_dict(axis_tree_spec(1))))
        out = tmp_path / "out"
        code = main(["phantom", str(spec_path), "--out", str(out)])
        assert code == 0
        assert (out / "truth.nii.gz").exists()
        assert (out / "edge_tags.nii.gz").exists()
        manifest = json.loads((out / "truth_manifest.json").read_text())
        assert len(manifest["edges"]) == 3
        from hepeval.nifti import read_label_volume

        vol = read_label_volume(out / "truth.nii.gz")
        assert set(np.unique(vol.labels)) <= set(vol.schema.ids)

    def test_repeated_seed_identical_digests(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_to_json_dict(axis_tree_spec(1))))
        digests = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["phantom", str(spec_path), "--out", str(out)]) == 0
            digests.append(hashlib.sha256((out / "truth.nii.gz").read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_invalid_spec_exits_1_with_field(self, tmp_path, caplog):
        spec = default_spec(gallbladder_present=False)
        raw = spec_to_json_dict(spec)
        raw["tumors"] = [{"center_mm": [5.0, 5.0, 5.0], "radius_mm": 8.0}]
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps(raw))
        with caplog.at_level("ERROR"):
            code = main(["phantom", str(spec_path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "tumor 0" in caplog.text

    def test_block_of_wrong_type_exits_1(self, tmp_path, caplog):
        raw = spec_to_json_dict(default_spec())
        raw["geometry"] = 5
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps(raw))
        with caplog.at_level("ERROR"):
            code = main(["phantom", str(spec_path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "invalid phantom spec: geometry must be an object, got int" in caplog.text

    @pytest.mark.parametrize(
        "orientation",
        [
            [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            [[True, False, False], [False, True, False], [False, False, True]],
        ],
        ids=["strings", "bools"],
    )
    def test_orientation_of_wrong_type_exits_1(self, tmp_path, caplog, orientation):
        raw = spec_to_json_dict(axis_tree_spec(1))
        raw["geometry"]["orientation"] = orientation
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(raw))
        with caplog.at_level("ERROR"):
            code = main(["phantom", str(spec_path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "invalid phantom spec: orientation must be a finite 3x3 matrix" in caplog.text
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "key, value",
        [("dims", 5), ("dims", ["a", "b", "c"]), ("origin", "abc")],
        ids=["dims-scalar", "dims-strings", "origin-string"],
    )
    def test_geometry_of_wrong_type_exits_1(self, tmp_path, caplog, key, value):
        raw = spec_to_json_dict(axis_tree_spec(1))
        raw["geometry"][key] = value
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(raw))
        with caplog.at_level("ERROR"):
            code = main(["phantom", str(spec_path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"invalid phantom spec: {key} must be three" in caplog.text

    @pytest.mark.parametrize(
        "path, value, degrade",
        [
            (("trees", "portal_vein", "levels"), "3", None),
            (("trees", "portal_vein", "root_start_mm"), 5, None),
            (("tumors",), [{"center_mm": [64.0, 40.0, 52.0], "radius_mm": "9"}], None),
            (("trees", "portal_vein", "root_start_mm"), [64.0, 40.0], None),
            (("parenchyma_semiaxes_mm",), [60.0, 36.0], None),
            (None, None, {"erode_steps": {"portal_vein": "2"}}),
            (None, None, {"relabel_fraction": "0.1"}),
            (None, None, {"seed": -1, "relabel_fraction": 0.1}),
        ],
        ids=["levels", "root-start-scalar", "tumour-radius", "root-start-2", "semiaxes-2",
             "erode-steps", "relabel-fraction", "negative-seed"],
    )
    def test_value_of_wrong_type_or_length_exits_1(self, tmp_path, caplog, path, value, degrade):
        raw = spec_to_json_dict(axis_tree_spec(1))
        if path is not None:
            block = raw
            for key in path[:-1]:
                block = block[key]
            block[path[-1]] = value
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(raw))
        argv = ["phantom", str(spec_path), "--out", str(tmp_path / "o")]
        if degrade is not None:
            dpath = tmp_path / "degrade.json"
            dpath.write_text(json.dumps(degrade))
            argv += ["--degrade", str(dpath)]
        with caplog.at_level("ERROR"):
            code = main(argv)
        assert code == 1
        assert f"invalid {'degrade' if degrade else 'phantom'} spec" in caplog.text

    @pytest.mark.parametrize(
        "degrade", [{"erode": {"portal_vein": 1}}, {"drop_edge_ids": [99]}], ids=["unknown-key", "unknown-edge"]
    )
    def test_invalid_degrade_spec_writes_nothing(self, tmp_path, caplog, degrade):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_to_json_dict(axis_tree_spec(1))))
        dpath = tmp_path / "degrade.json"
        dpath.write_text(json.dumps(degrade))
        out = tmp_path / "o"
        with caplog.at_level("ERROR"):
            code = main(["phantom", str(spec_path), "--degrade", str(dpath), "--out", str(out)])
        assert code == 1
        assert "invalid degrade spec" in caplog.text
        assert not out.exists()

    def test_degrade_option_writes_prediction(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_to_json_dict(axis_tree_spec(1))))
        dpath = tmp_path / "degrade.json"
        dpath.write_text(json.dumps({"seed": 1, "erode_steps": {"portal_vein": 1}}))
        out = tmp_path / "out"
        code = main(["phantom", str(spec_path), "--degrade", str(dpath), "--out", str(out)])
        assert code == 0
        assert (out / "prediction.nii.gz").exists()

    def test_reused_out_keeps_no_prediction_of_an_earlier_degrade_run(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_to_json_dict(axis_tree_spec(1))))
        dpath = tmp_path / "degrade.json"
        dpath.write_text(json.dumps({"seed": 1, "erode_steps": {"portal_vein": 1}}))
        out = tmp_path / "out"
        assert main(["phantom", str(spec_path), "--degrade", str(dpath), "--out", str(out)]) == 0
        assert main(["phantom", str(spec_path), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "edge_tags.nii.gz", "generation_tags.nii.gz", "truth.nii.gz", "truth_manifest.json"
        ]
        assert "degrade_applied" not in json.loads((out / "truth_manifest.json").read_text())


class TestLossCommand:
    def make_pair(self, tmp_path):
        truth = generate_case(axis_tree_spec(1))
        mask = extract_mask(truth.label_volume, 3)
        gt_path = tmp_path / "gt.nii.gz"
        write_nifti(mask, gt_path)
        pred_path = tmp_path / "pred.nii.gz"
        write_nifti(ProbVolume(mask.geometry, mask.values.astype(np.float64)), pred_path)
        return gt_path, pred_path

    def test_perfect_prediction_epoch_zero(self, tmp_path, capsys):
        gt_path, pred_path = self.make_pair(tmp_path)
        code = main(["loss", "--pred", str(pred_path), "--gt", str(gt_path), "--epoch", "0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k_used"] == 1.0
        assert payload["cl_dice"] == pytest.approx(0.0, abs=1e-4)
        assert payload["bootstrapped_ce"] == pytest.approx(0.0, abs=1e-6)
        assert payload["combined"] == pytest.approx(0.0, abs=1e-4)
        assert "gradient_norm" in payload

    def test_epoch_400_uses_k_015(self, tmp_path, capsys):
        gt_path, pred_path = self.make_pair(tmp_path)
        code = main(["loss", "--pred", str(pred_path), "--gt", str(gt_path), "--epoch", "400"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k_used"] == 0.15

    def test_epoch_out_of_range_exits_1(self, tmp_path):
        gt_path, pred_path = self.make_pair(tmp_path)
        assert main(["loss", "--pred", str(pred_path), "--gt", str(gt_path), "--epoch", "500"]) == 1

    @pytest.mark.parametrize("corrupt", ["pred", "gt"])
    def test_non_finite_srow_exits_1(self, tmp_path, caplog, corrupt):
        truth = generate_case(axis_tree_spec(1))
        mask = extract_mask(truth.label_volume, 3)
        paths = {"pred": tmp_path / "pred.nii", "gt": tmp_path / "gt.nii"}
        volumes = {"pred": ProbVolume(mask.geometry, mask.values.astype(np.float64)), "gt": mask}
        for name, volume in volumes.items():
            (write_nan_srow if name == corrupt else write_nifti)(volume, paths[name])
        code = main(["loss", "--pred", str(paths["pred"]), "--gt", str(paths["gt"]), "--epoch", "0"])
        assert code == 1
        assert "srow_x" in caplog.text

    def test_total_epochs_key_exits_1(self, tmp_path):
        # total_epochs is derived from warmup_epochs + ramp_epochs, not a setting
        gt_path, pred_path = self.make_pair(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"total_epochs": 500}))
        argv = ["loss", "--pred", str(pred_path), "--gt", str(gt_path), "--epoch", "0", "--config", str(cfg)]
        assert main(argv) == 1

    @pytest.mark.parametrize("raw", [
        {"skeleton_iterations": 2.5},
        {"warmup_epochs": 0, "ramp_epochs": 1.5},
        {"warmup_epochs": True},
        [],
        "",
        ["w_bce"],
    ])
    def test_non_integer_counts_are_config_errors(self, tmp_path, caplog, raw):
        gt_path, pred_path = self.make_pair(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        argv = ["loss", "--pred", str(pred_path), "--gt", str(gt_path), "--epoch", "1", "--config", str(cfg)]
        assert main(argv) == 1
        assert "config error" in caplog.text

    def test_agrees_with_library(self, tmp_path, capsys):
        gt = y_phantom().mask
        rng = np.random.default_rng(3)
        logits = np.where(gt.values, 2.0, -2.0) + rng.normal(0.0, 0.5, gt.values.shape)
        # float32 values, so the file holds exactly the prediction scored below
        pred = ProbVolume(gt.geometry, (1.0 / (1.0 + np.exp(-logits))).astype(np.float32))
        write_nifti(gt, tmp_path / "gt.nii.gz")
        write_nifti(pred, tmp_path / "pred.nii.gz")
        cfg = {"w_cldice": 0.7, "w_bce": 1.3}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        code = main(["loss", "--pred", str(tmp_path / "pred.nii.gz"), "--gt", str(tmp_path / "gt.nii.gz"),
                     "--epoch", "450", "--config", str(tmp_path / "cfg.json")])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        config = LossConfig(**cfg)
        k = k_schedule(450, config)
        combined = combined_loss(pred, gt, 450, config)
        assert payload["k_used"] == k
        assert payload["combined"] == combined.value
        assert payload["cl_dice"] == cl_dice_loss(pred, gt, config.skeleton_iterations, config.epsilon).value
        assert payload["bootstrapped_ce"] == bootstrapped_ce_loss(pred, gt, k, config.ce_clip).value
        assert payload["gradient_norm"] == math.sqrt(float(np.square(combined.gradient).sum()))

    def test_float32_file_prints_pinned_values(self, tmp_path, capsys):
        # a float32 prediction ties, as every such file can; the fields the
        # README calls CPU-independent are pinned at K = 1 and K < 1
        mask, _ = straight_tube_mask(length_vox=40, radius_vox=6.0, dims=(48, 48, 48))
        values = noisy_tube(mask, 48).astype(np.float32)
        assert np.unique(values).size < values.size
        write_nifti(mask, tmp_path / "gt.nii.gz")
        write_nifti(ProbVolume(mask.geometry, values), tmp_path / "pred.nii.gz")
        pins = {
            "0": (0.8189260736977957, 0.1589250419611285, 1.0),
            "450": (0.8189260736977957, 0.15905228790460468, 0.32676767676767676),
        }
        for epoch, pin in pins.items():
            argv = ["loss", "--pred", str(tmp_path / "pred.nii.gz"), "--gt", str(tmp_path / "gt.nii.gz")]
            assert main([*argv, "--epoch", epoch]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert (payload["cl_dice"], payload["gradient_norm"], payload["k_used"]) == pin


class TestSkeletonCommand:
    def test_y_phantom_graph_json(self, tmp_path):
        g = Geometry(dims=(48, 16, 32), spacing=(1.0, 1.0, 1.0))
        from hepeval.phantom import rasterize_capsule

        mask = np.zeros(g.shape, dtype=bool)
        foot = np.array([24.0, 8.0, 4.0])
        junction = np.array([24.0, 8.0, 22.0])
        for seg in (
            (foot, junction),
            (junction, junction + np.array([16.0, 0.0, 0.0])),
            (junction, junction - np.array([16.0, 0.0, 0.0])),
        ):
            inside, box, _ = rasterize_capsule(g, seg[0], seg[1], 1.9)
            mask[box] |= inside
        mask_path = tmp_path / "y.nii.gz"
        write_nifti(BinaryMask(g, mask), mask_path)
        out = tmp_path / "out"
        code = main(["skeleton", str(mask_path), "--out", str(out), "--skeleton-iters", "4"])
        assert code == 0
        graph = json.loads((out / "graph.json").read_text())
        assert len(graph["edges"]) == 3
        root = next(e for e in graph["edges"] if e["id"] == graph["root_edge_id"])
        assert root["strahler"] == 2
        validator("graph").validate(graph)
        assert (out / "skeleton.nii.gz").exists()
        assert (out / "central.nii.gz").exists()
        assert (out / "peripheral.nii.gz").exists()

    def test_failed_run_in_reused_out_keeps_no_earlier_manifest(self, tmp_path, caplog):
        g = Geometry(dims=(6, 6, 6), spacing=(1, 1, 1))
        mask_path = tmp_path / "mask.nii.gz"
        write_nifti(BinaryMask(g, np.ones(g.shape, bool)), mask_path)
        out = tmp_path / "o"
        assert main(["skeleton", str(mask_path), "--out", str(out)]) == 0
        (out / "graph.json").unlink()
        (out / "graph.json").mkdir()
        with caplog.at_level("ERROR"):
            assert main(["skeleton", str(mask_path), "--out", str(out)]) == 1
        assert "graph.json" in caplog.text
        # the manifest goes first, so no earlier output is left to vouch for
        assert sorted(p.name for p in out.iterdir()) == ["graph.json"]

    def test_empty_mask_warns_but_succeeds(self, tmp_path, caplog):
        g = Geometry(dims=(8, 8, 8), spacing=(1, 1, 1))
        mask_path = tmp_path / "empty.nii.gz"
        write_nifti(BinaryMask(g, np.zeros(g.shape, bool)), mask_path)
        with caplog.at_level("WARNING"):
            code = main(["skeleton", str(mask_path), "--out", str(tmp_path / "o")])
        assert code == 0
        assert "empty" in caplog.text.lower()

    def test_zero_skeleton_iters_exits_1(self, tmp_path, caplog):
        g = Geometry(dims=(8, 8, 8), spacing=(1, 1, 1))
        mask_path = tmp_path / "empty.nii.gz"
        write_nifti(BinaryMask(g, np.zeros(g.shape, bool)), mask_path)
        out = tmp_path / "o"
        assert main(["skeleton", str(mask_path), "--out", str(out), "--skeleton-iters", "0"]) == 1
        assert "config error" in caplog.text
        assert not out.exists()

    def test_non_binary_input_exits_1(self, tmp_path):
        g = Geometry(dims=(6, 6, 6), spacing=(1, 1, 1))
        vol = ProbVolume(g, np.full(g.shape, 0.37))
        path = tmp_path / "prob.nii.gz"
        write_nifti(vol, path)
        assert main(["skeleton", str(path), "--out", str(tmp_path / "o")]) == 1


    def test_non_finite_srow_exits_1(self, tmp_path, caplog):
        g = Geometry(dims=(6, 6, 6), spacing=(1, 1, 1))
        path = tmp_path / "mask.nii"
        write_nan_srow(BinaryMask(g, np.ones(g.shape, bool)), path)
        assert main(["skeleton", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "srow_x" in caplog.text


class TestStatsCommand:
    def write_cases_csv(self, path, values, structure="tumor"):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["case_id", "structure", "dsc", "central_dsc", "peripheral_dsc", "cl_dice"])
            for i, v in enumerate(values):
                w.writerow([f"c{i}", structure, v, "", "", ""])

    def test_mann_whitney_between_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self.write_cases_csv(a, [0.1, 0.2, 0.3])
        self.write_cases_csv(b, [0.7, 0.8, 0.9])
        code = main(["stats", str(a), str(b)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tumor"]["method"] == "exact"
        assert payload["tumor"]["p_two_sided"] == pytest.approx(0.1)
        assert payload["tumor"]["U"] == 0.0

    def test_all_tied_samples_read_p_one(self, tmp_path, capsys):
        # as `dsc.gallbladder` reads on every phantom case: the tie-corrected
        # variance is 0, so no z is formed
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self.write_cases_csv(a, [1.0] * 4)
        self.write_cases_csv(b, [1.0] * 4)
        assert main(["stats", str(a), str(b)]) == 0
        assert json.loads(capsys.readouterr().out)["tumor"] == {
            "U": 8.0, "p_two_sided": 1.0, "method": "normal_approximation", "tie_correction_applied": True,
            "n1": 4, "n2": 4,
        }

    def test_no_shared_structure_exits_1(self, tmp_path, caplog, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self.write_cases_csv(a, [0.1, 0.2])
        self.write_cases_csv(b, [0.7, 0.8], structure="liver")
        assert main(["stats", str(a), str(b)]) == 1
        assert "share no structures" in caplog.text
        assert capsys.readouterr().out == ""

    def test_missing_file_exits_1(self, tmp_path):
        a = tmp_path / "a.csv"
        self.write_cases_csv(a, [0.5])
        assert main(["stats", str(a), str(tmp_path / "missing.csv")]) == 1

    def test_nan_dsc_exits_1_naming_the_structure(self, tmp_path, caplog, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self.write_cases_csv(a, [0.1, "nan", 0.3])
        self.write_cases_csv(b, [0.7, 0.8, 0.9])
        assert main(["stats", str(a), str(b)]) == 1
        assert "tumor" in caplog.text and "NaN" in caplog.text
        assert capsys.readouterr().out == ""

    def test_row_shorter_than_its_header_exits_1(self, tmp_path, caplog, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("case_id,structure,dsc\na,liver\n")
        self.write_cases_csv(b, [0.7, 0.8, 0.9])
        assert main(["stats", str(a), str(b)]) == 1
        assert "cannot read per-case CSV" in caplog.text and "line 2" in caplog.text
        assert capsys.readouterr().out == ""

    def test_row_longer_than_its_header_exits_1(self, tmp_path, caplog, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("case_id,structure,dsc\na,liver,0.5,0.9\n")
        self.write_cases_csv(b, [0.7, 0.8, 0.9])
        assert main(["stats", str(a), str(b)]) == 1
        assert "cannot read per-case CSV" in caplog.text and "line 2" in caplog.text
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command, message", [
    (["eval", "--gt", "a.nii", "--pred", "b.nii", "--out", "{out}", "--config", "{bad}"], "config error"),
    (["loss", "--pred", "a.nii", "--gt", "b.nii", "--config", "{bad}"], "config error"),
    (["phantom", "{bad}", "--out", "{out}"], "invalid phantom spec"),
    (["phantom", "{spec}", "--degrade", "{bad}", "--out", "{out}"], "invalid degrade spec"),
], ids=["eval-config", "loss-config", "phantom-spec", "degrade-spec"])
def test_json_input_that_is_not_utf8_exits_1(tmp_path, caplog, command, message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff{}")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(spec_to_json_dict(axis_tree_spec(1))))
    argv = [a.format(bad=bad, spec=spec, out=tmp_path / "out") for a in command]
    with caplog.at_level("ERROR"):
        assert main(argv) == 1
    assert message in caplog.text


@pytest.mark.parametrize("command", [
    ["eval", "--gt", "a.nii", "--pred", "b.nii", "--out", "{out}"],
    ["phantom", "{spec}", "--out", "{out}"],
    ["skeleton", "{mask}", "--out", "{out}"],
], ids=["eval", "phantom", "skeleton"])
def test_out_that_is_a_file_exits_1(tmp_path, caplog, command):
    out = tmp_path / "afile"
    out.write_text("")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(spec_to_json_dict(axis_tree_spec(1))))
    g = Geometry(dims=(6, 6, 6), spacing=(1, 1, 1))
    mask = tmp_path / "mask.nii.gz"
    write_nifti(BinaryMask(g, np.ones(g.shape, bool)), mask)
    argv = [a.format(out=out, spec=spec, mask=mask) for a in command]
    with caplog.at_level("ERROR"):
        assert main(argv) == 1
    assert "afile" in caplog.text
    assert out.read_text() == ""


def test_outputs_take_the_umask(tmp_path):
    """Every file eval, skeleton and phantom write has mode 0o666 & ~umask,
    as `open` gives. A subprocess started under umask 0o022 reads that
    umask when it imports the package, as a user's run does."""
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    inputs.mkdir()
    spec, truth, portal = inputs / "spec.json", inputs / "truth.nii.gz", inputs / "portal.nii.gz"
    spec.write_text(json.dumps(spec_to_json_dict(axis_tree_spec(1))))
    case = generate_case(axis_tree_spec(1))
    write_nifti(case.label_volume, truth)
    write_nifti(extract_mask(case.label_volume, 3), portal)
    commands = [
        ["phantom", str(spec), "--out", str(out / "phantom")],
        ["skeleton", str(portal), "--out", str(out / "skeleton")],
        ["eval", "--gt", str(truth), "--pred", str(truth), "--out", str(out / "eval"), "--jobs", "1"],
    ]
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); from hepeval.cli import main; "
        f"sys.exit(max([main(argv) for argv in {commands!r}]))"
    )
    umask = os.umask(0o022)
    try:
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    finally:
        os.umask(umask)
    assert run.returncode == 0, run.stderr
    modes = {p.relative_to(out).as_posix(): p.stat().st_mode & 0o777 for p in out.rglob("*") if p.is_file()}
    assert sorted(modes) == [
        "eval/case_truth.report.json", "eval/cases.csv", "eval/manifest.json", "eval/summary.csv",
        "eval/summary.json", "phantom/edge_tags.nii.gz", "phantom/generation_tags.nii.gz",
        "phantom/truth.nii.gz", "phantom/truth_manifest.json", "skeleton/central.nii.gz",
        "skeleton/graph.json", "skeleton/manifest.json", "skeleton/peripheral.nii.gz", "skeleton/skeleton.nii.gz",
    ]
    assert modes == dict.fromkeys(modes, 0o644)


def test_outputs_take_the_umask_at_write_time(tmp_path):
    """A umask set after the package is imported applies to every output,
    JSON, CSV and NIfTI alike."""
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    inputs.mkdir()
    spec, truth, portal = inputs / "spec.json", inputs / "truth.nii.gz", inputs / "portal.nii.gz"
    spec.write_text(json.dumps(spec_to_json_dict(axis_tree_spec(1))))
    case = generate_case(axis_tree_spec(1))
    write_nifti(case.label_volume, truth)
    write_nifti(extract_mask(case.label_volume, 3), portal)
    umask = os.umask(0o077)
    try:
        assert main(["phantom", str(spec), "--out", str(out / "phantom")]) == 0
        assert main(["skeleton", str(portal), "--out", str(out / "skeleton")]) == 0
        assert main(["eval", "--gt", str(truth), "--pred", str(truth), "--out", str(out / "eval"), "--jobs", "1"]) == 0
    finally:
        os.umask(umask)
    modes = {p.relative_to(out).as_posix(): p.stat().st_mode & 0o777 for p in out.rglob("*") if p.is_file()}
    assert len(modes) == 14
    assert modes == dict.fromkeys(modes, 0o600)


class TestCliBasics:
    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0

    def test_unknown_command_exits_1(self):
        assert main(["frobnicate"]) == 1

    def test_main_runs_repeatedly_in_one_process_on_one_parser(self, phantom_pair, tmp_path):
        _, gt_path, pred_path = phantom_pair
        parser = build_parser()
        assert main(["eval", "--gt", str(gt_path)]) == 1  # no --pred and no --out
        assert main(["--version"]) == 0
        reports = []
        for run in ("run1", "run2"):
            out = tmp_path / run
            assert main(["eval", "--gt", str(gt_path), "--pred", str(pred_path), "--out", str(out),
                         "--skeleton-iters", "4", "--jobs", "1"]) == 0
            reports.append((out / "case_case01.report.json").read_bytes())
        assert reports[0] == reports[1]
        assert build_parser() is parser


def test_experiment_script_runs_end_to_end(tmp_path):
    """The README's experiment, one case per batch. A subprocess keeps the
    script's logging default out of this session."""
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_phantom_eval.py"
    run = subprocess.run(
        [sys.executable, str(script), "--cases", "1", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    for tag in ("mild", "severe"):
        summary = json.loads((tmp_path / f"eval_{tag}" / "summary.json").read_text())
        assert summary["structures"]["portal_vein"] is not None
    stats = json.loads(run.stdout.split("=== Mann-Whitney: mild vs severe, per structure ===\n", 1)[1])
    assert {"portal_vein", "hepatic_vein", "tumor"} <= set(stats)
    assert all(entry["n1"] == entry["n2"] == 1 for entry in stats.values())
