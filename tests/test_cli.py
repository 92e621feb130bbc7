import csv
import hashlib
import json

import numpy as np
import pytest

from hepeval.cli import main
from hepeval.losses import LossConfig, bootstrapped_ce_loss, cl_dice_loss, combined_loss, k_schedule
from hepeval.nifti import write_nifti
from hepeval.phantom import (
    DegradeSpec,
    axis_tree_spec,
    default_spec,
    degrade,
    generate_case,
    spec_to_json_dict,
    y_phantom,
)
from hepeval.volume import BinaryMask, Geometry, ProbVolume, extract_mask


def schema_check(instance, schema):
    """Minimal JSON-schema validator covering the shipped schema subset."""
    kind = schema.get("type")
    kinds = kind if isinstance(kind, list) else [kind] if kind else []
    if "enum" in schema:
        assert instance in schema["enum"], f"{instance!r} not in {schema['enum']}"
        return
    if kinds:
        ok = False
        for k in kinds:
            if k == "object" and isinstance(instance, dict):
                ok = True
            elif k == "array" and isinstance(instance, list):
                ok = True
            elif k == "string" and isinstance(instance, str):
                ok = True
            elif k == "integer" and isinstance(instance, int) and not isinstance(instance, bool):
                ok = True
            elif k == "number" and isinstance(instance, (int, float)) and not isinstance(instance, bool):
                ok = True
            elif k == "boolean" and isinstance(instance, bool):
                ok = True
            elif k == "null" and instance is None:
                ok = True
        assert ok, f"{instance!r} does not match type {kinds}"
    if instance is None:
        return
    if isinstance(instance, dict):
        for key in schema.get("required", []):
            assert key in instance, f"missing required key {key}"
        for key, sub in schema.get("properties", {}).items():
            if key in instance:
                schema_check(instance[key], sub)
        extra = schema.get("additionalProperties")
        if isinstance(extra, dict):
            for key, value in instance.items():
                if key not in schema.get("properties", {}):
                    schema_check(value, extra)
    if isinstance(instance, list) and "items" in schema:
        for item in instance:
            schema_check(item, schema["items"])
    if isinstance(instance, (int, float)) and not isinstance(instance, bool):
        if "minimum" in schema:
            assert instance >= schema["minimum"]
        if "maximum" in schema:
            assert instance <= schema["maximum"]


def load_schema(name):
    import hepeval

    path = f"{list(hepeval.__path__)[0]}/schemas/{name}.schema.json"
    with open(path) as fh:
        return json.load(fh)


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
        schema_check(summary, load_schema("summary"))
        report = json.loads((out / "case_case01.report.json").read_text())
        schema_check(report, load_schema("case_report"))
        manifest = json.loads((out / "manifest.json").read_text())
        schema_check(manifest, load_schema("manifest"))

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
        rows = list(csv.DictReader((out / "cases.csv").open()))
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

    def test_degrade_option_writes_prediction(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_to_json_dict(axis_tree_spec(1))))
        dpath = tmp_path / "degrade.json"
        dpath.write_text(json.dumps({"seed": 1, "erode_steps": {"portal_vein": 1}}))
        out = tmp_path / "out"
        code = main(["phantom", str(spec_path), "--degrade", str(dpath), "--out", str(out)])
        assert code == 0
        assert (out / "prediction.nii.gz").exists()


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
        assert payload["gradient_norm"] == float(np.linalg.norm(combined.gradient))


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
        schema_check(graph, load_schema("graph"))
        assert (out / "skeleton.nii.gz").exists()
        assert (out / "central.nii.gz").exists()
        assert (out / "peripheral.nii.gz").exists()

    def test_empty_mask_warns_but_succeeds(self, tmp_path, caplog):
        g = Geometry(dims=(8, 8, 8), spacing=(1, 1, 1))
        mask_path = tmp_path / "empty.nii.gz"
        write_nifti(BinaryMask(g, np.zeros(g.shape, bool)), mask_path)
        with caplog.at_level("WARNING"):
            code = main(["skeleton", str(mask_path), "--out", str(tmp_path / "o")])
        assert code == 0
        assert "empty" in caplog.text.lower()

    def test_non_binary_input_exits_1(self, tmp_path):
        g = Geometry(dims=(6, 6, 6), spacing=(1, 1, 1))
        vol = ProbVolume(g, np.full(g.shape, 0.37))
        path = tmp_path / "prob.nii.gz"
        write_nifti(vol, path)
        assert main(["skeleton", str(path), "--out", str(tmp_path / "o")]) == 1


class TestStatsCommand:
    def write_cases_csv(self, path, values):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["case_id", "structure", "dsc", "central_dsc", "peripheral_dsc", "cl_dice"])
            for i, v in enumerate(values):
                w.writerow([f"c{i}", "tumor", v, "", "", ""])

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

    def test_missing_file_exits_1(self, tmp_path):
        a = tmp_path / "a.csv"
        self.write_cases_csv(a, [0.5])
        assert main(["stats", str(a), str(tmp_path / "missing.csv")]) == 1


class TestCliBasics:
    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0

    def test_unknown_command_exits_1(self):
        assert main(["frobnicate"]) == 1
