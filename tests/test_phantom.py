import dataclasses
import json
import math

import numpy as np
import pytest

from hepeval.errors import GenerationError, ParameterError
from hepeval.metrics import lesion_match
from hepeval.phantom import (
    DegradeSpec,
    PhantomSpec,
    Sphere,
    TreeSpec,
    axis_tree_spec,
    default_spec,
    degrade,
    degrade_from_json_dict,
    generate_case,
    spec_from_json_dict,
    spec_to_json_dict,
    straight_tube_mask,
    truth_manifest,
)
from hepeval.volume import Geometry, extract_mask


class TestGenerate:
    def test_bit_identical_reruns(self):
        spec = default_spec()
        a = generate_case(spec)
        b = generate_case(spec)
        assert np.array_equal(a.label_volume.labels, b.label_volume.labels)
        assert np.array_equal(a.edge_tag, b.edge_tag)
        assert np.array_equal(a.generation_tag, b.generation_tag)

    def test_one_level_tree_generations(self):
        spec = axis_tree_spec(1)
        truth = generate_case(spec)
        edges = truth.edges_of_tree("portal_vein")
        assert len(edges) == 3
        assert sorted(e.generation for e in edges) == [0, 1, 1]
        present = set(np.unique(truth.generation_tag)) - {-1}
        assert present == {0, 1}

    def test_tube_raster_volume_near_analytic(self):
        from hepeval.phantom import rasterize_capsule

        g = Geometry(dims=(80, 24, 24), spacing=(1.0, 1.0, 1.0))
        hit = rasterize_capsule(g, (8.0, 11.0, 11.0), (68.0, 11.0, 11.0), 4.0)
        inside, _, _ = hit
        cylinder = math.pi * 16.0 * 60.0
        assert abs(int(inside.sum()) * g.voxel_volume_mm3 - cylinder) / cylinder < 0.15

    def test_sphere_volume_accuracy(self):
        spec = default_spec(gallbladder_present=True)
        truth = generate_case(spec)
        raster = float(truth.gallbladder_mask.sum()) * spec.geometry.voxel_volume_mm3
        analytic = truth.structure_volumes_mm3["gallbladder"]
        assert abs(raster - analytic) / analytic < 0.05

    def test_tumor_outside_parenchyma_raises_with_index(self):
        spec = default_spec()
        bad = PhantomSpec(
            geometry=spec.geometry,
            parenchyma_semiaxes_mm=spec.parenchyma_semiaxes_mm,
            trees=spec.trees,
            tumors=(Sphere(center_mm=(10.0, 10.0, 10.0), radius_mm=8.0),),
        )
        with pytest.raises(GenerationError, match="tumor 0"):
            generate_case(bad)

    def test_tree_exceeding_bounds_names_structure(self):
        g = Geometry(dims=(32, 32, 32), spacing=(1.0, 1.0, 1.0))
        spec = PhantomSpec(
            geometry=g,
            parenchyma_semiaxes_mm=(200.0, 200.0, 200.0),
            trees={
                "portal_vein": TreeSpec(
                    levels=1,
                    root_start_mm=(16.0, 16.0, 4.0),
                    root_direction=(0.0, 0.0, 1.0),
                    root_radius_mm=2.0,
                    radius_decay=1.0,
                    segment_length_mm=60.0,
                    length_decay=1.0,
                    branch_angle_deg=180.0,
                )
            },
        )
        with pytest.raises(GenerationError, match="portal_vein"):
            generate_case(spec)

    def test_tags_cover_exactly_tree_label_voxels(self):
        truth = generate_case(default_spec(gallbladder_present=True))
        labels = truth.label_volume.labels
        tree_labels = np.isin(labels, (3, 4, 5)) & ~truth.gallbladder_mask
        assert ((truth.edge_tag >= 0) == tree_labels).all()
        assert ((truth.generation_tag >= 0) == tree_labels).all()

    def test_centerlines_inside_own_tree_mask(self):
        truth = generate_case(default_spec())
        labels = truth.label_volume.labels
        spacing = np.asarray(truth.label_volume.geometry.spacing)
        for e in truth.edges:
            sid = truth.label_volume.schema.id_of(e.tree)
            pts = truth.centerline_points_mm(e.edge_id, step_mm=2.0)
            idx = np.round(pts / spacing).astype(int)
            for x, y, z in idx:
                # tumors may locally overwrite a tree, everything else is
                # the tree's own label
                assert labels[z, y, x] in (sid, 2)

    def test_label_precedence_tumor_wins(self):
        g = Geometry(dims=(48, 48, 48), spacing=(1.0, 1.0, 1.0))
        spec = PhantomSpec(
            geometry=g,
            parenchyma_semiaxes_mm=(22.0, 22.0, 22.0),
            trees={
                "portal_vein": TreeSpec(
                    levels=1,
                    root_start_mm=(24.0, 24.0, 10.0),
                    root_direction=(0.0, 0.0, 1.0),
                    root_radius_mm=2.0,
                    radius_decay=1.0,
                    segment_length_mm=20.0,
                    length_decay=0.5,
                    branch_angle_deg=180.0,
                )
            },
            tumors=(Sphere(center_mm=(24.0, 24.0, 20.0), radius_mm=5.0),),
        )
        truth = generate_case(spec)
        labels = truth.label_volume.labels
        assert labels[20, 24, 24] == 2  # tumor overwrites the vessel
        assert (truth.edge_tag[labels == 2] == -1).all()


@pytest.fixture(scope="module")
def truth():
    return generate_case(default_spec())


class TestDegrade:

    def test_identity_spec_is_identity(self, truth):
        out = degrade(truth, DegradeSpec())
        assert np.array_equal(out.labels, truth.label_volume.labels)

    def test_deterministic_per_seed(self, truth):
        d = DegradeSpec(seed=9, relabel_fraction=0.1, erode_steps={"hepatic_vein": 1})
        a = degrade(truth, d)
        b = degrade(truth, d)
        assert np.array_equal(a.labels, b.labels)

    def test_drop_edge_removes_exactly_tagged_voxels(self, truth):
        edge = truth.edges_of_tree("portal_vein")[2]
        tagged = int((truth.edge_tag == edge.edge_id).sum())
        assert tagged > 0
        out = degrade(truth, DegradeSpec(drop_edge_ids=(edge.edge_id,)))
        before = int((truth.label_volume.labels == 3).sum())
        after = int((out.labels == 3).sum())
        assert before - after == tagged

    def test_unknown_edge_id_raises(self, truth):
        with pytest.raises(ParameterError):
            degrade(truth, DegradeSpec(drop_edge_ids=(9999,)))

    def test_erode_and_dilate_conflict_rejected(self):
        with pytest.raises(ParameterError):
            DegradeSpec(erode_steps={"tumor": 1}, dilate_steps={"tumor": 1})

    def test_spurious_blob_yields_one_false_positive(self, truth):
        blob = Sphere(center_mm=(170.0, 96.0, 128.0), radius_mm=8.0)
        out = degrade(truth, DegradeSpec(spurious_blobs=(("tumor", blob),)))
        report = lesion_match(
            extract_mask(truth.label_volume, 2), extract_mask(out, 2)
        )
        assert report.n_false_positive == 1
        assert report.detection_rate == 1.0

    def test_erode_shrinks_structure(self, truth):
        out = degrade(truth, DegradeSpec(erode_steps={"portal_vein": 1}))
        assert int((out.labels == 3).sum()) < int((truth.label_volume.labels == 3).sum())


class TestAnalyticVolumes:
    @pytest.mark.parametrize(
        "radius,length,spacing,against",
        [
            (4.0, 60.0, (1.0, 1.0, 1.0), "cylinder"),
            (6.0, 50.0, (1.0, 1.0, 1.0), "cylinder"),
            (7.0, 60.0, (2.0, 2.0, 3.0), "capsule"),
        ],
    )
    def test_free_tube_within_15_percent(self, radius, length, spacing, against):
        from hepeval.phantom import rasterize_capsule

        margin = radius + 4 * max(spacing)
        dims = (
            int((length + 2 * margin) / spacing[0]),
            int(2 * margin / spacing[1]) + 2,
            int(2 * margin / spacing[2]) + 2,
        )
        g = Geometry(dims=dims, spacing=spacing)
        mid_y = (dims[1] // 2) * spacing[1]
        mid_z = (dims[2] // 2) * spacing[2]
        hit = rasterize_capsule(g, (margin, mid_y, mid_z), (margin + length, mid_y, mid_z), radius)
        inside, _, _ = hit
        analytic = math.pi * radius * radius * length
        if against == "capsule":
            analytic += 4.0 / 3.0 * math.pi * radius**3
        assert abs(int(inside.sum()) * g.voxel_volume_mm3 - analytic) / analytic < 0.15

    def test_default_tree_volume_near_analytic(self):
        # per-edge capsules double count junction overlap and the thinnest
        # generation digitizes coarsely at 2 x 2 x 3 mm
        truth = generate_case(default_spec(gallbladder_present=False))
        voxvol = truth.label_volume.geometry.voxel_volume_mm3
        raster = int((truth.label_volume.labels == 3).sum()) * voxvol
        analytic = truth.structure_volumes_mm3["portal_vein"]
        assert raster == pytest.approx(analytic, rel=0.3)


class TestSpecSerialization:
    def test_json_roundtrip(self):
        spec = default_spec()
        g = spec.geometry
        rotated = Geometry(
            dims=g.dims,
            spacing=g.spacing,
            origin=(5.0, -3.0, 2.5),
            orientation=((0.0, -1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)),
        )
        for s in (spec, dataclasses.replace(spec, geometry=rotated)):
            back = spec_from_json_dict(json.loads(json.dumps(spec_to_json_dict(s))))
            assert back == s

    def test_missing_field_reported(self):
        with pytest.raises(ParameterError, match="geometry"):
            spec_from_json_dict({"tumors": []})

    @pytest.mark.parametrize("key", ["seed", "gallbladder_present"])
    def test_unknown_top_level_key_rejected(self, key):
        raw = spec_to_json_dict(default_spec())
        with pytest.raises(ParameterError, match=rf"\['{key}'\]"):
            spec_from_json_dict({**raw, key: False})

    def test_unknown_degrade_key_rejected(self):
        with pytest.raises(ParameterError, match=r"\['erode'\]"):
            degrade_from_json_dict({"seed": 1, "erode": {"portal_vein": 1}})

    def test_manifest_contents(self):
        truth = generate_case(axis_tree_spec(1))
        m = truth_manifest(truth)
        assert {"spec", "edges", "structure_volumes_mm3", "label_schema"} <= set(m)
        assert len(m["edges"]) == 3
        e = m["edges"][0]
        assert {"edge_id", "tree", "generation", "start_mm", "end_mm", "radius_mm", "length_mm"} <= set(e)


class TestStoredPhantoms:
    def test_straight_tube_is_one_voxel_line(self):
        mask, (start, end) = straight_tube_mask(length_vox=40, radius_vox=0.5, dims=(56, 12, 12))
        assert mask.popcount() == 40
        coords = np.argwhere(mask.values)
        assert len(set(map(tuple, coords[:, :2].tolist()))) == 1  # same (z, y) everywhere

    def test_invalid_tree_levels(self):
        with pytest.raises(ParameterError):
            TreeSpec(
                levels=5,
                root_start_mm=(0, 0, 0),
                root_direction=(0, 0, 1),
                root_radius_mm=1.0,
                radius_decay=0.5,
                segment_length_mm=10.0,
                length_decay=0.5,
            )
