import dataclasses
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hepeval.errors import GenerationError, ParameterError
from hepeval.metrics import lesion_match
from hepeval.phantom import (
    DegradeSpec,
    PhantomSpec,
    Sphere,
    TreeSpec,
    _check_placement,
    axis_tree_spec,
    default_spec,
    degrade,
    degrade_from_json_dict,
    generate_case,
    rasterize_capsule,
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

    # SHA-256 of labels, edge tags, generation tags, gallbladder mask and the
    # sorted structure volumes
    PINNED = {
        "default_spec": (
            default_spec,
            "213892c3e8ee00245f4f2d6c8c8ef5e57cded728f86d6fb0a7028ee944a7e897",
            "c89f079065735ed1d957eb772b87ddce675b46965993d43c0340619dcfb52fb9",
            "2f65884a503567742adebca0a9a433c8035a1d629e217d1021ee8dec3db78cd3",
            "13b485b8fb2fa9696685d8bc0b9d22aa8b3c40a017dff8cbbd515520123fbf61",
            "3b7cf2bc1b4bc300d1927271c60fcea490a962ec9726116827f88f1550d9a6c1",
        ),
        "default_spec_no_gallbladder": (
            lambda: default_spec(gallbladder_present=False),
            "67c24ba7486a6986c0f52b4f38ab95c5e51a7370e83539925ac7eb08b2338a90",
            "c89f079065735ed1d957eb772b87ddce675b46965993d43c0340619dcfb52fb9",
            "2f65884a503567742adebca0a9a433c8035a1d629e217d1021ee8dec3db78cd3",
            "5647f05ec18958947d32874eeb788fa396a05d0bab7c1b71f112ceb7e9b31eee",
            "f69ba4a440678c857b4383b6ef4e1a9f7838b85d8750d5ade1045e2a98d4b632",
        ),
        "axis_tree_spec_4": (
            lambda: axis_tree_spec(4),
            "3d05dc34932a96c9a93ae3b7ba380266278ed072742e31f641353ed4e9e4f898",
            "bedf30290539b72306c06f20bd78d31193cbba24f2bd16dd6d61bd3a4d23770c",
            "c90544627ffb590ad498c3135ec9ea813fdf32a0a7b3dfcea71e95a8c75e46b4",
            "be06485f107d2e136240428bad947270f9540d16d548fb49ece3c8218b1bad6e",
            "291779e2ea82335bace37a2d99ba2c20ad9e758d520676c12cf2e9e93ef84018",
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_arrays_hash_is_pinned(self, name):
        """A change meant only to make generation cheaper must leave every
        bit of the arrays and volumes alone."""
        make_spec, *expected = self.PINNED[name]
        truth = generate_case(make_spec())
        labels = truth.label_volume.labels
        arrays = (labels, truth.edge_tag, truth.generation_tag, truth.gallbladder_mask)
        assert [a.dtype for a in arrays] == [np.uint8, np.int32, np.int16, np.bool_]
        volumes = json.dumps(sorted(truth.structure_volumes_mm3.items())).encode()
        digests = [hashlib.sha256(a.tobytes()).hexdigest() for a in arrays]
        assert digests + [hashlib.sha256(volumes).hexdigest()] == expected

    def test_peak_memory_below_three_float_grids(self):
        """Trees draw straight into the case grids through one distance grid,
        with no per-tree full-grid masks or tags."""
        spec = default_spec()
        tracemalloc.start()
        try:
            generate_case(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * spec.geometry.n_voxels

    def test_one_level_tree_generations(self):
        spec = axis_tree_spec(1)
        truth = generate_case(spec)
        edges = [e for e in truth.edges if e.tree == "portal_vein"]
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
            a, b = np.asarray(e.start_mm), np.asarray(e.end_mm)
            t = np.linspace(0.0, 1.0, max(2, int(np.ceil(e.length_mm / 2.0)) + 1))[:, None]
            pts = a + t * (b - a)
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


# (parenchyma semiaxes, point) on a 40^3 unit grid centred at 19.5 mm: a
# ball of radius 2 about the point leaves only the condition named
PLACEMENTS = {
    "exits the parenchyma": ((10.0, 10.0, 10.0), (5.0, 19.5, 19.5)),
    "exceeds the volume bounds": ((200.0, 200.0, 200.0), (1.0, 19.5, 19.5)),
}


def _placed(structure: str, point) -> dict:
    if structure == "tree":
        tree = TreeSpec(
            levels=1,
            root_start_mm=point,
            root_direction=(1.0, 0.0, 0.0),
            root_radius_mm=2.0,
            radius_decay=1.0,
            segment_length_mm=5.0,
            length_decay=1.0,
        )
        return {"trees": {"portal_vein": tree}}
    if structure == "gallbladder":
        return {"gallbladder": Sphere(center_mm=point, radius_mm=2.0)}
    return {"tumors": (Sphere(center_mm=point, radius_mm=2.0),)}


@st.composite
def capsules(draw):
    """A small grid with non-integer spacings, a radius, possibly below half
    an ulp of the coordinates, and two ends, often equal. An end coordinate
    is a voxel centre, the centre one spacing past the last, or anywhere
    between the first and last centres."""
    dims = draw(st.tuples(*[st.integers(3, 8)] * 3))
    spacing = draw(st.tuples(*[st.floats(0.3, 2.7).filter(lambda s: not s.is_integer())] * 3))
    radius = draw(st.floats(1e-9, 0.6) | st.just(1e-17))
    point = st.tuples(
        *[(st.integers(0, n) | st.floats(0, n - 1)).map(lambda u, s=s: u * s) for n, s in zip(dims, spacing)]
    )
    start = draw(point)
    return Geometry(dims=dims, spacing=spacing), radius, (start, draw(st.just(start) | point))


class TestPlacement:
    @pytest.mark.parametrize("condition", sorted(PLACEMENTS))
    @pytest.mark.parametrize(
        "structure, what", [("tree", "portal_vein edge 0"), ("gallbladder", "gallbladder"), ("tumor", "tumor 0")]
    )
    def test_error_names_the_structure_and_the_condition(self, structure, what, condition):
        semiaxes, point = PLACEMENTS[condition]
        spec = PhantomSpec(
            geometry=Geometry(dims=(40, 40, 40), spacing=(1.0, 1.0, 1.0)),
            parenchyma_semiaxes_mm=semiaxes,
            **_placed(structure, point),
        )
        with pytest.raises(GenerationError, match=f"^{what} {condition}$"):
            generate_case(spec)

    @given(case=capsules())
    # a ball too small to move its centre's coordinates, on voxel (2, 2, 2)
    @example(case=(Geometry(dims=(5, 5, 5), spacing=(1.5, 0.75, 2.5)), 1e-17, [(3.0, 1.5, 5.0)] * 2))
    @settings(max_examples=300, deadline=None)
    def test_a_placed_capsule_has_a_voxel_on_every_axis(self, case):
        g, radius, (start, end) = case
        # the parenchyma spans far past the grid, so the volume bounds decide
        spec = PhantomSpec(geometry=g, parenchyma_semiaxes_mm=(1e3, 1e3, 1e3))
        try:
            for point in (start, end):
                _check_placement(spec, point, radius, "capsule")
        except GenerationError:
            return
        hit = rasterize_capsule(g, start, end, radius)
        assert hit is not None and min(hit[0].shape) >= 1


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
        edge = [e for e in truth.edges if e.tree == "portal_vein"][2]
        tagged = int((truth.edge_tag == edge.edge_id).sum())
        assert tagged > 0
        out = degrade(truth, DegradeSpec(drop_edge_ids=(edge.edge_id,)))
        before = int((truth.label_volume.labels == 3).sum())
        after = int((out.labels == 3).sum())
        assert before - after == tagged

    def test_unknown_edge_id_raises(self, truth):
        with pytest.raises(ParameterError):
            degrade(truth, DegradeSpec(drop_edge_ids=(9999,)))

    @pytest.mark.parametrize("edge_id", [True, 1.0, "1"])
    def test_non_integer_edge_id_rejected(self, edge_id):
        with pytest.raises(ParameterError, match="edge ids must be integers"):
            DegradeSpec(drop_edge_ids=(edge_id,))
        with pytest.raises(ParameterError, match="edge ids must be integers"):
            degrade_from_json_dict({"drop_edge_ids": [edge_id]})

    def test_json_edge_id_drops_exactly_its_voxels(self):
        truth = generate_case(axis_tree_spec(2))
        out = degrade(truth, degrade_from_json_dict({"drop_edge_ids": [1]}))
        changed = out.labels != truth.label_volume.labels
        assert np.array_equal(changed, truth.edge_tag == 1)
        assert int(changed.sum()) == 273

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

    @pytest.mark.parametrize("name", ["liver", "background"])
    def test_blob_of_unknown_structure_rejected(self, name):
        # the rule of the step names: "liver" is no label, and "background"
        # would stamp label 0
        sphere = Sphere((20.0, 20.0, 20.0), 4.0)
        good = {"structure": "tumor", "center_mm": [20.0, 20.0, 20.0], "radius_mm": 4.0}
        message = f"spurious blob 1 must name a structure.*'{name}'"
        with pytest.raises(ParameterError, match=message):
            DegradeSpec(spurious_blobs=(("tumor", sphere), (name, sphere)))
        with pytest.raises(ParameterError, match=message):
            degrade_from_json_dict({"spurious_blobs": [good, {**good, "structure": name}]})

    def test_blob_without_a_sphere_rejected(self):
        with pytest.raises(ParameterError, match="spurious blob 0 needs a Sphere, got \\('tumor', 5\\)"):
            DegradeSpec(spurious_blobs=(("tumor", 5),))

    def test_valid_blobs_stamp_their_labels(self):
        # a tumour and a biliary blob read from JSON stamp 251 and 93 voxels
        truth = generate_case(axis_tree_spec(1))
        out = degrade(truth, degrade_from_json_dict({"spurious_blobs": [
            {"structure": "tumor", "center_mm": [20.0, 20.0, 20.0], "radius_mm": 4.0},
            {"structure": "biliary_tree", "center_mm": [30.0, 10.0, 12.0], "radius_mm": 3.0},
        ]}))
        changed = out.labels != truth.label_volume.labels
        assert np.bincount(out.labels[changed]).tolist() == [0, 0, 251, 0, 0, 93]
        assert hashlib.sha256(out.labels.tobytes()).hexdigest() == (
            "5bbb5c036806a23f19c9341c26409d9464beede3175d30817f393375d2751878"
        )

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
        specs = (
            spec,
            dataclasses.replace(spec, geometry=rotated),
            default_spec(gallbladder_present=False),
            axis_tree_spec(4),  # a set parenchyma center and 180 degree branches
        )
        for s in specs:
            back = spec_from_json_dict(json.loads(json.dumps(spec_to_json_dict(s))))
            assert back == s

    def test_json_bytes_are_pinned(self):
        """The spec block of a truth manifest keeps its keys and values."""
        text = json.dumps(spec_to_json_dict(default_spec()), sort_keys=True)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "7ec38e3efec41da2e9293f76d71cdf94dde14c92fca7bb1fd1770bab2647a440"

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

    @staticmethod
    def _set(raw, path, value):
        for key in path[:-1]:
            raw = raw[key]
        raw[path[-1]] = value

    @pytest.mark.parametrize(
        "path, message",
        [
            (("geometry", "stale"), r"geometry keys: \['stale'\]"),
            (("trees", "portal_vein", "branch_angle"), r"tree 'portal_vein' keys: \['branch_angle'\]"),
            (("tumors", 1, "stale"), r"tumor 1 keys: \['stale'\]"),
            (("gallbladder", "stale"), r"gallbladder keys: \['stale'\]"),
        ],
    )
    def test_unknown_nested_key_rejected(self, path, message):
        raw = spec_to_json_dict(default_spec())
        self._set(raw, path, 90)
        with pytest.raises(ParameterError, match=message):
            spec_from_json_dict(raw)

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("geometry",), 5, "geometry must be an object, got int"),
            (("trees",), [], "trees must be an object, got list"),
            (("trees", "portal_vein"), 3, "tree 'portal_vein' must be an object, got int"),
            (("tumors",), {}, "tumors must be an array, got dict"),
            (("tumors", 0), [170.0, 150.0, 240.0], "tumor 0 must be an object, got list"),
            (("gallbladder",), [62.0, 108.0, 116.0], "gallbladder must be an object, got list"),
        ],
    )
    def test_block_of_wrong_type_rejected(self, path, value, message):
        raw = spec_to_json_dict(default_spec())
        self._set(raw, path, value)
        with pytest.raises(ParameterError, match=message):
            spec_from_json_dict(raw)

    @pytest.mark.parametrize(
        "data, message",
        [
            ([], "degrade spec must be an object, got list"),
            ({"erode_steps": ["portal_vein"]}, "erode_steps must be an object, got list"),
            ({"dilate_steps": 1}, "dilate_steps must be an object, got int"),
            ({"drop_edge_ids": 4}, "drop_edge_ids must be an array, got int"),
            ({"spurious_blobs": [5]}, "spurious blob 0 must be an object, got int"),
            ({"spurious_blobs": [{"structure": "tumor"}]}, "missing field 'center_mm'"),
        ],
    )
    def test_degrade_block_of_wrong_type_rejected(self, data, message):
        with pytest.raises(ParameterError, match=message):
            degrade_from_json_dict(data)

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
