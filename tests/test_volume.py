import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hepeval.errors import ParameterError, SchemaError, ShapeMismatchError
from hepeval.volume import (
    DEFAULT_SCHEMA,
    BinaryMask,
    Geometry,
    LabelSchema,
    LabelVolume,
    ProbVolume,
    extract_mask,
    physical_volume,
)


class TestGeometry:
    def test_shape_follows_zyx_convention(self):
        g = Geometry(dims=(4, 3, 2), spacing=(2.0, 2.0, 3.0))
        assert g.shape == (2, 3, 4)
        assert g.n_voxels == 24
        assert g.voxel_volume_mm3 == 12.0

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ParameterError):
            Geometry(dims=(0, 3, 2), spacing=(1, 1, 1))

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ParameterError):
            Geometry(dims=(2, 2, 2), spacing=(1.0, -2.0, 1.0))
        with pytest.raises(ParameterError):
            Geometry(dims=(2, 2, 2), spacing=(1.0, float("inf"), 1.0))

    def test_rejects_non_orthonormal_orientation(self):
        skew = ((1.0, 0.1, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        with pytest.raises(ParameterError):
            Geometry(dims=(2, 2, 2), spacing=(1, 1, 1), orientation=skew)

    def test_position_mm_uses_spacing_and_origin(self):
        g = Geometry(dims=(4, 4, 4), spacing=(2.0, 2.0, 3.0), origin=(10.0, 0.0, -5.0))
        assert np.allclose(g.position_mm((1, 2, 3)), [12.0, 4.0, 4.0])


class TestVolumeTypes:
    def test_prob_volume_rejects_out_of_range(self, unit_geometry):
        bad = np.full(unit_geometry.shape, 1.5)
        with pytest.raises(ParameterError):
            ProbVolume(unit_geometry, bad)

    def test_prob_volume_rejects_nan(self, unit_geometry):
        bad = np.zeros(unit_geometry.shape)
        bad[0, 0, 0] = np.nan
        with pytest.raises(ParameterError):
            ProbVolume(unit_geometry, bad)

    def test_shape_mismatch(self, unit_geometry):
        with pytest.raises(ShapeMismatchError):
            ProbVolume(unit_geometry, np.zeros((2, 2, 2)))

    def test_label_volume_rejects_unknown_label(self, unit_geometry):
        labels = np.zeros(unit_geometry.shape, dtype=np.uint8)
        labels[0, 0, 0] = 9
        with pytest.raises(SchemaError):
            LabelVolume(unit_geometry, labels)

    def test_values_are_immutable(self, unit_geometry):
        vol = ProbVolume(unit_geometry, np.zeros(unit_geometry.shape))
        with pytest.raises(ValueError):
            vol.values[0, 0, 0] = 1.0


class TestLabelSchema:
    def test_default_schema_names(self):
        assert DEFAULT_SCHEMA.name_of(5) == "biliary_tree"
        assert DEFAULT_SCHEMA.id_of("portal_vein") == 3

    def test_background_is_reserved(self):
        with pytest.raises(SchemaError):
            LabelSchema({0: "stuff", 1: "thing"})

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            LabelSchema({0: "background", 1: "a", 2: "a"})

    def test_ids_fit_in_a_byte(self):
        assert LabelSchema({0: "background", 255: "x"}).structure_ids() == [255]
        with pytest.raises(SchemaError, match="300"):
            LabelSchema({0: "background", 300: "x"})


class TestExtractMask:
    def test_definition(self):
        g = Geometry(dims=(4, 1, 1), spacing=(1, 1, 1))
        vol = LabelVolume(g, np.array([1, 2, 2, 0], dtype=np.uint8).reshape(1, 1, 4))
        mask = extract_mask(vol, 2)
        assert mask.values.ravel().tolist() == [False, True, True, False]

    def test_unknown_id_raises(self, unit_geometry):
        vol = LabelVolume(unit_geometry, np.zeros(unit_geometry.shape, dtype=np.uint8))
        with pytest.raises(SchemaError):
            extract_mask(vol, 7)

    @given(seed=st.integers(0, 999))
    @settings(max_examples=25, deadline=None)
    def test_masks_partition_the_volume(self, seed):
        rng = np.random.default_rng(seed)
        g = Geometry(dims=(6, 5, 4), spacing=(1, 1, 1))
        ids = list(DEFAULT_SCHEMA.ids)
        labels = rng.choice(ids, size=g.shape).astype(np.uint8)
        vol = LabelVolume(g, labels)
        total = 0
        union = np.zeros(g.shape, dtype=bool)
        for i in ids:
            m = extract_mask(vol, i)
            assert not (union & m.values).any()
            union |= m.values
            total += m.popcount()
        assert union.all()
        assert total == g.n_voxels


class TestPhysicalVolume:
    def test_spacing_product(self):
        g = Geometry(dims=(10, 1, 1), spacing=(2.0, 2.0, 3.0))
        mask = BinaryMask(g, np.ones(g.shape, dtype=bool))
        assert physical_volume(mask) == pytest.approx(120.0)

    def test_empty_mask(self, unit_geometry):
        mask = BinaryMask(unit_geometry, np.zeros(unit_geometry.shape, dtype=bool))
        assert physical_volume(mask) == 0.0

    def test_full_cube(self):
        g = Geometry(dims=(4, 4, 4), spacing=(1.0, 1.0, 1.0))
        mask = BinaryMask(g, np.ones(g.shape, dtype=bool))
        assert physical_volume(mask) == pytest.approx(64.0)
