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

    @pytest.mark.parametrize(
        "orientation",
        [
            [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            [[True, False, False], [False, True, False], [False, False, True]],
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, True]],
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, float("nan")]],
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0, 0.0]],
            "abc",
            5,
        ],
        ids=["strings", "bools", "one-bool", "nan", "two-rows", "long-row", "string", "scalar"],
    )
    def test_orientation_entries_follow_the_spacing_rule(self, orientation):
        with pytest.raises(ParameterError, match="orientation must be a finite 3x3 matrix"):
            Geometry(dims=(2, 2, 2), spacing=(1, 1, 1), orientation=orientation)

    def test_orientation_accepts_numbers_of_any_real_type(self):
        c, s = np.cos(0.3), np.sin(0.3)
        rows = ([c, -s, 0], [s, c, 0], [0, 0, 1])
        for orientation in (rows, np.array(rows), tuple(np.array(rows, dtype=np.float32).astype(np.float64))):
            g = Geometry(dims=(2, 2, 2), spacing=(1, 1, 1), orientation=orientation)
            assert g.orientation == tuple(tuple(float(v) for v in row) for row in np.asarray(orientation))
            assert all(type(v) is float for row in g.orientation for v in row)

    def test_position_mm_sums_each_row_in_a_fixed_order(self):
        # ((m0 v0 + m1 v1) + m2 v2) + origin per coordinate, on a rotated,
        # anisotropic grid; the same expression in Python floats is the oracle
        m = ((2 / 3, -1 / 3, 2 / 3), (2 / 3, 2 / 3, -1 / 3), (-1 / 3, 2 / 3, 2 / 3))
        g = Geometry(dims=(9, 9, 9), spacing=(0.7, 0.9, 1.3), origin=(-3.1, 2.2, 17.5), orientation=m)
        for index in [(0, 0, 0), (1, 2, 3), (8, 5, 7), (7, 3, 8), np.array([3, 1, 4])]:
            v = [float(i) * w for i, w in zip(index, g.spacing)]
            want = tuple(((r[0] * v[0] + r[1] * v[1]) + r[2] * v[2]) + o for r, o in zip(g.orientation, g.origin))
            assert g.position_mm(index) == want


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

    def test_binary_mask_takes_a_bool_array_without_copying(self, unit_geometry):
        values = np.zeros(unit_geometry.shape, dtype=bool)
        mask = BinaryMask(unit_geometry, values)
        assert np.shares_memory(mask.values, values)
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0, 0, 0] = True

    def test_binary_mask_converts_other_dtypes(self, unit_geometry):
        values = np.zeros(unit_geometry.shape, dtype=np.uint8)
        values[0, 0, 0] = 3
        mask = BinaryMask(unit_geometry, values)
        assert mask.values.dtype == bool and mask.values[0, 0, 0]
        assert not np.shares_memory(mask.values, values)
        assert values.flags.writeable and not mask.values.flags.writeable


class TestLabelCheck:
    """`LabelVolume` accepts exactly the arrays whose values are all schema ids
    and otherwise names the unknown values, sorted, whatever the dtype."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_accepts_exactly_the_schema_ids(self, data):
        structure_ids = data.draw(
            st.one_of(
                st.sets(st.integers(1, 255), max_size=10),
                st.integers(0, 12).map(lambda n: set(range(1, n + 1))),
            )
        )
        ids = {0: "background", **{i: f"s{i}" for i in structure_ids}}
        dtype = np.dtype(data.draw(st.sampled_from([np.int8, np.int16, np.int32, np.int64])))
        info = np.iinfo(dtype)
        value = st.one_of(
            st.sampled_from([i for i in ids if i <= info.max]),
            st.integers(-3, 260).filter(lambda v: info.min <= v <= info.max),
            st.integers(int(info.min), int(info.max)),
        )
        g = Geometry(dims=(3, 2, 2), spacing=(1, 1, 1))
        labels = np.array(data.draw(st.lists(value, min_size=12, max_size=12)), dtype=dtype)
        labels = labels.reshape(g.shape)
        unknown = sorted(set(np.unique(labels).tolist()) - set(ids))
        if unknown:
            with pytest.raises(SchemaError) as err:
                LabelVolume(g, labels, LabelSchema(ids))
            assert str(err.value) == f"labels {unknown} are not in the schema"
        else:
            vol = LabelVolume(g, labels, LabelSchema(ids))
            assert vol.labels.dtype == np.uint8
            assert np.array_equal(vol.labels, labels)

    def test_contiguous_schema_does_not_list_the_values(self, monkeypatch):
        def no_unique(*args, **kwargs):
            raise AssertionError("np.unique called on a label volume")

        monkeypatch.setattr(np, "unique", no_unique)
        g = Geometry(dims=(8, 4, 2), spacing=(1, 1, 1))
        labels = (np.arange(64) % 7).astype(np.uint8).reshape(g.shape)
        for view in (labels, labels.clip(2, 4), np.zeros_like(labels)):
            assert np.array_equal(LabelVolume(g, view.copy()).labels, view)


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
        assert mask.popcount() * mask.geometry.voxel_volume_mm3 == pytest.approx(120.0)

    def test_empty_mask(self, unit_geometry):
        mask = BinaryMask(unit_geometry, np.zeros(unit_geometry.shape, dtype=bool))
        assert mask.popcount() * mask.geometry.voxel_volume_mm3 == 0.0

    def test_full_cube(self):
        g = Geometry(dims=(4, 4, 4), spacing=(1.0, 1.0, 1.0))
        mask = BinaryMask(g, np.ones(g.shape, dtype=bool))
        assert mask.popcount() * mask.geometry.voxel_volume_mm3 == pytest.approx(64.0)
