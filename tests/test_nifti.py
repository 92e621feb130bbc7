import gzip
import itertools
import re
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hepeval.errors import FormatError, HepevalError, ParameterError, SchemaError, UnsupportedDatatypeError
from hepeval.nifti import (
    HEADER_SIZE,
    _geometry_from_header,
    _header_bytes,
    _orthonormalize,
    _unpack_header,
    read_binary_mask,
    read_label_volume,
    read_nifti,
    read_prob_volume,
    write_int_nifti,
    write_nifti,
)
from hepeval.volume import BinaryMask, Geometry, LabelVolume, ProbVolume

from conftest import reference_geometry, reference_header_bytes


def label_volume(dims=(4, 3, 2), spacing=(2.0, 2.0, 3.0), seed=0):
    rng = np.random.default_rng(seed)
    g = Geometry(dims=dims, spacing=spacing)
    return LabelVolume(g, rng.integers(0, 7, size=g.shape).astype(np.uint8))


def prob_volume(dims=(4, 3, 2), seed=0):
    # float32-representable values so the f4 on-disk round trip is bit exact
    rng = np.random.default_rng(seed)
    g = Geometry(dims=dims, spacing=(1.0, 1.0, 1.5))
    values = rng.random(g.shape, dtype=np.float32).astype(np.float64)
    return ProbVolume(g, values)


class TestRoundtrip:
    def test_labels_bit_identical(self, tmp_path):
        vol = label_volume()
        path = tmp_path / "labels.nii"
        write_nifti(vol, path)
        back = read_label_volume(path)
        assert back.geometry == vol.geometry
        assert np.array_equal(back.labels, vol.labels)

    def test_labels_gz(self, tmp_path):
        vol = label_volume(seed=3)
        path = tmp_path / "labels.nii.gz"
        write_nifti(vol, path)
        with open(path, "rb") as fh:
            assert fh.read(2) == b"\x1f\x8b"
        back = read_label_volume(path)
        assert np.array_equal(back.labels, vol.labels)

    def test_probabilities_bit_identical(self, tmp_path):
        vol = prob_volume()
        path = tmp_path / "prob.nii"
        write_nifti(vol, path)
        back = read_prob_volume(path)
        assert np.array_equal(
            back.values.astype(np.float32), vol.values.astype(np.float32)
        )
        assert back.geometry.spacing == vol.geometry.spacing

    def test_mask_roundtrip(self, tmp_path):
        g = Geometry(dims=(5, 4, 3), spacing=(1, 1, 1))
        rng = np.random.default_rng(7)
        mask = BinaryMask(g, rng.random(g.shape) < 0.5)
        path = tmp_path / "mask.nii"
        write_nifti(mask, path)
        back = read_binary_mask(path)
        assert np.array_equal(back.values, mask.values)

    def test_origin_and_orientation_roundtrip(self, tmp_path):
        g = Geometry(
            dims=(3, 3, 3),
            spacing=(1.0, 2.0, 3.0),
            origin=(-10.5, 4.25, 8.0),
            orientation=((-1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, 1.0)),
        )
        vol = LabelVolume(g, np.zeros(g.shape, dtype=np.uint8))
        path = tmp_path / "o.nii"
        write_nifti(vol, path)
        back = read_label_volume(path)
        assert back.geometry.origin == g.origin
        assert np.allclose(np.asarray(back.geometry.orientation), np.asarray(g.orientation))


class TestHeaderContract:
    def test_header_bytes_0_to_3_decode_to_348(self, tmp_path):
        path = tmp_path / "v.nii"
        write_nifti(label_volume(), path)
        raw = path.read_bytes()
        assert struct.unpack_from("<i", raw, 0)[0] == 348

    def test_magic_bytes(self, tmp_path):
        path = tmp_path / "v.nii"
        write_nifti(label_volume(), path)
        raw = path.read_bytes()
        assert raw[344:348] == b"n+1\x00"

    def test_2x2x2_label_file_is_360_bytes(self, tmp_path):
        vol = label_volume(dims=(2, 2, 2))
        path = tmp_path / "v.nii"
        write_nifti(vol, path)
        assert path.stat().st_size == 352 + 8


def _blank_header(dims=(4, 3, 2), pixdim=(2.0, 2.0, 3.0), datatype=2, order="<"):
    """Build a minimal header byte-by-byte, independent of the writer."""
    hdr = bytearray(HEADER_SIZE)
    struct.pack_into(order + "i", hdr, 0, 348)
    struct.pack_into(order + "8h", hdr, 40, 3, *dims, 1, 1, 1, 1)
    struct.pack_into(order + "h", hdr, 70, datatype)
    bitpix = {2: 8, 4: 16, 16: 32, 64: 64}[datatype]
    struct.pack_into(order + "h", hdr, 72, bitpix)
    struct.pack_into(order + "8f", hdr, 76, 1.0, *pixdim, 0, 0, 0, 0)
    struct.pack_into(order + "f", hdr, 108, 352.0)
    hdr[344:348] = b"n+1\x00"
    return hdr


class TestHandConstructedFiles:
    def test_geometry_from_hand_built_header(self, tmp_path):
        hdr = _blank_header()
        expected = np.arange(24) % 7
        payload = bytes(expected.astype(np.uint8).tolist())
        path = tmp_path / "hand.nii"
        path.write_bytes(bytes(hdr) + b"\x00" * 4 + payload)
        vol = read_nifti(path, intent="labels")
        assert vol.geometry.dims == (4, 3, 2)
        assert vol.geometry.spacing == (2.0, 2.0, 3.0)
        assert np.array_equal(vol.labels.ravel(), expected)

    def test_big_endian_detected_by_dim_heuristic(self, tmp_path):
        hdr = _blank_header(order=">")
        expected = np.arange(24) % 7
        payload = expected.astype(">i2").tobytes()
        hdr2 = bytearray(hdr)
        struct.pack_into(">h", hdr2, 70, 4)  # int16
        struct.pack_into(">h", hdr2, 72, 16)
        path = tmp_path / "be.nii"
        path.write_bytes(bytes(hdr2) + b"\x00" * 4 + payload)
        vol = read_nifti(path, intent="labels")
        assert vol.geometry.dims == (4, 3, 2)
        assert np.array_equal(vol.labels.ravel(), expected)

    def test_corrupted_magic_raises_format_error(self, tmp_path):
        hdr = _blank_header()
        hdr[344:348] = b"XXX\x00"
        path = tmp_path / "bad.nii"
        path.write_bytes(bytes(hdr) + b"\x00" * 4 + bytes(24))
        with pytest.raises(FormatError, match="magic"):
            read_nifti(path)

    def test_wrong_sizeof_hdr_raises(self, tmp_path):
        hdr = _blank_header()
        struct.pack_into("<i", hdr, 0, 340)
        path = tmp_path / "bad.nii"
        path.write_bytes(bytes(hdr) + b"\x00" * 4 + bytes(24))
        with pytest.raises(FormatError, match="sizeof_hdr"):
            read_nifti(path)

    def test_unsupported_datatype_raises(self, tmp_path):
        hdr = _blank_header()
        struct.pack_into("<h", hdr, 70, 128)  # RGB24: out of scope
        path = tmp_path / "bad.nii"
        path.write_bytes(bytes(hdr) + b"\x00" * 4 + bytes(72))
        with pytest.raises(UnsupportedDatatypeError):
            read_nifti(path)

    def test_truncated_payload_raises_oserror(self, tmp_path):
        hdr = _blank_header()
        path = tmp_path / "trunc.nii"
        path.write_bytes(bytes(hdr) + b"\x00" * 4 + bytes(10))
        with pytest.raises(OSError, match="truncated"):
            read_nifti(path)

    def test_sform_preferred_over_pixdim_for_origin(self, tmp_path):
        hdr = _blank_header()
        struct.pack_into("<h", hdr, 254, 1)  # sform_code
        struct.pack_into("<4f", hdr, 280, 2.0, 0.0, 0.0, 5.0)
        struct.pack_into("<4f", hdr, 296, 0.0, 2.0, 0.0, 6.0)
        struct.pack_into("<4f", hdr, 312, 0.0, 0.0, 3.0, 7.0)
        path = tmp_path / "sform.nii"
        path.write_bytes(bytes(hdr) + b"\x00" * 4 + bytes(24))
        vol = read_nifti(path, intent="labels")
        assert vol.geometry.origin == (5.0, 6.0, 7.0)
        assert np.allclose(np.asarray(vol.geometry.orientation), np.eye(3))

    def test_sform_with_dependent_columns_is_named(self, tmp_path):
        # the first two columns are parallel, so no orientation is nearest
        hdr = _blank_header()
        struct.pack_into("<h", hdr, 254, 1)  # sform_code
        struct.pack_into("<4f", hdr, 280, 2.0, 3.0, 0.0, 0.0)
        struct.pack_into("<4f", hdr, 312, 0.0, 0.0, 3.0, 0.0)
        path = tmp_path / "sform.nii"
        path.write_bytes(bytes(hdr) + b"\x00" * 4 + bytes(24))
        with pytest.raises(FormatError, match=r"sform \(srow_x, srow_y, srow_z\) has linearly dependent columns"):
            read_nifti(path, intent="labels")

    def test_qform_used_when_no_sform(self, tmp_path):
        hdr = _blank_header()
        struct.pack_into("<h", hdr, 252, 1)  # qform_code
        # b = c = d = 0: identity rotation
        struct.pack_into("<3f", hdr, 268, 1.5, 2.5, 3.5)
        path = tmp_path / "qform.nii"
        path.write_bytes(bytes(hdr) + b"\x00" * 4 + bytes(24))
        vol = read_nifti(path, intent="labels")
        assert vol.geometry.origin == (1.5, 2.5, 3.5)

    @pytest.mark.parametrize("qfac, orientation", [
        (-1.0, ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, -1.0))),
        (0.0, ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))),
    ])
    def test_qform_qfac_flips_the_third_column(self, tmp_path, qfac, orientation):
        # pixdim[0] is qfac: -1 flips the rotation's third column, and 0
        # reads as 1
        hdr = _blank_header()
        struct.pack_into("<f", hdr, 76, qfac)  # pixdim[0]
        struct.pack_into("<h", hdr, 252, 1)  # qform_code; sform_code stays 0, b = c = d = 0
        path = tmp_path / "qfac.nii"
        path.write_bytes(bytes(hdr) + b"\x00" * 4 + bytes(24))
        assert read_nifti(path, intent="labels").geometry.orientation == orientation

    def test_prob_clamping_reported(self, tmp_path, caplog):
        hdr = _blank_header(datatype=16)
        values = np.linspace(-0.5, 1.5, 24, dtype="<f4")
        path = tmp_path / "clamp.nii"
        path.write_bytes(bytes(hdr) + b"\x00" * 4 + values.tobytes())
        with caplog.at_level("WARNING"):
            vol = read_nifti(path, intent="prob")
        assert "clamped" in caplog.text
        assert vol.values.min() >= 0.0 and vol.values.max() <= 1.0

    def test_prob_scaling_applied(self, tmp_path):
        hdr = _blank_header(datatype=16)
        struct.pack_into("<2f", hdr, 112, 2.0, 0.1)  # scl_slope, scl_inter
        stored = np.linspace(0.0, 0.4, 24, dtype="<f4")
        path = tmp_path / "scaled.nii"
        path.write_bytes(bytes(hdr) + b"\x00" * 4 + stored.tobytes())
        vol = read_nifti(path, intent="prob")
        inter = float(np.float32(0.1))
        assert np.array_equal(vol.values.ravel(), stored.astype(np.float64) * 2.0 + inter)

    def test_zero_slope_means_unscaled(self, tmp_path):
        hdr = _blank_header(datatype=16)
        struct.pack_into("<2f", hdr, 112, 0.0, 0.5)
        stored = np.linspace(0.0, 1.0, 24, dtype="<f4")
        path = tmp_path / "zero_slope.nii"
        path.write_bytes(bytes(hdr) + b"\x00" * 4 + stored.tobytes())
        vol = read_nifti(path, intent="prob")
        assert np.array_equal(vol.values.ravel(), stored.astype(np.float64))

    @pytest.mark.parametrize("slope, inter", [(2.0, 0.0), (1.0, 1.0)])
    def test_scaled_label_file_rejected(self, tmp_path, slope, inter):
        hdr = _blank_header()
        struct.pack_into("<2f", hdr, 112, slope, inter)
        path = tmp_path / "scaled_labels.nii"
        path.write_bytes(bytes(hdr) + b"\x00" * 4 + bytes(24))
        with pytest.raises(FormatError, match="scl_slope.*scl_inter"):
            read_label_volume(path)

    @pytest.mark.parametrize("slope", [float("nan"), float("inf")])
    def test_non_finite_slope_means_unscaled(self, tmp_path, slope):
        hdr = _blank_header(datatype=16)
        struct.pack_into("<2f", hdr, 112, slope, float("nan"))
        stored = np.linspace(0.0, 1.0, 24, dtype="<f4")
        path = tmp_path / "nan_slope.nii"
        path.write_bytes(bytes(hdr) + b"\x00" * 4 + stored.tobytes())
        vol = read_nifti(path, intent="prob")
        assert np.array_equal(vol.values.ravel(), stored.astype(np.float64))

    def test_nan_slope_label_file_reads_unscaled(self, tmp_path):
        hdr = _blank_header()
        struct.pack_into("<2f", hdr, 112, float("nan"), float("nan"))
        expected = np.arange(24) % 5
        path = tmp_path / "nan_slope_labels.nii"
        path.write_bytes(bytes(hdr) + b"\x00" * 4 + bytes(expected.astype(np.uint8).tolist()))
        vol = read_label_volume(path)
        assert np.array_equal(vol.labels.ravel(), expected)

    def test_non_finite_intercept_with_real_slope_rejected(self, tmp_path):
        hdr = _blank_header(datatype=16)
        struct.pack_into("<2f", hdr, 112, 2.0, float("nan"))
        path = tmp_path / "nan_inter.nii"
        path.write_bytes(bytes(hdr) + b"\x00" * 4 + bytes(96))
        with pytest.raises(FormatError, match="scl_slope.*scl_inter"):
            read_nifti(path, intent="prob")

    def test_non_binary_mask_rejected(self, tmp_path):
        g = Geometry(dims=(3, 3, 3), spacing=(1, 1, 1))
        vol = ProbVolume(g, np.full(g.shape, 0.5))
        path = tmp_path / "notmask.nii"
        write_nifti(vol, path)
        with pytest.raises(ParameterError, match="binary"):
            read_binary_mask(path)

    @pytest.mark.parametrize("value", [2.0, 1.5, -1.0])
    def test_mask_value_outside_unit_interval_rejected_not_clamped(self, tmp_path, value):
        stored = np.tile(np.array([0.0, 1.0], dtype="<f4"), 12)
        stored[5] = value
        path = tmp_path / "outside.nii"
        path.write_bytes(bytes(_blank_header(datatype=16)) + b"\x00" * 4 + stored.tobytes())
        with pytest.raises(ParameterError, match="binary"):
            read_binary_mask(path)

    def test_float_label_file_reads_as_its_uint8_twin(self, tmp_path):
        ids = np.arange(24) % 7
        twins = tmp_path / "uint8.nii", tmp_path / "float32.nii"
        twins[0].write_bytes(bytes(_blank_header()) + b"\x00" * 4 + ids.astype("<u1").tobytes())
        twins[1].write_bytes(bytes(_blank_header(datatype=16)) + b"\x00" * 4 + ids.astype("<f4").tobytes())
        want, got = (read_label_volume(path) for path in twins)
        assert (got.geometry, got.schema, got.labels.dtype) == (want.geometry, want.schema, want.labels.dtype)
        assert np.array_equal(got.labels, want.labels)

    def test_float_binary_mask_is_read(self, tmp_path):
        # a mask saved as float32 0/1, as `hepeval loss --gt` gets it from
        # tools that write masks as floats
        stored = (np.arange(24) % 3 == 0).astype("<f4")
        path = tmp_path / "float_mask.nii"
        path.write_bytes(bytes(_blank_header(datatype=16)) + b"\x00" * 4 + stored.tobytes())
        mask = read_binary_mask(path)
        assert mask.geometry.dims == (4, 3, 2)
        assert np.array_equal(mask.values.ravel(), stored == 1.0)

    def test_wide_integer_labels_in_schema_are_read(self, tmp_path):
        g = Geometry(dims=(4, 3, 2), spacing=(1, 1, 1))
        labels = np.arange(24, dtype=np.int32).reshape(g.shape) % 7
        path = tmp_path / "wide.nii"
        write_int_nifti(g, labels, path)
        assert np.array_equal(read_label_volume(path).labels, labels)

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), 1e30])
    def test_float_label_beyond_int64_is_named_not_cast(self, tmp_path, value):
        stored = np.zeros(24, dtype="<f4")
        stored[5] = value
        path = tmp_path / "huge.nii"
        path.write_bytes(bytes(_blank_header(datatype=16)) + b"\x00" * 4 + stored.tobytes())
        with pytest.raises(SchemaError, match=re.escape(f"[{float(stored[5])}]")):
            read_label_volume(path)
        with pytest.raises(ParameterError, match="binary"):
            read_binary_mask(path)

    @pytest.mark.parametrize("value", [256, 300, -1])
    def test_out_of_range_label_is_named_not_wrapped(self, tmp_path, value):
        g = Geometry(dims=(4, 3, 2), spacing=(1, 1, 1))
        labels = np.zeros(g.shape, dtype=np.int32)
        labels[1, 2, 3] = value
        path = tmp_path / "wide.nii"
        write_int_nifti(g, labels, path)
        with pytest.raises(SchemaError, match=rf"\[{value}\]"):
            read_label_volume(path)


def svd_polar(m):
    u, _, vt = np.linalg.svd(m)
    return u @ vt


@pytest.mark.parametrize("seed", range(10))
def test_orthonormalize_gives_the_polar_factor(seed):
    # u is the polar factor of a nonsingular m when its columns are
    # orthonormal and u^T m is symmetric positive semi-definite. Cases: a
    # general matrix, a rotation rounded to float32 as a header stores it, a
    # scaled rotation such as a quaternion with |(b, c, d)| > 1 gives, all
    # three also against the SVD; and the sform columns (1e30, 2, 0) and
    # (2, 0, 0) once normalised, whose 2e-30 singular value is below what
    # the SVD resolves.
    rng = np.random.default_rng(seed)
    rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    near_singular = np.array([[1.0, 1.0, 0.0], [2e-30, 0.0, 0.0], [0.0, 0.0, 1.0]])[:, rng.permutation(3)]
    cases = [rng.normal(size=(3, 3)), rotation.astype(np.float32).astype(np.float64), rotation * 1e40]
    for m in [*cases, near_singular]:
        u = np.array(_orthonormalize(m, "m"))
        h, scale = u.T @ m, np.abs(m).max()
        assert np.abs(u.T @ u - np.eye(3)).max() < 1e-14
        assert np.abs(h - h.T).max() < 1e-12 * scale
        assert np.linalg.eigvalsh((h + h.T) / 2).min() > -1e-12 * scale
        if m is not near_singular:
            assert np.abs(u - svd_polar(m)).max() < 1e-12


def test_orthonormalize_keeps_every_signed_permutation():
    for perm, signs in itertools.product(itertools.permutations(range(3)), itertools.product((1.0, -1.0), repeat=3)):
        m = np.zeros((3, 3))
        m[range(3), perm] = signs
        assert _orthonormalize(m, "m") == tuple(map(tuple, m.tolist()))


class TestHeaderChecks:
    def write(self, tmp_path, hdr, payload=bytes(24)):
        path = tmp_path / "h.nii"
        path.write_bytes(bytes(hdr) + b"\x00" * 4 + payload)
        return path

    def test_zero_extent_is_named_not_read_as_one(self, tmp_path):
        hdr = _blank_header(dims=(6, 6, 6))
        struct.pack_into("<h", hdr, 42, 0)  # dim[1]
        path = self.write(tmp_path, hdr, bytes(216))
        with pytest.raises(FormatError, match=r"dim\[1\] = 0"):
            read_nifti(path, intent="labels")

    def test_second_volume_is_named(self, tmp_path):
        hdr = _blank_header()
        struct.pack_into("<2h", hdr, 40, 4, 4)  # dim[0] = 4
        struct.pack_into("<h", hdr, 48, 2)  # dim[4]
        with pytest.raises(UnsupportedDatatypeError, match=r"dim\[4\] = 2"):
            read_nifti(self.write(tmp_path, hdr, bytes(48)), intent="labels")

    @pytest.mark.parametrize("field, offset, code_offset", [
        ("srow_x", 280, 254), ("srow_z", 324, 254), ("quatern_c", 260, 252), ("qoffset_y", 272, 252),
    ])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_transform_is_named(self, tmp_path, field, offset, code_offset, bad):
        hdr = _blank_header()
        struct.pack_into("<h", hdr, code_offset, 1)
        struct.pack_into("<f", hdr, offset, bad)
        with pytest.raises(FormatError, match=field):
            read_nifti(self.write(tmp_path, hdr), intent="labels")

    @pytest.mark.parametrize("offset", [float("nan"), float("inf"), -1.0, 0.0, 347.0, 352.5, 2.0**31, 1e30])
    def test_bad_vox_offset_is_named(self, tmp_path, offset):
        hdr = _blank_header()
        struct.pack_into("<f", hdr, 108, offset)
        with pytest.raises(FormatError, match="vox_offset"):
            read_nifti(self.write(tmp_path, hdr), intent="labels")

    @pytest.mark.parametrize("gz", [False, True])
    @pytest.mark.parametrize("fmt, offset, values, read", [
        pytest.param("<3h", 42, (1000, 1000, 100), "216 of 100000000", id="dim"),
        pytest.param("<f", 108, (2.0**30,), "0 of 216", id="vox_offset"),
    ])
    def test_payload_beyond_the_file_fails_before_allocating(self, tmp_path, gz, fmt, offset, values, read):
        # a 568-byte 6x6x6 mask whose header claims a 100 MB grid, or a
        # payload 1 GiB in: the read names the truncated payload within a few MB
        g = Geometry(dims=(6, 6, 6), spacing=(1.0, 1.0, 1.0))
        written = tmp_path / "m.nii"
        write_nifti(BinaryMask(g, np.ones(g.shape, dtype=bool)), written)
        raw = bytearray(written.read_bytes())
        assert len(raw) == 568
        struct.pack_into(fmt, raw, offset, *values)
        path = tmp_path / ("big.nii.gz" if gz else "big.nii")
        path.write_bytes(gzip.compress(bytes(raw), mtime=0) if gz else bytes(raw))
        tracemalloc.start()
        try:
            with pytest.raises(OSError, match=rf"truncated payload \({read} bytes\)"):
                read_nifti(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    @pytest.mark.parametrize("name", ["short.nii", "short.nii.gz"])
    def test_file_shorter_than_a_header_is_named(self, tmp_path, name):
        raw = bytes(_blank_header())[:200]
        path = tmp_path / name
        path.write_bytes(gzip.compress(raw, mtime=0) if name.endswith(".gz") else raw)
        with pytest.raises(OSError, match=rf"{name}: truncated header \(200 bytes\)"):
            read_nifti(path)

    def test_bitpix_must_match_datatype(self, tmp_path):
        hdr = _blank_header()
        struct.pack_into("<h", hdr, 72, 16)  # uint8 data
        with pytest.raises(FormatError, match="bitpix = 16"):
            read_nifti(self.write(tmp_path, hdr), intent="labels")

    def test_two_file_pair_is_unsupported(self, tmp_path):
        hdr = _blank_header()
        hdr[344:348] = b"ni1\x00"
        with pytest.raises(UnsupportedDatatypeError, match="magic"):
            read_nifti(self.write(tmp_path, hdr), intent="labels")


# Little-endian header fields the mutation test changes: (struct format, byte offset)
HEADER_FIELDS = {
    "dim": ("<8h", 40), "datatype": ("<h", 70), "bitpix": ("<h", 72), "pixdim": ("<8f", 76),
    "vox_offset": ("<f", 108), "qform_code": ("<h", 252), "sform_code": ("<h", 254),
    "quatern_b": ("<f", 256), "quatern_c": ("<f", 260), "quatern_d": ("<f", 264),
    "qoffset_x": ("<f", 268), "qoffset_y": ("<f", 272), "qoffset_z": ("<f", 276),
    "srow_x": ("<4f", 280), "srow_y": ("<4f", 296), "srow_z": ("<4f", 312), "magic": ("4s", 344),
}
ORACLE_DTYPES = {2: ("u1", 8), 4: ("<i2", 16), 8: ("<i4", 32), 16: ("<f4", 32), 64: ("<f8", 64), 512: ("<u2", 16)}
ODD_FLOATS = st.sampled_from([float("nan"), float("inf"), -float("inf"), 0.0, -0.0, -2.0, 0.5, 1.0, 3.0, 1e30])
MUTATIONS = st.one_of(
    st.tuples(st.just("dim"), st.integers(0, 7), st.integers(-3, 9)),
    st.tuples(st.just("pixdim"), st.integers(0, 3), ODD_FLOATS),
    st.tuples(st.just("vox_offset"), st.just(0), st.sampled_from(
        [float("nan"), float("inf"), -1.0, 0.0, 347.0, 348.0, 352.0, 352.5, 356.0, 2.0**31, 1e30])),
    st.tuples(st.just("datatype"), st.just(0), st.sampled_from([0, 2, 4, 8, 16, 64, 128, 512])),
    st.tuples(st.just("bitpix"), st.just(0), st.sampled_from([0, 8, 16, 32, 64])),
    st.tuples(st.just("magic"), st.just(0), st.sampled_from([b"n+1\x00", b"ni1\x00", b"n+2\x00"])),
    st.tuples(st.sampled_from(["qform_code", "sform_code"]), st.just(0), st.integers(-1, 2)),
    st.tuples(st.sampled_from(["srow_x", "srow_y", "srow_z"]), st.integers(0, 3), ODD_FLOATS),
    st.tuples(st.sampled_from(["quatern_b", "quatern_c", "quatern_d", "qoffset_x", "qoffset_y", "qoffset_z"]),
              st.just(0), ODD_FLOATS),
)


def header_field(raw, name):
    fmt, offset = HEADER_FIELDS[name]
    return struct.unpack_from(fmt, raw, offset)


def oracle_read(raw):
    """``(problems, expected)`` from a plain `struct` decode of a mask file
    read as probabilities: the header fields a reader must reject, and, when
    there are none, (values, dims, spacing, origin, sform columns or None)."""
    dim = header_field(raw, "dim")
    if not 1 <= dim[0] <= 7:
        return {"dim[0]"}, None
    problems = set()
    if header_field(raw, "magic")[0] != b"n+1\x00":
        problems.add("magic")
    code = header_field(raw, "datatype")[0]
    if code not in ORACLE_DTYPES:
        problems.add("datatype")
    elif header_field(raw, "bitpix")[0] != ORACLE_DTYPES[code][1]:
        problems |= {"bitpix", "datatype"}
    for i in range(1, dim[0] + 1):
        if dim[i] < 1 or (i > 3 and dim[i] > 1):
            problems.add(f"dim[{i}]")
    pixdim = header_field(raw, "pixdim")
    for i in (1, 2, 3):
        if not np.isfinite(pixdim[i]) or pixdim[i] == 0.0:
            problems.add(f"pixdim[{i}]")
    origin, columns = (0.0, 0.0, 0.0), None
    if header_field(raw, "sform_code")[0] > 0:
        rows = np.array([header_field(raw, f"srow_{a}") for a in "xyz"])
        problems |= {f"srow_{a}" for a, row in zip("xyz", rows) if not np.isfinite(row).all()}
        norms = np.sqrt((rows[:, :3] ** 2).sum(axis=0))
        if np.isfinite(rows).all() and (norms == 0).any():
            problems |= {"srow_x", "srow_y", "srow_z"}
        if not problems:
            origin, columns = tuple(rows[:, 3]), rows[:, :3] / norms
            if np.linalg.det(columns) == 0:
                problems |= {"srow_x", "srow_y", "srow_z"}
    elif header_field(raw, "qform_code")[0] > 0:
        names = ["quatern_b", "quatern_c", "quatern_d", "qoffset_x", "qoffset_y", "qoffset_z"]
        problems |= {name for name in names if not np.isfinite(header_field(raw, name)[0])}
        origin = tuple(header_field(raw, name)[0] for name in names[3:])
    offset = header_field(raw, "vox_offset")[0]
    if not (np.isfinite(offset) and offset == int(offset) and 348 <= offset < 2**31):
        problems.add("vox_offset")
    if problems:
        return problems, None
    dims = tuple(list(dim[1 : 1 + min(dim[0], 3)]) + [1] * (3 - min(dim[0], 3)))
    nx, ny, nz = dims
    dtype = np.dtype(ORACLE_DTYPES[code][0])
    payload = raw[int(offset) : int(offset) + nx * ny * nz * dtype.itemsize]
    assert len(payload) == nx * ny * nz * dtype.itemsize  # the file's tail is long enough
    values = np.clip(np.frombuffer(payload, dtype=dtype).astype(np.float64), 0.0, 1.0).reshape(nz, ny, nx)
    spacing = tuple(abs(pixdim[i]) for i in (1, 2, 3))
    return problems, (values, dims, spacing, origin, columns)


class TestHeaderMutations:
    @given(mutations=st.lists(MUTATIONS, min_size=1, max_size=2), gz=st.booleans(), seed=st.integers(0, 2**16))
    @example(mutations=[("srow_x", 0, 3.0), ("srow_y", 0, 0.0)], gz=False, seed=0)  # parallel sform columns
    @example(mutations=[("srow_x", 0, 1e30)], gz=False, seed=0)  # columns at a 2e-30 rad angle
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_read_matches_struct_oracle_or_names_the_field(self, tmp_path, mutations, gz, seed):
        # a 3x4x5 mask (bytes 0 and 1, which no datatype decodes to a
        # non-finite value) with a rotated sform and a tail of 0/1 bytes, so
        # a larger grid or a later vox_offset still finds data
        rng = np.random.default_rng(seed)
        g = Geometry(dims=(3, 4, 5), spacing=(2.0, 2.0, 3.0), origin=(5.0, -6.0, 7.5),
                     orientation=((0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)))
        written = tmp_path / "m.nii"
        write_nifti(BinaryMask(g, rng.random(g.shape) < 0.5), written)
        raw = bytearray(written.read_bytes() + rng.integers(0, 2, size=4096, dtype=np.uint8).tobytes())
        for name, index, value in mutations:
            fmt, offset = HEADER_FIELDS[name]
            fields = list(struct.unpack_from(fmt, raw, offset))
            fields[index] = value
            struct.pack_into(fmt, raw, offset, *fields)
        path = tmp_path / ("m.nii.gz" if gz else "m.nii")
        path.write_bytes(gzip.compress(bytes(raw), mtime=0) if gz else bytes(raw))

        problems, expected = oracle_read(bytes(raw))
        if problems:
            with pytest.raises(HepevalError) as info:
                read_nifti(path, intent="prob")
            named = {f for f in problems if re.search(rf"(?<![\w\[]){re.escape(f)}", str(info.value))}
            assert named, f"{info.value} names none of {sorted(problems)}"
            return
        vol = read_nifti(path, intent="prob")
        values, dims, spacing, origin, columns = expected
        assert np.array_equal(vol.values, values)
        assert vol.geometry.dims == dims
        assert vol.geometry.spacing == spacing
        assert vol.geometry.origin == origin
        m = np.asarray(vol.geometry.orientation)
        if columns is None:
            assert np.array_equal(m, np.eye(3))
        elif np.abs(columns.T @ columns - np.eye(3)).max() < 1e-9:
            assert np.abs(m - columns).max() < 1e-6


# Orientation fields as a header stores them, 32-bit floats: a quaternion
# (b, c, d) with b^2 + c^2 + d^2 on either side of 1 and its qfac; or sform
# columns scaled by 1e-3 to 1e3, one of them zero or repeated in some draws.
UNIT_F32 = st.floats(-1.0, 1.0, width=32)
ORIGIN_F32 = st.tuples(*[st.floats(-1e3, 1e3, width=32)] * 3)
QFORMS = st.tuples(
    st.just("qform"), st.tuples(*[st.floats(-1.25, 1.25, width=32)] * 3), st.sampled_from([-1.0, 0.0, 1.0]), ORIGIN_F32
)
SFORMS = st.tuples(
    st.sampled_from(["general", "zero column", "repeated column"]),
    st.tuples(*[st.tuples(UNIT_F32, UNIT_F32, UNIT_F32)] * 3),
    st.tuples(*[st.sampled_from([1e-3, 1e-2, 0.1, 1.0, 10.0, 1e2, 1e3])] * 3),
    ORIGIN_F32,
)


def transform_header(transform, spacing) -> dict:
    """The header fields of a 4x3x2 uint8 file with `spacing` and a drawn
    qform (sform_code 0) or sform."""
    raw = _blank_header(pixdim=spacing)
    kind, first, second, origin = transform
    if kind == "qform":
        struct.pack_into("<f", raw, 76, second)  # pixdim[0], qfac
        struct.pack_into("<h", raw, 252, 1)  # qform_code
        struct.pack_into("<6f", raw, 256, *first, *origin)  # quatern_b..d, qoffset_x..z
    else:
        columns, scales = list(first), list(second)
        if kind == "zero column":
            columns[2] = (0.0, 0.0, 0.0)
        elif kind == "repeated column":
            columns[1], scales[1] = columns[0], scales[0]
        struct.pack_into("<h", raw, 254, 1)  # sform_code
        for i, offset in enumerate((280, 296, 312)):  # srow_x, srow_y, srow_z
            struct.pack_into("<4f", raw, offset, *(col[i] * s for col, s in zip(columns, scales)), origin[i])
    return _unpack_header(bytes(raw), "<")


class TestHeaderOracle:
    @given(transform=st.one_of(QFORMS, SFORMS), spacing=st.tuples(*[st.floats(0.25, 4.0, width=32)] * 3))
    @example(transform=("general", ((2.0, 0.0, 0.0), (3.0, 0.0, 0.0), (0.0, 0.0, 3.0)), (1.0,) * 3, (0.0,) * 3),
             spacing=(2.0, 2.0, 3.0))  # parallel columns
    @example(transform=("zero column", ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), (1.0,) * 3, (0.0,) * 3),
             spacing=(2.0, 2.0, 3.0))
    @settings(max_examples=1000, deadline=None)
    def test_geometry_and_header_bytes_match_the_numpy_path(self, transform, spacing):
        # every orientation and origin entry bit for bit, or the same error
        # naming the same field; then the 348 bytes written for the geometry
        hdr = transform_header(transform, spacing)
        outcomes = []
        for geometry_of in (_geometry_from_header, reference_geometry):
            try:
                outcomes.append(geometry_of(hdr))
            except HepevalError as exc:
                outcomes.append(exc)
        got, want = outcomes
        if isinstance(got, HepevalError) or isinstance(want, HepevalError):
            assert (type(got), str(got)) == (type(want), str(want))
            return
        entries, expected = ([*g.origin, *itertools.chain(*g.orientation)] for g in (got, want))
        assert all(type(x) is float for x in entries)
        assert [x.hex() for x in entries] == [x.hex() for x in expected]
        assert _header_bytes(got, 2) == reference_header_bytes(want)


class TestRandomRoundtrips:
    def test_many_random_volumes(self, tmp_path):
        rng = np.random.default_rng(42)
        for i in range(20):
            dims = tuple(int(d) for d in rng.integers(1, 9, size=3))
            g = Geometry(dims=dims, spacing=tuple(rng.uniform(0.5, 4.0, size=3)))
            gz = ".gz" if i % 2 else ""
            if i % 3 == 0:
                values = rng.random(g.shape, dtype=np.float32).astype(np.float64)
                vol = ProbVolume(g, values)
                path = tmp_path / f"v{i}.nii{gz}"
                write_nifti(vol, path)
                back = read_prob_volume(path)
                assert np.array_equal(back.values.astype(np.float32), values.astype(np.float32))
            else:
                vol = LabelVolume(g, rng.integers(0, 7, size=g.shape).astype(np.uint8))
                path = tmp_path / f"v{i}.nii{gz}"
                write_nifti(vol, path)
                back = read_label_volume(path)
                assert np.array_equal(back.labels, vol.labels)
            assert back.geometry.dims == g.dims

    def test_gzip_output_is_deterministic(self, tmp_path):
        vol = label_volume(seed=5)
        p1, p2 = tmp_path / "a.nii.gz", tmp_path / "b.nii.gz"
        write_nifti(vol, p1)
        write_nifti(vol, p2)
        assert p1.read_bytes() == p2.read_bytes()


def _writers():
    """One writer per on-disk kind, each writing the same volume to any path."""
    g = Geometry(dims=(16, 12, 9), spacing=(2.0, 2.0, 3.0))
    rng = np.random.default_rng(17)
    mask = BinaryMask(g, rng.random(g.shape) < 0.3)
    tags = rng.integers(-1, 40, size=g.shape).astype(np.int32)
    return {
        "labels": lambda path: write_nifti(label_volume(dims=g.dims, seed=17), path),
        "mask": lambda path: write_nifti(mask, path),
        "prob": lambda path: write_nifti(prob_volume(dims=g.dims, seed=17), path),
        "int_tags": lambda path: write_int_nifti(g, tags, path),
    }


class TestGzipWriter:
    @pytest.mark.parametrize("kind", ["labels", "mask", "prob", "int_tags"])
    def test_one_fast_member_holding_the_plain_file(self, tmp_path, kind):
        write = _writers()[kind]
        gz_path, plain_path = tmp_path / "v.nii.gz", tmp_path / "v.nii"
        write(gz_path)
        write(plain_path)
        data = gz_path.read_bytes()
        # magic, deflate, no flags (so no file name), mtime 0, XFL 4 (fastest)
        assert data[:4] == b"\x1f\x8b\x08\x00"
        assert struct.unpack_from("<I", data, 4)[0] == 0
        assert data[8] == 4
        member = zlib.decompressobj(wbits=31)
        body = member.decompress(data)
        assert member.eof and member.unused_data == b""
        assert body == gzip.decompress(data) == plain_path.read_bytes()

    @pytest.mark.parametrize("kind", ["labels", "int_tags"])
    def test_failed_write_leaves_the_earlier_file_whole(self, tmp_path, monkeypatch, kind):
        path = tmp_path / "v.nii.gz"
        write_nifti(label_volume(seed=3), path)
        earlier = path.read_bytes()
        calls = []
        write = gzip.GzipFile.write

        def failing(self, data):
            # the first call writes the header, the second the payload
            calls.append(len(data))
            if len(calls) == 2:
                raise OSError("no space left on device")
            return write(self, data)

        monkeypatch.setattr("hepeval.nifti.gzip.GzipFile.write", failing)
        with pytest.raises(OSError, match="no space left"):
            _writers()[kind](path)
        assert len(calls) == 2
        assert path.read_bytes() == earlier
        assert list(tmp_path.glob("v.nii.gz.*")) == []


def _flip(data: bytes, at: int, bits: int) -> bytes:
    out = bytearray(data)
    out[at] ^= bits
    return bytes(out)


# How each damaged `.nii.gz` must fail. The payload is random labels, which
# deflate stores mostly as literals, so the flipped bit mid-stream decodes
# without a zlib error to other labels: only the CRC-32 check catches it.
# Damage to the first deflate block fails while the header is read.
GZIP_DAMAGE = {
    "damaged_first_block": (lambda z: _flip(z, 20, 0x55), FormatError, "corrupt gzip stream"),
    "flipped_deflate_bit": (lambda z: _flip(z, len(z) // 2, 0x10), FormatError, "CRC check failed"),
    "flipped_crc_byte": (lambda z: _flip(z, -8, 0x01), FormatError, "CRC check failed"),
    "flipped_isize_byte": (lambda z: _flip(z, -1, 0x01), FormatError, "Incorrect length"),
    "trailing_garbage": (lambda z: z + b"garbage", FormatError, "Not a gzipped file"),
    "missing_trailer": (lambda z: z[:-8], OSError, "truncated gzip stream"),
}


class TestGzipIntegrity:
    """A gzip stream is read to its end, so its CRC-32 and length are checked."""

    @pytest.fixture
    def written(self, tmp_path):
        vol = label_volume(dims=(24, 24, 24))
        path = tmp_path / "labels.nii.gz"
        write_nifti(vol, path)
        return vol, path.read_bytes()

    @pytest.mark.parametrize("damage", sorted(GZIP_DAMAGE))
    def test_damaged_stream_raises_a_named_error(self, tmp_path, written, damage):
        corrupt, error, message = GZIP_DAMAGE[damage]
        path = tmp_path / "damaged.nii.gz"
        path.write_bytes(corrupt(written[1]))
        with pytest.raises(error, match=rf"^{re.escape(str(path))}: .*{message}") as info:
            read_nifti(path)
        assert type(info.value) is error

    @pytest.mark.parametrize("gap", [0, 37])
    def test_two_members_read_as_the_one_member_file(self, tmp_path, written, gap):
        # the cut falls inside the header, so the header read spans both
        # members; zero bytes between them are padding
        plain = gzip.decompress(written[1])
        path = tmp_path / "two_members.nii.gz"
        path.write_bytes(gzip.compress(plain[:200], mtime=0) + bytes(gap) + gzip.compress(plain[200:], mtime=0))
        one, two = read_label_volume(tmp_path / "labels.nii.gz"), read_label_volume(path)
        assert np.array_equal(two.labels, one.labels)
        assert two.geometry == one.geometry

    def test_zero_padding_after_the_member_is_accepted(self, tmp_path, written):
        vol, data = written
        path = tmp_path / "padded.nii.gz"
        path.write_bytes(data + bytes(64))
        assert np.array_equal(read_label_volume(path).labels, vol.labels)

    @pytest.mark.parametrize("gz", [False, True])
    def test_bytes_after_the_payload_are_not_read_as_voxels(self, tmp_path, written, gz):
        vol, data = written
        plain = gzip.decompress(data) + b"\x07" * 100
        path = tmp_path / ("extra.nii.gz" if gz else "extra.nii")
        path.write_bytes(gzip.compress(plain, mtime=0) if gz else plain)
        back = read_label_volume(path)
        assert back.geometry == vol.geometry
        assert np.array_equal(back.labels, vol.labels)
