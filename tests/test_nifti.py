import struct

import numpy as np
import pytest

from hepeval.errors import FormatError, ParameterError, SchemaError, UnsupportedDatatypeError
from hepeval.nifti import (
    HEADER_SIZE,
    read_binary_mask,
    read_label_volume,
    read_nifti,
    read_prob_volume,
    write_int_nifti,
    write_nifti,
)
from hepeval.volume import BinaryMask, Geometry, LabelVolume, ProbVolume


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
        assert np.allclose(back.geometry.orientation_matrix(), g.orientation_matrix())


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
        assert np.allclose(vol.geometry.orientation_matrix(), np.eye(3))

    def test_qform_used_when_no_sform(self, tmp_path):
        hdr = _blank_header()
        struct.pack_into("<h", hdr, 252, 1)  # qform_code
        # b = c = d = 0: identity rotation
        struct.pack_into("<3f", hdr, 268, 1.5, 2.5, 3.5)
        path = tmp_path / "qform.nii"
        path.write_bytes(bytes(hdr) + b"\x00" * 4 + bytes(24))
        vol = read_nifti(path, intent="labels")
        assert vol.geometry.origin == (1.5, 2.5, 3.5)

    def test_prob_clamping_reported(self, tmp_path, caplog):
        hdr = _blank_header(datatype=16)
        values = np.linspace(-0.5, 1.5, 24, dtype="<f4")
        path = tmp_path / "clamp.nii"
        path.write_bytes(bytes(hdr) + b"\x00" * 4 + values.tobytes())
        with caplog.at_level("WARNING"):
            vol = read_nifti(path, intent="prob")
        assert "clamped" in caplog.text
        assert vol.values.min() >= 0.0 and vol.values.max() <= 1.0

    def test_non_binary_mask_rejected(self, tmp_path):
        g = Geometry(dims=(3, 3, 3), spacing=(1, 1, 1))
        vol = ProbVolume(g, np.full(g.shape, 0.5))
        path = tmp_path / "notmask.nii"
        write_nifti(vol, path)
        with pytest.raises(ParameterError, match="binary"):
            read_binary_mask(path)

    def test_wide_integer_labels_in_schema_are_read(self, tmp_path):
        g = Geometry(dims=(4, 3, 2), spacing=(1, 1, 1))
        labels = np.arange(24, dtype=np.int32).reshape(g.shape) % 7
        path = tmp_path / "wide.nii"
        write_int_nifti(g, labels, path)
        assert np.array_equal(read_label_volume(path).labels, labels)

    @pytest.mark.parametrize("value", [256, 300, -1])
    def test_out_of_range_label_is_named_not_wrapped(self, tmp_path, value):
        g = Geometry(dims=(4, 3, 2), spacing=(1, 1, 1))
        labels = np.zeros(g.shape, dtype=np.int32)
        labels[1, 2, 3] = value
        path = tmp_path / "wide.nii"
        write_int_nifti(g, labels, path)
        with pytest.raises(SchemaError, match=rf"\[{value}\]"):
            read_label_volume(path)


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
