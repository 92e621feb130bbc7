"""Bit-exact NIfTI-1 single-file reading and writing.

The parser is deliberately hand-rolled over the 348-byte header so that the
supported surface stays auditable: little-endian primary with a big-endian
fallback decided by the dim[0] in [1, 7] heuristic, sform preferred over
qform, and only the datatypes produced by segmentation tools.
"""

from __future__ import annotations

import gzip
import logging
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError, ParameterError, UnsupportedDatatypeError
from .volume import (
    DEFAULT_SCHEMA,
    BinaryMask,
    Geometry,
    LabelSchema,
    LabelVolume,
    ProbVolume,
)

log = logging.getLogger(__name__)

HEADER_SIZE = 348
VOX_OFFSET = 352
MAGIC_SINGLE = b"n+1\x00"
MAGIC_PAIR = b"ni1\x00"

# Fields in on-disk order; the format string is assembled below.
_FIELDS = [
    ("sizeof_hdr", "i"),
    ("data_type", "10s"),
    ("db_name", "18s"),
    ("extents", "i"),
    ("session_error", "h"),
    ("regular", "c"),
    ("dim_info", "c"),
    ("dim", "8h"),
    ("intent_p1", "f"),
    ("intent_p2", "f"),
    ("intent_p3", "f"),
    ("intent_code", "h"),
    ("datatype", "h"),
    ("bitpix", "h"),
    ("slice_start", "h"),
    ("pixdim", "8f"),
    ("vox_offset", "f"),
    ("scl_slope", "f"),
    ("scl_inter", "f"),
    ("slice_end", "h"),
    ("slice_code", "c"),
    ("xyzt_units", "c"),
    ("cal_max", "f"),
    ("cal_min", "f"),
    ("slice_duration", "f"),
    ("toffset", "f"),
    ("glmax", "i"),
    ("glmin", "i"),
    ("descrip", "80s"),
    ("aux_file", "24s"),
    ("qform_code", "h"),
    ("sform_code", "h"),
    ("quatern_b", "f"),
    ("quatern_c", "f"),
    ("quatern_d", "f"),
    ("qoffset_x", "f"),
    ("qoffset_y", "f"),
    ("qoffset_z", "f"),
    ("srow_x", "4f"),
    ("srow_y", "4f"),
    ("srow_z", "4f"),
    ("intent_name", "16s"),
    ("magic", "4s"),
]

_STRUCT_BODY = "".join(fmt for _, fmt in _FIELDS)
assert struct.calcsize("<" + _STRUCT_BODY) == HEADER_SIZE

# NIfTI datatype code -> numpy dtype character. Everything else is rejected.
_DTYPES = {2: "u1", 4: "i2", 8: "i4", 16: "f4", 64: "f8", 512: "u2"}
_BITPIX = {2: 8, 4: 16, 8: 32, 16: 32, 64: 64, 512: 16}

_INTEGER_CODES = (2, 4, 8, 512)


def _unpack_header(raw: bytes, byte_order: str) -> dict:
    values = struct.unpack(byte_order + _STRUCT_BODY, raw)
    out = {}
    pos = 0
    for name, fmt in _FIELDS:
        count = int(fmt[:-1]) if fmt[:-1] else 1
        if fmt[-1] in "sc":
            out[name] = values[pos]
            pos += 1
        else:
            out[name] = values[pos : pos + count] if count > 1 else values[pos]
            pos += count
    return out


def _open_maybe_gzip(path: Path):
    with open(path, "rb") as fh:
        head = fh.read(2)
    if head == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _quaternion_rotation(b: float, c: float, d: float, qfac: float) -> np.ndarray:
    a2 = 1.0 - (b * b + c * c + d * d)
    a = np.sqrt(max(a2, 0.0))
    r = np.array(
        [
            [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
            [2 * (b * c + a * d), a * a + c * c - b * b - d * d, 2 * (c * d - a * b)],
            [2 * (b * d - a * c), 2 * (c * d + a * b), a * a + d * d - b * b - c * c],
        ]
    )
    if qfac < 0:
        r[:, 2] *= -1.0
    return r


def _orthonormalize(m: np.ndarray) -> np.ndarray:
    # Polar factor: nearest matrix with exactly orthonormal columns. Header
    # floats are 32-bit, which can miss the Geometry tolerance otherwise.
    u, _, vt = np.linalg.svd(m)
    return u @ vt


def _geometry_from_header(hdr: dict) -> Geometry:
    dim = hdr["dim"]
    ndim = dim[0]
    if not 1 <= ndim <= 7:
        raise FormatError(f"dim[0] = {ndim} outside [1, 7]")
    extents = [max(1, int(d)) for d in dim[1 : 1 + ndim]]
    if any(e > 1 for e in extents[3:]):
        raise UnsupportedDatatypeError("multi-volume files are not supported (dim[4..] > 1)")
    while len(extents) < 3:
        extents.append(1)
    nx, ny, nz = extents[:3]

    pixdim = hdr["pixdim"]
    spacing = []
    for i in (1, 2, 3):
        s = abs(float(pixdim[i]))
        if not np.isfinite(s) or s == 0.0:
            raise FormatError(f"pixdim[{i}] = {pixdim[i]} is not a usable spacing")
        spacing.append(s)

    origin = (0.0, 0.0, 0.0)
    orientation = np.eye(3)
    if hdr["sform_code"] > 0:
        rows = np.array([hdr["srow_x"], hdr["srow_y"], hdr["srow_z"]], dtype=np.float64)
        origin = tuple(float(v) for v in rows[:, 3])
        cols = rows[:, :3]
        norms = np.linalg.norm(cols, axis=0)
        if (norms == 0).any():
            raise FormatError("sform has a zero-length column")
        orientation = _orthonormalize(cols / norms)
    elif hdr["qform_code"] > 0:
        qfac = float(pixdim[0]) if pixdim[0] != 0 else 1.0
        orientation = _orthonormalize(
            _quaternion_rotation(hdr["quatern_b"], hdr["quatern_c"], hdr["quatern_d"], qfac)
        )
        origin = (float(hdr["qoffset_x"]), float(hdr["qoffset_y"]), float(hdr["qoffset_z"]))

    return Geometry(dims=(nx, ny, nz), spacing=tuple(spacing), origin=origin, orientation=orientation)


def read_nifti(
    path,
    intent: str = "auto",
    schema: LabelSchema = DEFAULT_SCHEMA,
) -> LabelVolume | ProbVolume:
    """Read a NIfTI-1 volume as labels or probabilities.

    With ``intent='auto'``, integer datatypes become a LabelVolume and
    floating datatypes a ProbVolume. Probability values outside [0, 1] are
    clamped and counted in a warning rather than rejected.
    """
    if intent not in ("auto", "labels", "prob"):
        raise ParameterError(f"intent must be auto, labels or prob, got {intent!r}")
    path = Path(path)

    with _open_maybe_gzip(path) as fh:
        raw = fh.read(HEADER_SIZE)
        if len(raw) < HEADER_SIZE:
            raise OSError(f"{path}: truncated header ({len(raw)} bytes)")

        dim0_le = struct.unpack_from("<h", raw, 40)[0]
        if 1 <= dim0_le <= 7:
            order = "<"
        else:
            dim0_be = struct.unpack_from(">h", raw, 40)[0]
            if 1 <= dim0_be <= 7:
                order = ">"
            else:
                raise FormatError(f"{path}: dim[0] not in [1, 7] under either byte order")
        hdr = _unpack_header(raw, order)

        if hdr["sizeof_hdr"] != HEADER_SIZE:
            raise FormatError(f"{path}: sizeof_hdr = {hdr['sizeof_hdr']}, expected {HEADER_SIZE}")
        if hdr["magic"] not in (MAGIC_SINGLE, MAGIC_PAIR):
            raise FormatError(f"{path}: bad magic field {hdr['magic']!r}")

        code = hdr["datatype"]
        if code not in _DTYPES:
            raise UnsupportedDatatypeError(f"{path}: datatype code {code} is not supported")
        dtype = np.dtype(order + _DTYPES[code])

        geometry = _geometry_from_header(hdr)
        n = geometry.n_voxels
        nbytes = n * dtype.itemsize

        offset = int(round(hdr["vox_offset"]))
        offset = max(offset, HEADER_SIZE)
        skip = offset - HEADER_SIZE
        if skip:
            fh.read(skip)
        payload = fh.read(nbytes)
        if len(payload) < nbytes:
            raise OSError(f"{path}: truncated payload ({len(payload)} of {nbytes} bytes)")

    data = np.frombuffer(payload, dtype=dtype).reshape(geometry.shape)

    as_labels = intent == "labels" or (intent == "auto" and code in _INTEGER_CODES)
    if as_labels:
        if code not in _INTEGER_CODES:
            values = data.astype(np.float64)
            if not np.equal(values, np.round(values)).all():
                raise ParameterError(f"{path}: non-integral values cannot be read as labels")
            data = values.astype(np.int64)
        # LabelVolume checks the stored values against the schema before
        # narrowing them to uint8, so no label wraps round
        return LabelVolume(geometry, data, schema)

    values = data.astype(np.float64)
    clipped = int((values < 0.0).sum() + (values > 1.0).sum())
    if clipped:
        log.warning("%s: clamped %d values outside [0, 1] to the unit interval", path, clipped)
        values = np.clip(values, 0.0, 1.0)
    return ProbVolume(geometry, values)


def read_label_volume(path, schema: LabelSchema = DEFAULT_SCHEMA) -> LabelVolume:
    vol = read_nifti(path, intent="labels", schema=schema)
    assert isinstance(vol, LabelVolume)
    return vol


def read_prob_volume(path) -> ProbVolume:
    vol = read_nifti(path, intent="prob")
    assert isinstance(vol, ProbVolume)
    return vol


def read_binary_mask(path) -> BinaryMask:
    """Read a mask; the file must contain only values 0 and 1."""
    path = Path(path)
    vol = read_nifti(path, intent="auto", schema=LabelSchema({0: "background", 1: "foreground"}))
    if isinstance(vol, ProbVolume):
        values = vol.values
        if not np.isin(values, (0.0, 1.0)).all():
            raise ParameterError(f"{path}: volume is not a binary mask")
        return BinaryMask(vol.geometry, values > 0.5)
    return BinaryMask(vol.geometry, vol.labels == 1)


def _header_bytes(geometry: Geometry, datatype: int, descrip: bytes = b"hepeval") -> bytes:
    nx, ny, nz = geometry.dims
    sx, sy, sz = geometry.spacing
    rot = geometry.orientation_matrix()
    affine = rot * np.array([sx, sy, sz])
    srow = np.concatenate([affine, np.array(geometry.origin).reshape(3, 1)], axis=1)

    values = {
        "sizeof_hdr": HEADER_SIZE,
        "data_type": b"",
        "db_name": b"",
        "extents": 0,
        "session_error": 0,
        "regular": b"r",
        "dim_info": b"\x00",
        "dim": (3, nx, ny, nz, 1, 1, 1, 1),
        "intent_p1": 0.0,
        "intent_p2": 0.0,
        "intent_p3": 0.0,
        "intent_code": 0,
        "datatype": datatype,
        "bitpix": _BITPIX[datatype],
        "slice_start": 0,
        "pixdim": (1.0, sx, sy, sz, 0.0, 0.0, 0.0, 0.0),
        "vox_offset": float(VOX_OFFSET),
        "scl_slope": 1.0,
        "scl_inter": 0.0,
        "slice_end": 0,
        "slice_code": b"\x00",
        "xyzt_units": b"\x02",  # NIFTI_UNITS_MM
        "cal_max": 0.0,
        "cal_min": 0.0,
        "slice_duration": 0.0,
        "toffset": 0.0,
        "glmax": 0,
        "glmin": 0,
        "descrip": descrip,
        "aux_file": b"",
        "qform_code": 0,
        "sform_code": 1,
        "quatern_b": 0.0,
        "quatern_c": 0.0,
        "quatern_d": 0.0,
        "qoffset_x": 0.0,
        "qoffset_y": 0.0,
        "qoffset_z": 0.0,
        "srow_x": tuple(float(v) for v in srow[0]),
        "srow_y": tuple(float(v) for v in srow[1]),
        "srow_z": tuple(float(v) for v in srow[2]),
        "intent_name": b"",
        "magic": MAGIC_SINGLE,
    }
    flat = []
    for name, fmt in _FIELDS:
        v = values[name]
        flat.extend(v) if isinstance(v, tuple) else flat.append(v)
    return struct.pack("<" + _STRUCT_BODY, *flat)


def write_nifti(volume: LabelVolume | ProbVolume | BinaryMask, path) -> None:
    """Write a volume as NIfTI-1; gzip is applied when the path ends in .gz.

    Labels and masks are stored as unsigned 8-bit, probabilities as 32-bit
    float. The sform carries origin and orientation with sform_code 1.
    """
    path = Path(path)
    if isinstance(volume, LabelVolume):
        data, code = volume.labels.astype("<u1"), 2
    elif isinstance(volume, BinaryMask):
        data, code = volume.values.astype("<u1"), 2
    elif isinstance(volume, ProbVolume):
        data, code = volume.values.astype("<f4"), 16
    else:
        raise ParameterError(f"cannot write object of type {type(volume).__name__}")

    _write_blob(volume.geometry, data, code, path)


def write_int_nifti(geometry: Geometry, values: np.ndarray, path) -> None:
    """Write a raw signed 32-bit integer grid (e.g. construction tags)."""
    path = Path(path)
    data = np.ascontiguousarray(values, dtype="<i4")
    if data.shape != geometry.shape:
        raise ParameterError(f"array shape {data.shape} does not match geometry {geometry.shape}")
    _write_blob(geometry, data, 8, path)


def _write_blob(geometry: Geometry, data: np.ndarray, code: int, path: Path) -> None:
    blob = (
        _header_bytes(geometry, code)
        + b"\x00" * (VOX_OFFSET - HEADER_SIZE)
        + data.tobytes()
    )
    if path.suffix == ".gz":
        # filename and mtime pinned so identical volumes give identical files
        with open(path, "wb") as fh:
            with gzip.GzipFile(filename="", fileobj=fh, mode="wb", mtime=0) as gz:
                gz.write(blob)
    else:
        with open(path, "wb") as fh:
            fh.write(blob)
