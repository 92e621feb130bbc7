"""Bit-exact NIfTI-1 single-file reading and writing.

The parser is deliberately hand-rolled over the 348-byte header so that the
supported surface stays auditable: little-endian primary with a big-endian
fallback decided by the dim[0] in [1, 7] heuristic, sform preferred over
qform, and only the datatypes produced by segmentation tools. A file is
read into memory once; a `.nii.gz` is decoded there by zlib, member by member.
"""

from __future__ import annotations

import gzip
import hashlib
import logging
import math
import os
import struct
import zlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import FormatError, ParameterError, SchemaError, UnsupportedDatatypeError
from .volume import (
    DEFAULT_SCHEMA,
    IDENTITY_ORIENTATION,
    BinaryMask,
    Geometry,
    LabelSchema,
    LabelVolume,
    ProbVolume,
    _cross,
    _dot,
    _norm,
)

log = logging.getLogger(__name__)

HEADER_SIZE = 348
VOX_OFFSET = 352
MAGIC_SINGLE = b"n+1\x00"
MAGIC_PAIR = b"ni1\x00"
_MAX_OFFSET = 2**31 - 1
# zlib's wording of a failed gzip trailer check -> the wording read_nifti reports
_TRAILER_ERRORS = {"incorrect data check": "CRC check failed", "incorrect length check": "Incorrect length"}

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
_BITPIX = {code: 8 * np.dtype(c).itemsize for code, c in _DTYPES.items()}
_INTEGER_CODES = tuple(code for code, c in _DTYPES.items() if np.dtype(c).kind in "iu")


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


def _gunzip(data: bytes, path: Path) -> bytes:
    """The decoded bytes of every gzip member in `data`, joined.

    zlib checks each member's CRC-32 and length. Zero bytes after a member
    are padding; anything else must start another member. Damage raises a
    FormatError naming `path`, and a stream that ends early an OSError.
    """
    parts = []
    while data:
        if data[:2] != b"\x1f\x8b":
            raise FormatError(f"{path}: corrupt gzip stream (Not a gzipped file ({data[:2]!r}))")
        member = zlib.decompressobj(wbits=31)
        try:
            parts.append(member.decompress(data))
        except zlib.error as exc:
            reason = str(exc).rpartition(": ")[2]
            raise FormatError(f"{path}: corrupt gzip stream ({_TRAILER_ERRORS.get(reason, reason)})") from None
        if not member.eof:
            raise OSError(f"{path}: truncated gzip stream (it ended before the end-of-stream marker)")
        data = member.unused_data.lstrip(b"\x00")
    return b"".join(parts)


def _quaternion_rotation(b: float, c: float, d: float, qfac: float) -> tuple:
    """Rows of the qform rotation. A negative qfac (pixdim[0]) negates the
    third column; 0 reads as 1."""
    a = math.sqrt(max(1.0 - (b * b + c * c + d * d), 0.0))
    s = -1.0 if qfac < 0 else 1.0
    return (
        (a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c) * s),
        (2 * (b * c + a * d), a * a + c * c - b * b - d * d, 2 * (c * d - a * b) * s),
        (2 * (b * d - a * c), 2 * (c * d + a * b), (a * a + d * d - b * b - c * c) * s),
    )


# Newton steps allowed for a polar factor. A rotation read from 32-bit header
# fields takes two; a column normalised from a 1e30 entry, six.
_POLAR_STEPS = 30


def _orthonormalize(m, fields: str) -> tuple:
    """Rows of the polar factor of `m`: the nearest matrix with exactly
    orthonormal columns. Header floats are 32-bit, which can miss the
    Geometry tolerance otherwise.

    Scaled Newton iteration X <- (g X + X^-T / g) / 2, where X^-T holds the
    columns (b x c, c x a, a x b) / det of X's columns a, b, c, and
    g = sqrt(|X^-T| / |X|) in Frobenius norms brings a badly conditioned X
    near orthogonal within a few steps. It stops after the first step that
    moves no entry by 1e-9, as the next would move them by rounding only. An
    orthogonal X with entries 0 and +-1 steps onto itself. Every operation
    is a Python float +, -, *, / or sqrt in a fixed order, each correctly
    rounded, so the bits do not depend on which BLAS or LAPACK kernel the
    CPU selects. Linearly dependent columns raise FormatError naming `fields`.
    """
    cols = [tuple(float(row[j]) for row in m) for j in range(3)]
    for _ in range(_POLAR_STEPS):
        a, b, c = cols
        cof = (_cross(b, c), _cross(c, a), _cross(a, b))
        det = _dot(a, cof[0])
        if det == 0.0:
            raise FormatError(f"{fields} has linearly dependent columns")
        inv = [tuple(x / det for x in col) for col in cof]
        norm2 = (_dot(a, a) + _dot(b, b)) + _dot(c, c)
        inv_norm2 = (_dot(inv[0], inv[0]) + _dot(inv[1], inv[1])) + _dot(inv[2], inv[2])
        g = math.sqrt(math.sqrt(inv_norm2 / norm2))
        new = [tuple((g * x + y / g) / 2 for x, y in zip(col, icol)) for col, icol in zip(cols, inv)]
        step = max(abs(x - y) for col, prev in zip(new, cols) for x, y in zip(col, prev))
        cols = new
        if step < 1e-9:
            break
    return tuple(zip(*cols))


def _finite_fields(hdr: dict, *names: str) -> None:
    """Raise FormatError naming the first of `names` holding a NaN or infinity.

    Plain `math.isfinite` on purpose: with `np.isfinite` on the header
    tuples, whole `eval_htree` ops ran about 10 % slower in benchmark runs,
    every array layer alike (the cause was not found).
    """
    for name in names:
        value = hdr[name]
        if not all(map(math.isfinite, value if isinstance(value, tuple) else (value,))):
            raise FormatError(f"{name} = {value} is not finite")


def _geometry_from_header(hdr: dict) -> Geometry:
    """Geometry from dim, pixdim and the sform (else the qform).

    Every extent up to dim[0] must be positive; dim[i] for i > dim[0] is
    ignored, as NIfTI-1 allows. The transform in use must be finite.
    """
    dim = hdr["dim"]
    ndim = dim[0]
    if not 1 <= ndim <= 7:
        raise FormatError(f"dim[0] = {ndim} outside [1, 7]")
    extents = [int(d) for d in dim[1 : 1 + ndim]]
    for i, e in enumerate(extents, start=1):
        if e <= 0:
            raise FormatError(f"dim[{i}] = {e} is not a positive extent")
        if i > 3 and e > 1:
            raise UnsupportedDatatypeError(f"dim[{i}] = {e}: multi-volume files are not supported")
    while len(extents) < 3:
        extents.append(1)
    nx, ny, nz = extents[:3]

    pixdim = hdr["pixdim"]
    spacing = []
    for i in (1, 2, 3):
        s = abs(float(pixdim[i]))
        if not math.isfinite(s) or s == 0.0:
            raise FormatError(f"pixdim[{i}] = {pixdim[i]} is not a usable spacing")
        spacing.append(s)

    origin = (0.0, 0.0, 0.0)
    orientation = IDENTITY_ORIENTATION
    if hdr["sform_code"] > 0:
        _finite_fields(hdr, "srow_x", "srow_y", "srow_z")
        *cols, origin = zip(hdr["srow_x"], hdr["srow_y"], hdr["srow_z"])
        norms = [_norm(col) for col in cols]
        if 0.0 in norms:
            raise FormatError("sform (srow_x, srow_y, srow_z) has a zero-length column")
        unit_rows = [[x / n for x, n in zip(row, norms)] for row in zip(*cols)]
        orientation = _orthonormalize(unit_rows, "sform (srow_x, srow_y, srow_z)")
    elif hdr["qform_code"] > 0:
        _finite_fields(hdr, "quatern_b", "quatern_c", "quatern_d", "qoffset_x", "qoffset_y", "qoffset_z")
        rotation = _quaternion_rotation(hdr["quatern_b"], hdr["quatern_c"], hdr["quatern_d"], pixdim[0])
        orientation = _orthonormalize(rotation, "qform (quatern_b, quatern_c, quatern_d)")
        origin = (float(hdr["qoffset_x"]), float(hdr["qoffset_y"]), float(hdr["qoffset_z"]))

    return Geometry(dims=(nx, ny, nz), spacing=tuple(spacing), origin=origin, orientation=orientation)


def _scaling(hdr: dict, path: Path) -> tuple[float, float]:
    """(scl_slope, scl_inter) to apply as slope * stored + inter.

    Per NIfTI-1 a slope of 0 means the data are not scaled, so it gives
    the identity (1, 0). A NaN or infinite slope means the same, as in the
    reference nifti1_io reader; a writer may leave NaN there for unscaled data.
    Only a real slope with a non-finite intercept is rejected.
    """
    slope, inter = float(hdr["scl_slope"]), float(hdr["scl_inter"])
    if slope == 0.0 or not math.isfinite(slope):
        return 1.0, 0.0
    if not math.isfinite(inter):
        raise FormatError(f"{path}: scl_slope = {slope} with non-finite scl_inter = {inter}")
    return slope, inter


def _data_offset(hdr: dict) -> int:
    """vox_offset as a byte offset: a whole number in [348, 2^31 - 1].

    The upper bound is the reference nifti1_io reader's int offset.
    """
    offset = float(hdr["vox_offset"])
    if not HEADER_SIZE <= offset <= _MAX_OFFSET or offset != int(offset):
        raise FormatError(f"vox_offset = {offset} is not a whole byte offset in [{HEADER_SIZE}, {_MAX_OFFSET}]")
    return int(offset)


def read_nifti(
    path,
    intent: str = "auto",
    schema: LabelSchema = DEFAULT_SCHEMA,
    digests: dict[str, str | None] | None = None,
) -> LabelVolume | ProbVolume:
    """Read a NIfTI-1 volume as labels or probabilities.

    With ``intent='auto'``, integer datatypes become a LabelVolume and
    floating datatypes a ProbVolume. Probabilities are scaled by the
    header's scl_slope and scl_inter; a label file with any scaling other
    than the identity is rejected. Probability values outside [0, 1] are
    clamped and counted in a warning rather than rejected.

    The file is read once and decoded from memory, a gzip stream by
    `_gunzip`. The payload is a view on the decoded bytes, made after their
    length is checked, so no buffer is ever sized by what the header claims.
    If `digests` is given, the SHA-256 of the bytes read is stored in it under
    ``str(path)`` before they are decoded, so a file that fails to decode is
    still named by its bytes.
    """
    if intent not in ("auto", "labels", "prob"):
        raise ParameterError(f"intent must be auto, labels or prob, got {intent!r}")
    key, path = str(path), Path(path)
    data = path.read_bytes()
    if digests is not None:
        digests[key] = hashlib.sha256(data).hexdigest()
    if data[:2] == b"\x1f\x8b":
        data = _gunzip(data, path)
    if len(data) < HEADER_SIZE:
        raise OSError(f"{path}: truncated header ({len(data)} bytes)")
    raw = data[:HEADER_SIZE]

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
    if hdr["magic"] == MAGIC_PAIR:
        raise UnsupportedDatatypeError(
            f"{path}: magic {MAGIC_PAIR!r} marks a two-file .hdr/.img pair, which is not supported"
        )
    if hdr["magic"] != MAGIC_SINGLE:
        raise FormatError(f"{path}: bad magic field {hdr['magic']!r}")

    code = hdr["datatype"]
    if code not in _DTYPES:
        raise UnsupportedDatatypeError(f"{path}: datatype code {code} is not supported")
    if hdr["bitpix"] != _BITPIX[code]:
        raise FormatError(f"{path}: bitpix = {hdr['bitpix']} does not match datatype {code} ({_BITPIX[code]})")
    dtype = np.dtype(order + _DTYPES[code])

    geometry = _geometry_from_header(hdr)
    offset, nbytes = _data_offset(hdr), geometry.n_voxels * dtype.itemsize
    if len(data) < offset + nbytes:
        raise OSError(f"{path}: truncated payload ({max(len(data) - offset, 0)} of {nbytes} bytes)")
    data = np.frombuffer(data, dtype, count=geometry.n_voxels, offset=offset).reshape(geometry.shape)
    slope, inter = _scaling(hdr, path)

    as_labels = intent == "labels" or (intent == "auto" and code in _INTEGER_CODES)
    if as_labels:
        if (slope, inter) != (1.0, 0.0):
            raise FormatError(
                f"{path}: label files must be unscaled, got scl_slope = {slope}, scl_inter = {inter}"
            )
        if code not in _INTEGER_CODES:
            values = data.astype(np.float64)
            if not np.equal(values, np.round(values)).all():
                raise ParameterError(f"{path}: non-integral values cannot be read as labels")
            # the cast turns a value beyond int64 (inf, 1e30) into another
            # label, so a value outside the schema's id range is named first
            outside = (values < min(schema.ids)) | (values > max(schema.ids))
            if outside.any():
                raise SchemaError(f"labels {np.unique(values[outside]).tolist()} are not in the schema")
            data = values.astype(np.int64)
        # LabelVolume checks the stored values against the schema before
        # narrowing them to uint8, so no label wraps round
        return LabelVolume(geometry, data, schema)

    values = data.astype(np.float64)
    if (slope, inter) != (1.0, 0.0):
        values *= slope
        values += inter
    clipped = int((values < 0.0).sum() + (values > 1.0).sum())
    if clipped:
        log.warning("%s: clamped %d values outside [0, 1] to the unit interval", path, clipped)
        values = np.clip(values, 0.0, 1.0)
    return ProbVolume(geometry, values)


def read_label_volume(path, digests: dict | None = None) -> LabelVolume:
    vol = read_nifti(path, intent="labels", digests=digests)
    assert isinstance(vol, LabelVolume)
    return vol


def read_prob_volume(path) -> ProbVolume:
    vol = read_nifti(path, intent="prob")
    assert isinstance(vol, ProbVolume)
    return vol


def read_binary_mask(path, digests: dict | None = None) -> BinaryMask:
    """Read a mask; the file must contain only values 0 and 1, unscaled.

    It is read as labels, so a float file holding 2.0 or -1.0 is rejected
    rather than clamped into [0, 1] as a probability file would be.
    """
    schema = LabelSchema({0: "background", 1: "foreground"})
    try:
        vol = read_nifti(path, intent="labels", schema=schema, digests=digests)
    except (ParameterError, SchemaError) as exc:
        raise ParameterError(f"{path}: volume is not a binary mask: {exc}") from None
    return BinaryMask(vol.geometry, vol.labels == 1)


def _header_bytes(geometry: Geometry, datatype: int) -> bytes:
    nx, ny, nz = geometry.dims
    sx, sy, sz = geometry.spacing
    srows = {
        f"srow_{axis}": (m0 * sx, m1 * sy, m2 * sz, o)
        for axis, (m0, m1, m2), o in zip("xyz", geometry.orientation, geometry.origin)
    }

    values = _unpack_header(bytes(HEADER_SIZE), "<")  # every other field is zero
    values.update(
        sizeof_hdr=HEADER_SIZE,
        regular=b"r",
        dim=(3, nx, ny, nz, 1, 1, 1, 1),
        datatype=datatype,
        bitpix=_BITPIX[datatype],
        pixdim=(1.0, sx, sy, sz, 0.0, 0.0, 0.0, 0.0),
        vox_offset=float(VOX_OFFSET),
        scl_slope=1.0,
        xyzt_units=b"\x02",  # NIFTI_UNITS_MM
        descrip=b"hepeval",
        sform_code=1,
        magic=MAGIC_SINGLE,
        **srows,
    )
    flat = []
    for name, fmt in _FIELDS:
        v = values[name]
        flat.extend(v) if isinstance(v, tuple) else flat.append(v)
    return struct.pack("<" + _STRUCT_BODY, *flat)


def write_nifti(volume: LabelVolume | ProbVolume | BinaryMask, path) -> None:
    """Write a volume as NIfTI-1; gzip is applied when the path ends in .gz.

    Labels and masks are stored as unsigned 8-bit, probabilities as 32-bit
    float. The sform carries origin and orientation with sform_code 1. An
    existing file at `path` is replaced, not truncated: a write that fails
    leaves it whole (see `_replace_file`).
    """
    if isinstance(volume, LabelVolume):
        data, code = volume.labels.astype("<u1"), 2
    elif isinstance(volume, BinaryMask):
        data, code = volume.values.astype("<u1"), 2
    elif isinstance(volume, ProbVolume):
        data, code = volume.values.astype("<f4"), 16
    else:
        raise ParameterError(f"cannot write object of type {type(volume).__name__}")

    _write_blob(volume.geometry, data, code, Path(path))


def write_int_nifti(geometry: Geometry, values: np.ndarray, path) -> None:
    """Write a raw signed 32-bit integer grid (e.g. construction tags)."""
    data = np.ascontiguousarray(values, dtype="<i4")
    if data.shape != geometry.shape:
        raise ParameterError(f"array shape {data.shape} does not match geometry {geometry.shape}")
    _write_blob(geometry, data, 8, Path(path))


def _write_blob(geometry: Geometry, data: np.ndarray, code: int, path: Path) -> None:
    head = _header_bytes(geometry, code) + b"\x00" * (VOX_OFFSET - HEADER_SIZE)
    # the payload goes out as a buffer view, not copied into one header+data blob
    payload = memoryview(np.ascontiguousarray(data)).cast("B")
    with _replace_file(path) as fh:
        if path.suffix == ".gz":
            # Level 1, as nibabel writes: 10-30x faster than level 9 on 128^3
            # label grids for files 2-3x larger. filename and mtime are pinned
            # so identical volumes give identical files.
            with gzip.GzipFile(filename="", fileobj=fh, mode="wb", compresslevel=1, mtime=0) as gz:
                gz.write(head)
                gz.write(payload)
        else:
            fh.write(head)
            fh.write(payload)


@contextmanager
def _replace_file(path: Path):
    """A binary file whose bytes replace `path` on a clean exit.

    It is made beside `path` as ``<name>.<8 random hex>`` with O_EXCL, so
    it is new and never a followed symlink, and with mode 0o666 less the
    umask current at that moment, the mode a plain `open` gives. On any
    error it is unlinked, and `path` keeps its earlier bytes.
    """
    tmp = path.with_name(f"{path.name}.{os.urandom(4).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
