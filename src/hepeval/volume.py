"""Dense 3D volume types and the hepatic label schema.

Grid convention used by the whole package: arrays are indexed ``[z, y, x]``
and are C-contiguous, so ``values.ravel()`` enumerates voxels x-fastest.
The linear index of voxel (x, y, z) is ``x + nx * (y + ny * z)``, which is
also the on-disk order of NIfTI-1 payloads.

Volumes take ownership of their arrays. A constructor keeps an array that
already has the right dtype and layout (C-contiguous float64 for
`ProbVolume`, bool for `BinaryMask`, uint8 for `LabelVolume`) without
copying it and marks it read-only; any other input is converted first. A
caller who keeps writing to an array passes a copy.

`Geometry` holds plain Python ints and floats, and it validates and places
voxels in scalar Python, with no NumPy or BLAS call. `_dot`, `_cross`,
`_norm` and `_unit` are the package's one home of 3-vector arithmetic, each
in a fixed float order.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ParameterError, SchemaError, ShapeMismatchError

IDENTITY_ORIENTATION = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))

ORIENTATION_TOL = 1e-6


def _is_number(value, kind=numbers.Real) -> bool:
    # a plain int, or a plain float where a real is asked for, skips the ABC checks
    if type(value) is int or (type(value) is float and kind is numbers.Real):
        return math.isfinite(value)
    return not isinstance(value, bool) and isinstance(value, kind) and math.isfinite(value)


def _items(value) -> tuple:
    """The items of a list, tuple or array, else ()."""
    return tuple(value) if isinstance(value, (list, tuple, np.ndarray)) else ()


def _three_numbers(value) -> tuple | None:
    """The items of a list, tuple or array of three finite numbers, else None."""
    items = _items(value)
    return items if len(items) == 3 and all(map(_is_number, items)) else None


def _check_fields(obj, integers=(), reals=(), vectors=()) -> None:
    """Raise ParameterError unless the named fields of `obj` hold integers,
    finite numbers or three finite numbers; store the vectors as tuples."""
    for name in integers + reals:
        value = getattr(obj, name)
        if not _is_number(value, numbers.Integral if name in integers else numbers.Real):
            kind = "an integer" if name in integers else "a finite number"
            raise ParameterError(f"{name} must be {kind}, got {value!r}")
    for name in vectors:
        value = getattr(obj, name)
        items = _three_numbers(value)
        if items is None:
            raise ParameterError(f"{name} must be three finite numbers, got {value!r}")
        object.__setattr__(obj, name, items)


def _dot(u, v) -> float:
    """u . v of two 3-vectors, summed left to right. `np.dot` and
    `np.linalg.norm` go through BLAS, whose kernels, picked per CPU, can
    round the last bit differently, and that bit decides edge voxels."""
    return float(u[0]) * float(v[0]) + float(u[1]) * float(v[1]) + float(u[2]) * float(v[2])


def _cross(u, v) -> tuple[float, float, float]:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _norm(u) -> float:
    return math.sqrt(_dot(u, u))


def _unit(u) -> tuple[float, float, float]:
    n = _norm(u)
    return (u[0] / n, u[1] / n, u[2] / n)


def _json_dict(record) -> dict:
    """A dataclass as a JSON object: its fields in order, tuples as lists."""
    return asdict(record, dict_factory=lambda items: {k: _listed(v) for k, v in items})


def _listed(value):
    return [_listed(v) for v in value] if isinstance(value, tuple) else value


@dataclass(frozen=True)
class Geometry:
    """Voxel grid geometry: counts, physical spacing (mm), origin, orientation.

    ``orientation`` holds direction cosines as rows of 3-tuples; column j is
    the patient-space direction of voxel axis j. Its entries are finite
    numbers under the rule of ``spacing`` (no strings, no bools), and its
    columns must be orthonormal within an absolute tolerance of 1e-6.
    Validation and `position_mm` are scalar Python in a fixed order, with
    no NumPy or BLAS call, so both are the same on every CPU.
    """

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)
    orientation: tuple[tuple[float, float, float], ...] = IDENTITY_ORIENTATION

    def __post_init__(self):
        dims, spacing, origin = (_three_numbers(v) for v in (self.dims, self.spacing, self.origin))
        if dims is None or any(int(n) != n or n < 1 for n in dims):
            raise ParameterError(f"dims must be three positive integers, got {self.dims!r}")
        if spacing is None or min(spacing) <= 0:
            raise ParameterError(f"spacing must be three positive finite values, got {self.spacing!r}")
        if origin is None:
            raise ParameterError(f"origin must be three finite numbers, got {self.origin!r}")
        rows = [_three_numbers(row) for row in _items(self.orientation)]
        if len(rows) != 3 or None in rows:
            raise ParameterError("orientation must be a finite 3x3 matrix")
        m = tuple(tuple(map(float, row)) for row in rows)
        # each entry of M^T M - I, its dot product summed in row order
        x, y, z = zip(*m)
        gram = ((x, x, 1.0), (y, y, 1.0), (z, z, 1.0), (x, y, 0.0), (x, z, 0.0), (y, z, 0.0))
        if any(abs(_dot(u, v) - eye) > ORIENTATION_TOL for u, v, eye in gram):
            raise ParameterError("orientation columns are not orthonormal within 1e-6")
        object.__setattr__(self, "dims", tuple(map(int, dims)))
        object.__setattr__(self, "spacing", tuple(map(float, spacing)))
        object.__setattr__(self, "origin", tuple(map(float, origin)))
        object.__setattr__(self, "orientation", m)

    @property
    def shape(self) -> tuple[int, int, int]:
        """Array shape (nz, ny, nx) matching the [z, y, x] index convention."""
        nx, ny, nz = self.dims
        return (nz, ny, nx)

    @property
    def n_voxels(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz

    @property
    def voxel_volume_mm3(self) -> float:
        sx, sy, sz = self.spacing
        return sx * sy * sz

    def position_mm(self, index_xyz) -> tuple[float, float, float]:
        """Patient-space position of a voxel index (x, y, z): origin + M (index * spacing).

        Each coordinate is summed in a fixed order, ((m0 v0 + m1 v1) + m2 v2)
        + origin, one IEEE operation per step, so it is the same on every CPU."""
        v = [float(i) * s for i, s in zip(index_xyz, self.spacing, strict=True)]
        return tuple(_dot(r, v) + o for r, o in zip(self.orientation, self.origin))


def _check_grid(geometry: Geometry, values: np.ndarray, name: str) -> np.ndarray:
    values = np.ascontiguousarray(values)
    if values.shape != geometry.shape:
        raise ShapeMismatchError(
            f"{name} shape {values.shape} does not match geometry shape {geometry.shape}"
        )
    return values


def require_same_geometry(a, b) -> None:
    """Raise ShapeMismatchError unless two volumes share dims and spacing."""
    ga, gb = a.geometry, b.geometry
    if ga.dims != gb.dims or ga.spacing != gb.spacing:
        raise ShapeMismatchError(f"geometries differ: {ga.dims}/{ga.spacing} vs {gb.dims}/{gb.spacing}")


@dataclass(frozen=True)
class ProbVolume:
    """Foreground probability per voxel, values finite and in [0, 1]."""

    geometry: Geometry
    values: np.ndarray

    def __post_init__(self):
        values = _check_grid(self.geometry, np.asarray(self.values, dtype=np.float64), "values")
        if not np.isfinite(values).all():
            raise ParameterError("probability values must be finite")
        if values.size and (values.min() < 0.0 or values.max() > 1.0):
            raise ParameterError("probability values must lie in [0, 1]")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class BinaryMask:
    """Boolean membership grid."""

    geometry: Geometry
    values: np.ndarray

    def __post_init__(self):
        values = _check_grid(self.geometry, np.asarray(self.values, dtype=bool), "values")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def popcount(self) -> int:
        return int(np.count_nonzero(self.values))


@dataclass(frozen=True)
class LabelSchema:
    """Mapping of small-integer label ids to structure names."""

    ids: dict[int, str]

    def __post_init__(self):
        if 0 not in self.ids or self.ids[0] != "background":
            raise SchemaError("label id 0 must be named 'background'")
        names = list(self.ids.values())
        if len(set(names)) != len(names) or any(not n for n in names):
            raise SchemaError("label names must be unique and non-empty")
        bad = [i for i in self.ids if int(i) != i or not 0 <= i <= 255]
        if bad:
            raise SchemaError(f"label ids must be integers in [0, 255], got {bad}")
        object.__setattr__(self, "ids", dict(sorted(self.ids.items())))

    def name_of(self, label_id: int) -> str:
        try:
            return self.ids[label_id]
        except KeyError:
            raise SchemaError(f"label id {label_id} is not in the schema") from None

    def id_of(self, name: str) -> int:
        for i, n in self.ids.items():
            if n == name:
                return i
        raise SchemaError(f"no label named {name!r} in the schema")

    def structure_ids(self) -> list[int]:
        """All non-background ids in ascending order."""
        return [i for i in self.ids if i != 0]


DEFAULT_SCHEMA = LabelSchema(
    {
        0: "background",
        1: "parenchyma",
        2: "tumor",
        3: "portal_vein",
        4: "hepatic_vein",
        5: "biliary_tree",
        6: "gallbladder",
    }
)

VESSEL_STRUCTURES = ("portal_vein", "hepatic_vein")


@dataclass(frozen=True)
class LabelVolume:
    """Multi-structure label map over a shared geometry."""

    geometry: Geometry
    labels: np.ndarray
    schema: LabelSchema = field(default=DEFAULT_SCHEMA)

    def __post_init__(self):
        labels = _check_grid(self.geometry, np.asarray(self.labels), "labels")
        if not np.issubdtype(labels.dtype, np.integer):
            raise ParameterError(f"labels must be integers, got dtype {labels.dtype}")
        ids = self.schema.ids
        # The range settles the check when the schema holds every integer in
        # it, so only a range with a gap lists the values present (a range
        # wider than the schema has one, and is not walked). Unsigned labels
        # take 0, the schema's background, as the range's floor, so they need
        # no min pass: a wider range only sends more grids to the listing,
        # which gives the same verdict and message.
        lo = 0 if np.issubdtype(labels.dtype, np.unsignedinteger) else int(labels.min())
        hi = int(labels.max())
        if hi - lo >= len(ids) or any(v not in ids for v in range(lo, hi + 1)):
            unknown = [int(v) for v in np.unique(labels) if int(v) not in ids]
            if unknown:
                raise SchemaError(f"labels {unknown} are not in the schema")
        labels = labels.astype(np.uint8, copy=False)
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)


def extract_mask(volume: LabelVolume, label_id: int) -> BinaryMask:
    """Binary mask of one structure; the id must exist in the schema."""
    if label_id not in volume.schema.ids:
        raise SchemaError(f"label id {label_id} is not in the schema")
    return BinaryMask(volume.geometry, volume.labels == label_id)
