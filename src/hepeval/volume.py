"""Dense 3D volume types and the hepatic label schema.

Grid convention used by the whole package: arrays are indexed ``[z, y, x]``
and are C-contiguous, so ``values.ravel()`` enumerates voxels x-fastest.
The linear index of voxel (x, y, z) is ``x + nx * (y + ny * z)``, which is
also the on-disk order of NIfTI-1 payloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, SchemaError, ShapeMismatchError

IDENTITY_ORIENTATION = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))

ORIENTATION_TOL = 1e-6


@dataclass(frozen=True)
class Geometry:
    """Voxel grid geometry: counts, physical spacing (mm), origin, orientation.

    ``orientation`` holds direction cosines as rows of 3-tuples; column j is
    the patient-space direction of voxel axis j. Columns must be orthonormal
    within an absolute tolerance of 1e-6.
    """

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)
    orientation: tuple[tuple[float, float, float], ...] = IDENTITY_ORIENTATION

    def __post_init__(self):
        if len(self.dims) != 3 or any(int(n) != n or n < 1 for n in self.dims):
            raise ParameterError(f"dims must be three positive integers, got {self.dims}")
        if len(self.spacing) != 3 or any(not np.isfinite(s) or s <= 0 for s in self.spacing):
            raise ParameterError(f"spacing must be three positive finite values, got {self.spacing}")
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))
        object.__setattr__(self, "spacing", tuple(float(s) for s in self.spacing))
        object.__setattr__(self, "origin", tuple(float(v) for v in self.origin))
        m = np.asarray(self.orientation, dtype=np.float64)
        if m.shape != (3, 3) or not np.isfinite(m).all():
            raise ParameterError("orientation must be a finite 3x3 matrix")
        if np.abs(m.T @ m - np.eye(3)).max() > ORIENTATION_TOL:
            raise ParameterError("orientation columns are not orthonormal within 1e-6")
        object.__setattr__(self, "orientation", tuple(tuple(float(v) for v in row) for row in m))

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

    def orientation_matrix(self) -> np.ndarray:
        return np.asarray(self.orientation, dtype=np.float64)

    def position_mm(self, index_xyz) -> np.ndarray:
        """Patient-space position of a voxel index (x, y, z)."""
        idx = np.asarray(index_xyz, dtype=np.float64)
        return self.orientation_matrix() @ (idx * np.asarray(self.spacing)) + np.asarray(self.origin)


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
        values = _check_grid(self.geometry, np.asarray(self.values).astype(bool), "values")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def popcount(self) -> int:
        return int(self.values.sum())


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

# Structures for which the gallbladder id is optional: a dataset may fold the
# gallbladder into the biliary tree label, the evaluation subdivides it again.
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
        present = np.unique(labels)
        unknown = [int(v) for v in present if int(v) not in self.schema.ids]
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


def physical_volume(mask: BinaryMask) -> float:
    """Mask volume in cubic millimetres."""
    return mask.popcount() * mask.geometry.voxel_volume_mm3
