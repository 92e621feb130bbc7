"""Procedural liver-like phantoms with construction-known ground truth.

Each case is a label volume (parenchyma, portal and hepatic venous trees,
biliary tree with optional gallbladder, tumors) plus per-voxel branch tags,
analytic centerlines and volumes. Trees are recursive symmetric bifurcations
rasterized as capped cylinders (capsules): a voxel is foreground when its
center lies strictly within the radius of the axis segment. Everything is a
pure function of the spec, so reruns are bit-identical.

Controlled degradations (erode/dilate, dropped branches, spurious blobs,
random relabeling) turn a truth volume into a prediction stand-in whose
metrics are known by construction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .errors import GenerationError, ParameterError
from .morphology import pool_array
from .volume import (
    DEFAULT_SCHEMA, BinaryMask, Geometry, LabelVolume, _check_fields, _cross, _dot, _is_number, _json_dict, _norm,
    _unit,
)

# later-drawn structures overwrite earlier ones
PRECEDENCE = ("parenchyma", "biliary_tree", "hepatic_vein", "portal_vein", "tumor")
TREE_STRUCTURES = ("portal_vein", "hepatic_vein", "biliary_tree")


@dataclass(frozen=True)
class TreeSpec:
    """Recursive symmetric bifurcation parameters for one vessel tree."""

    levels: int
    root_start_mm: tuple[float, float, float]
    root_direction: tuple[float, float, float]
    root_radius_mm: float
    radius_decay: float
    segment_length_mm: float
    length_decay: float
    branch_angle_deg: float = 40.0
    branch_normal: tuple[float, float, float] = (0.0, 1.0, 0.0)

    def __post_init__(self):
        _check_fields(
            self,
            integers=("levels",),
            reals=("root_radius_mm", "radius_decay", "segment_length_mm", "length_decay",
                   "branch_angle_deg"),
            vectors=("root_start_mm", "root_direction", "branch_normal"),
        )
        if not 1 <= self.levels <= 4:
            raise ParameterError(f"levels must be in 1..4, got {self.levels}")
        if self.root_radius_mm <= 0 or self.segment_length_mm <= 0:
            raise ParameterError("root radius and segment length must be > 0")
        if not 0 < self.radius_decay <= 1 or not 0 < self.length_decay <= 1:
            raise ParameterError("decay ratios must lie in (0, 1]")
        if _norm(self.root_direction) == 0 or _norm(self.branch_normal) == 0:
            raise ParameterError("direction and branch normal must be non-zero")


@dataclass(frozen=True)
class Sphere:
    center_mm: tuple[float, float, float]
    radius_mm: float

    def __post_init__(self):
        _check_fields(self, reals=("radius_mm",), vectors=("center_mm",))
        if self.radius_mm <= 0:
            raise ParameterError("sphere radius must be > 0")


@dataclass(frozen=True)
class PhantomSpec:
    geometry: Geometry
    parenchyma_center_mm: tuple[float, float, float] | None = None  # default: volume center
    parenchyma_semiaxes_mm: tuple[float, float, float] = (105.0, 95.0, 150.0)
    trees: dict[str, TreeSpec] = field(default_factory=dict)
    tumors: tuple[Sphere, ...] = ()
    gallbladder: Sphere | None = None

    def __post_init__(self):
        center = () if self.parenchyma_center_mm is None else ("parenchyma_center_mm",)
        _check_fields(self, vectors=("parenchyma_semiaxes_mm",) + center)
        if min(self.parenchyma_semiaxes_mm) <= 0:
            raise ParameterError("parenchyma semiaxes must be > 0")
        for name in self.trees:
            if name not in TREE_STRUCTURES:
                raise ParameterError(f"unknown tree structure {name!r}")

    def center(self) -> tuple[float, float, float]:
        if self.parenchyma_center_mm is not None:
            return tuple(map(float, self.parenchyma_center_mm))
        return tuple((n - 1) * s / 2.0 for n, s in zip(self.geometry.dims, self.geometry.spacing))


@dataclass(frozen=True)
class EdgeRecord:
    """Construction record for one rasterized tree segment."""

    edge_id: int
    tree: str
    generation: int
    parent_edge_id: int | None
    start_mm: tuple[float, float, float]
    end_mm: tuple[float, float, float]
    radius_mm: float

    @property
    def length_mm(self) -> float:
        return _norm([b - a for a, b in zip(self.start_mm, self.end_mm)])

    @property
    def analytic_volume_mm3(self) -> float:
        r = self.radius_mm
        return math.pi * r * r * self.length_mm + 4.0 / 3.0 * math.pi * r**3


@dataclass(frozen=True)
class PhantomTruth:
    """A generated case. Each tree voxel's edge id in `edge_tag` is its
    position in `edges`, so the generation tag is read through that table
    rather than stored beside it."""

    spec: PhantomSpec
    label_volume: LabelVolume
    edge_tag: np.ndarray  # int32, -1 where no tree edge owns the voxel
    edges: tuple[EdgeRecord, ...]
    gallbladder_mask: np.ndarray
    structure_volumes_mm3: dict[str, float]

    @property
    def generation_tag(self) -> np.ndarray:
        """int16 generation of each voxel's edge, -1 where untagged."""
        generations = np.array([-1] + [e.generation for e in self.edges], dtype=np.int16)
        return generations[self.edge_tag + 1]


def _rotate(v, axis, angle_rad: float) -> tuple[float, float, float]:
    """`v` turned by `angle_rad` about `axis` (Rodrigues' formula), each
    coordinate summed left to right."""
    axis = _unit(axis)
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    d = _dot(axis, v)
    return tuple(vi * c + xi * s + ai * d * (1.0 - c) for vi, xi, ai in zip(v, _cross(axis, v), axis))


def _build_tree_edges(tree_name: str, spec: TreeSpec, first_id: int) -> list[EdgeRecord]:
    """Breadth-first symmetric bifurcation; edge ids are parent-before-child."""
    direction = _unit(spec.root_direction)
    d = _dot(direction, spec.branch_normal)
    normal = [n - u * d for n, u in zip(spec.branch_normal, direction)]
    if _norm(normal) < 1e-12:
        raise ParameterError(f"{tree_name}: branch normal is parallel to the root direction")
    normal = _unit(normal)

    edges: list[EdgeRecord] = []
    start = tuple(map(float, spec.root_start_mm))
    root = EdgeRecord(
        edge_id=first_id,
        tree=tree_name,
        generation=0,
        parent_edge_id=None,
        start_mm=start,
        end_mm=tuple(p + u * spec.segment_length_mm for p, u in zip(start, direction)),
        radius_mm=spec.root_radius_mm,
    )
    edges.append(root)
    frontier = [(root, direction, normal)]
    half_angle = math.radians(spec.branch_angle_deg) / 2.0
    next_id = first_id + 1
    for gen in range(1, spec.levels + 1):
        length = spec.segment_length_mm * spec.length_decay**gen
        radius = spec.root_radius_mm * spec.radius_decay**gen
        new_frontier = []
        for parent, pdir, pnormal in frontier:
            for sign in (+1.0, -1.0):
                cdir = _unit(_rotate(pdir, pnormal, sign * half_angle))
                child = EdgeRecord(
                    edge_id=next_id,
                    tree=tree_name,
                    generation=gen,
                    parent_edge_id=parent.edge_id,
                    start_mm=parent.end_mm,
                    end_mm=tuple(p + u * length for p, u in zip(parent.end_mm, cdir)),
                    radius_mm=radius,
                )
                next_id += 1
                edges.append(child)
                # the old direction becomes the next rotation axis, spreading
                # successive bifurcation planes through 3D
                new_frontier.append((child, cdir, pdir))
        frontier = new_frontier
    return edges


def _voxel_grids(geometry: Geometry, lo, hi):
    """Box slices and mm coordinates of the voxels from `lo` to `hi` (mm,
    x, y, z), clipped to the volume, or None when the clipped box is empty.

    The coordinates are sparse (shapes (1, 1, nx), (1, ny, 1), (nz, 1, 1)):
    an expression over them broadcasts to the box and computes each voxel's
    value exactly as over dense grids, without three box-sized inputs.
    """
    ranges = [
        range(max(math.floor(a / s), 0), min(math.ceil(b / s) + 1, n))
        for a, b, s, n in zip(lo, hi, geometry.spacing, geometry.dims)
    ]
    if not all(ranges):
        return None
    xs, ys, zs = (np.arange(r.start, r.stop) * s for r, s in zip(ranges, geometry.spacing))
    zz, yy, xx = np.meshgrid(zs, ys, xs, indexing="ij", sparse=True)
    return tuple(slice(r.start, r.stop) for r in reversed(ranges)), xx, yy, zz


def rasterize_capsule(
    geometry: Geometry, start_mm, end_mm, radius_mm: float
) -> tuple[np.ndarray, tuple, np.ndarray] | None:
    """Strict capsule rasterization on a clipped bounding box.

    Returns (inside bool array, box slices, squared distance to the axis) or
    None when the capsule misses the volume entirely.
    """
    a = tuple(map(float, start_mm))
    b = tuple(map(float, end_mm))
    lo = [min(p, q) - radius_mm for p, q in zip(a, b)]
    hi = [max(p, q) + radius_mm for p, q in zip(a, b)]
    grids = _voxel_grids(geometry, lo, hi)
    if grids is None:
        return None
    box, xx, yy, zz = grids
    ab = [q - p for p, q in zip(a, b)]
    denom = _dot(ab, ab)
    px, py, pz = xx - a[0], yy - a[1], zz - a[2]
    if denom == 0.0:
        d2 = px * px + py * py + pz * pz
    else:
        t = np.clip((px * ab[0] + py * ab[1] + pz * ab[2]) / denom, 0.0, 1.0)
        d2 = (px - t * ab[0]) ** 2 + (py - t * ab[1]) ** 2 + (pz - t * ab[2]) ** 2
    inside = d2 < radius_mm * radius_mm
    return inside, box, d2


def rasterize_sphere(geometry: Geometry, center_mm, radius_mm: float):
    return rasterize_capsule(geometry, center_mm, center_mm, radius_mm)


def _capsule_mask(geometry: Geometry, start_mm, end_mm, radius_mm: float) -> np.ndarray:
    """One strict capsule as a full-grid bool array."""
    mask = np.zeros(geometry.shape, dtype=bool)
    hit = rasterize_capsule(geometry, start_mm, end_mm, radius_mm)
    if hit is not None:
        inside, box, _ = hit
        mask[box] = inside
    return mask


def _check_placement(spec: PhantomSpec, point, radius_mm: float, what: str) -> None:
    """Raise GenerationError unless the ball of `radius_mm` about `point`
    lies in the parenchyma ellipsoid and between the first and last voxel
    centers on every axis. A ball placed so has a non-empty raster box."""
    semis = spec.parenchyma_semiaxes_mm
    scaled = [(p - c) / s for p, c, s in zip(point, spec.center(), semis)]
    if _norm(scaled) + radius_mm / float(min(semis)) > 1.0:
        raise GenerationError(f"{what} exits the parenchyma")
    geometry = spec.geometry
    for p, n, s in zip(point, geometry.dims, geometry.spacing):
        if p - radius_mm < 0 or p + radius_mm > (n - 1) * s:
            raise GenerationError(f"{what} exceeds the volume bounds")


def generate_case(spec: PhantomSpec) -> PhantomTruth:
    """Rasterize a phantom case; bit-identical for identical specs.

    Tags are written only where a tree claims a voxel, which stamps the
    tree's non-zero label, and each later stamp resets the tags it covers,
    so background is never tagged. Only edge ids are stored; the generation
    tag is read through the edge table (`PhantomTruth.generation_tag`).
    """
    geometry = spec.geometry
    center = spec.center()
    semis = spec.parenchyma_semiaxes_mm
    shape = geometry.shape

    labels = np.zeros(shape, dtype=np.uint8)
    edge_tag = np.full(shape, -1, dtype=np.int32)
    volumes: dict[str, float] = {}

    # parenchyma ellipsoid
    grids = _voxel_grids(
        geometry, [c - s for c, s in zip(center, semis)], [c + s for c, s in zip(center, semis)]
    )
    if grids is None:
        raise GenerationError("parenchyma lies outside the volume")
    box, xx, yy, zz = grids
    inside = (
        ((xx - center[0]) / semis[0]) ** 2
        + ((yy - center[1]) / semis[1]) ** 2
        + ((zz - center[2]) / semis[2]) ** 2
    ) < 1.0
    labels[box][inside] = DEFAULT_SCHEMA.id_of("parenchyma")
    volumes["parenchyma"] = 4.0 / 3.0 * math.pi * float(math.prod(semis))

    # trees, in precedence order, with nearest-axis voxel ownership
    all_edges: list[EdgeRecord] = []
    structure_edges: dict[str, list[EdgeRecord]] = {}
    next_id = 0
    for name in TREE_STRUCTURES:
        if name in spec.trees:
            tree_edges = _build_tree_edges(name, spec.trees[name], next_id)
            next_id += len(tree_edges)
            structure_edges[name] = tree_edges
            all_edges.extend(tree_edges)

    gb = spec.gallbladder
    gb_mask = np.zeros(shape, dtype=bool)
    # axis distance of each voxel's owning edge; a capsule compares it only
    # where its own tree already holds the voxel, so trees never compete
    best_d2 = np.full(shape, np.inf, dtype=np.float64)
    for name in PRECEDENCE[1:-1]:
        sid = DEFAULT_SCHEMA.id_of(name)
        for e in structure_edges.get(name, []):
            for endpoint in (e.start_mm, e.end_mm):
                _check_placement(spec, endpoint, e.radius_mm, f"{name} edge {e.edge_id}")
            volumes[name] = volumes.get(name, 0.0) + e.analytic_volume_mm3
            inside, box, d2 = rasterize_capsule(geometry, e.start_mm, e.end_mm, e.radius_mm)
            sub_labels = labels[box]
            sub_best = best_d2[box]
            # nearest-axis ownership; the corner region of a junction is
            # equidistant to parent and child axes and goes to the deeper
            # branch (edges are visited parent-first)
            claim = inside & ((sub_labels != sid) | (d2 <= sub_best))
            sub_labels[claim] = sid
            sub_best[claim] = d2[claim]
            edge_tag[box][claim] = e.edge_id
        if name == "biliary_tree" and gb is not None:
            _check_placement(spec, gb.center_mm, gb.radius_mm, "gallbladder")
            inside, box, _ = rasterize_sphere(geometry, gb.center_mm, gb.radius_mm)
            gb_mask[box] = inside
            labels[box][inside] = sid
            volumes["gallbladder"] = 4.0 / 3.0 * math.pi * gb.radius_mm**3

    # tumors last so they are never occluded
    tumor_id = DEFAULT_SCHEMA.id_of("tumor")
    for i, t in enumerate(spec.tumors):
        _check_placement(spec, t.center_mm, t.radius_mm, f"tumor {i}")
        inside, box, _ = rasterize_sphere(geometry, t.center_mm, t.radius_mm)
        labels[box][inside] = tumor_id
        edge_tag[box][inside] = -1
        volumes[f"tumor_{i}"] = 4.0 / 3.0 * math.pi * t.radius_mm**3

    # the venous trees and the tumors may overwrite part of the gallbladder sphere
    gb_mask &= labels == DEFAULT_SCHEMA.id_of("biliary_tree")
    edge_tag[gb_mask] = -1

    edge_tag.flags.writeable = False
    gb_mask.flags.writeable = False
    return PhantomTruth(
        spec=spec,
        label_volume=LabelVolume(geometry, labels, DEFAULT_SCHEMA),
        edge_tag=edge_tag,
        edges=tuple(all_edges),
        gallbladder_mask=gb_mask,
        structure_volumes_mm3=volumes,
    )


@dataclass(frozen=True)
class DegradeSpec:
    """Controlled corruption of a truth volume into a prediction stand-in.

    Eroded or dropped voxels become background; spurious blobs stamp their
    label last. Relabeling sends a seeded random fraction of foreground
    voxels to background.
    """

    seed: int = 0
    erode_steps: dict[str, int] = field(default_factory=dict)
    dilate_steps: dict[str, int] = field(default_factory=dict)
    drop_edge_ids: tuple[int, ...] = ()
    spurious_blobs: tuple[tuple[str, Sphere], ...] = ()  # (structure name, sphere)
    relabel_fraction: float = 0.0

    def __post_init__(self):
        _check_fields(self, integers=("seed",), reals=("relabel_fraction",))
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        for name, n in list(self.erode_steps.items()) + list(self.dilate_steps.items()):
            if name not in PRECEDENCE:
                raise ParameterError(f"unknown structure {name!r}")
            if not _is_number(n, numbers.Integral) or n < 0:
                raise ParameterError(f"morphology step counts must be integers >= 0, got {n!r}")
        object.__setattr__(self, "drop_edge_ids", tuple(self.drop_edge_ids))
        for edge_id in self.drop_edge_ids:
            if not _is_number(edge_id, numbers.Integral):
                raise ParameterError(f"edge ids must be integers, got {edge_id!r}")
        for i, blob in enumerate(self.spurious_blobs):
            if not (isinstance(blob, (tuple, list)) and len(blob) == 2 and blob[0] in PRECEDENCE):
                raise ParameterError(f"spurious blob {i} must name a structure in {PRECEDENCE}, got {blob!r}")
            if not isinstance(blob[1], Sphere):
                raise ParameterError(f"spurious blob {i} needs a Sphere, got {blob!r}")
        both = set(k for k, v in self.erode_steps.items() if v) & set(
            k for k, v in self.dilate_steps.items() if v
        )
        if both:
            raise ParameterError(f"cannot both erode and dilate {sorted(both)}")
        if not 0.0 <= self.relabel_fraction < 1.0:
            raise ParameterError("relabel_fraction must be in [0, 1)")


def degrade(truth: PhantomTruth, d: DegradeSpec) -> LabelVolume:
    """Apply a DegradeSpec to a truth volume; deterministic per seed."""
    unknown = set(d.drop_edge_ids) - set(range(len(truth.edges)))
    if unknown:
        raise ParameterError(f"unknown edge ids {sorted(unknown)}")

    labels = truth.label_volume.labels
    schema = truth.label_volume.schema
    geometry = truth.label_volume.geometry
    masks = {name: labels == schema.id_of(name) for name in PRECEDENCE}

    for edge_id in d.drop_edge_ids:
        masks[truth.edges[edge_id].tree] &= truth.edge_tag != edge_id

    for op, steps_by_name in (("min", d.erode_steps), ("max", d.dilate_steps)):
        for name, steps in steps_by_name.items():
            m = masks[name].astype(np.uint8)
            for _ in range(steps):
                m = pool_array(m, op)
            masks[name] = m.astype(bool)

    out = np.zeros_like(labels)
    for name in PRECEDENCE:
        out[masks[name]] = schema.id_of(name)

    for name, blob in d.spurious_blobs:
        hit = rasterize_sphere(geometry, blob.center_mm, blob.radius_mm)
        if hit is not None:
            inside, box, _ = hit
            out[box][inside] = schema.id_of(name)

    if d.relabel_fraction > 0.0:
        rng = np.random.default_rng(d.seed)
        fg = np.flatnonzero(out.ravel())
        n_drop = int(len(fg) * d.relabel_fraction)
        if n_drop:
            drop = rng.choice(fg, size=n_drop, replace=False)
            out.ravel()[drop] = 0

    return LabelVolume(geometry, out, schema)


def default_spec(gallbladder_present: bool = True) -> PhantomSpec:
    """Liver-scale default case: 128^3 voxels at 2 x 2 x 3 mm spacing."""
    return PhantomSpec(
        geometry=Geometry(dims=(128, 128, 128), spacing=(2.0, 2.0, 3.0)),
        parenchyma_semiaxes_mm=(105.0, 95.0, 150.0),
        trees={
            "portal_vein": TreeSpec(
                levels=3,
                root_start_mm=(127.0, 96.0, 120.0),
                root_direction=(0.0, 0.2, 1.0),
                root_radius_mm=7.0,
                radius_decay=0.75,
                segment_length_mm=55.0,
                length_decay=0.6,
                branch_angle_deg=40.0,
                branch_normal=(1.0, 0.0, 0.0),
            ),
            "hepatic_vein": TreeSpec(
                levels=3,
                root_start_mm=(127.0, 160.0, 260.0),
                root_direction=(0.0, -0.2, -1.0),
                root_radius_mm=7.0,
                radius_decay=0.75,
                segment_length_mm=50.0,
                length_decay=0.6,
                branch_angle_deg=40.0,
                branch_normal=(1.0, 0.0, 0.0),
            ),
            "biliary_tree": TreeSpec(
                levels=2,
                root_start_mm=(70.0, 128.0, 150.0),
                root_direction=(-0.2, 0.3, 1.0),
                root_radius_mm=4.5,
                radius_decay=0.8,
                segment_length_mm=45.0,
                length_decay=0.65,
                branch_angle_deg=40.0,
                branch_normal=(0.0, 1.0, 0.0),
            ),
        },
        tumors=(
            Sphere(center_mm=(170.0, 150.0, 240.0), radius_mm=12.0),
            Sphere(center_mm=(90.0, 150.0, 250.0), radius_mm=9.0),
        ),
        gallbladder=Sphere(center_mm=(62.0, 108.0, 116.0), radius_mm=16.0) if gallbladder_present else None,
    )


def axis_tree_spec(levels: int) -> PhantomSpec:
    """Axis-aligned H-tree phantom tuned for clean skeleton graphs.

    T-branching (180 degree bifurcations) with integer endpoints at unit
    spacing and a uniform sub-2-voxel radius gives a skeleton that is exactly
    the union of the axis lines, so graph generations and Strahler orders are
    known by construction.
    """
    if not 1 <= levels <= 4:
        raise ParameterError("levels must be in 1..4")
    trunk = 64.0  # halving per level keeps every endpoint on the integer grid
    return PhantomSpec(
        geometry=Geometry(dims=(128, 80, 112), spacing=(1.0, 1.0, 1.0)),
        parenchyma_center_mm=(64.0, 40.0, 52.0),
        parenchyma_semiaxes_mm=(60.0, 36.0, 52.0),
        trees={
            "portal_vein": TreeSpec(
                levels=levels,
                root_start_mm=(64.0, 40.0, 10.0),
                root_direction=(0.0, 0.0, 1.0),
                root_radius_mm=1.9,
                radius_decay=1.0,
                segment_length_mm=trunk,
                length_decay=0.5,
                branch_angle_deg=180.0,
                branch_normal=(0.0, 1.0, 0.0),
            )
        },
    )


def straight_tube_mask(
    length_vox: int = 40,
    radius_vox: float = 0.5,
    dims: tuple[int, int, int] = (56, 16, 16),
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> tuple[BinaryMask, tuple[tuple[float, float, float], tuple[float, float, float]]]:
    """Stored straight-tube phantom along x; returns (mask, centerline).

    The centerline is the analytic axis segment (start_mm, end_mm).
    """
    geometry = Geometry(dims=dims, spacing=spacing)
    x0 = (dims[0] - length_vox) // 2
    start = (x0 * spacing[0], (dims[1] // 2) * spacing[1], (dims[2] // 2) * spacing[2])
    end = (start[0] + (length_vox - 1) * spacing[0], start[1], start[2])
    mask = _capsule_mask(geometry, start, end, radius_vox * spacing[0])
    return BinaryMask(geometry, mask), (start, end)


@dataclass(frozen=True)
class YPhantom:
    mask: BinaryMask
    trunk: BinaryMask
    branches: tuple[BinaryMask, BinaryMask]
    centerlines: tuple  # (start_mm, end_mm) per segment: trunk, branch a, branch b


def y_phantom(
    trunk_radius: float = 3.0,
    branch_radius: float = 1.9,
    trunk_length: int = 24,
    branch_length: int = 32,
) -> YPhantom:
    """Stored Y-phantom: a fat trunk with two long thin T-branches.

    The trunk is digitally wider than the branches so the graph root is
    unambiguous, and the branches carry a larger share of skeleton length
    than of volume, which separates clDice from plain DSC when one branch
    is removed.
    """
    dims = (2 * branch_length + 24, 24, trunk_length + 16)
    geometry = Geometry(dims=dims, spacing=(1.0, 1.0, 1.0))
    cx, cy = dims[0] // 2, dims[1] // 2
    z0 = 6
    junction = (cx, cy, z0 + trunk_length)
    trunk_seg = ((cx, cy, z0), junction)
    branch_a = (junction, (cx + branch_length, cy, z0 + trunk_length))
    branch_b = (junction, (cx - branch_length, cy, z0 + trunk_length))

    trunk_m = _capsule_mask(geometry, *trunk_seg, trunk_radius)
    a_m = _capsule_mask(geometry, *branch_a, branch_radius)
    b_m = _capsule_mask(geometry, *branch_b, branch_radius)
    total = trunk_m | a_m | b_m
    return YPhantom(
        mask=BinaryMask(geometry, total),
        trunk=BinaryMask(geometry, trunk_m),
        branches=(BinaryMask(geometry, a_m & ~trunk_m), BinaryMask(geometry, b_m & ~trunk_m)),
        centerlines=(trunk_seg, branch_a, branch_b),
    )


def _block(data, what: str, kind: type = dict, cls=None):
    """Return `data` after checking that it is a JSON object (an array when
    `kind` is list) and, given a dataclass `cls`, that it has only its keys
    and every field that has no default."""
    if not isinstance(data, kind):
        expected = "an object" if kind is dict else "an array"
        raise ParameterError(f"{what} must be {expected}, got {type(data).__name__}")
    if cls is not None:
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ParameterError(f"unknown {what} keys: {sorted(unknown)}")
        for f in fields(cls):
            if f.name not in data and f.default is MISSING and f.default_factory is MISSING:
                raise ParameterError(f"{what} is missing field {f.name!r}")
    return data


def _sphere(data, what: str) -> Sphere:
    return Sphere(**_block(data, what, dict, Sphere))


def spec_to_json_dict(spec: PhantomSpec) -> dict:
    return _json_dict(spec)


def spec_from_json_dict(data: dict) -> PhantomSpec:
    """Read a spec; a key left out takes the dataclass default."""
    kwargs = dict(_block(data, "phantom spec", dict, PhantomSpec))
    kwargs["geometry"] = Geometry(**_block(data["geometry"], "geometry", dict, Geometry))
    if "trees" in data:
        kwargs["trees"] = {
            name: TreeSpec(**_block(t, f"tree {name!r}", dict, TreeSpec))
            for name, t in _block(data["trees"], "trees").items()
        }
    if "tumors" in data:
        kwargs["tumors"] = tuple(
            _sphere(t, f"tumor {i}") for i, t in enumerate(_block(data["tumors"], "tumors", list))
        )
    if data.get("gallbladder") is not None:
        kwargs["gallbladder"] = _sphere(data["gallbladder"], "gallbladder")
    return PhantomSpec(**kwargs)


def truth_manifest(truth: PhantomTruth) -> dict:
    """JSON manifest: spec echo, edge table with centerlines, volumes."""
    return {
        "spec": spec_to_json_dict(truth.spec),
        "edges": [
            {**_json_dict(e), "length_mm": e.length_mm, "analytic_volume_mm3": e.analytic_volume_mm3}
            for e in truth.edges
        ],
        "structure_volumes_mm3": truth.structure_volumes_mm3,
        "label_schema": {str(k): v for k, v in truth.label_volume.schema.ids.items()},
    }


def _blob(data, what: str) -> tuple[str, Sphere]:
    """A spurious blob: a structure name beside the sphere's own keys."""
    sphere = dict(_block(data, what))
    if "structure" not in sphere:
        raise ParameterError(f"{what} is missing field 'structure'")
    return sphere.pop("structure"), _sphere(sphere, what)


def degrade_from_json_dict(data: dict) -> DegradeSpec:
    """Read a degrade spec; a key left out takes the dataclass default."""
    kwargs = dict(_block(data, "degrade spec", dict, DegradeSpec))
    for key, kind in (("erode_steps", dict), ("dilate_steps", dict), ("drop_edge_ids", list)):
        if key in data:
            _block(data[key], key, kind)
    if "spurious_blobs" in data:
        kwargs["spurious_blobs"] = tuple(
            _blob(b, f"spurious blob {i}")
            for i, b in enumerate(_block(data["spurious_blobs"], "spurious_blobs", list))
        )
    return DegradeSpec(**kwargs)
