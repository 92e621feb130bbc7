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
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import GenerationError, ParameterError
from .morphology import pool_array
from .volume import (
    DEFAULT_SCHEMA,
    IDENTITY_ORIENTATION,
    BinaryMask,
    Geometry,
    LabelVolume,
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
        if not 1 <= self.levels <= 4:
            raise ParameterError(f"levels must be in 1..4, got {self.levels}")
        if self.root_radius_mm <= 0 or self.segment_length_mm <= 0:
            raise ParameterError("root radius and segment length must be > 0")
        if not 0 < self.radius_decay <= 1 or not 0 < self.length_decay <= 1:
            raise ParameterError("decay ratios must lie in (0, 1]")
        d = np.asarray(self.root_direction, dtype=np.float64)
        n = np.asarray(self.branch_normal, dtype=np.float64)
        if np.linalg.norm(d) == 0 or np.linalg.norm(n) == 0:
            raise ParameterError("direction and branch normal must be non-zero")


@dataclass(frozen=True)
class Sphere:
    center_mm: tuple[float, float, float]
    radius_mm: float

    def __post_init__(self):
        if self.radius_mm <= 0:
            raise ParameterError("sphere radius must be > 0")


@dataclass(frozen=True)
class PhantomSpec:
    geometry: Geometry = field(
        default_factory=lambda: Geometry(dims=(128, 128, 128), spacing=(2.0, 2.0, 3.0))
    )
    parenchyma_center_mm: tuple[float, float, float] | None = None  # default: volume center
    parenchyma_semiaxes_mm: tuple[float, float, float] = (105.0, 95.0, 150.0)
    trees: dict[str, TreeSpec] = field(default_factory=dict)
    tumors: tuple[Sphere, ...] = ()
    gallbladder: Sphere | None = None

    def __post_init__(self):
        for name in self.trees:
            if name not in TREE_STRUCTURES:
                raise ParameterError(f"unknown tree structure {name!r}")

    def center(self) -> np.ndarray:
        if self.parenchyma_center_mm is not None:
            return np.asarray(self.parenchyma_center_mm, dtype=np.float64)
        dims = np.asarray(self.geometry.dims, dtype=np.float64)
        spacing = np.asarray(self.geometry.spacing)
        return (dims - 1) * spacing / 2.0


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
        a = np.asarray(self.start_mm)
        b = np.asarray(self.end_mm)
        return float(np.linalg.norm(b - a))

    @property
    def analytic_volume_mm3(self) -> float:
        r = self.radius_mm
        return math.pi * r * r * self.length_mm + 4.0 / 3.0 * math.pi * r**3


@dataclass(frozen=True)
class PhantomTruth:
    spec: PhantomSpec
    label_volume: LabelVolume
    edge_tag: np.ndarray  # int32, -1 where no tree edge owns the voxel
    generation_tag: np.ndarray  # int16, -1 where untagged
    edges: tuple[EdgeRecord, ...]
    gallbladder_mask: np.ndarray
    structure_volumes_mm3: dict[str, float]

    def edges_of_tree(self, tree: str) -> list[EdgeRecord]:
        return [e for e in self.edges if e.tree == tree]

    def centerline_points_mm(self, edge_id: int, step_mm: float = 1.0) -> np.ndarray:
        e = next(rec for rec in self.edges if rec.edge_id == edge_id)
        a = np.asarray(e.start_mm)
        b = np.asarray(e.end_mm)
        n = max(2, int(np.ceil(e.length_mm / step_mm)) + 1)
        t = np.linspace(0.0, 1.0, n)[:, None]
        return a + t * (b - a)


def _rotate(v: np.ndarray, axis: np.ndarray, angle_rad: float) -> np.ndarray:
    axis = axis / np.linalg.norm(axis)
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return v * c + np.cross(axis, v) * s + axis * float(axis @ v) * (1.0 - c)


def _build_tree_edges(tree_name: str, spec: TreeSpec, first_id: int) -> list[EdgeRecord]:
    """Breadth-first symmetric bifurcation; edge ids are parent-before-child."""
    direction = np.asarray(spec.root_direction, dtype=np.float64)
    direction = direction / np.linalg.norm(direction)
    normal = np.asarray(spec.branch_normal, dtype=np.float64)
    normal = normal - direction * float(direction @ normal)
    if np.linalg.norm(normal) < 1e-12:
        raise ParameterError(f"{tree_name}: branch normal is parallel to the root direction")
    normal = normal / np.linalg.norm(normal)

    edges: list[EdgeRecord] = []
    start = np.asarray(spec.root_start_mm, dtype=np.float64)
    root = EdgeRecord(
        edge_id=first_id,
        tree=tree_name,
        generation=0,
        parent_edge_id=None,
        start_mm=tuple(start),
        end_mm=tuple(start + direction * spec.segment_length_mm),
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
            base = np.asarray(parent.end_mm)
            for sign in (+1.0, -1.0):
                cdir = _rotate(pdir, pnormal, sign * half_angle)
                cdir = cdir / np.linalg.norm(cdir)
                child = EdgeRecord(
                    edge_id=next_id,
                    tree=tree_name,
                    generation=gen,
                    parent_edge_id=parent.edge_id,
                    start_mm=tuple(base),
                    end_mm=tuple(base + cdir * length),
                    radius_mm=radius,
                )
                next_id += 1
                edges.append(child)
                # the old direction becomes the next rotation axis, spreading
                # successive bifurcation planes through 3D
                new_frontier.append((child, cdir, pdir))
        frontier = new_frontier
    return edges


def _voxel_grids(geometry: Geometry, lo: np.ndarray, hi: np.ndarray):
    """Index ranges and mm coordinate grids for a clipped bounding box."""
    nx, ny, nz = geometry.dims
    spacing = np.asarray(geometry.spacing)
    lo_idx = np.maximum(np.floor(lo / spacing).astype(int), 0)
    hi_idx = np.minimum(np.ceil(hi / spacing).astype(int) + 1, [nx, ny, nz])
    if (lo_idx >= hi_idx).any():
        return None
    xs = np.arange(lo_idx[0], hi_idx[0]) * spacing[0]
    ys = np.arange(lo_idx[1], hi_idx[1]) * spacing[1]
    zs = np.arange(lo_idx[2], hi_idx[2]) * spacing[2]
    zz, yy, xx = np.meshgrid(zs, ys, xs, indexing="ij")
    return lo_idx, hi_idx, xx, yy, zz


def _box_slices(lo_idx, hi_idx):
    return (
        slice(lo_idx[2], hi_idx[2]),
        slice(lo_idx[1], hi_idx[1]),
        slice(lo_idx[0], hi_idx[0]),
    )


def rasterize_capsule(
    geometry: Geometry, start_mm, end_mm, radius_mm: float
) -> tuple[np.ndarray, tuple, np.ndarray] | None:
    """Strict capsule rasterization on a clipped bounding box.

    Returns (inside bool array, box slices, squared distance to the axis) or
    None when the capsule misses the volume entirely.
    """
    a = np.asarray(start_mm, dtype=np.float64)
    b = np.asarray(end_mm, dtype=np.float64)
    lo = np.minimum(a, b) - radius_mm
    hi = np.maximum(a, b) + radius_mm
    grids = _voxel_grids(geometry, lo, hi)
    if grids is None:
        return None
    lo_idx, hi_idx, xx, yy, zz = grids
    ab = b - a
    denom = float(ab @ ab)
    px, py, pz = xx - a[0], yy - a[1], zz - a[2]
    if denom == 0.0:
        d2 = px * px + py * py + pz * pz
    else:
        t = np.clip((px * ab[0] + py * ab[1] + pz * ab[2]) / denom, 0.0, 1.0)
        d2 = (px - t * ab[0]) ** 2 + (py - t * ab[1]) ** 2 + (pz - t * ab[2]) ** 2
    inside = d2 < radius_mm * radius_mm
    return inside, _box_slices(lo_idx, hi_idx), d2


def rasterize_sphere(geometry: Geometry, center_mm, radius_mm: float):
    return rasterize_capsule(geometry, center_mm, center_mm, radius_mm)


def _inside_ellipsoid(point, center, semiaxes, margin_mm: float) -> bool:
    p = np.asarray(point, dtype=np.float64)
    scaled = (p - center) / np.asarray(semiaxes)
    return float(np.linalg.norm(scaled)) + margin_mm / float(min(semiaxes)) <= 1.0


def _check_inside_volume(geometry: Geometry, point, margin_mm: float, what: str):
    p = np.asarray(point, dtype=np.float64)
    extent = (np.asarray(geometry.dims) - 1) * np.asarray(geometry.spacing)
    if (p - margin_mm < 0).any() or (p + margin_mm > extent).any():
        raise GenerationError(f"{what} exceeds the volume bounds")


def generate_case(spec: PhantomSpec) -> PhantomTruth:
    """Rasterize a phantom case; bit-identical for identical specs."""
    geometry = spec.geometry
    center = spec.center()
    semis = np.asarray(spec.parenchyma_semiaxes_mm)
    shape = geometry.shape

    labels = np.zeros(shape, dtype=np.uint8)
    edge_tag = np.full(shape, -1, dtype=np.int32)
    gen_tag = np.full(shape, -1, dtype=np.int16)
    volumes: dict[str, float] = {}

    # parenchyma ellipsoid
    grids = _voxel_grids(geometry, center - semis, center + semis)
    if grids is None:
        raise GenerationError("parenchyma lies outside the volume")
    lo_idx, hi_idx, xx, yy, zz = grids
    inside = (
        ((xx - center[0]) / semis[0]) ** 2
        + ((yy - center[1]) / semis[1]) ** 2
        + ((zz - center[2]) / semis[2]) ** 2
    ) < 1.0
    labels[_box_slices(lo_idx, hi_idx)][inside] = DEFAULT_SCHEMA.id_of("parenchyma")
    volumes["parenchyma"] = 4.0 / 3.0 * math.pi * float(np.prod(semis))

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
    for name in ("biliary_tree", "hepatic_vein", "portal_vein"):
        tree_edges = structure_edges.get(name, [])
        with_gb = name == "biliary_tree" and gb is not None
        if not tree_edges and not with_gb:
            continue
        mask = np.zeros(shape, dtype=bool)
        best_d2 = np.full(shape, np.inf, dtype=np.float64)
        tag_e = np.full(shape, -1, dtype=np.int32)
        tag_g = np.full(shape, -1, dtype=np.int16)
        for e in tree_edges:
            for endpoint in (e.start_mm, e.end_mm):
                if not _inside_ellipsoid(endpoint, center, semis, e.radius_mm):
                    raise GenerationError(f"{name} edge {e.edge_id} exits the parenchyma")
                _check_inside_volume(geometry, endpoint, e.radius_mm, f"{name} edge {e.edge_id}")
            volumes[name] = volumes.get(name, 0.0) + e.analytic_volume_mm3
            hit = rasterize_capsule(geometry, e.start_mm, e.end_mm, e.radius_mm)
            if hit is None:
                continue
            inside, box, d2 = hit
            sub_best = best_d2[box]
            # nearest-axis ownership; the corner region of a junction is
            # equidistant to parent and child axes and goes to the deeper
            # branch (edges are visited parent-first)
            claim = inside & (d2 <= sub_best)
            mask[box] |= inside
            sub_best[claim] = d2[claim]
            tag_e[box][claim] = e.edge_id
            tag_g[box][claim] = e.generation
        if with_gb:
            if not _inside_ellipsoid(gb.center_mm, center, semis, gb.radius_mm):
                raise GenerationError("gallbladder exits the parenchyma")
            _check_inside_volume(geometry, gb.center_mm, gb.radius_mm, "gallbladder")
            hit = rasterize_sphere(geometry, gb.center_mm, gb.radius_mm)
            if hit is not None:
                inside, box, _ = hit
                gb_mask[box] = inside
            mask |= gb_mask
            volumes["gallbladder"] = 4.0 / 3.0 * math.pi * gb.radius_mm**3
        sid = DEFAULT_SCHEMA.id_of(name)
        labels[mask] = sid
        edge_tag[mask] = tag_e[mask]
        gen_tag[mask] = tag_g[mask]

    # the venous trees may overwrite part of the gallbladder sphere
    gb_mask &= labels == DEFAULT_SCHEMA.id_of("biliary_tree")
    edge_tag[gb_mask] = -1
    gen_tag[gb_mask] = -1

    # tumors last so they are never occluded
    tumor_id = DEFAULT_SCHEMA.id_of("tumor")
    for i, t in enumerate(spec.tumors):
        if not _inside_ellipsoid(t.center_mm, center, semis, t.radius_mm):
            raise GenerationError(f"tumor {i} is not inside the parenchyma")
        _check_inside_volume(geometry, t.center_mm, t.radius_mm, f"tumor {i}")
        hit = rasterize_sphere(geometry, t.center_mm, t.radius_mm)
        if hit is None:
            continue
        inside, box, _ = hit
        labels[box][inside] = tumor_id
        edge_tag[box][inside] = -1
        gen_tag[box][inside] = -1
        volumes[f"tumor_{i}"] = 4.0 / 3.0 * math.pi * t.radius_mm**3

    # vessel tags must cover exactly the tree-labelled voxels
    edge_tag[labels == 0] = -1
    gen_tag[labels == 0] = -1

    edge_tag.flags.writeable = False
    gen_tag.flags.writeable = False
    gb_mask.flags.writeable = False
    return PhantomTruth(
        spec=spec,
        label_volume=LabelVolume(geometry, labels, DEFAULT_SCHEMA),
        edge_tag=edge_tag,
        generation_tag=gen_tag,
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
        for name, steps in list(self.erode_steps.items()) + list(self.dilate_steps.items()):
            if name not in PRECEDENCE:
                raise ParameterError(f"unknown structure {name!r}")
            if steps < 0:
                raise ParameterError("morphology step counts must be >= 0")
        both = set(k for k, v in self.erode_steps.items() if v) & set(
            k for k, v in self.dilate_steps.items() if v
        )
        if both:
            raise ParameterError(f"cannot both erode and dilate {sorted(both)}")
        if not 0.0 <= self.relabel_fraction < 1.0:
            raise ParameterError("relabel_fraction must be in [0, 1)")


def degrade(truth: PhantomTruth, d: DegradeSpec) -> LabelVolume:
    """Apply a DegradeSpec to a truth volume; deterministic per seed."""
    known = {e.edge_id for e in truth.edges}
    unknown = set(d.drop_edge_ids) - known
    if unknown:
        raise ParameterError(f"unknown edge ids {sorted(unknown)}")

    labels = truth.label_volume.labels
    schema = truth.label_volume.schema
    geometry = truth.label_volume.geometry
    masks = {name: (labels == schema.id_of(name)).copy() for name in PRECEDENCE}

    for edge_id in d.drop_edge_ids:
        tree = next(e.tree for e in truth.edges if e.edge_id == edge_id)
        masks[tree] &= truth.edge_tag != edge_id

    for name, steps in d.erode_steps.items():
        m = masks[name].astype(np.uint8)
        for _ in range(steps):
            m = pool_array(m, "min")
        masks[name] = m.astype(bool)
    for name, steps in d.dilate_steps.items():
        m = masks[name].astype(np.uint8)
        for _ in range(steps):
            m = pool_array(m, "max")
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
) -> tuple[BinaryMask, tuple[np.ndarray, np.ndarray]]:
    """Stored straight-tube phantom along x; returns (mask, centerline).

    The centerline is the analytic axis segment (start_mm, end_mm).
    """
    geometry = Geometry(dims=dims, spacing=spacing)
    x0 = (dims[0] - length_vox) // 2
    start = np.array([x0 * spacing[0], (dims[1] // 2) * spacing[1], (dims[2] // 2) * spacing[2]])
    end = start + np.array([(length_vox - 1) * spacing[0], 0.0, 0.0])
    hit = rasterize_capsule(geometry, start, end, radius_vox * spacing[0])
    mask = np.zeros(geometry.shape, dtype=bool)
    if hit is not None:
        inside, box, _ = hit
        mask[box] |= inside
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
    junction = np.array([cx, cy, z0 + trunk_length], dtype=np.float64)
    trunk_seg = (np.array([cx, cy, z0], dtype=np.float64), junction)
    branch_a = (junction, junction + np.array([branch_length, 0.0, 0.0]))
    branch_b = (junction, junction - np.array([branch_length, 0.0, 0.0]))

    def raster(seg, radius):
        m = np.zeros(geometry.shape, dtype=bool)
        hit = rasterize_capsule(geometry, seg[0], seg[1], radius)
        if hit is not None:
            inside, box, _ = hit
            m[box] |= inside
        return m

    trunk_m = raster(trunk_seg, trunk_radius)
    a_m = raster(branch_a, branch_radius)
    b_m = raster(branch_b, branch_radius)
    total = trunk_m | a_m | b_m
    return YPhantom(
        mask=BinaryMask(geometry, total),
        trunk=BinaryMask(geometry, trunk_m),
        branches=(BinaryMask(geometry, a_m & ~trunk_m), BinaryMask(geometry, b_m & ~trunk_m)),
        centerlines=(trunk_seg, branch_a, branch_b),
    )


def _reject_unknown_keys(data: dict, cls, what: str) -> None:
    unknown = set(data) - set(cls.__dataclass_fields__)
    if unknown:
        raise ParameterError(f"unknown {what} keys: {sorted(unknown)}")


def spec_to_json_dict(spec: PhantomSpec) -> dict:
    return {
        "geometry": {
            "dims": list(spec.geometry.dims),
            "spacing": list(spec.geometry.spacing),
            "origin": list(spec.geometry.origin),
            "orientation": [list(row) for row in spec.geometry.orientation],
        },
        "parenchyma_center_mm": list(spec.parenchyma_center_mm) if spec.parenchyma_center_mm else None,
        "parenchyma_semiaxes_mm": list(spec.parenchyma_semiaxes_mm),
        "trees": {name: asdict(t) for name, t in spec.trees.items()},
        "tumors": [asdict(t) for t in spec.tumors],
        "gallbladder": asdict(spec.gallbladder) if spec.gallbladder else None,
    }


def spec_from_json_dict(data: dict) -> PhantomSpec:
    _reject_unknown_keys(data, PhantomSpec, "phantom spec")
    try:
        g = data["geometry"]
        geometry = Geometry(
            dims=g["dims"],
            spacing=g["spacing"],
            origin=g.get("origin", (0.0, 0.0, 0.0)),
            orientation=g.get("orientation", IDENTITY_ORIENTATION),
        )
        trees = {
            name: TreeSpec(
                levels=t["levels"],
                root_start_mm=tuple(t["root_start_mm"]),
                root_direction=tuple(t["root_direction"]),
                root_radius_mm=t["root_radius_mm"],
                radius_decay=t["radius_decay"],
                segment_length_mm=t["segment_length_mm"],
                length_decay=t["length_decay"],
                branch_angle_deg=t.get("branch_angle_deg", 40.0),
                branch_normal=tuple(t.get("branch_normal", (0.0, 1.0, 0.0))),
            )
            for name, t in data.get("trees", {}).items()
        }
        tumors = tuple(
            Sphere(center_mm=tuple(t["center_mm"]), radius_mm=t["radius_mm"])
            for t in data.get("tumors", [])
        )
        gb = data.get("gallbladder")
        center = data.get("parenchyma_center_mm")
        return PhantomSpec(
            geometry=geometry,
            parenchyma_center_mm=tuple(center) if center else None,
            parenchyma_semiaxes_mm=tuple(data.get("parenchyma_semiaxes_mm", (105.0, 95.0, 150.0))),
            trees=trees,
            tumors=tumors,
            gallbladder=Sphere(center_mm=tuple(gb["center_mm"]), radius_mm=gb["radius_mm"]) if gb else None,
        )
    except KeyError as exc:
        raise ParameterError(f"phantom spec is missing field {exc}") from None


def truth_manifest(truth: PhantomTruth) -> dict:
    """JSON manifest: spec echo, edge table with centerlines, volumes."""
    return {
        "spec": spec_to_json_dict(truth.spec),
        "edges": [
            {
                "edge_id": e.edge_id,
                "tree": e.tree,
                "generation": e.generation,
                "parent_edge_id": e.parent_edge_id,
                "start_mm": list(e.start_mm),
                "end_mm": list(e.end_mm),
                "radius_mm": e.radius_mm,
                "length_mm": e.length_mm,
                "analytic_volume_mm3": e.analytic_volume_mm3,
            }
            for e in truth.edges
        ],
        "structure_volumes_mm3": truth.structure_volumes_mm3,
        "label_schema": {str(k): v for k, v in truth.label_volume.schema.ids.items()},
    }


def degrade_from_json_dict(data: dict) -> DegradeSpec:
    _reject_unknown_keys(data, DegradeSpec, "degrade spec")
    blobs = tuple(
        (b["structure"], Sphere(center_mm=tuple(b["center_mm"]), radius_mm=b["radius_mm"]))
        for b in data.get("spurious_blobs", [])
    )
    return DegradeSpec(
        seed=data.get("seed", 0),
        erode_steps=dict(data.get("erode_steps", {})),
        dilate_steps=dict(data.get("dilate_steps", {})),
        drop_edge_ids=tuple(data.get("drop_edge_ids", [])),
        spurious_blobs=blobs,
        relabel_fraction=data.get("relabel_fraction", 0.0),
    )
