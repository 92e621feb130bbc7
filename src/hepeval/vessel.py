"""Skeleton graphs for binary vessel masks and the central/peripheral split.

The skeleton is the ridge of the mask's chessboard depth map, which equals
the losses' soft skeleton of the 0/1 field (see `skeletonize`). Graph
extraction clusters adjacent irregular voxels (degree != 2) into nodes,
walks degree-2 chains into edges, estimates per-edge radii from the exact
distance transform of the vessel mask, and breaks spurious cycles at their
thinnest edge. One breadth-first walk over the kept forest, from each
component's widest edge, then gives every edge its generation (hops from
that root) and, read back in reverse, its Strahler order.

The skeleton is computed on the bounding box of the mask's foreground. This
is exact: voxels cut away are 0 and stay 0 at every skeleton stage, every
voxel on the box's faces erodes to 0, so the opening is 0 outside the box,
and pooling treats the exterior as 0, just as the zeros around the box. The
graph reads neighbours from one index of the skeleton voxels, built on the
skeleton's own bounding box padded by one background voxel: every neighbour
of a skeleton voxel lies in that padded box, so the index is exact too.
Node clusters come from that index's neighbour table, with no grid labelled,
and so do the walks: their starts are the table's (node voxel, chain
neighbour) entries, and each chain voxel's two neighbours are read from it
as arrays. Python steps once per start and once per chain voxel, never once
per node voxel, which matters on thick skeletons, where most voxels are
node voxels. Edge radii are the square roots of the mask's squared distance
transform, taken at the walked voxels only.

The central/peripheral split has one rule and one implementation,
`_split_flags`: a skeleton voxel is central when its edge's generation is at
most `max_generation`, each voxel of a mask takes the flag of its nearest
skeleton voxel, and an empty graph logs a WARNING. When every skeleton voxel
carries one flag, every nearest one does too, so each voxel takes that flag
and no distance is computed. `classify_central_peripheral` writes the flags
into two masks; `metrics.evaluate_case` calls `_split_flags` itself, once
per vein over truth ∪ prediction, and counts the flags with no mask built.
Strahler orders are graph output only: the split does not read them.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .errors import ParameterError
from .morphology import _padded, _shifted, bounding_box, connected_components, distance_transform_box, pool_array
from .volume import BinaryMask, Geometry

log = logging.getLogger(__name__)

# Neighbor offsets in (dz, dy, dx) lexicographic order, which is ascending
# neighbor linear index; walks scan them in this order for determinism.
OFFSETS_26 = tuple(
    (dz, dy, dx)
    for dz in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dx in (-1, 0, 1)
    if (dz, dy, dx) != (0, 0, 0)
)


def skeletonize(mask: BinaryMask, iterations: int = 10) -> BinaryMask:
    """Binary skeleton: Lantuéjoul's skeleton for the 3x3x3 cube, in the mask.

    It is the ridge of the depth map, depth being the number of erosions
    E^k (E^0 the mask) holding a voxel, capped at iterations + 2. It equals
    the soft skeleton of the 0/1 field, whose stage k adds E^k less its
    opening: E^k = {depth >= k + 1} and its opening, the dilation of
    E^(k+1), is {maxpool(depth) >= k + 2}; as maxpool(depth) >= depth,
    stage k adds {depth = maxpool(depth) = k + 1} exactly, for
    k <= iterations. It runs on the mask's bounding box; see the module
    docstring for why that is exact.
    """
    if iterations < 1:
        raise ParameterError(f"iterations must be >= 1, got {iterations}")
    out = np.zeros(mask.values.shape, dtype=bool)
    box = bounding_box(mask.values)
    if box is not None:
        values = mask.values[box]
        depth = values.astype(np.min_scalar_type(iterations + 2))
        eroded = depth
        for _ in range(iterations + 1):
            eroded = pool_array(eroded, "min")
            if not eroded.any():
                break
            depth += eroded
        out[box] = (depth == pool_array(depth, "max")) & values & (depth <= iterations + 1)
    return BinaryMask(mask.geometry, out)


@dataclass(frozen=True, eq=False)
class SkeletonNode:
    id: int
    voxel: tuple[int, int, int]  # representative position (x, y, z)
    kind: str  # "endpoint" or "junction"
    voxels: np.ndarray = field(repr=False)  # member linear indices


@dataclass(eq=False)
class SkeletonEdge:
    id: int
    nodes: tuple[int, int]
    path: np.ndarray  # interior voxel linear indices, ordered along the walk
    attach: tuple[int, int]  # node voxel linear indices the walk starts/ends at
    length_mm: float = 0.0
    mean_radius_mm: float = 0.0
    generation: int | None = None
    strahler: int | None = None


@dataclass
class SkeletonGraph:
    geometry: Geometry
    nodes: list[SkeletonNode]
    edges: list[SkeletonEdge]
    removed_edges: list[SkeletonEdge]
    root_edge_id: int | None

    def to_json_dict(self) -> dict:
        """graph.json holds counts of the voxel arrays kept here (`n_voxels`,
        `n_path_voxels`) and the removed edges' ids, not the arrays, so it is
        built here and not by `volume._json_dict`."""
        return {
            "root_edge_id": self.root_edge_id,
            "nodes": [
                {"id": n.id, "voxel": list(n.voxel), "kind": n.kind, "n_voxels": int(len(n.voxels))}
                for n in self.nodes
            ],
            "edges": [
                {
                    "id": e.id,
                    "nodes": list(e.nodes),
                    "generation": e.generation,
                    "strahler": e.strahler,
                    "length_mm": e.length_mm,
                    "mean_radius_mm": e.mean_radius_mm,
                    "n_path_voxels": int(len(e.path)),
                }
                for e in self.edges
            ],
            "removed_edge_ids": [e.id for e in self.removed_edges],
        }


def _skeleton_index(sk: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index of the skeleton voxels, taken in ascending linear order.

    Returns their full-grid linear indices, their (x, y, z) positions and
    their neighbour table: one row per voxel and one column per `OFFSETS_26`
    offset, holding the neighbour's index into this order, or -1 where that
    neighbour is not a skeleton voxel. The table is one gather, at each
    voxel's linear index plus each offset's step, on the skeleton's bounding
    box padded by one background voxel, so no step needs a bounds check.
    """
    box = bounding_box(sk)
    padded = _padded(sk[box])
    _, py, px = padded.shape
    at = np.flatnonzero(padded)
    slot = np.full(padded.size, -1, dtype=np.intp)
    slot[at] = np.arange(len(at))
    table = slot[at[:, None] + np.array(OFFSETS_26) @ (py * px, px, 1)]
    zyx = np.stack(np.unravel_index(at, padded.shape)) + np.array([[s.start - 1] for s in box])
    return np.ravel_multi_index(tuple(zyx), sk.shape), zyx[::-1].T, table


def _node_clusters(table: np.ndarray) -> np.ndarray:
    """Node id of each skeleton voxel, -1 on chain voxels (degree 2).

    Nodes are the 26-connected clusters of irregular voxels (degree != 2).
    Each voxel starts as its own root. Each round hooks, for every pair of
    adjacent irregular voxels, the larger of their roots onto the smaller,
    then jumps every voxel to its root's root until no root moves; it stops
    when a round changes nothing. Roots only decrease and stay in their
    cluster, so each ends on its first voxel: numbering the roots in
    ascending order gives the first-voxel order.
    """
    irregular = (table >= 0).sum(axis=1) != 2
    later = table[:, 13:]  # offsets to larger linear indices, so each pair once
    a, k = np.nonzero(irregular[:, None] & np.append(irregular, False)[later])  # -1 reads False
    b = later[a, k]
    root = np.arange(len(table))
    while True:
        before, ra, rb = root, root[a], root[b]
        root = root.copy()
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        jump = root[root]
        while not np.array_equal(jump, root):
            root, jump = jump, jump[jump]
        if np.array_equal(root, before):
            break
    node_of = np.full(len(table), -1)
    node_of[irregular] = np.unique(root[irregular], return_inverse=True)[1]
    return node_of


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True


def build_graph(skeleton: BinaryMask, vessel_mask: BinaryMask) -> SkeletonGraph:
    """26-connectivity skeleton graph with radii, generations, Strahler orders.

    Cycles are broken by a maximum-radius spanning forest: edges are taken
    widest first (ties to the smaller id) and kept unless they close a cycle.
    In that same order, the first edge of each forest component is its root
    (generation 0), and the first root overall is `root_edge_id`. A
    breadth-first walk from each root gives an edge's children, the kept
    edges at its nodes not yet reached, their parent's generation + 1.
    Strahler orders follow in reverse walk order: leaves get 1; any other
    edge the largest child order, plus 1 when two or more children share it.
    Removed edges get one more than the least kept generation at their nodes
    and no Strahler order.

    Edges are numbered in walk order. Each chain is walked from the first of
    its starts, the (node voxel, chain neighbour) pairs of the neighbour
    table in (node id, voxel, offset) order, and the start at its other end
    is skipped. Chain voxels still unclaimed then form pure cycles; each is
    anchored at its smallest voxel as a node of its own, with one self-loop.

    The skeleton must be a subset of the vessel mask. An empty skeleton
    yields an empty graph rather than an error.
    """
    geometry = skeleton.geometry
    sk = skeleton.values
    if (sk & ~vessel_mask.values).any():
        raise ParameterError("skeleton is not a subset of the vessel mask")
    if not sk.any():
        return SkeletonGraph(geometry, [], [], [], None)

    lin, xyz, table = _skeleton_index(sk)
    # node ids from the neighbour table, by first voxel; -1 on chain voxels
    node_of = _node_clusters(table)
    chain = node_of < 0
    # node voxels in (node id, voxel) order, split into each node's members
    at_node = np.flatnonzero(~chain)
    by_node = at_node[np.argsort(node_of[at_node], kind="stable")]
    cuts = np.cumsum(np.bincount(node_of[at_node])).tolist()
    node_members = [by_node[a:b] for a, b in zip([0, *cuts], cuts)]
    # walk starts: every (node voxel, chain neighbour) pair, in (node id,
    # voxel, offset) order, the order a scan of each node's voxels visits them
    near = table[by_node]
    r, k = np.nonzero(np.append(chain, False)[near])  # -1 reads False
    starts = zip(by_node[r].tolist(), near[r, k].tolist())
    # a chain voxel's two neighbours, in offset order; the walk leaves it for
    # their sum less the voxel it came from
    ends = table[chain]
    pair = np.zeros((len(lin), 2), dtype=np.intp)
    pair[chain] = ends[ends >= 0].reshape(-1, 2)
    link = pair.sum(axis=1).tolist()
    node_id = node_of.tolist()

    claimed = bytearray(len(lin))
    walks: list[list[int]] = []  # node voxel, chain voxels, node voxel

    def walk_chain(attach: int, first: int):
        """Walk from node voxel `attach` through chain voxel `first`.

        A chain voxel has exactly two skeleton neighbours, one of them the
        voxel the walk came from, so a walk can neither stop nor re-enter its
        own path before it reaches a node voxel.
        """
        walk = [attach]
        prev, cur = attach, first
        while node_id[cur] < 0:
            claimed[cur] = True
            walk.append(cur)
            prev, cur = cur, link[cur] - prev
        walk.append(cur)
        walks.append(walk)

    # each chain is walked from the first of its two starts
    for attach, first in starts:
        if not claimed[first]:
            walk_chain(attach, first)

    # components made only of chain voxels (pure cycles): anchor each at its
    # smallest voxel and walk it from its first neighbour, producing a
    # self-loop that cycle-breaking drops
    for i in np.flatnonzero(chain & ~np.frombuffer(claimed, dtype=bool)).tolist():
        if not claimed[i]:
            claimed[i] = True
            node_id[i] = len(node_members)
            node_members.append(np.array([i]))
            walk_chain(i, int(pair[i, 0]))

    # step lengths and radii along all walks at once; each edge reduces its
    # own contiguous slice, the same values in the same order as an array of
    # its walk alone, so its sums are that array's to the bit
    flat = np.fromiter(itertools.chain.from_iterable(walks), dtype=np.intp)
    bounds = np.cumsum([0] + [len(w) for w in walks]).tolist()
    steps = np.diff(xyz[flat].astype(np.float64), axis=0) * np.asarray(geometry.spacing)
    step_mm = np.sqrt((steps**2).sum(axis=1))
    # radii from the vessel mask's squared distances on its own box, which
    # holds every skeleton voxel, rooted at the walked voxels only (sqrt is
    # correctly rounded: the same bits as rooting the whole box)
    dt_box, dt2 = distance_transform_box(vessel_mask)
    radius = np.sqrt(dt2[tuple((xyz[flat, ::-1] - [s.start for s in dt_box]).T)])
    flat_lin = lin[flat]
    edges = [
        SkeletonEdge(
            id=i,
            nodes=(node_id[w[0]], node_id[w[-1]]),
            path=flat_lin[a + 1 : b - 1],
            attach=(int(flat_lin[a]), int(flat_lin[b - 1])),
            length_mm=float(step_mm[a : b - 1].sum()),
            mean_radius_mm=float(radius[a:b].mean()),
        )
        for i, (w, a, b) in enumerate(zip(walks, bounds[:-1], bounds[1:]))
    ]
    return _spanning_forest(geometry, lin, xyz, node_members, edges)


def _spanning_forest(
    geometry: Geometry, lin: np.ndarray, xyz: np.ndarray, node_members: list[np.ndarray], edges: list[SkeletonEdge]
) -> SkeletonGraph:
    """The graph of walked nodes and edges, cycles broken and edges ordered as
    `build_graph` describes; nodes and edges index the skeleton voxels
    `_skeleton_index` returns."""
    # cycle breaking: maximum-radius spanning forest; dropped edges are the
    # thinnest within each cycle
    uf = _UnionFind(len(node_members))
    removed: list[SkeletonEdge] = []
    kept: list[SkeletonEdge] = []
    for e in sorted(edges, key=lambda e: (-e.mean_radius_mm, e.id)):
        if e.nodes[0] != e.nodes[1] and uf.union(e.nodes[0], e.nodes[1]):
            kept.append(e)
        else:
            removed.append(e)
    if removed:
        log.info("cycle breaking removed %d skeleton edge(s): %s", len(removed), [e.id for e in removed])

    # one breadth-first walk; `kept` is still widest first, so an edge not yet
    # reached opens a new component. In a forest each non-root edge is first
    # reached from the one edge at its node nearer the root: its parent.
    incident: dict[int, list[SkeletonEdge]] = {}
    for e in kept:
        for node in e.nodes:
            incident.setdefault(node, []).append(e)
    walk: list[SkeletonEdge] = []
    children: list[list[SkeletonEdge]] = []
    for root in kept:
        if root.generation is not None:
            continue
        root.generation = 0
        walk.append(root)
        while len(children) < len(walk):
            e = walk[len(children)]
            kids = []
            for node in e.nodes:
                for other in incident[node]:
                    if other.generation is None:
                        other.generation = e.generation + 1
                        kids.append(other)
            children.append(kids)
            walk.extend(kids)
    # children come after their parent in the walk
    for e, kids in zip(reversed(walk), reversed(children)):
        orders = [k.strahler for k in kids]
        top = max(orders, default=0)
        e.strahler = top + 1 if top == 0 or orders.count(top) >= 2 else top
    root_edge_id = walk[0].id if walk else None
    kept.sort(key=lambda e: e.id)
    removed.sort(key=lambda e: e.id)

    # removed edges inherit a generation for voxel classification only
    for e in removed:
        gens = [min(k.generation for k in incident[n]) for n in e.nodes if n in incident]
        e.generation = (min(gens) + 1) if gens else 0

    nodes = []
    for node_id, members in enumerate(node_members):
        n_edges = len(incident.get(node_id, []))
        nodes.append(
            SkeletonNode(
                id=node_id,
                voxel=tuple(xyz[members[0]].tolist()),
                kind="endpoint" if n_edges <= 1 else "junction",
                voxels=lin[members],
            )
        )
    return SkeletonGraph(geometry, nodes, kept, removed, root_edge_id)


@dataclass(frozen=True)
class VesselRegionSplit:
    """Disjoint central/peripheral masks that partition the input mask."""

    central: BinaryMask
    peripheral: BinaryMask


def _skeleton_central_flags(graph: SkeletonGraph, max_generation: int) -> tuple[np.ndarray, np.ndarray]:
    """Skeleton voxels (ascending linear index) with their central flag: an
    edge is central when its generation is at most max_generation."""
    # Edge path voxels carry their edge's class. Junction-cluster voxels sit
    # between branches of different classes, so they claim no basin of their
    # own; they fall back in only when the graph has no edge interiors at all.
    lin_list: list[np.ndarray] = []
    flag_list: list[np.ndarray] = []
    node_central: dict[int, bool] = {}
    for e in graph.edges + graph.removed_edges:
        c = e.generation is not None and e.generation <= max_generation
        if len(e.path):
            lin_list.append(e.path)
            flag_list.append(np.full(len(e.path), c, dtype=bool))
        for node in e.nodes:
            node_central[node] = node_central.get(node, False) or c
    if not lin_list:
        for node in graph.nodes:
            c = node_central.get(node.id, False)
            lin_list.append(node.voxels)
            flag_list.append(np.full(len(node.voxels), c, dtype=bool))

    lins = np.concatenate(lin_list) if lin_list else np.zeros(0, dtype=np.int64)
    flags = np.concatenate(flag_list) if flag_list else np.zeros(0, dtype=bool)
    order = np.argsort(lins, kind="stable")
    return lins[order], flags[order]


def _nearest_labels(
    geometry: Geometry, targets_lin: np.ndarray, sources_lin: np.ndarray, source_flags: np.ndarray
) -> np.ndarray:
    """Flag of the nearest source voxel for each target voxel.

    The squared distance is (dx²·sx² + dy²·sy²) + dz²·sz², from the integer
    index differences d and the spacing s, in that order of float64
    operations. The squares d² are exact (on axes under 2^26 voxels), so the
    distance depends on |d| alone: it does not change when both sets move
    together in the grid, and mirrored offsets tie exactly. Each step is one
    IEEE operation, so it does not depend on the CPU either. Ties go to the
    smallest source linear index: sources come in ascending order and
    `argmin` keeps the first minimum.

    Each axis term is tabulated once per source and target coordinate in the
    targets' extent; targets then go in blocks of about 2^16 target-source
    pairs.
    """
    tgt, src = (np.unravel_index(lin, geometry.shape) for lin in (targets_lin, sources_lin))
    (z_sq, z_at), (y_sq, y_at), (x_sq, x_at) = (
        (np.square(np.arange(t.min(), t.max() + 1)[:, None] - s, dtype=np.float64) * (w * w), t - t.min())
        for t, s, w in zip(tgt, src, geometry.spacing[::-1])
    )
    block = max(1, 2**16 // len(sources_lin))
    out = np.empty(len(targets_lin), dtype=bool)
    for t0 in range(0, len(targets_lin), block):
        b = slice(t0, t0 + block)
        out[b] = source_flags[np.argmin((x_sq[x_at[b]] + y_sq[y_at[b]]) + z_sq[z_at[b]], axis=1)]
    return out


def _split_flags(graph: SkeletonGraph, vessel_mask: BinaryMask, max_generation: int) -> tuple[np.ndarray, np.ndarray]:
    """The mask's voxels (ascending linear index) with their central flag.

    Each voxel takes the flag of its nearest skeleton voxel; with no
    skeleton voxel every flag is False, and a WARNING says so. When all
    skeleton flags agree, whichever skeleton voxel is nearest carries that
    one flag, so every voxel takes it without `_nearest_labels`."""
    targets = np.flatnonzero(vessel_mask.values.ravel())
    if len(targets) == 0:
        return targets, np.zeros(0, dtype=bool)
    src_lin, src_flags = _skeleton_central_flags(graph, max_generation)
    if len(src_lin) == 0:
        log.warning("empty skeleton graph: classifying all %d vessel voxels as peripheral", len(targets))
        return targets, np.zeros(len(targets), dtype=bool)
    if src_flags.all() or not src_flags.any():
        return targets, np.full(len(targets), src_flags[0], dtype=bool)
    return targets, _nearest_labels(vessel_mask.geometry, targets, src_lin, src_flags)


def classify_central_peripheral(
    graph: SkeletonGraph, vessel_mask: BinaryMask, max_generation: int = 1
) -> VesselRegionSplit:
    """Split a vessel mask into central and peripheral regions.

    Central skeleton voxels are those of edges at most max_generation hops
    from their component's root edge. Every mask voxel takes the class of
    its nearest skeleton voxel; with an empty graph every voxel is
    peripheral, and a WARNING says so. The two masks partition the input
    mask.
    """
    targets, central_flags = _split_flags(graph, vessel_mask, max_generation)
    central, peripheral = (np.zeros(vessel_mask.values.shape, dtype=bool) for _ in range(2))
    central.ravel()[targets[central_flags]] = True
    peripheral.ravel()[targets[~central_flags]] = True
    return VesselRegionSplit(BinaryMask(vessel_mask.geometry, central), BinaryMask(vessel_mask.geometry, peripheral))


def _face_counts(mask: np.ndarray) -> list[int]:
    """Exposed faces normal to z, y and x; the exterior is background. Each
    voxel has two faces normal to an axis, and each pair of voxels adjacent
    along it hides two."""
    n = np.count_nonzero(mask)
    return [2 * (n - np.count_nonzero(mask[_shifted(a, 1, 0)] & mask[_shifted(a, 0, -1)])) for a in range(3)]


def _face_floor(mask: np.ndarray) -> list[int]:
    """Twice the projection along z, y and x: each axis line that meets the
    mask has an exposed face at each end."""
    return [2 * np.count_nonzero(mask.any(axis=a)) for a in range(3)]


def _sphericity(volume: float, faces: list[int], spacing: tuple[float, float, float]) -> float:
    """pi^(1/3) (6 V)^(2/3) / A, with A summed from the face counts."""
    sx, sy, sz = spacing
    area = 0.0
    for count, face_area in zip(faces, (sx * sy, sx * sz, sy * sz)):  # faces normal to z, y, x
        area += float(count) * face_area
    return np.pi ** (1 / 3) * (6.0 * volume) ** (2 / 3) / area


def identify_gallbladder(
    biliary_mask: BinaryMask,
    min_volume_mm3: float = 5000.0,
    min_sphericity: float = 0.5,
) -> tuple[BinaryMask, BinaryMask]:
    """Split a biliary mask into (gallbladder, ducts).

    The gallbladder is the 26-connected component maximizing volume times
    sphericity, accepted at or above both thresholds. With no qualifying
    component (cholecystectomy) the gallbladder mask is empty and everything
    is ducts. Sphericity takes the surface of the component with its
    enclosed holes filled, so voxels missing inside an organ do not count as
    surface; the returned masks keep the holes.

    Each candidate is first decided from exact bounds on its filled face
    counts. A hole is background that no 6-connected path joins to the
    border of the component's box, so every axis line through a hole meets
    the component on both sides of it: filling keeps each projection, and
    twice the projection along an axis is a floor on the filled face count.
    Filling only removes faces, those between a hole and the component, so
    floor <= filled <= unfilled on every axis. Sphericity falls as the area
    grows, in floating point too. So a candidate whose sphericity at the
    floor is below `min_sphericity` is rejected unfilled (a duct tree), one
    whose unfilled counts equal the floor is scored from them (a hole-free
    gallbladder), and only the rest are filled.
    """
    geometry = biliary_mask.geometry
    gb = np.zeros(geometry.shape, dtype=bool)
    cc = connected_components(biliary_mask, 26)
    voxvol, spacing = geometry.voxel_volume_mm3, geometry.spacing

    best = None  # (score, component box, component crop)
    for cid, sub in enumerate(cc.bounding_boxes, start=1):
        volume = float(cc.sizes[cid]) * voxvol
        if volume < min_volume_mm3:
            continue
        crop = cc.labels[sub] == cid
        floor = _face_floor(crop)
        sphericity = _sphericity(volume, floor, spacing)
        if sphericity < min_sphericity:
            continue
        if _face_counts(crop) != floor:
            sphericity = _sphericity(volume, _face_counts(ndimage.binary_fill_holes(crop)), spacing)
            if sphericity < min_sphericity:
                continue
        score = volume * sphericity
        if best is None or score > best[0]:
            best = (score, sub, crop)

    if best is None:
        return BinaryMask(geometry, gb), biliary_mask
    gb[cc.box][best[1]] = best[2]
    return BinaryMask(geometry, gb), BinaryMask(geometry, biliary_mask.values & ~gb)
