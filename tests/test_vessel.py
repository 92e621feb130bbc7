import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from hepeval import vessel
from hepeval.errors import ParameterError
from hepeval.morphology import soft_skeleton_array
from hepeval.phantom import (
    DegradeSpec,
    axis_tree_spec,
    default_spec,
    degrade,
    generate_case,
    rasterize_capsule,
    rasterize_sphere,
    straight_tube_mask,
    y_phantom,
)
from hepeval.vessel import (
    _nearest_labels,
    _skeleton_central_flags,
    _split_flags,
    build_graph,
    classify_central_peripheral,
    identify_gallbladder,
    skeletonize,
)
from hepeval.volume import BinaryMask, Geometry, extract_mask

from conftest import (
    EMBED_OFFSETS,
    embed,
    face_touching_values,
    grid_geometry,
    nearest_labels_oracle,
    phantom_vessel_masks,
    random_skeleton_mask,
    reference_candidates,
    reference_gallbladder,
    reference_graph,
    root_edge,
)


def capsule_union(geometry, segments, radius):
    mask = np.zeros(geometry.shape, dtype=bool)
    for start, end in segments:
        hit = rasterize_capsule(geometry, start, end, radius)
        if hit is not None:
            inside, box, _ = hit
            mask[box] |= inside
    return BinaryMask(geometry, mask)


def check_forest(graph) -> int:
    """Check roots, generations and Strahler orders against a walk over nodes.

    Each component of kept edges has one generation-0 edge, its widest (the
    smallest id on ties), and `root_edge_id` is the widest root. Walking out
    from a root's two nodes, an edge's parent is the edge through which its
    nearer node was reached. Returns the number of components.
    """
    width = lambda e: (-e.mean_radius_mm, e.id)
    incident = {}
    for e in graph.edges:
        for n in e.nodes:
            incident.setdefault(n, []).append(e)
    roots, parent, done = [], {}, set()
    for e0 in graph.edges:
        if e0.nodes[0] in done:
            continue
        comp, stack = {e0.nodes[0]}, [e0.nodes[0]]
        while stack:
            for f in incident[stack.pop()]:
                new = set(f.nodes) - comp
                comp |= new
                stack.extend(new)
        done |= comp
        members = [f for f in graph.edges if f.nodes[0] in comp]
        root = min(members, key=width)
        assert [f.id for f in members if f.generation == 0] == [root.id]
        roots.append(root)
        up = {n: root for n in root.nodes}
        stack = list(root.nodes)
        while stack:
            n = stack.pop()
            for f in incident[n]:
                if f is not up[n]:
                    (m,) = set(f.nodes) - {n}
                    assert m not in up  # kept edges form a forest
                    parent[f.id], up[m] = up[n], f
                    stack.append(m)
    assert graph.root_edge_id == (min(roots, key=width).id if roots else None)
    assert len(roots) + len(parent) == len(graph.edges)
    children = {e.id: [] for e in graph.edges}
    for e in graph.edges:
        if e.id in parent:
            assert e.generation == parent[e.id].generation + 1
            children[parent[e.id].id].append(e.strahler)
    for e in graph.edges:
        orders = children[e.id]
        top = max(orders, default=0)
        assert e.strahler == (top + 1 if top == 0 or orders.count(top) >= 2 else top)
    assert all(e.strahler is None for e in graph.removed_edges)
    return len(roots)


class TestSkeletonize:
    def test_empty_mask(self):
        g = Geometry(dims=(6, 6, 6), spacing=(1, 1, 1))
        skel = skeletonize(BinaryMask(g, np.zeros(g.shape, bool)), 3)
        assert skel.popcount() == 0

    @pytest.mark.parametrize("iterations", [0, -3])
    @pytest.mark.parametrize("empty", [True, False])
    def test_bad_iterations_raise_before_the_mask_is_read(self, iterations, empty):
        g = Geometry(dims=(4, 4, 4), spacing=(1, 1, 1))
        m = np.zeros(g.shape, bool)
        m[1:3, 1:3, 1:3] = not empty
        with pytest.raises(ParameterError, match="iterations must be >= 1"):
            skeletonize(BinaryMask(g, m), iterations)

    def test_single_voxel_is_its_own_skeleton(self):
        g = Geometry(dims=(5, 5, 5), spacing=(1, 1, 1))
        m = np.zeros(g.shape, bool)
        m[2, 2, 2] = True
        skel = skeletonize(BinaryMask(g, m), 2)
        assert np.array_equal(skel.values, m)

    def test_tube_skeleton_on_centerline(self):
        mask, (start, end) = straight_tube_mask(length_vox=24, radius_vox=2.0, dims=(34, 12, 12))
        skel = skeletonize(mask, 4)
        coords = np.argwhere(skel.values)
        pts = np.stack([coords[:, 2], coords[:, 1], coords[:, 0]], 1).astype(float)
        seg = np.subtract(end, start)
        t = np.clip((pts - start) @ seg / (seg @ seg), 0, 1)
        dist = np.linalg.norm(pts - (start + t[:, None] * seg), axis=1)
        assert dist.max() <= 1.0

    def test_subset_of_input(self):
        mask, _ = straight_tube_mask(length_vox=12, radius_vox=2.0, dims=(20, 10, 10))
        skel = skeletonize(mask, 5)
        assert not (skel.values & ~mask.values).any()


class TestBuildGraph:
    def test_empty_skeleton_gives_empty_graph(self):
        g = Geometry(dims=(5, 5, 5), spacing=(1, 1, 1))
        empty = BinaryMask(g, np.zeros(g.shape, bool))
        graph = build_graph(empty, empty)
        assert graph.nodes == [] and graph.edges == []
        assert graph.root_edge_id is None

    def test_skeleton_must_be_subset(self):
        g = Geometry(dims=(5, 5, 5), spacing=(1, 1, 1))
        m = np.zeros(g.shape, bool)
        m[2, 2, 2] = True
        with pytest.raises(ParameterError):
            build_graph(BinaryMask(g, m), BinaryMask(g, np.zeros(g.shape, bool)))

    def test_straight_tube_is_one_edge(self):
        mask, _ = straight_tube_mask(length_vox=20, radius_vox=1.9, dims=(30, 10, 10))
        skel = skeletonize(mask, 4)
        graph = build_graph(skel, mask)
        assert len(graph.edges) == 1
        assert len(graph.nodes) == 2
        assert all(n.kind == "endpoint" for n in graph.nodes)
        edge = graph.edges[0]
        assert edge.generation == 0
        assert edge.strahler == 1
        assert graph.root_edge_id == edge.id

    def test_y_junction_graph(self):
        # uniform radius, trunk foot at the lowest linear index: root is the trunk
        g = Geometry(dims=(48, 16, 32), spacing=(1, 1, 1))
        foot = np.array([24.0, 8.0, 4.0])
        junction = np.array([24.0, 8.0, 22.0])
        segs = [
            (foot, junction),
            (junction, junction + np.array([16.0, 0.0, 0.0])),
            (junction, junction - np.array([16.0, 0.0, 0.0])),
        ]
        mask = capsule_union(g, segs, radius=1.9)
        skel = skeletonize(mask, 4)
        graph = build_graph(skel, mask)
        assert len(graph.edges) == 3
        junctions = [n for n in graph.nodes if n.kind == "junction"]
        assert len(junctions) == 1
        root = root_edge(graph)
        assert root.generation == 0
        assert root.strahler == 2
        leaf_edges = [e for e in graph.edges if e.id != root.id]
        assert all(e.strahler == 1 and e.generation == 1 for e in leaf_edges)

    def test_asymmetric_depth_two_tree(self):
        g = Geometry(dims=(64, 40, 40), spacing=(1, 1, 1))
        foot = np.array([32.0, 20.0, 4.0])
        j0 = np.array([32.0, 20.0, 24.0])
        j1 = j0 + np.array([-16.0, 0.0, 0.0])
        segs = [
            (foot, j0),
            (j0, j0 + np.array([16.0, 0.0, 0.0])),  # leaf
            (j0, j1),  # sub-junction branch
            (j1, j1 + np.array([0.0, 12.0, 0.0])),
            (j1, j1 - np.array([0.0, 12.0, 0.0])),
        ]
        mask = capsule_union(g, segs, radius=1.9)
        skel = skeletonize(mask, 4)
        graph = build_graph(skel, mask)
        assert len(graph.edges) == 5
        root = root_edge(graph)
        assert root.strahler == 2
        gens = sorted(e.generation for e in graph.edges)
        assert gens == [0, 1, 1, 2, 2]

    def test_strahler_recurrence_holds_everywhere(self):
        for levels in (2, 3):
            truth = generate_case(axis_tree_spec(levels))
            mask = extract_mask(truth.label_volume, 3)
            graph = build_graph(skeletonize(mask, 6), mask)
            incident = {}
            for e in graph.edges:
                for n in e.nodes:
                    incident.setdefault(n, []).append(e)
            root = root_edge(graph)
            # recheck the recurrence from the edge list alone
            def children_of(edge, seen):
                out = []
                for n in edge.nodes:
                    for other in incident[n]:
                        if other.id not in seen and other.generation == edge.generation + 1:
                            out.append(other)
                            seen.add(other.id)
                return out

            seen = {root.id}
            frontier = [root]
            order = {}
            stack = []
            while frontier:
                stack.extend(frontier)
                nxt = []
                for e in frontier:
                    nxt.extend(children_of(e, seen))
                frontier = nxt
            for e in reversed(stack):
                kids = [order[k.id] for k in [x for x in graph.edges if x.generation == e.generation + 1 and set(x.nodes) & set(e.nodes)]]
                if not kids:
                    assert e.strahler == 1
                    order[e.id] = 1
                else:
                    top = max(kids)
                    expect = top + 1 if kids.count(top) >= 2 else top
                    assert e.strahler == expect
                    order[e.id] = expect
            check_forest(graph)

        # multi-component forests: the golden guard's random skeletons
        components = [check_forest(build_graph(m, m)) for m in map(random_skeleton_mask, range(12))]
        assert max(components) > 1

    def test_nodes_are_scipy_clusters_of_irregular_voxels(self):
        """Each node but the pure-cycle anchors (single degree-2 voxels, last)
        is one 26-connected component of the voxels whose skeleton degree is
        not 2, and the ids follow the components' first voxels."""
        cases = [(m, m) for m in map(random_skeleton_mask, range(12))]
        cases += [(skeletonize(m), m) for m in phantom_vessel_masks().values()]
        cube = np.ones((3, 3, 3), dtype=int)
        for skel, mask in cases:
            graph = build_graph(skel, mask)
            sk = skel.values
            degree = ndimage.convolve(sk.astype(int), cube, mode="constant") - 1
            labels, count = ndimage.label(sk & (degree != 2), structure=cube)
            flat = labels.ravel()
            ids, firsts = np.unique(flat, return_index=True)
            order = ids[ids > 0][np.argsort(firsts[ids > 0])]
            assert [n.id for n in graph.nodes] == list(range(len(graph.nodes)))
            for node, cid in zip(graph.nodes, order, strict=False):
                assert np.array_equal(node.voxels, np.flatnonzero(flat == cid))
            assert len(graph.nodes) >= count
            for node in graph.nodes[count:]:
                assert len(node.voxels) == 1 and degree.ravel()[node.voxels[0]] == 2

    def test_perfect_tree_root_order(self):
        for levels in (1, 2, 3, 4):
            truth = generate_case(axis_tree_spec(levels))
            mask = extract_mask(truth.label_volume, 3)
            graph = build_graph(skeletonize(mask, 6), mask)
            assert len(graph.edges) == 2 ** (levels + 1) - 1
            root = root_edge(graph)
            assert root.strahler == levels + 1

    def test_voxel_partition_between_nodes_and_paths(self):
        truth = generate_case(axis_tree_spec(2))
        mask = extract_mask(truth.label_volume, 3)
        skel = skeletonize(mask, 6)
        graph = build_graph(skel, mask)
        paths = graph.edges + graph.removed_edges
        assert sum(len(n.voxels) for n in graph.nodes) + sum(len(e.path) for e in paths) == skel.popcount()

    def test_deterministic_ids(self):
        truth = generate_case(axis_tree_spec(2))
        mask = extract_mask(truth.label_volume, 3)
        skel = skeletonize(mask, 6)
        g1 = build_graph(skel, mask)
        g2 = build_graph(skel, mask)
        assert [(e.id, e.nodes, e.generation, e.strahler) for e in g1.edges] == [
            (e.id, e.nodes, e.generation, e.strahler) for e in g2.edges
        ]
        assert [(n.id, n.voxel) for n in g1.nodes] == [(n.id, n.voxel) for n in g2.nodes]

    def test_cycle_is_broken_at_thinnest_edge(self):
        # a free-standing rectangle of tubes: one removed edge restores a tree
        g = Geometry(dims=(40, 28, 16), spacing=(1, 1, 1))
        a = np.array([8.0, 8.0, 8.0])
        b = np.array([30.0, 8.0, 8.0])
        c = np.array([30.0, 20.0, 8.0])
        d = np.array([8.0, 20.0, 8.0])
        mask = capsule_union(g, [(a, b), (b, c), (c, d), (d, a)], radius=1.9)
        skel = skeletonize(mask, 4)
        graph = build_graph(skel, mask)
        assert len(graph.removed_edges) >= 1
        # forest: edges = nodes - components
        assert len(graph.edges) < len(graph.edges) + len(graph.removed_edges)
        for e in graph.edges:
            assert e.generation is not None


class TestClassify:
    def test_single_tube_everything_central(self):
        mask, _ = straight_tube_mask(length_vox=20, radius_vox=1.9, dims=(30, 10, 10))
        skel = skeletonize(mask, 4)
        graph = build_graph(skel, mask)
        split = classify_central_peripheral(graph, mask)
        assert split.central.popcount() == mask.popcount()
        assert split.peripheral.popcount() == 0

    def test_split_partitions_mask(self):
        truth = generate_case(axis_tree_spec(3))
        mask = extract_mask(truth.label_volume, 3)
        graph = build_graph(skeletonize(mask, 6), mask)
        split = classify_central_peripheral(graph, mask)
        assert not (split.central.values & split.peripheral.values).any()
        assert ((split.central.values | split.peripheral.values) == mask.values).all()

    def test_agreement_with_construction_tags(self):
        for levels in (2, 3, 4):
            truth = generate_case(axis_tree_spec(levels))
            mask = extract_mask(truth.label_volume, 3)
            graph = build_graph(skeletonize(mask, 6), mask)
            split = classify_central_peripheral(graph, mask)
            tag_central = (truth.generation_tag >= 0) & (truth.generation_tag <= 1)
            agree = (split.central.values == (tag_central & mask.values))[mask.values].mean()
            assert agree >= 0.99

    def test_empty_graph_all_peripheral(self, caplog):
        g = Geometry(dims=(8, 8, 8), spacing=(1, 1, 1))
        m = np.zeros(g.shape, bool)
        m[2:5, 2:5, 2:5] = True
        mask = BinaryMask(g, m)
        empty = BinaryMask(g, np.zeros(g.shape, bool))
        graph = build_graph(empty, mask)
        with caplog.at_level("WARNING"):
            split = classify_central_peripheral(graph, mask)
        assert split.peripheral.popcount() == mask.popcount()
        assert split.central.popcount() == 0
        assert "peripheral" in caplog.text

    def test_split_of_a_superset_cut_to_the_mask_is_its_split(self):
        # random skeletons, rich in branches, as the graphs of random masks
        # around them; about a third of the splits have both regions
        for seed in range(60):
            skeleton = random_skeleton_mask(seed)
            rng = np.random.default_rng(seed)
            a = skeleton.values | (rng.random(skeleton.values.shape) < rng.uniform(0.1, 0.5))
            b = a | (rng.random(a.shape) < rng.uniform(0.05, 0.5))
            mask = BinaryMask(skeleton.geometry, a)
            check_split_restricts(build_graph(skeleton, mask), mask, b)


def check_split_restricts(graph, subset: BinaryMask, superset: np.ndarray):
    """The split of the superset, cut to the subset, is the subset's own
    split, region by region."""
    whole, part = (classify_central_peripheral(graph, m) for m in (BinaryMask(subset.geometry, superset), subset))
    assert np.array_equal(whole.central.values & subset.values, part.central.values)
    assert np.array_equal(whole.peripheral.values & subset.values, part.peripheral.values)


class TestNearestLabels:
    @pytest.fixture(scope="class")
    def portal(self):
        return extract_mask(generate_case(axis_tree_spec(4)).label_volume, 3).values

    @pytest.mark.parametrize("spacing", [(0.7, 0.9, 1.3), (0.3, 0.7, 1.1), (0.8, 0.8, 1.25), (0.6, 0.7, 1.9)])
    def test_matches_oracle_on_htree_portal(self, portal, spacing):
        # the truth portal re-wrapped at non-integer spacings, where exact
        # ties between mirrored skeleton voxels are common
        mask = BinaryMask(Geometry(portal.shape[::-1], spacing), portal)
        sources, flags = _skeleton_central_flags(build_graph(skeletonize(mask, 10), mask), 1)
        targets = np.flatnonzero(portal)
        assert len(targets) == 2907 and len(sources) == 244 and 0 < flags.sum() < len(flags)
        got = _nearest_labels(mask.geometry, targets, sources, flags)
        assert np.array_equal(got, nearest_labels_oracle(mask.geometry, targets, sources, flags))

    @pytest.mark.parametrize("spacing", [(0.7, 0.9, 1.3), (0.3, 0.7, 1.1), (0.8, 0.8, 1.25), (0.6, 0.7, 1.9)])
    def test_split_of_portal_and_its_rim_cut_to_portal_is_its_split(self, portal, spacing):
        # a prediction-like superset: the portal plus half of its one-voxel rim
        mask = BinaryMask(Geometry(portal.shape[::-1], spacing), portal)
        rim = ndimage.binary_dilation(portal, np.ones((3, 3, 3), bool)) & ~portal
        superset = portal | (rim & (np.random.default_rng(0).random(portal.shape) < 0.5))
        graph = build_graph(skeletonize(mask, 10), mask)
        split = classify_central_peripheral(graph, mask)
        assert 0 < split.central.popcount() < mask.popcount()
        check_split_restricts(graph, mask, superset)

    def test_mirrored_sources_tie_to_smaller_index(self):
        # sources at -(3, 1, 2) and +(3, 1, 2) from the target (z, y, x);
        # the grid corner is a target too, so the target is not at the origin
        geometry = Geometry((9, 9, 9), (0.7, 0.9, 1.3))
        targets = np.ravel_multi_index(([0, 4], [0, 4], [0, 4]), geometry.shape)
        sources = np.ravel_multi_index(([1, 7], [3, 5], [2, 6]), geometry.shape)
        for flags in ([True, False], [False, True]):
            got = _nearest_labels(geometry, targets, sources, np.array(flags))
            assert got.tolist() == [flags[0], flags[0]]

    @pytest.mark.parametrize("tree", ["liver_portal", "liver_hepatic"])
    def test_one_class_split_computes_no_distance(self, tree, monkeypatch):
        # every skeleton voxel of the liver veins is central at depth 1, and
        # none is at depth -1: either way every voxel takes that one flag,
        # and no distance is computed
        mask = phantom_vessel_masks()[tree]
        graph = build_graph(skeletonize(mask, 10), mask)
        targets = np.flatnonzero(mask.values)

        def computed_distances(*args):
            raise AssertionError("a one-class split computed distances")

        for depth, flag in ((1, True), (-1, False)):
            sources, flags = _skeleton_central_flags(graph, depth)
            assert len(sources) >= 12 and (flags == flag).all()
            want = nearest_labels_oracle(mask.geometry, targets, sources, flags)
            with monkeypatch.context() as m:
                m.setattr(vessel, "_nearest_labels", computed_distances)
                got_targets, got = _split_flags(graph, mask, depth)
            assert np.array_equal(got_targets, targets) and got.dtype == bool
            assert np.array_equal(got, want)


class TestIdentifyGallbladder:
    def geometry(self):
        return Geometry(dims=(64, 64, 48), spacing=(2.0, 2.0, 3.0))

    def test_sphere_beats_tube(self):
        g = self.geometry()
        mask = np.zeros(g.shape, bool)
        hit = rasterize_sphere(g, (40.0, 40.0, 40.0), 15.0)
        inside, box, _ = hit
        mask[box] |= inside
        hit = rasterize_capsule(g, (80.0, 80.0, 90.0), (120.0, 80.0, 90.0), 4.0)
        inside, box, _ = hit
        mask[box] |= inside
        gb, ducts = identify_gallbladder(BinaryMask(g, mask))
        assert gb.popcount() > 0
        # gallbladder is the sphere component
        zz, yy, xx = np.nonzero(gb.values)
        assert (np.abs(xx * 2.0 - 40.0) <= 16).all()
        assert gb.popcount() + ducts.popcount() == int(mask.sum())

    def test_tube_only_means_cholecystectomy(self):
        g = self.geometry()
        mask = np.zeros(g.shape, bool)
        hit = rasterize_capsule(g, (20.0, 40.0, 60.0), (100.0, 40.0, 60.0), 4.0)
        inside, box, _ = hit
        mask[box] |= inside
        gb, ducts = identify_gallbladder(BinaryMask(g, mask))
        assert gb.popcount() == 0
        assert ducts.popcount() == int(mask.sum())

    def test_empty_mask(self):
        g = self.geometry()
        gb, ducts = identify_gallbladder(BinaryMask(g, np.zeros(g.shape, bool)))
        assert gb.popcount() == 0 and ducts.popcount() == 0

    def test_small_sphere_rejected_by_volume(self):
        g = self.geometry()
        mask = np.zeros(g.shape, bool)
        hit = rasterize_sphere(g, (40.0, 40.0, 40.0), 9.0)  # ~3000 mm3 < 5000
        inside, box, _ = hit
        mask[box] |= inside
        gb, _ = identify_gallbladder(BinaryMask(g, mask))
        assert gb.popcount() == 0

    def test_fills_only_a_candidate_with_holes(self, monkeypatch):
        calls = []
        real = ndimage.binary_fill_holes

        def spy(crop):
            calls.append(crop.shape)
            return real(crop)

        monkeypatch.setattr(vessel.ndimage, "binary_fill_holes", spy)
        truth = generate_case(default_spec())
        biliary = extract_mask(truth.label_volume, 5)
        # the duct tree is rejected from its floor and the hole-free
        # gallbladder is scored from its unfilled faces
        gb, _ = identify_gallbladder(biliary)
        assert calls == [] and gb.popcount() > 0
        dropout = extract_mask(degrade(truth, DegradeSpec(seed=5, relabel_fraction=0.05)), 5)
        gb, _ = identify_gallbladder(dropout)
        assert len(calls) >= 1 and gb.popcount() > 0


def _ellipsoid(shape, center, radii) -> np.ndarray:
    axes = np.ogrid[: shape[0], : shape[1], : shape[2]]
    return sum(((a - c) / r) ** 2 for a, c, r in zip(axes, center, radii)) <= 1


def _tube(shape, a, b, radius) -> np.ndarray:
    """Voxels within `radius` of the segment ab, in voxel units."""
    zyx = np.indices(shape).reshape(3, -1).T.astype(np.float64)
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    t = np.clip((zyx - a) @ (b - a) / max(float((b - a) @ (b - a)), 1e-9), 0.0, 1.0)
    return (np.linalg.norm(zyx - a - t[:, None] * (b - a), axis=1) <= radius).reshape(shape)


@st.composite
def biliary_scenes(draw) -> BinaryMask:
    """Sphere-like and tube-like shapes on a small grid: spheres and
    ellipsoids, plain, with an enclosed cavity or with dropout holes;
    capsules; branching tubes; and two blocks touching at one corner.
    Shapes are placed at random, so they also overlap, touch and run off
    the grid."""
    shape = tuple(draw(st.integers(5, 16)) for _ in range(3))
    spacing = tuple(draw(st.sampled_from([0.7, 1.0, 2.0, 3.0])) for _ in range(3))  # x, y, z
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    mask = np.zeros(shape, dtype=bool)
    kinds = st.sampled_from(["ball", "cavity", "dropout", "capsule", "branches", "corner"])
    for kind in draw(st.lists(kinds, min_size=1, max_size=3)):
        if kind in ("ball", "cavity", "dropout"):
            # a holed shape sits near the grid's centre, so that its holes are enclosed
            center = rng.uniform(0, shape) if kind == "ball" else np.asarray(shape) / 2 + rng.uniform(-1, 1, 3)
            low = 1.2 if kind == "ball" else 2.0
            if draw(st.booleans()):  # a sphere in mm
                radii = draw(st.floats(low, 7.0)) * min(spacing) / np.asarray(spacing[::-1])
            else:
                radii = np.array([draw(st.floats(low, 6.0)) for _ in range(3)])
            shell = _ellipsoid(shape, center, radii)
            if kind == "cavity":
                shell &= ~_ellipsoid(shape, center, radii * draw(st.floats(0.3, 0.7)))
            elif kind == "dropout":
                shell &= rng.random(shape) >= draw(st.sampled_from([0.03, 0.1, 0.3]))
            mask |= shell
        elif kind == "capsule":
            mask |= _tube(shape, rng.uniform(0, shape), rng.uniform(0, shape), draw(st.floats(0.5, 2.5)))
        elif kind == "branches":
            root, radius = rng.uniform(0, shape), draw(st.floats(0.5, 2.0))
            for _ in range(draw(st.integers(2, 3))):
                mask |= _tube(shape, root, rng.uniform(0, shape), radius)
        else:
            corner = [int(rng.integers(1, n)) for n in shape]
            sides = rng.integers(1, 5, size=(2, 3))
            mask[tuple(slice(max(c - s, 0), c) for c, s in zip(corner, sides[0]))] = True
            mask[tuple(slice(c, c + s) for c, s in zip(corner, sides[1]))] = True
    return BinaryMask(grid_geometry(shape, spacing), mask)


class TestGallbladderOracle:
    @settings(max_examples=100, deadline=None)
    @given(mask=biliary_scenes(), data=st.data())
    def test_matches_the_fill_every_candidate_oracle(self, mask, data):
        candidates = reference_candidates(mask)
        # thresholds at 0, at 1, anywhere, and exactly at a candidate's volume
        # or sphericity, where `<` and `<=` part ways
        volumes = [0.0] + [c[0] for c in candidates]
        min_volume = data.draw(st.sampled_from(volumes) | st.floats(0.0, max(volumes)))
        exact = st.sampled_from([c[1] for c in candidates]) if candidates else st.just(0.5)
        min_sphericity = data.draw(exact | st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
        got = identify_gallbladder(mask, min_volume, min_sphericity)
        want = reference_gallbladder(mask, min_volume, min_sphericity)
        for g, w in zip(got, want):
            assert g.values.dtype == w.values.dtype and g.values.shape == w.values.shape
            assert g.values.tobytes() == w.values.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(mask=biliary_scenes())
    def test_floor_bounds_filled_bounds_unfilled_on_every_axis(self, mask):
        for _, _, _, crop in reference_candidates(mask):
            filled = ndimage.binary_fill_holes(crop)
            floor, unfilled, counts = vessel._face_floor(crop), vessel._face_counts(crop), vessel._face_counts(filled)
            for got, values in ((unfilled, crop), (counts, filled)):
                padded = np.pad(values, 1).astype(np.int8)
                assert got == [int(np.abs(np.diff(padded, axis=a)).sum()) for a in range(3)]
            for axis in range(3):
                assert floor[axis] <= counts[axis] <= unfilled[axis]


def voxel_mask(points) -> BinaryMask:
    """Mask of the (z, y, x) `points`, shifted to a one-voxel margin."""
    zyx = np.array(points) - np.min(points, axis=0) + 1
    values = np.zeros(tuple(zyx.max(axis=0) + 2), dtype=bool)
    values[tuple(zyx.T)] = True
    return BinaryMask(grid_geometry(values.shape, (0.8, 1.0, 1.5)), values)


# In-plane rings whose voxels have exactly two 26-neighbours each: a diamond
# |y| + |x| = 3 (12 voxels) and an octagon in a 4 x 4 square (8 voxels).
DIAMOND = [(0, y, x) for y in range(-3, 4) for x in {3 - abs(y), abs(y) - 3}]
OCTAGON = [(0, 0, 1), (0, 0, 2), (0, 1, 3), (0, 2, 3), (0, 3, 2), (0, 3, 1), (0, 2, 0), (0, 1, 0)]
# name: (voxels, (nodes, kept edges, removed edges))
GRAPH_SHAPES = {
    "single_voxel": ([(0, 0, 0)], (1, 0, 0)),
    "adjacent_endpoints": ([(0, 0, 0), (1, 1, 1)], (1, 0, 0)),
    "pure_8_cycle": (OCTAGON, (1, 0, 1)),
    # a tail into one diamond vertex, whose loop returns to that voxel
    "lasso": (DIAMOND + [(0, 0, -4), (0, 0, -5)], (2, 1, 1)),
    # tails at two opposite vertices: two chains join the same two nodes
    "parallel_chains": (DIAMOND + [(0, 0, -4), (0, 0, -5), (0, 0, 4), (0, 0, 5)], (4, 3, 1)),
    # node {(0,0,0), (0,0,1)}; chain voxel (0,1,0) touches both of its voxels
    "chain_between_one_nodes_voxels": (
        [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, -1, -1), (0, -2, -2), (0, -1, 2), (0, -2, 3)],
        (3, 2, 1),
    ),
}


def graph_record(graph):
    """Every field of a graph; floats as hex, so equal means equal bits."""
    return (
        json.dumps(graph.to_json_dict()),
        [(n.voxel, n.voxels.tolist()) for n in graph.nodes],
        [
            (e.id, e.nodes, e.path.tolist(), e.attach, e.length_mm.hex(), e.mean_radius_mm.hex(), e.generation)
            for e in graph.edges + graph.removed_edges
        ],
    )


class TestGraphOracle:
    """`build_graph` equals the per-voxel walk of `reference_graph` bit for bit."""

    def test_random_skeletons_raw_and_skeletonized(self):
        for seed in range(200):
            mask = random_skeleton_mask(seed)
            for skel in (mask, skeletonize(mask)):
                assert graph_record(build_graph(skel, mask)) == graph_record(reference_graph(skel, mask))

    def test_phantom_skeletons(self):
        for mask in phantom_vessel_masks().values():
            skel = skeletonize(mask)
            assert graph_record(build_graph(skel, mask)) == graph_record(reference_graph(skel, mask))

    @pytest.mark.parametrize("name", sorted(GRAPH_SHAPES))
    def test_hand_built_shapes(self, name):
        points, counts = GRAPH_SHAPES[name]
        mask = voxel_mask(points)
        graph = build_graph(mask, mask)
        assert (len(graph.nodes), len(graph.edges), len(graph.removed_edges)) == counts
        assert graph_record(graph) == graph_record(reference_graph(mask, mask))


class TestGraphExport:
    def test_json_shape(self):
        phantom = y_phantom()
        skel = skeletonize(phantom.mask, 5)
        graph = build_graph(skel, phantom.mask)
        d = graph.to_json_dict()
        assert set(d) == {"root_edge_id", "nodes", "edges", "removed_edge_ids"}
        for e in d["edges"]:
            assert {"id", "nodes", "generation", "strahler", "length_mm", "mean_radius_mm", "n_path_voxels"} <= set(e)
        for n in d["nodes"]:
            assert n["kind"] in ("endpoint", "junction")


def cropped_to_foreground(values):
    coords = np.argwhere(values)
    lo, hi = coords.min(axis=0), coords.max(axis=0) + 1
    return values[tuple(slice(a, b) for a, b in zip(lo, hi))]


def graph_content(graph, offset):
    """Everything a graph holds, with voxels as (x, y, z) less `offset`
    (a node's representative voxel is its first member)."""
    shape = graph.geometry.shape
    shift = np.asarray(offset)

    def xyz(lins):
        zyx = np.stack(np.unravel_index(np.asarray(lins, dtype=np.int64), shape), axis=1) - shift
        return [tuple(v) for v in zyx[:, ::-1].tolist()]

    nodes = [(n.id, n.kind, xyz(n.voxels)) for n in graph.nodes]
    edges = [
        (e.id, e.nodes, xyz(e.path), xyz(e.attach), e.length_mm, e.mean_radius_mm, e.generation, e.strahler)
        for e in graph.edges + graph.removed_edges
    ]
    return graph.root_edge_id, [e.id for e in graph.removed_edges], nodes, edges


# A lone voxel, a Y-shaped tree cut to its foreground, and grids whose
# foreground touches every face.
CROP_CASES = [
    np.ones((1, 1, 1), dtype=bool),
    cropped_to_foreground(y_phantom(trunk_length=10, branch_length=8).mask.values),
] + [face_touching_values(seed, max_side=9) for seed in range(9)]


class TestCropInvariance:
    """A mask embedded at an offset in a larger zero grid gives the results
    of the mask alone, shifted, and whole-grid oracles agree."""

    @pytest.mark.parametrize("iterations", [1, 3, 10])
    def test_skeleton_matches_whole_grid_and_shifts(self, iterations):
        for small in CROP_CASES:
            base = skeletonize(BinaryMask(grid_geometry(small.shape), small), iterations).values
            for offset in EMBED_OFFSETS:
                values = embed(small, offset)
                got = skeletonize(BinaryMask(grid_geometry(values.shape), values), iterations).values
                whole, _ = soft_skeleton_array(values.astype(float), iterations)
                assert got.dtype == bool
                assert np.array_equal(got, (whole > 0) & values)
                assert np.array_equal(got, embed(base, offset))

    def test_graph_agrees_after_shift(self):
        for small in CROP_CASES:
            mask = BinaryMask(grid_geometry(small.shape, (1.0, 1.5, 2.0)), small)
            base = graph_content(build_graph(skeletonize(mask, 4), mask), (0, 0, 0))
            for offset in EMBED_OFFSETS:
                values = embed(small, offset)
                mask = BinaryMask(grid_geometry(values.shape, (1.0, 1.5, 2.0)), values)
                got = graph_content(build_graph(skeletonize(mask, 4), mask), offset)
                assert got == base

    @pytest.mark.parametrize("spacing", [(0.7, 0.9, 1.3), (0.3, 0.7, 1.1)])
    def test_split_shifts_at_non_integer_spacing(self, spacing):
        def split(values):
            mask = BinaryMask(grid_geometry(values.shape, spacing), values)
            regions = classify_central_peripheral(build_graph(skeletonize(mask, 4), mask), mask)
            return regions.central.values, regions.peripheral.values

        for small in CROP_CASES:
            base = split(small)
            for offset in EMBED_OFFSETS:
                got = split(embed(small, offset))
                assert all(np.array_equal(g, embed(b, offset)) for g, b in zip(got, base))

    def test_empty_mask_gives_zeros(self):
        mask = BinaryMask(grid_geometry((3, 4, 5)), np.zeros((3, 4, 5), dtype=bool))
        skel = skeletonize(mask, 10)
        assert skel.values.dtype == bool and skel.values.shape == (3, 4, 5)
        assert not skel.values.any()
