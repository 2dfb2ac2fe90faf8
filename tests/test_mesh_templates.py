"""Primitives built from cached templates, mesh checks run in one pass per
build and per export, and the elementwise reductions of the triangle-triangle
test: each against the form it replaced, kept here as the reference."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import artigen.geometry
from artigen.errors import InvalidParameterError
from artigen.evaluate import evaluate
from artigen.geometry import (
    _CORNER_FACE_AXES,
    _CORNER_FACE_ROWS,
    _CORNERS,
    _QUAD_TRIANGLES,
    _ROUNDED_OUTWARD,
    _ROUNDED_TRIANGLES,
    _box,
    _cross,
    _orient_outward,
    _prism,
    _sphere,
    PRIMITIVE_TEMPLATES,
    TriMesh,
    as_vec3,
    check_meshes,
    intersecting_pairs,
    make_box,
    make_cylinder,
    make_ngon_prism,
    make_rounded_box,
    make_sphere,
    merge_meshes,
)
from artigen.graph import NodeGraph

# ---------------------------------------------------------------------------
# The makers as they were before templates: every call builds its triangle
# lists and angle tables in Python.
# ---------------------------------------------------------------------------

_BOX_QUADS = np.array([[0, 3, 2, 1], [4, 5, 6, 7], [0, 1, 5, 4], [2, 3, 7, 6], [1, 2, 6, 5], [3, 0, 4, 7]])
_BOX_TRIANGLES = _BOX_QUADS[:, _QUAD_TRIANGLES].reshape(-1, 3)


def reference_box(dimensions) -> TriMesh:
    dims = as_vec3(dimensions)
    if np.any(dims <= 0):
        raise InvalidParameterError(f"box dimensions must be positive, got {dims}")
    hx, hy, hz = dims / 2.0
    verts = np.array(
        [
            [-hx, -hy, -hz],
            [hx, -hy, -hz],
            [hx, hy, -hz],
            [-hx, hy, -hz],
            [-hx, -hy, hz],
            [hx, -hy, hz],
            [hx, hy, hz],
            [-hx, hy, hz],
        ]
    )
    return TriMesh(verts, _BOX_TRIANGLES)


def reference_prism(radius, height, sides, top_radius=None) -> TriMesh:
    if radius <= 0 or height <= 0:
        raise InvalidParameterError("prism radius and height must be positive")
    sides = int(sides)
    if sides < 3:
        raise InvalidParameterError(f"prism needs at least 3 sides, got {sides}")
    r_top = radius if top_radius is None else float(top_radius)
    if r_top <= 0:
        raise InvalidParameterError("top radius must be positive")
    ang = 2.0 * np.pi * np.arange(sides) / sides
    bottom = np.column_stack([radius * np.cos(ang), radius * np.sin(ang), np.full(sides, -height / 2.0)])
    top = np.column_stack([r_top * np.cos(ang), r_top * np.sin(ang), np.full(sides, height / 2.0)])
    verts = np.vstack([[[0.0, 0.0, -height / 2.0]], [[0.0, 0.0, height / 2.0]], bottom, top])
    bc, tc = 0, 1
    b0, t0 = 2, 2 + sides
    tris = []
    for k in range(sides):
        k1 = (k + 1) % sides
        tris.append((bc, b0 + k1, b0 + k))
        tris.append((tc, t0 + k, t0 + k1))
        tris.append((b0 + k, b0 + k1, t0 + k))
        tris.append((b0 + k1, t0 + k1, t0 + k))
    return TriMesh(verts, np.array(tris))


def reference_cylinder(radius, height, segments=32) -> TriMesh:
    if segments < 3:
        raise InvalidParameterError(f"cylinder needs at least 3 segments, got {segments}")
    return reference_prism(radius, height, segments)


def reference_sphere(radius, segments=32) -> TriMesh:
    if radius <= 0:
        raise InvalidParameterError("sphere radius must be positive")
    segments = int(segments)
    if segments < 3:
        raise InvalidParameterError(f"sphere needs at least 3 segments, got {segments}")
    rings = max(2, segments // 2)
    verts = [np.array([0.0, 0.0, radius])]
    for i in range(1, rings):
        phi = np.pi * i / rings
        z = radius * math.cos(phi)
        r = radius * math.sin(phi)
        ang = 2.0 * np.pi * np.arange(segments) / segments
        ring = np.column_stack([r * np.cos(ang), r * np.sin(ang), np.full(segments, z)])
        verts.append(ring)
    verts.append(np.array([0.0, 0.0, -radius]))
    verts = np.vstack([v.reshape(-1, 3) for v in verts])
    north, south = 0, len(verts) - 1

    def ring_start(i):
        return 1 + (i - 1) * segments

    tris = []
    r1 = ring_start(1)
    for k in range(segments):
        tris.append((north, r1 + k, r1 + (k + 1) % segments))
    for i in range(1, rings - 1):
        a, b = ring_start(i), ring_start(i + 1)
        for k in range(segments):
            k1 = (k + 1) % segments
            tris.append((a + k, b + k, b + k1))
            tris.append((a + k, b + k1, a + k1))
    rl = ring_start(rings - 1)
    for k in range(segments):
        tris.append((south, rl + (k + 1) % segments, rl + k))
    return TriMesh(verts, np.array(tris))


def reference_rounded_box(dimensions, bevel) -> TriMesh:
    dims = as_vec3(dimensions)
    if np.any(dims <= 0):
        raise InvalidParameterError(f"box dimensions must be positive, got {dims}")
    bevel = float(bevel)
    if bevel < 0 or bevel >= float(dims.min()) / 2.0:
        raise InvalidParameterError(
            f"bevel must satisfy 0 <= bevel < min(dimensions)/2, got {bevel}"
        )
    if bevel == 0.0:
        return reference_box(dims)
    h = dims / 2.0
    verts = np.repeat(_CORNERS * (h - bevel), 3, axis=0)
    verts[_CORNER_FACE_ROWS, _CORNER_FACE_AXES] = (_CORNERS * h).ravel()
    return TriMesh(verts, _orient_outward(verts, _ROUNDED_TRIANGLES, _ROUNDED_OUTWARD))


def outcome(make, *args):
    """A maker's mesh as bytes and shapes, or its error's type and message."""
    try:
        mesh = make(*args)
    except Exception as exc:  # the error itself is the outcome compared
        return type(exc), str(exc)
    arrays = (mesh.vertices, mesh.triangles)
    return tuple((a.dtype.str, a.shape, a.tobytes()) for a in arrays)


# Magnitudes from subnormal through huge, where the checks start to fail.
sizes = st.one_of(
    st.floats(min_value=1e-300, max_value=1e300),
    st.floats(min_value=1e-9, max_value=1e-5),
    st.floats(min_value=0.01, max_value=10.0),
    st.sampled_from([5e-324, 1e-7, 1e150, 1e307, 1.7e308]),
)


class TestTemplateMakers:
    @pytest.mark.parametrize("count", range(3, 65))
    def test_round_primitives_match_the_reference_per_count(self, count):
        for radius, height in ((0.5, 1.0), (1e-3, 2e-3), (123.4, 0.01), (1, 2)):
            for make, reference, args in (
                (make_cylinder, reference_cylinder, (radius, height, count)),
                (make_ngon_prism, reference_prism, (radius, height, count)),
                (make_ngon_prism, reference_prism, (radius, height, count, radius / 3)),
                (make_sphere, reference_sphere, (radius, count)),
            ):
                assert outcome(make, *args) == outcome(reference, *args), (make.__name__, args)

    @settings(max_examples=150, deadline=None)
    @given(st.tuples(sizes, sizes, sizes), st.floats(0.0, 0.999), st.integers(3, 40))
    def test_every_shape_matches_the_reference(self, dims, share, count):
        bevel = share * min(dims) / 2.0
        radius, height = dims[0], dims[1]
        for make, reference, args in (
            (make_box, reference_box, (dims,)),
            (make_rounded_box, reference_rounded_box, (dims, bevel)),
            (make_cylinder, reference_cylinder, (radius, height, count)),
            (make_ngon_prism, reference_prism, (radius, height, count, dims[2])),
            (make_sphere, reference_sphere, (radius, count)),
        ):
            assert outcome(make, *args) == outcome(reference, *args), (make.__name__, args)

    def test_argument_errors_match_the_reference(self):
        for make, reference, args in (
            (make_box, reference_box, ((1, 0, 1),)),
            (make_box, reference_box, ((1, math.inf, 1),)),
            (make_cylinder, reference_cylinder, (0.5, 1.0, 2)),
            (make_ngon_prism, reference_prism, (0.5, 1.0, 2)),
            (make_ngon_prism, reference_prism, (0.5, 1.0, 5, -1.0)),
            (make_ngon_prism, reference_prism, (0.5, 1.0, 5, math.inf)),
            (make_ngon_prism, reference_prism, (math.nan, 1.0, 5)),
            (make_sphere, reference_sphere, (-1.0, 8)),
            (make_sphere, reference_sphere, (math.inf, 8)),
            (make_rounded_box, reference_rounded_box, ((1, 1, 1), 0.6)),
        ):
            got = outcome(make, *args)
            assert got == outcome(reference, *args), (make.__name__, args)
            assert isinstance(got[0], type), (make.__name__, args)

    def test_templates_are_shared_and_read_only(self):
        a, b = make_sphere(0.3, 12), make_sphere(0.7, 12)
        assert np.shares_memory(a.triangles, b.triangles)
        cos, sin, tris = artigen.geometry._prism_template(7)
        for arr in (cos, sin, tris):
            assert not arr.flags.writeable


# ---------------------------------------------------------------------------
# One check per stage
# ---------------------------------------------------------------------------

# Applied in this order, so a moved corner never reads an index made bad.
_FAULTS = ("degenerate", "non-finite", "labels", "index")


def _with_fault(mesh: TriMesh, fault: str, where: int) -> TriMesh:
    verts, tris = mesh.vertices.copy(), mesh.triangles.copy()
    labels = None if mesh.face_labels is None else mesh.face_labels.copy()
    if fault == "non-finite":
        verts[where % len(verts), where % 3] = (math.inf, -math.inf, math.nan)[where % 3]
    elif fault == "index":
        tris[where % len(tris), where % 3] = -1 if where % 2 else len(verts) + where
    elif fault == "labels":
        labels = np.zeros(len(tris) + (1 if where % 2 else -1), dtype=np.int64)
    else:  # one corner moved onto another: that triangle has no area
        a, b = tris[where % len(tris), :2]
        verts[b] = verts[a]
    return TriMesh._unchecked(verts, tris, labels)


def _one_by_one(meshes):
    try:
        for m in meshes:
            TriMesh(m.vertices, m.triangles, m.face_labels)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def _in_one_pass(meshes):
    try:
        check_meshes(meshes)
    except Exception as exc:
        return type(exc), str(exc)
    return None


# Unchecked, as the evaluator makes them: huge ones overflow their areas.
_SHAPES = (
    lambda s: TriMesh._unchecked(*_box((s, 2 * s, 3 * s)), None),
    lambda s: TriMesh._unchecked(*_sphere(s, 8), None),
    lambda s: TriMesh._unchecked(*_prism(s, s, 5, s / 2), None),
    lambda s: TriMesh._unchecked(*_box((s, s, s)), np.full(12, 2)),
    lambda s: TriMesh.empty(),
)


class TestCheckMeshes:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, len(_SHAPES) - 1), st.sampled_from([1e-3, 1.0, 40.0, 1e200])), min_size=1, max_size=7),
        st.lists(st.one_of(st.none(), st.integers(0, 10_000)), min_size=len(_FAULTS), max_size=len(_FAULTS)),
        st.integers(1, 400),
    )
    def test_one_pass_raises_what_one_by_one_raises(self, shapes, positions, group):
        """Also with groups of at most `group` triangles, so that group
        boundaries fall before, between and after the faulty meshes."""
        meshes = [_SHAPES[k](s) for k, s in shapes]
        for fault, pos in zip(_FAULTS, positions):
            if pos is None:
                continue
            i = pos % len(meshes)
            if meshes[i].n_triangles:
                meshes[i] = _with_fault(meshes[i], fault, pos // len(meshes))
        with mock.patch.object(artigen.geometry, "CHECK_GROUP_TRIANGLES", group):
            assert _in_one_pass(meshes) == _one_by_one(meshes)

    def test_each_fault_raises_its_own_error(self):
        good = make_box((1, 1, 1))
        for fault, message in zip(_FAULTS, ("degenerate", "finite", "face_labels", "index out of range")):
            for where in range(4):
                meshes = [good, _with_fault(good, fault, where), good]
                got = _in_one_pass(meshes)
                assert got == _one_by_one(meshes)
                assert got[0] is InvalidParameterError and message in got[1], (fault, where)

    def test_the_first_failing_mesh_wins(self):
        meshes = [TriMesh._unchecked(*_box(dims), None) for dims in ((1, 1, 1), (1e-7, 1e-7, 1), (1e-9, 1e-9, 1))]
        # Both fail; the second mesh's smaller area must not be the one reported.
        assert _in_one_pass(meshes) == _one_by_one(meshes[:2]) != _one_by_one(meshes[2:])

    def test_an_overflowing_area_warns_only_where_one_by_one_does(self):
        # Areas of the huge box overflow, which warns (an error under this
        # suite's settings); one by one, the earlier degenerate box raises first.
        flat, huge = (TriMesh._unchecked(*_box(dims), None) for dims in ((1e-7, 1e-7, 1), (1e200, 1e200, 1)))
        assert _in_one_pass([flat, huge]) == _one_by_one([flat, huge])
        assert _in_one_pass([flat, huge])[0] is InvalidParameterError
        assert _in_one_pass([huge, flat]) == _one_by_one([huge, flat])
        with np.errstate(over="ignore"):  # an infinite area is not degenerate
            check_meshes([huge])

    def test_an_empty_list_and_meshes_without_triangles_pass(self):
        check_meshes([])
        check_meshes([TriMesh.empty(), TriMesh._unchecked(np.ones((2, 3)), np.zeros((0, 3), np.int64), None)])


def _degenerate_error():
    with pytest.raises(InvalidParameterError) as err:
        make_box((1e-7, 1e-7, 1e-7))
    return str(err.value)


class TestRunPrecedence:
    """A run checks its primitives when it ends, or first when anything raises
    before that, so the earliest bad primitive raises what it raised when each
    primitive was checked where it was made."""

    def test_a_degenerate_box_wins_over_a_later_bad_argument(self):
        g = NodeGraph()
        g.output_node = g.merge(g.box((1e-7, 1e-7, 1e-7)), g.box((1, -1, 1)))
        with pytest.raises(InvalidParameterError) as err:
            evaluate(g)
        assert str(err.value) == _degenerate_error()
        g = NodeGraph()
        g.output_node = g.merge(g.box((1, -1, 1)), g.box((1e-7, 1e-7, 1e-7)))
        with pytest.raises(InvalidParameterError, match="box dimensions must be positive"):
            evaluate(g)

    def test_a_degenerate_box_wins_over_a_later_overflowing_move(self):
        def far_box(g):  # a box moved twice by 1.7e308, which overflows
            placed = g.box((1, 1, 1), at=(1.7e308, 0, 0))
            moved = g.add_node("transform", {"translate_x": 1.7e308})
            g.connect(placed, moved, "geometry")
            return moved

        g = NodeGraph()
        g.output_node = g.merge(g.box((1e-7, 1e-7, 1e-7)), far_box(g))
        with np.errstate(over="ignore"), pytest.raises(InvalidParameterError) as err:
            evaluate(g)
        assert str(err.value) == _degenerate_error()
        g = NodeGraph()
        g.output_node = g.merge(far_box(g), g.box((1e-7, 1e-7, 1e-7)))
        with np.errstate(over="ignore"), pytest.raises(InvalidParameterError, match="mesh vertices must be finite"):
            evaluate(g)

    def test_a_degenerate_box_wins_over_a_later_relabel(self):
        g = NodeGraph()
        small = g.box((1e-7, 1e-7, 1e-7))
        tinier = g.box((1e-8, 1e-8, 1e-8))
        merged = g.merge(small, tinier)
        g.output_node = g.add_node("store_attribute", {"name": "part", "value": 3})
        g.connect(merged, g.output_node, "geometry")
        with pytest.raises(InvalidParameterError) as err:
            evaluate(g)
        # The relabel checks the merged mesh, whose smallest area is tinier's.
        assert str(err.value) == _degenerate_error()

    def test_more_counts_than_templates_build_and_the_cache_stays_bounded(self):
        counts = range(3, 3 + PRIMITIVE_TEMPLATES + 8)
        g = NodeGraph()
        g.output_node = g.merge(*(g.cylinder(0.1, 0.2, segments=n) for n in counts))
        (link,) = evaluate(g).links
        want = merge_meshes([reference_cylinder(0.1, 0.2, n) for n in counts])
        assert link.mesh.vertices.tobytes() == want.vertices.tobytes()
        assert link.mesh.triangles.tobytes() == want.triangles.tobytes()
        info = artigen.geometry._prism_template.cache_info()
        assert info.maxsize == PRIMITIVE_TEMPLATES
        assert info.currsize == PRIMITIVE_TEMPLATES


# ---------------------------------------------------------------------------
# intersecting_pairs with its reductions along length-3 axes, as it was
# ---------------------------------------------------------------------------

_KEPT_AXES = np.array([[1, 2], [0, 2], [0, 1]])


def _reference_edge_sides(p, q, tol):
    p0 = p[:, :, None, :]
    p1 = np.roll(p, -1, axis=1)[:, :, None, :]
    c = q[:, None, :, :]
    edge, rel = p1 - p0, c - p0
    side = edge[..., 0] * rel[..., 1] - edge[..., 1] * rel[..., 0]
    side_next = np.roll(side, -1, axis=2)
    straddles = ((side > tol) & (side_next < -tol)) | ((side < -tol) & (side_next > tol))
    in_box = np.all(
        (np.minimum(p0, p1) - tol[..., None] <= c) & (c <= np.maximum(p0, p1) + tol[..., None]),
        axis=3,
    )
    on_edge = (np.abs(side) <= tol) & in_box
    inside = np.all(side >= -tol, axis=1) | np.all(side <= tol, axis=1)
    return straddles, on_edge, inside


def _reference_coplanar_overlap(a, b, normal, eps):
    kept = _KEPT_AXES[np.argmax(np.abs(normal), axis=1)][:, None, :]
    a2, b2 = np.take_along_axis(a, kept, axis=2), np.take_along_axis(b, kept, axis=2)
    tol = eps[:, None, None]
    b_crosses, b_on_a, b_in_a = _reference_edge_sides(a2, b2, tol)
    a_crosses, a_on_b, a_in_b = _reference_edge_sides(b2, a2, tol)
    touch = b_in_a | a_in_b | np.any(b_on_a | a_on_b, axis=1)
    cross = b_crosses & a_crosses.transpose(0, 2, 1)
    return np.any(touch, axis=1) | np.any(cross, axis=(1, 2))


def _reference_plane_side(tris, origin, normal, eps):
    dist = np.einsum("nij,nj->ni", tris - origin[:, None, :], normal)
    dist = np.where(np.abs(dist) <= (eps * np.linalg.norm(normal, axis=1))[:, None], 0.0, dist)
    return dist, np.all(dist > 0, axis=1) | np.all(dist < 0, axis=1)


def _reference_crossing_interval(tris, dists, line_dir):
    proj = np.einsum("nij,nj->ni", tris, line_dir)
    d_next, p_next = np.roll(dists, -1, axis=1), np.roll(proj, -1, axis=1)
    crosses = dists * d_next < 0.0
    at = proj + (p_next - proj) * dists / np.where(crosses, dists - d_next, 1.0)
    ts = np.concatenate([proj, at], axis=1)
    hits = np.concatenate([dists == 0.0, crosses], axis=1)
    return np.where(hits, ts, np.inf).min(axis=1), np.where(hits, ts, -np.inf).max(axis=1)


def reference_intersecting_pairs(tris_a, tris_b) -> np.ndarray:
    a = np.asarray(tris_a, dtype=np.float64).reshape(-1, 3, 3)
    b = np.asarray(tris_b, dtype=np.float64).reshape(-1, 3, 3)
    eps = 1e-12 * np.maximum(1.0, np.abs(np.concatenate([a, b], axis=1)).max(axis=(1, 2)))
    na = _cross(a[:, 1] - a[:, 0], a[:, 2] - a[:, 0])
    nb = _cross(b[:, 1] - b[:, 0], b[:, 2] - b[:, 0])
    da, a_apart = _reference_plane_side(a, b[:, 0], nb, eps)
    db, b_apart = _reference_plane_side(b, a[:, 0], na, eps)
    out = ~(a_apart | b_apart)
    line = _cross(na, nb)
    norm = np.linalg.norm(line, axis=1)
    flat = out & ((np.all(da == 0.0, axis=1) & np.all(db == 0.0, axis=1)) | (norm < eps))
    rows = np.nonzero(flat)[0]
    if len(rows):
        tol = eps[rows] * np.maximum(1.0, np.linalg.norm(na[rows], axis=1))
        out[rows] = _reference_coplanar_overlap(a[rows], b[rows], na[rows], tol)
    rows = np.nonzero(out & ~flat)[0]
    line = line[rows] / norm[rows, None]
    lo_a, hi_a = _reference_crossing_interval(a[rows], da[rows], line)
    lo_b, hi_b = _reference_crossing_interval(b[rows], db[rows], line)
    tol = eps[rows] * np.abs(np.column_stack([lo_a, hi_a, lo_b, hi_b])).max(axis=1, initial=1.0)
    out[rows] = (lo_a <= hi_b + tol) & (lo_b <= hi_a + tol)
    return out


class TestIntersectingPairsReductions:
    @pytest.mark.parametrize("rows", [0, 1, 12, 48, 192, 1000])
    def test_matches_the_reference(self, rows):
        rng = np.random.default_rng(rows)
        hits = 0
        for trial in range(8):
            a = rng.normal(size=(rows, 3, 3)) * 10.0 ** rng.integers(-6, 7)
            b = a + rng.normal(scale=0.5, size=a.shape) * np.abs(a).max(initial=1.0)
            coplanar_a, coplanar_b = a.copy(), b.copy()
            coplanar_a[..., trial % 3] = coplanar_b[..., trial % 3] = 1.5
            on_vertex = b.copy()
            on_vertex[:, trial % 3] = a[:, (trial + 1) % 3]
            on_edge = b.copy()
            on_edge[:, :2] = a[:, [trial % 3, (trial + 1) % 3]]
            near_parallel = a + rng.normal(scale=1e-9, size=a.shape) * np.abs(a).max(initial=1.0)
            for ta, tb in (
                (a, b),
                (coplanar_a, coplanar_b),
                (a, on_vertex),
                (a, on_edge),
                (a, near_parallel),
                (near_parallel, a),
            ):
                got = intersecting_pairs(ta, tb)
                assert got.tolist() == reference_intersecting_pairs(ta, tb).tolist()
                hits += int(got.sum())
        assert rows == 0 or 0 < hits

    def test_matches_the_reference_at_mismatched_scales(self):
        """A unit triangle against one a million times larger, near the large
        one's plane or just past its edge, where the scale-relative
        tolerances decide: each of the four intervals' ends and both
        triangles' corners can set them."""
        rng = np.random.default_rng(7)
        rows_a, rows_b = [], []
        for k in range(400):
            big = 1e6 * rng.uniform(0.5, 2.0)
            gap = 10.0 ** rng.uniform(-9, 0)
            side = 1.0 if k % 2 else -1.0
            if k % 4 < 2:  # a straddles b's plane y = 0, just past b's edge x = 0
                b = [[0, 0, -big], [0, 0, big], [side * 2 * big, 0, 0]]
                a = [[-side * (gap + 0.5), -1, 0], [-side * (gap + 0.5), 1, 0], [-side * gap, 0, 0.5]]
            else:  # a's lowest corner sits a gap above b's plane z = 0
                b = [[-big, -big, 0], [big, -big, 0], [0, big, 0]]
                a = [[0, 0, gap], [1, 0, gap + 1], [0, 1, gap + 0.5]]
            a = np.array(a) + rng.normal(scale=1e-3, size=(3, 3)) * (k % 3 == 0)
            rows_a.append(a)
            rows_b.append(np.array(b, dtype=float))
        a, b = np.array(rows_a), np.array(rows_b)
        for ta, tb in ((a, b), (b, a), (a[:, ::-1], b), (b, a[:, ::-1])):
            got = intersecting_pairs(ta, tb)
            assert got.tolist() == reference_intersecting_pairs(ta, tb).tolist()
            assert 0 < got.sum() < len(got)

