import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import artigen.geometry
from artigen.errors import DegeneracyError, InvalidParameterError
from artigen.geometry import (
    DEGENERATE_AREA,
    Aabb,
    RigidTransform,
    TriMesh,
    apply_transform,
    convex_hull,
    format_float,
    intersecting_pairs,
    make_box,
    make_cylinder,
    make_ngon_prism,
    make_rounded_box,
    make_sphere,
    merge_meshes,
    mesh_volume,
    obj_text,
    parse_obj,
    triangle_areas,
    triangles_intersect,
)


def signed_volume_oracle(mesh):
    # Independent of mesh_volume: sum tetrahedra against a shifted origin.
    origin = np.array([0.123, -0.456, 0.789])
    total = 0.0
    for tri in mesh.triangles:
        a, b, c = (mesh.vertices[i] - origin for i in tri)
        total += np.dot(a, np.cross(b, c)) / 6.0
    return total


class TestBox:
    def test_unit_cube_counts_and_aabb(self):
        m = make_box((1, 1, 1))
        assert m.n_vertices == 8
        assert m.n_triangles == 12
        box = m.aabb()
        np.testing.assert_allclose(box.min, [-0.5, -0.5, -0.5])
        np.testing.assert_allclose(box.max, [0.5, 0.5, 0.5])

    def test_flat_box_extents(self):
        m = make_box((2, 1, 0.1))
        np.testing.assert_allclose(m.aabb().extents, [2, 1, 0.1])

    @pytest.mark.parametrize("dims", [(1, 1, 1), (2, 1, 0.1), (0.3, 0.7, 1.9)])
    def test_surface_area_matches_analytic(self, dims):
        a, b, c = dims
        m = make_box(dims)
        area = triangle_areas(m.triangle_corners()).sum()
        assert area == pytest.approx(2 * (a * b + b * c + c * a), rel=1e-12)

    @pytest.mark.parametrize("dims", [(1, 1, 1), (0.2, 0.5, 2.0)])
    def test_volume_positive_and_exact(self, dims):
        m = make_box(dims)
        assert signed_volume_oracle(m) == pytest.approx(np.prod(dims), rel=1e-12)

    def test_nonpositive_dimension_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_box((1, 0, 1))
        with pytest.raises(InvalidParameterError):
            make_box((1, -2, 1))


class TestCylinder:
    def test_aabb(self):
        m = make_cylinder(0.5, 1, 32)
        np.testing.assert_allclose(m.aabb().min, [-0.5, -0.5, -0.5], atol=1e-12)
        np.testing.assert_allclose(m.aabb().max, [0.5, 0.5, 0.5], atol=1e-12)

    def test_triangle_count(self):
        for s in (3, 8, 32):
            assert make_cylinder(0.3, 0.8, s).n_triangles == 4 * s

    def test_volume_within_one_percent(self):
        r, h = 0.37, 1.21
        m = make_cylinder(r, h, 32)
        assert signed_volume_oracle(m) == pytest.approx(math.pi * r * r * h, rel=0.01)

    def test_too_few_segments(self):
        with pytest.raises(InvalidParameterError):
            make_cylinder(0.5, 1, 2)


class TestRoundedBox:
    def test_zero_bevel_is_box(self):
        a = make_rounded_box((1, 1, 1), 0.0)
        b = make_box((1, 1, 1))
        assert sorted(map(tuple, a.vertices.tolist())) == sorted(map(tuple, b.vertices.tolist()))

    def test_bevel_keeps_aabb_and_convexity(self):
        m = make_rounded_box((1, 1, 1), 0.1)
        np.testing.assert_allclose(m.aabb().extents, [1, 1, 1], atol=1e-12)
        hull = convex_hull(m)
        assert hull.n_vertices == m.n_vertices  # already convex: hull keeps every vertex

    def test_volume_less_than_box(self):
        m = make_rounded_box((1, 1, 1), 0.1)
        assert 0.9 < signed_volume_oracle(m) < 1.0

    def test_bevel_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            make_rounded_box((1, 1, 1), 0.6)
        with pytest.raises(InvalidParameterError):
            make_rounded_box((1, 1, 1), -0.01)


class TestPrismSphere:
    def test_ngon_prism_taper(self):
        m = make_ngon_prism(0.2, 0.5, 8, top_radius=0.1)
        top = m.vertices[m.vertices[:, 2] > 0.2]
        rims = top[np.linalg.norm(top[:, :2], axis=1) > 1e-9]
        assert np.allclose(np.linalg.norm(rims[:, :2], axis=1), 0.1)

    def test_sphere_volume(self):
        r = 0.4
        m = make_sphere(r, 32)
        assert signed_volume_oracle(m) == pytest.approx(4 / 3 * math.pi * r**3, rel=0.02)


class TestTransform:
    def test_identity_bit_identical(self):
        m = make_box((1, 1, 1))
        out = apply_transform(m, RigidTransform.identity())
        assert np.array_equal(out.vertices, m.vertices)

    def test_translation_shifts_aabb(self):
        m = make_box((1, 1, 1))
        out = apply_transform(m, RigidTransform.from_translation((1, 0, 0)))
        np.testing.assert_allclose(out.aabb().center, [1, 0, 0], atol=1e-12)

    def test_rotation_round_trip(self):
        m = make_box((1, 2, 3))
        fwd = RigidTransform.from_axis_angle((0, 0, 1), math.pi / 2)
        back = RigidTransform.from_axis_angle((0, 0, 1), -math.pi / 2)
        out = apply_transform(apply_transform(m, fwd), back)
        assert np.abs(out.vertices - m.vertices).max() < 1e-9

    def test_rigidity_preserves_distances(self):
        rng = random.Random(7)
        m = make_box((0.4, 1.3, 0.9))
        for _ in range(25):
            axis = [rng.uniform(-1, 1) for _ in range(3)]
            if all(abs(a) < 1e-3 for a in axis):
                continue
            t = RigidTransform.from_axis_angle(
                axis, rng.uniform(-math.pi, math.pi), pivot=[rng.uniform(-2, 2) for _ in range(3)]
            )
            out = apply_transform(m, t)
            d_before = np.linalg.norm(m.vertices[:, None] - m.vertices[None, :], axis=-1)
            d_after = np.linalg.norm(out.vertices[:, None] - out.vertices[None, :], axis=-1)
            assert np.abs(d_before - d_after).max() < 1e-9

    def test_compose_and_inverse(self):
        t1 = RigidTransform.from_axis_angle((0, 1, 0), 0.7, pivot=(1, 2, 3))
        t2 = RigidTransform.from_axis_angle((1, 0, 0), -0.3, pivot=(0, 0, 1))
        p = np.array([0.2, -0.4, 0.9])
        np.testing.assert_allclose((t1 @ t2).apply(p), t1.apply(t2.apply(p)), atol=1e-12)
        undo = RigidTransform.from_axis_angle((0, 1, 0), -0.7, pivot=(1, 2, 3))
        np.testing.assert_allclose((t1 @ undo).rotation, [1, 0, 0, 0], atol=1e-12)
        np.testing.assert_allclose((t1 @ undo).translation, [0, 0, 0], atol=1e-12)

    def test_rotation_about_pivot(self):
        t = RigidTransform.from_axis_angle((0, 0, 1), math.pi / 2, pivot=(1, 0, 0))
        np.testing.assert_allclose(t.apply(np.array([2.0, 0.0, 0.0])), [1, 1, 0], atol=1e-9)

    def test_overflowing_translation_rejected(self):
        m = TriMesh([(1e308, 0, 0), (1e308, 1, 0), (1e308, 0, 1)], [(0, 1, 2)])
        with np.errstate(over="ignore"), pytest.raises(InvalidParameterError, match="finite"):
            apply_transform(m, RigidTransform.from_translation((1e308, 0, 0)))


class TestMerge:
    def test_single_is_same(self):
        m = make_box((1, 1, 1))
        out = merge_meshes([m])
        assert np.array_equal(out.vertices, m.vertices)
        assert np.array_equal(out.triangles, m.triangles)

    def test_counts_add(self):
        m = make_box((1, 1, 1))
        out = merge_meshes([m, m])
        assert out.n_vertices == 16
        assert out.n_triangles == 24

    def test_labels_preserved(self):
        a = make_box((1, 1, 1)).with_labels(np.full(12, 3))
        b = apply_transform(make_box((1, 1, 1)), RigidTransform.from_translation((2, 0, 0)))
        b = b.with_labels(np.full(12, 5))
        out = merge_meshes([a, b])
        assert sorted(out.face_labels.tolist()) == [3] * 12 + [5] * 12

    def test_empty_list_rejected(self):
        with pytest.raises(InvalidParameterError):
            merge_meshes([])


# --- triangle intersection oracle -----------------------------------------


def _edge_pierces_triangle(p0, p1, tri, eps=1e-12):
    n = np.cross(tri[1] - tri[0], tri[2] - tri[0])
    d0 = np.dot(p0 - tri[0], n)
    d1 = np.dot(p1 - tri[0], n)
    if d0 * d1 > 0:
        return False
    if d0 == d1:
        return False
    t = d0 / (d0 - d1)
    point = p0 + t * (p1 - p0)
    # barycentric containment
    v0, v1 = tri[1] - tri[0], tri[2] - tri[0]
    v2 = point - tri[0]
    d00, d01, d11 = np.dot(v0, v0), np.dot(v0, v1), np.dot(v1, v1)
    d20, d21 = np.dot(v2, v0), np.dot(v2, v1)
    denom = d00 * d11 - d01 * d01
    if abs(denom) < eps:
        return False
    v = (d11 * d20 - d01 * d21) / denom
    w = (d00 * d21 - d01 * d20) / denom
    return v >= -1e-9 and w >= -1e-9 and v + w <= 1 + 1e-9


def intersection_oracle(a, b):
    """Edge-piercing test in both directions; independent of the interval method."""
    for i in range(3):
        if _edge_pierces_triangle(a[i], a[(i + 1) % 3], b):
            return True
        if _edge_pierces_triangle(b[i], b[(i + 1) % 3], a):
            return True
    return False


def random_triangle(rng, scale=1.0, offset=(0, 0, 0)):
    while True:
        t = np.array([[rng.uniform(-scale, scale) for _ in range(3)] for _ in range(3)])
        t += np.asarray(offset, dtype=float)
        area = 0.5 * np.linalg.norm(np.cross(t[1] - t[0], t[2] - t[0]))
        if area > 1e-6:
            return t


class TestTriangleIntersection:
    def test_crossing_true(self):
        a = np.array([[0, -1, 0], [0, 1, 0], [0, 0, 2]], dtype=float)
        b = np.array([[-1, 0, 1], [1, 0, 1], [0, 0.01, 1]], dtype=float)
        assert triangles_intersect(a, b)

    def test_separated_false(self):
        a = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
        b = a + np.array([0, 0, 1.0])
        assert not triangles_intersect(a, b)

    def test_shared_vertex_counts(self):
        a = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
        b = np.array([[0, 0, 0], [-1, 0, 1], [0, -1, 1]], dtype=float)
        assert triangles_intersect(a, b)

    def test_coplanar_overlap_and_disjoint(self):
        a = np.array([[0, 0, 0], [2, 0, 0], [0, 2, 0]], dtype=float)
        b = np.array([[0.5, 0.5, 0], [1.5, 0.5, 0], [0.5, 1.5, 0]], dtype=float)
        c = np.array([[5, 5, 0], [6, 5, 0], [5, 6, 0]], dtype=float)
        assert triangles_intersect(a, b)
        assert not triangles_intersect(a, c)

    def test_coplanar_stack_hand_known(self):
        # Every row lies in the plane z = 0; b varies against one triangle a.
        a = [[0, 0], [2, 0], [0, 2]]
        cases = [
            ([[0.5, 0.5], [3, 0.5], [0.5, 3]], True),  # overlapping
            ([[2, 0], [3, 0], [3, 1]], True),  # touching at a corner
            ([[1, 1], [3, 1], [1, 3]], True),  # b's corner on a's edge
            ([[2, 0], [0, 2], [2, 2]], True),  # sharing an edge
            ([[3, 0], [5, 0], [4, -1]], False),  # collinear edges, apart
            ([[3, 3], [4, 3], [3, 4]], False),  # disjoint
        ]
        flat_a = np.array([a] * len(cases), dtype=float)
        flat_b = np.array([b for b, _ in cases], dtype=float)
        rows_a = np.concatenate([flat_a, np.zeros((len(cases), 3, 1))], axis=2)
        rows_b = np.concatenate([flat_b, np.zeros((len(cases), 3, 1))], axis=2)
        want = [hit for _, hit in cases]
        # The rolled copies lie in x = 0 and y = 0, so each axis gets dropped once.
        for roll in range(3):
            ra, rb = np.roll(rows_a, roll, axis=2), np.roll(rows_b, roll, axis=2)
            assert intersecting_pairs(ra, rb).tolist() == want, roll
            assert intersecting_pairs(rb, ra).tolist() == want, roll

    def test_degenerate_rejected(self):
        a = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float)
        b = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
        with pytest.raises(InvalidParameterError):
            triangles_intersect(a, b)

    def test_agrees_with_sampling_oracle(self):
        rng = random.Random(42)
        mismatches = 0
        for k in range(10_000):
            # mix of near and far pairs so both outcomes are exercised
            off = (0, 0, 0) if k % 2 == 0 else (rng.uniform(1.5, 3), 0, 0)
            a = random_triangle(rng)
            b = random_triangle(rng, offset=off)
            got = triangles_intersect(a, b)
            want = intersection_oracle(a, b)
            if got != want:
                mismatches += 1
        assert mismatches == 0

    def test_batch_matches_single_rows(self):
        rng = random.Random(11)
        rows_a, rows_b = [], []
        for k in range(2000):
            a = random_triangle(rng)
            kind = k % 4
            if kind == 0:  # near
                b = random_triangle(rng)
            elif kind == 1:  # far
                b = random_triangle(rng, offset=(rng.uniform(1.5, 3), 0, 0))
            elif kind == 2:  # touching: b shares one corner of a
                b = random_triangle(rng)
                b[rng.randrange(3)] = a[rng.randrange(3)]
            else:  # coplanar: b lies in a's plane
                u, v = a[1] - a[0], a[2] - a[0]
                b = np.array(
                    [a[0] + rng.uniform(-1, 1) * u + rng.uniform(-1, 1) * v for _ in range(3)]
                )
                if np.linalg.norm(np.cross(b[1] - b[0], b[2] - b[0])) < 1e-6:
                    b = a + 0.1 * u
            rows_a.append(a)
            rows_b.append(b)
        got = intersecting_pairs(np.array(rows_a), np.array(rows_b))
        want = [triangles_intersect(a, b) for a, b in zip(rows_a, rows_b)]
        assert got.dtype == bool
        assert got.tolist() == want
        assert 0 < sum(want) < len(want)

    def test_symmetry(self):
        rng = random.Random(3)
        for _ in range(500):
            a = random_triangle(rng)
            b = random_triangle(rng)
            assert triangles_intersect(a, b) == triangles_intersect(b, a)


class TestConvexHull:
    def test_cube_hull(self):
        hull = convex_hull(make_box((1, 1, 1)))
        assert hull.n_vertices == 8

    def test_interior_point_dropped(self):
        pts = np.vstack([make_box((1, 1, 1)).vertices, [[0, 0, 0]]])
        hull = convex_hull(pts)
        assert hull.n_vertices == 8
        assert not any(np.allclose(v, [0, 0, 0]) for v in hull.vertices)

    def test_containment(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(200, 3))
        hull = convex_hull(pts)
        corners = hull.triangle_corners()
        normals = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        offsets = np.einsum("ij,ij->i", normals, corners[:, 0])
        dists = pts @ normals.T - offsets
        assert dists.max() <= 1e-9

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        hull = convex_hull(rng.normal(size=(60, 3)))
        again = convex_hull(hull)
        assert sorted(map(tuple, hull.vertices.tolist())) == sorted(map(tuple, again.vertices.tolist()))

    def test_outward_normals_via_volume(self):
        rng = np.random.default_rng(8)
        hull = convex_hull(rng.normal(size=(50, 3)))
        assert mesh_volume(hull) > 0

    def test_coplanar_rejected(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0.3, 0.2, 0]])
        with pytest.raises(DegeneracyError):
            convex_hull(pts)


def _hull_of_random_points():
    return convex_hull(np.random.default_rng(21).normal(size=(80, 3)))


WINDING_SHAPES = {
    "box": lambda: make_box((0.4, 1.0, 2.5)),
    "rounded_box_small_bevel": lambda: make_rounded_box((0.4, 1.0, 2.5), 0.01),
    "rounded_box_near_max_bevel": lambda: make_rounded_box((0.4, 1.0, 2.5), 0.1999),
    "prism": lambda: make_ngon_prism(0.3, 0.8, 6),
    "tapered_prism": lambda: make_ngon_prism(0.3, 0.8, 7, top_radius=0.05),
    "cylinder": lambda: make_cylinder(0.25, 1.5, 24),
    "sphere": lambda: make_sphere(0.6, 12),
    "hull": _hull_of_random_points,
}


class TestWinding:
    @pytest.mark.parametrize("shape", sorted(WINDING_SHAPES))
    def test_faces_point_away_from_centroid(self, shape):
        mesh = WINDING_SHAPES[shape]()
        corners = mesh.triangle_corners()
        normals = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
        away = corners.mean(axis=1) - mesh.vertices.mean(axis=0)
        assert np.einsum("ij,ij->i", normals, away).min() > 0.0

    def test_hull_rows_in_canonical_order(self):
        tris = _hull_of_random_points().triangles
        assert np.array_equal(tris[:, 0], tris.min(axis=1))
        assert tris.tolist() == sorted(tris.tolist())

    def test_orientation_is_one_array_step(self, monkeypatch):
        # The cross routine runs once to orient and once to validate the mesh, never once per facet.
        calls = []
        cross = artigen.geometry._cross

        def counting_cross(*args, **kwargs):
            calls.append(1)
            return cross(*args, **kwargs)

        monkeypatch.setattr(artigen.geometry, "_cross", counting_cross)
        rng = np.random.default_rng(4)
        counts = []
        for n in (50, 500):
            points = rng.normal(size=(n, 3))
            calls.clear()
            convex_hull(points)
            counts.append(len(calls))
        assert counts[0] == counts[1]
        calls.clear()
        make_rounded_box((1.0, 0.5, 0.3), 0.05)
        assert len(calls) <= 2


class TestTriangleAreas:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 1000])
    def test_bit_equal_to_np_cross_and_norm(self, n):
        # The degenerate-triangle check must decide exactly as it did with np.cross.
        rng = np.random.default_rng(n)
        corners = rng.normal(size=(n, 3, 3)) * 10.0 ** rng.uniform(-6, 6, size=(n, 1, 1))
        ref = 0.5 * np.linalg.norm(np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]), axis=1)
        assert np.array_equal(triangle_areas(corners), ref)
        a, b = corners[:, 0], corners[:, 1]
        cross = artigen.geometry._cross(a, b)
        assert np.array_equal(cross, np.cross(a, b))
        # Same layout too: einsum sums over a transposed stack round differently.
        assert np.array_equal(np.einsum("ij,ij->i", a, cross), np.einsum("ij,ij->i", a, np.cross(a, b)))

    def test_threshold_is_inclusive(self):
        # Area 0.5 * 2e-6 * 1e-6 is exactly DEGENERATE_AREA, so it is rejected.
        at = np.array([[0.0, 0, 0], [2e-6, 0, 0], [0, 1e-6, 0]])
        with pytest.raises(InvalidParameterError, match="degenerate"):
            TriMesh(at, [[0, 1, 2]])
        with pytest.raises(InvalidParameterError, match="degenerate"):
            parse_obj("v 0 0 0\nv 2e-06 0 0\nv 0 1e-06 0\nf 1 2 3\n")
        mesh = TriMesh(at * [1.0, 1.001, 1.0], [[0, 1, 2]])
        assert triangle_areas(mesh.triangle_corners())[0] > DEGENERATE_AREA


def _reference_obj_text(mesh, name):
    lines = [f"o {name}"]
    for x, y, z in mesh.vertices.tolist():
        lines.append("v " + " ".join(format_float(v) for v in (x, y, z)))
    for a, b, c in (mesh.triangles + 1).tolist():
        lines.append(f"f {a} {b} {c}")
    return "\n".join(lines) + "\n"


# Zeros of both signs, subnormals, tiny negatives, and values nine digits move by more than 5e-10.
_OBJ_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, -1e-300, -2.5e-310, 1e-4, 9.99e-5]),
    st.floats(min_value=-1e-9, max_value=1e-9),
    st.floats(min_value=-1e12, max_value=1e12),
)


class TestObj:
    @settings(deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(0, 12), st.just(3)), elements=_OBJ_FLOATS))
    def test_vertex_records_match_per_value_format(self, vertices):
        mesh = TriMesh(vertices, np.zeros((0, 3), dtype=np.int64))
        assert obj_text(mesh, "v") == _reference_obj_text(mesh, "v")

    @pytest.mark.parametrize("shape", sorted(WINDING_SHAPES))
    def test_shapes_match_per_value_format(self, shape):
        mesh = WINDING_SHAPES[shape]()
        assert obj_text(mesh, shape) == _reference_obj_text(mesh, shape)

    def test_names_differ_only_in_object_line(self):
        mesh = make_sphere(0.4, 10)
        first, second = obj_text(mesh, "first"), obj_text(mesh, "second_name")
        assert first.split("\n", 1) == ["o first", second.split("\n", 1)[1]]
        assert second.startswith("o second_name\n")

    def test_round_trip_and_determinism(self):
        m = make_cylinder(0.3, 0.9, 16)
        text = obj_text(m, "part")
        assert text == obj_text(m, "part")
        back = parse_obj(text)
        assert np.abs(back.vertices - m.vertices).max() < 1e-8
        assert np.array_equal(back.triangles, m.triangles)

    def test_one_based_indices(self):
        text = obj_text(make_box((1, 1, 1)), "box")
        f_lines = [l for l in text.splitlines() if l.startswith("f ")]
        assert min(int(tok) for l in f_lines for tok in l.split()[1:]) == 1


class TestFormatFloat:
    def test_policy(self):
        assert format_float(0.0) == "0"
        assert format_float(1.5) == "1.5"
        assert format_float(0.001) == "0.001"
        assert "e" not in format_float(123456.789)

    def test_plain_decimal_range(self):
        # %.9g prints plain decimals for |x| in [1e-4, 1e9) and exponents outside.
        assert format_float(1e-4) == "0.0001"
        assert format_float(9.99e-5) == "9.99e-05"
        assert format_float(123456789.0) == "123456789"
        assert format_float(1e9) == "1e+09"

    def test_nine_digits(self):
        assert format_float(1 / 3) == "0.333333333"
        assert format_float(-1.23456789012) == "-1.23456789"


class TestAabb:
    def test_union_overlap_contains(self):
        a = Aabb(np.array([0, 0, 0.0]), np.array([1, 1, 1.0]))
        b = Aabb(np.array([0.5, 0.5, 0.5]), np.array([2, 2, 2.0]))
        assert a.overlaps(b)
        u = Aabb.from_points([a.min, a.max, b.min, b.max])
        np.testing.assert_array_equal(u.min, [0, 0, 0])
        np.testing.assert_array_equal(u.max, [2, 2, 2])
        far = Aabb(np.array([5, 5, 5.0]), np.array([6, 6, 6.0]))
        assert not a.overlaps(far)
        assert a.overlaps(far, margin=10)

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            Aabb(np.array([1, 0, 0.0]), np.array([0, 1, 1.0]))


class TestMeshValidation:
    def test_bad_index(self):
        with pytest.raises(InvalidParameterError):
            TriMesh(np.zeros((3, 3)), np.array([[0, 1, 5]]))

    def test_degenerate_triangle(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0.0]])
        with pytest.raises(InvalidParameterError):
            TriMesh(verts, np.array([[0, 1, 2]]))

    def test_label_length(self):
        m = make_box((1, 1, 1))
        with pytest.raises(InvalidParameterError):
            TriMesh(m.vertices, m.triangles, np.array([1, 2]))
