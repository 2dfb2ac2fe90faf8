"""Triangle meshes, rigid transforms, parametric primitives, and intersection tests.

Conventions: right-handed coordinates, Z up, meters and radians everywhere.
All types are immutable values; every function here is a pure function of its
arguments, so meshes can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import DegeneracyError, InvalidParameterError

# Triangles with less area than this are rejected as degenerate.
DEGENERATE_AREA = 1e-12

# Default tessellation for round primitives.
DEFAULT_SEGMENTS = 32

_UNIT_TOL = 1e-9


def _check_finite(arr, what):
    if not np.all(np.isfinite(arr)):
        raise InvalidParameterError(f"{what} must be finite, got {arr!r}")


def as_vec3(value) -> np.ndarray:
    """Coerce a tuple/list/array into a finite float64 array of shape (3,)."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape != (3,):
        raise InvalidParameterError(f"expected a 3-vector, got shape {arr.shape}")
    _check_finite(arr, "vector")
    return arr


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of quaternions (4,), or row by row of quaternions (n, 4)."""
    aw, ax, ay, az = a.T
    bw, bx, by, bz = b.T
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    ).T


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix (3, 3) of a unit quaternion (4,), or matrices (n, 3, 3) of (n, 4)."""
    w, x, y, z = q.T
    m = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )
    return m if m.ndim == 2 else m.transpose(2, 0, 1)


@dataclass(frozen=True)
class RigidTransform:
    """Rotation (unit quaternion, w-first) followed by translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.rotation, dtype=np.float64).reshape(4)
        t = as_vec3(self.translation)
        norm = float(np.linalg.norm(q))
        if abs(norm - 1.0) > 1e-6:
            raise InvalidParameterError(f"quaternion norm {norm} too far from 1")
        q = q / norm
        if q[0] < 0.0:  # canonical sign for determinism
            q = -q
        object.__setattr__(self, "rotation", q)
        object.__setattr__(self, "translation", t)
        for a in (q, t):
            a.flags.writeable = False

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))

    @staticmethod
    def from_translation(t) -> "RigidTransform":
        return RigidTransform(np.array([1.0, 0.0, 0.0, 0.0]), as_vec3(t))

    @staticmethod
    def from_axis_angle(axis, angle: float, pivot=None) -> "RigidTransform":
        """Rotation of `angle` about `axis`; about `pivot` instead of the origin if given."""
        axis = as_vec3(axis)
        n = np.linalg.norm(axis)
        if n < _UNIT_TOL:
            raise InvalidParameterError("rotation axis must be nonzero")
        axis = axis / n
        half = 0.5 * float(angle)
        q = np.concatenate(([math.cos(half)], math.sin(half) * axis))
        rot = RigidTransform(q, np.zeros(3))
        if pivot is None:
            return rot
        pivot = as_vec3(pivot)
        return RigidTransform(q, pivot - rot.apply(pivot))

    def rotation_matrix(self) -> np.ndarray:
        return quat_to_matrix(self.rotation)

    def apply(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        out = pts @ self.rotation_matrix().T + self.translation
        return out[0] if single else out

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """self applied after other: (self @ other)(p) == self(other(p))."""
        q = quat_multiply(self.rotation, other.rotation)
        t = self.apply(other.translation)
        return RigidTransform(q, t)

    def __matmul__(self, other: "RigidTransform") -> "RigidTransform":
        return self.compose(other)

    def inverse(self) -> "RigidTransform":
        q_inv = self.rotation * np.array([1.0, -1.0, -1.0, -1.0])
        rot = RigidTransform(q_inv, np.zeros(3))
        return RigidTransform(q_inv, -rot.apply(self.translation))

    def almost_equal(self, other: "RigidTransform", tol: float = 1e-9) -> bool:
        dq = min(
            np.abs(self.rotation - other.rotation).max(),
            np.abs(self.rotation + other.rotation).max(),
        )
        return dq <= tol and np.abs(self.translation - other.translation).max() <= tol


@dataclass(frozen=True)
class Aabb:
    """Axis-aligned bounding box."""

    min: np.ndarray
    max: np.ndarray

    def __post_init__(self):
        lo = as_vec3(self.min)
        hi = as_vec3(self.max)
        if np.any(lo > hi):
            raise InvalidParameterError("Aabb min must be <= max componentwise")
        object.__setattr__(self, "min", lo)
        object.__setattr__(self, "max", hi)
        lo.flags.writeable = False
        hi.flags.writeable = False

    @staticmethod
    def from_points(points) -> "Aabb":
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        if pts.shape[0] == 0:
            raise InvalidParameterError("cannot bound an empty point set")
        return Aabb(pts.min(axis=0), pts.max(axis=0))

    @property
    def extents(self) -> np.ndarray:
        return self.max - self.min

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.min + self.max)

    def union(self, other: "Aabb") -> "Aabb":
        return Aabb(np.minimum(self.min, other.min), np.maximum(self.max, other.max))

    def overlaps(self, other: "Aabb", margin: float = 0.0) -> bool:
        return bool(
            np.all(self.min <= other.max + margin) and np.all(other.min <= self.max + margin)
        )

    def contains(self, other: "Aabb", tol: float = 0.0) -> bool:
        return bool(np.all(self.min - tol <= other.min) and np.all(other.max <= self.max + tol))


@dataclass(frozen=True)
class TriMesh:
    """Indexed triangle mesh with optional per-face part labels and a material tag.

    `face_labels` uses -1 for unlabeled faces. Vertices are metres in some
    link-local or construction frame; triangle winding is counter-clockwise
    seen from outside.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    face_labels: np.ndarray | None = None
    material_tag: str | None = None

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        tris = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        _check_finite(verts, "mesh vertices")
        if tris.size and (tris.min() < 0 or tris.max() >= len(verts)):
            raise InvalidParameterError("triangle index out of range")
        labels = self.face_labels
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64).reshape(-1)
            if len(labels) != len(tris):
                raise InvalidParameterError("face_labels length must equal triangle count")
            labels.flags.writeable = False
        if tris.size:
            areas = triangle_areas(verts[tris])
            if areas.min() <= DEGENERATE_AREA:
                raise InvalidParameterError(
                    f"degenerate triangle with area {areas.min():.3e} <= {DEGENERATE_AREA}"
                )
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "triangles", tris)
        object.__setattr__(self, "face_labels", labels)
        verts.flags.writeable = False
        tris.flags.writeable = False

    @staticmethod
    def empty() -> "TriMesh":
        return TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def is_empty(self) -> bool:
        return len(self.vertices) == 0

    def aabb(self) -> Aabb:
        return Aabb.from_points(self.vertices)

    def triangle_areas(self) -> np.ndarray:
        return triangle_areas(self.triangle_corners())

    def surface_area(self) -> float:
        return float(self.triangle_areas().sum())

    def triangle_corners(self) -> np.ndarray:
        """All triangles as an (n, 3, 3) corner array."""
        return self.vertices[self.triangles]

    def with_labels(self, labels) -> "TriMesh":
        return TriMesh(self.vertices, self.triangles, labels, self.material_tag)

    def fill_unlabeled(self, label: int) -> "TriMesh":
        """Assign `label` to every face that does not carry a label yet."""
        if self.face_labels is None:
            labels = np.full(self.n_triangles, label, dtype=np.int64)
        else:
            labels = np.where(self.face_labels < 0, label, self.face_labels)
        return self.with_labels(labels)


def triangle_areas(corners: np.ndarray) -> np.ndarray:
    """Areas of the triangles in an (n, 3, 3) corner array."""
    cross = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
    return 0.5 * np.linalg.norm(cross, axis=1)


def mesh_volume(mesh: TriMesh) -> float:
    """Signed volume of a closed, outward-oriented mesh (divergence theorem)."""
    corners = mesh.triangle_corners()
    return float(np.einsum("ij,ij->i", corners[:, 0], np.cross(corners[:, 1], corners[:, 2])).sum() / 6.0)


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


def _orient_outward(verts: np.ndarray, tris: np.ndarray, outward: np.ndarray) -> np.ndarray:
    """Triangles (n, 3) with the last two corners swapped wherever the normal
    opposes its row of `outward` (n, 3), so every winding is counter-clockwise
    seen from outside."""
    corners = verts[tris]
    normals = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
    flip = np.einsum("ij,ij->i", normals, outward) < 0.0
    return np.where(flip[:, None], tris[:, [0, 2, 1]], tris)


# Splits each counter-clockwise quad (a, b, c, d) into triangles (a, b, c) and (a, c, d).
_QUAD_TRIANGLES = [0, 1, 2, 0, 2, 3]


def make_box(dimensions, material_tag: str | None = None) -> TriMesh:
    """Axis-aligned box centered at the origin: 8 vertices, 12 triangles."""
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
    # -Z, +Z, -Y, +Y, +X, -X faces, each counter-clockwise seen from outside.
    quads = np.array(
        [[0, 3, 2, 1], [4, 5, 6, 7], [0, 1, 5, 4], [2, 3, 7, 6], [1, 2, 6, 5], [3, 0, 4, 7]]
    )
    return TriMesh(verts, quads[:, _QUAD_TRIANGLES].reshape(-1, 3), material_tag=material_tag)


def make_ngon_prism(
    radius: float,
    height: float,
    sides: int,
    top_radius: float | None = None,
    material_tag: str | None = None,
) -> TriMesh:
    """Closed prism along +Z centered at the origin, optionally tapered toward the top."""
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
        tris.append((bc, b0 + k1, b0 + k))  # bottom cap, outward -Z
        tris.append((tc, t0 + k, t0 + k1))  # top cap, outward +Z
        tris.append((b0 + k, b0 + k1, t0 + k))
        tris.append((b0 + k1, t0 + k1, t0 + k))
    return TriMesh(verts, np.array(tris), material_tag=material_tag)


def make_cylinder(
    radius: float, height: float, segments: int = DEFAULT_SEGMENTS, material_tag: str | None = None
) -> TriMesh:
    """Closed cylinder along +Z centered at the origin; 4*segments triangles."""
    if segments < 3:
        raise InvalidParameterError(f"cylinder needs at least 3 segments, got {segments}")
    return make_ngon_prism(radius, height, segments, material_tag=material_tag)


def make_sphere(radius: float, segments: int = DEFAULT_SEGMENTS, material_tag: str | None = None) -> TriMesh:
    """UV sphere centered at the origin."""
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

    def ring_start(i):  # ring index 1..rings-1
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
    return TriMesh(verts, np.array(tris), material_tag=material_tag)


def make_rounded_box(dimensions, bevel: float, material_tag: str | None = None) -> TriMesh:
    """Box with one 45-degree chamfer loop on all 12 edges; bevel=0 is exactly make_box."""
    dims = as_vec3(dimensions)
    if np.any(dims <= 0):
        raise InvalidParameterError(f"box dimensions must be positive, got {dims}")
    bevel = float(bevel)
    if bevel < 0 or bevel >= float(dims.min()) / 2.0:
        raise InvalidParameterError(
            f"bevel must satisfy 0 <= bevel < min(dimensions)/2, got {bevel}"
        )
    if bevel == 0.0:
        return make_box(dims, material_tag=material_tag)
    h = dims / 2.0
    corners = np.array([(sx, sy, sz) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])
    # Vertex 3 * c + a lies on corner c's face normal to axis a, inset by the bevel
    # along the other two axes.
    verts = np.repeat(corners * (h - bevel), 3, axis=0)
    verts[np.arange(24), np.tile(np.arange(3), 8)] = (corners * h).ravel()

    def vertex(s, axis):  # the vertex of the corner with signs `s` on its `axis` face
        return 3 * (((s[0] + 1) // 2) * 4 + ((s[1] + 1) // 2) * 2 + (s[2] + 1) // 2) + axis

    quads, outward = [], []
    for axis in range(3):  # six shrunk faces
        u, w = (axis + 1) % 3, (axis + 2) % 3
        for sign in (-1, 1):
            ids = []
            for su, sw in ((-1, -1), (1, -1), (1, 1), (-1, 1)):
                s = [0, 0, 0]
                s[axis], s[u], s[w] = sign, su, sw
                ids.append(vertex(s, axis))
            out = [0, 0, 0]
            out[axis] = sign
            quads.append(ids)
            outward.append(out)
    for axis in range(3):  # twelve edge chamfers along `axis`
        u, w = (axis + 1) % 3, (axis + 2) % 3
        for su in (-1, 1):
            for sw in (-1, 1):
                lo, hi = [0, 0, 0], [0, 0, 0]
                lo[axis], lo[u], lo[w] = -1, su, sw
                hi[axis], hi[u], hi[w] = 1, su, sw
                out = [0, 0, 0]
                out[u], out[w] = su, sw
                quads.append([vertex(lo, u), vertex(lo, w), vertex(hi, w), vertex(hi, u)])
                outward.append(out)
    # Two triangles per quad, then the eight corner triangles.
    quad_tris = np.array(quads)[:, _QUAD_TRIANGLES].reshape(-1, 3)
    tris = np.vstack([quad_tris, np.arange(24).reshape(8, 3)])
    outward = np.vstack([np.repeat(outward, 2, axis=0), corners])
    return TriMesh(verts, _orient_outward(verts, tris, outward), material_tag=material_tag)


def apply_transform(mesh: TriMesh, transform: RigidTransform) -> TriMesh:
    """Rigidly transform every vertex; topology, labels, and winding are preserved."""
    return TriMesh(
        transform.apply(mesh.vertices) if mesh.n_vertices else mesh.vertices,
        mesh.triangles,
        mesh.face_labels,
        mesh.material_tag,
    )


def merge_meshes(meshes) -> TriMesh:
    """Concatenate meshes with vertex reindexing; face labels survive per source."""
    meshes = list(meshes)
    if not meshes:
        raise InvalidParameterError("merge_meshes requires a non-empty list")
    verts, tris, labels = [], [], []
    any_labels = any(m.face_labels is not None for m in meshes)
    offset = 0
    for m in meshes:
        verts.append(m.vertices)
        tris.append(m.triangles + offset)
        if any_labels:
            labels.append(
                m.face_labels
                if m.face_labels is not None
                else np.full(m.n_triangles, -1, dtype=np.int64)
            )
        offset += m.n_vertices
    tags = {m.material_tag for m in meshes}
    tag = tags.pop() if len(tags) == 1 else None
    return TriMesh(
        np.vstack(verts) if verts else np.zeros((0, 3)),
        np.vstack(tris) if tris else np.zeros((0, 3), dtype=np.int64),
        np.concatenate(labels) if any_labels else None,
        tag,
    )


# ---------------------------------------------------------------------------
# Triangle-triangle intersection
# ---------------------------------------------------------------------------


def _plane_interval(tri, dists, line_dir):
    """Project triangle's plane-crossing segment onto `line_dir`; None if no crossing."""
    proj = tri @ line_dir
    ts = []
    for i in range(3):
        if abs(dists[i]) == 0.0:
            ts.append(proj[i])
    for i, j in ((0, 1), (1, 2), (2, 0)):
        di, dj = dists[i], dists[j]
        if di * dj < 0.0:
            t = proj[i] + (proj[j] - proj[i]) * di / (di - dj)
            ts.append(t)
    if not ts:
        return None
    return min(ts), max(ts)


def _point_in_tri_2d(p, tri, eps):
    d = []
    for i in range(3):
        a, b = tri[i], tri[(i + 1) % 3]
        d.append((b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0]))
    d = np.asarray(d)
    return bool(np.all(d >= -eps) or np.all(d <= eps))


def _segments_cross_2d(p1, p2, q1, q2, eps):
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    o1, o2 = orient(p1, p2, q1), orient(p1, p2, q2)
    o3, o4 = orient(q1, q2, p1), orient(q1, q2, p2)
    if ((o1 > eps and o2 < -eps) or (o1 < -eps and o2 > eps)) and (
        (o3 > eps and o4 < -eps) or (o3 < -eps and o4 > eps)
    ):
        return True

    def on_seg(a, b, c):  # c collinear-ish with (a, b) and within its box
        if abs(orient(a, b, c)) > eps:
            return False
        return (
            min(a[0], b[0]) - eps <= c[0] <= max(a[0], b[0]) + eps
            and min(a[1], b[1]) - eps <= c[1] <= max(a[1], b[1]) + eps
        )

    return on_seg(p1, p2, q1) or on_seg(p1, p2, q2) or on_seg(q1, q2, p1) or on_seg(q1, q2, p2)


def _coplanar_overlap(a, b, normal, eps):
    axis = int(np.argmax(np.abs(normal)))
    keep = [i for i in range(3) if i != axis]
    a2, b2 = a[:, keep], b[:, keep]
    for p in a2:
        if _point_in_tri_2d(p, b2, eps):
            return True
    for p in b2:
        if _point_in_tri_2d(p, a2, eps):
            return True
    for i in range(3):
        for j in range(3):
            if _segments_cross_2d(
                a2[i], a2[(i + 1) % 3], b2[j], b2[(j + 1) % 3], eps
            ):
                return True
    return False


def triangles_intersect(tri_a, tri_b) -> bool:
    """True iff two closed triangles share at least one point.

    Uses plane-side interval tests with an explicit coplanar branch; touching
    contacts (shared vertex or edge) count as intersection.
    """
    a = np.asarray(tri_a, dtype=np.float64).reshape(3, 3)
    b = np.asarray(tri_b, dtype=np.float64).reshape(3, 3)
    if triangle_areas(np.stack([a, b])).min() <= DEGENERATE_AREA:
        raise InvalidParameterError("triangles_intersect requires non-degenerate triangles")
    scale = max(1.0, float(np.abs(np.vstack([a, b])).max()))
    eps = 1e-12 * scale

    nb = np.cross(b[1] - b[0], b[2] - b[0])
    da = (a - b[0]) @ nb
    da = np.where(np.abs(da) <= eps * np.linalg.norm(nb), 0.0, da)
    if np.all(da > 0) or np.all(da < 0):
        return False

    na = np.cross(a[1] - a[0], a[2] - a[0])
    db = (b - a[0]) @ na
    db = np.where(np.abs(db) <= eps * np.linalg.norm(na), 0.0, db)
    if np.all(db > 0) or np.all(db < 0):
        return False

    if np.all(da == 0.0) and np.all(db == 0.0):
        return _coplanar_overlap(a, b, na, eps * max(1.0, float(np.linalg.norm(na))))

    d = np.cross(na, nb)
    norm = np.linalg.norm(d)
    if norm < eps:
        # Parallel distinct planes already returned False; treat as coplanar.
        return _coplanar_overlap(a, b, na, eps * max(1.0, float(np.linalg.norm(na))))
    d = d / norm

    ia = _plane_interval(a, da, d)
    ib = _plane_interval(b, db, d)
    if ia is None or ib is None:
        return False
    span = max(abs(ia[0]), abs(ia[1]), abs(ib[0]), abs(ib[1]), 1.0)
    return ia[0] <= ib[1] + eps * span and ib[0] <= ia[1] + eps * span


def triangle_pairs_plane_filter(tris_a: np.ndarray, tris_b: np.ndarray) -> np.ndarray:
    """Vectorized early-out for candidate triangle pairs.

    Takes (n, 3, 3) corner arrays; returns a boolean mask of pairs that MIGHT
    intersect (pairs with all of one triangle strictly on one side of the
    other's plane are removed). Survivors still need `triangles_intersect`.
    """
    nb = np.cross(tris_b[:, 1] - tris_b[:, 0], tris_b[:, 2] - tris_b[:, 0])
    da = np.einsum("nij,nj->ni", tris_a - tris_b[:, 0:1], nb)
    keep = ~(np.all(da > 0, axis=1) | np.all(da < 0, axis=1))
    na = np.cross(tris_a[:, 1] - tris_a[:, 0], tris_a[:, 2] - tris_a[:, 0])
    db = np.einsum("nij,nj->ni", tris_b - tris_a[:, 0:1], na)
    keep &= ~(np.all(db > 0, axis=1) | np.all(db < 0, axis=1))
    return keep


# ---------------------------------------------------------------------------
# Convex hull
# ---------------------------------------------------------------------------


def convex_hull(mesh_or_points) -> TriMesh:
    """Convex watertight hull with outward normals and a canonical vertex order."""
    if isinstance(mesh_or_points, TriMesh):
        points = mesh_or_points.vertices
        tag = mesh_or_points.material_tag
    else:
        points = np.asarray(mesh_or_points, dtype=np.float64).reshape(-1, 3)
        tag = None
    if len(points) < 4:
        raise DegeneracyError(f"convex hull needs at least 4 points, got {len(points)}")
    try:
        hull = ConvexHull(points)
    except QhullError as exc:
        raise DegeneracyError(f"degenerate hull input: {exc}") from None

    used, inverse = np.unique(hull.simplices, return_inverse=True)
    verts = points[used]
    # The inverse's shape differs across NumPy versions; reshape it to one row per simplex.
    tris = _orient_outward(verts, inverse.reshape(-1, 3), hull.equations[:, :3])
    # Canonical order: each row rotated to lead with its smallest index, rows sorted.
    lead = tris.argmin(axis=1)
    tris = np.take_along_axis(tris, (lead[:, None] + np.arange(3)) % 3, axis=1)
    tris = tris[np.lexsort(tris.T[::-1])]
    return TriMesh(verts, tris, material_tag=tag)


# ---------------------------------------------------------------------------
# OBJ output
# ---------------------------------------------------------------------------


def format_float(x: float) -> str:
    """Nine significant digits, plain decimal for |x| in [1e-3, 1e6), lowercase e.

    Falls back to the shortest exact representation when nine digits would
    lose more than 5e-10 absolute, so document round-trips stay within 1e-9.
    """
    if x == 0.0:
        return "0"
    s = f"{x:.9g}"
    if abs(float(s) - x) > 5e-10:
        s = repr(float(x))
    if s.startswith("-0") and float(s) == 0.0:
        return "0"
    return s


def obj_text(mesh: TriMesh, name: str) -> str:
    """ASCII OBJ with one object, v/f records, and 1-based indices."""
    lines = [f"o {name}"]
    for x, y, z in mesh.vertices.tolist():
        lines.append(f"v {format_float(x)} {format_float(y)} {format_float(z)}")
    for a, b, c in (mesh.triangles + 1).tolist():
        lines.append(f"f {a} {b} {c}")
    return "\n".join(lines) + "\n"


def parse_obj(text: str) -> TriMesh:
    """Read back the OBJ subset emitted by obj_text."""
    verts, tris = [], []
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "v":
            verts.append([float(p) for p in parts[1:4]])
        elif parts[0] == "f":
            tris.append([int(p.split("/")[0]) - 1 for p in parts[1:4]])
    return TriMesh(np.array(verts, dtype=np.float64).reshape(-1, 3), np.array(tris, dtype=np.int64).reshape(-1, 3))
