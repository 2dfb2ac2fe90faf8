"""Triangle meshes, rigid transforms, parametric primitives, and intersection tests.

Conventions: right-handed coordinates, Z up, meters and radians everywhere.
All types are immutable values; every function here is a pure function of its
arguments, so meshes can be shared freely across threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DegeneracyError, InvalidParameterError

# Triangles with less area than this are rejected as degenerate.
DEGENERATE_AREA = 1e-12

# `check_meshes` stacks groups of meshes of at most this many triangles.
CHECK_GROUP_TRIANGLES = 1024

# Default tessellation for round primitives.
DEFAULT_SEGMENTS = 32

_UNIT_TOL = 1e-9
# Components up to this size square and sum to a finite length.
_SQUARE_SAFE = 1e150


def _check_finite(arr, what):
    if not np.isfinite(arr).all():
        raise InvalidParameterError(f"{what} must be finite, got {arr!r}")


def as_vec3(value, what: str = "vector") -> np.ndarray:
    """Coerce a tuple/list/array into a finite float64 array of shape (3,);
    anything else raises InvalidParameterError naming `what`."""
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise InvalidParameterError(f"{what} must be a 3-vector, got {value!r}") from None
    if arr.shape != (3,):
        raise InvalidParameterError(f"{what} must be a 3-vector, got shape {arr.shape}")
    if not all(map(math.isfinite, arr.tolist())):
        raise InvalidParameterError(f"{what} must be finite, got {arr!r}")
    return arr


def unit_vector(value, what: str) -> tuple[float, float, float]:
    """`value` divided by its length, for a finite nonzero 3-vector; anything
    else raises InvalidParameterError naming `what`."""
    arr = as_vec3(value, what)
    x, y, z = arr.tolist()
    big = max(abs(x), abs(y), abs(z))
    if big > _SQUARE_SAFE:  # the squared length would overflow
        arr = arr / big
        x, y, z = arr.tolist()
    norm = math.sqrt(arr.dot(arr))  # np.linalg.norm's formula, bit for bit
    if norm < _UNIT_TOL:
        raise InvalidParameterError(f"{what} must be nonzero")
    return (x / norm, y / norm, z / norm)


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of quaternions (4,), or row by row of quaternions (n, 4).

    Two single quaternions are multiplied in Python floats, whose arithmetic
    is numpy's float64 arithmetic, bit for bit, without its per-scalar cost."""
    single = a.ndim == b.ndim == 1
    aw, ax, ay, az = a.tolist() if single else a.T
    bw, bx, by, bz = b.tolist() if single else b.T
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    ).T


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix (3, 3) of a unit quaternion (4,), or matrices (n, 3, 3)
    of (n, 4); one quaternion is expanded in Python floats, as in `quat_multiply`."""
    w, x, y, z = q.tolist() if q.ndim == 1 else q.T
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
        self._freeze(q / norm, t)

    def _freeze(self, q: np.ndarray, t: np.ndarray) -> None:
        if q[0] < 0.0:  # canonical sign for determinism
            q = -q
        object.__setattr__(self, "rotation", q)
        object.__setattr__(self, "translation", t)
        for a in (q, t):
            a.flags.writeable = False

    @classmethod
    def _trusted(cls, q: np.ndarray, t: np.ndarray) -> "RigidTransform":
        """A transform from a float64 (4,) quaternion within rounding of unit
        length and a finite float64 (3,) translation, as the constructors
        below make them: `q` is divided by its norm and sign-canonicalized as
        in a checked construction, but nothing is checked."""
        transform = object.__new__(cls)
        transform._freeze(q / math.sqrt(q.dot(q)), t)  # np.linalg.norm's formula, bit for bit
        return transform

    @staticmethod
    def identity() -> "RigidTransform":
        return _IDENTITY

    @staticmethod
    def from_translation(t) -> "RigidTransform":
        return RigidTransform._trusted(np.array([1.0, 0.0, 0.0, 0.0]), as_vec3(t))

    @staticmethod
    def from_axis_angle(axis, angle: float, pivot=None) -> "RigidTransform":
        """Rotation of `angle` about `axis`; about `pivot` instead of the origin if given."""
        x, y, z = unit_vector(axis, "rotation axis")
        half = 0.5 * float(angle)
        s = math.sin(half)
        q = np.array([math.cos(half), s * x, s * y, s * z])
        rot = RigidTransform._trusted(q, np.zeros(3))
        if pivot is None:
            return rot
        pivot = as_vec3(pivot)
        return RigidTransform._trusted(q, pivot - rot.apply(pivot))

    def rotation_matrix(self) -> np.ndarray:
        return quat_to_matrix(self.rotation)

    def apply(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            return (pts[np.newaxis] @ self.rotation_matrix().T + self.translation)[0]
        return pts @ self.rotation_matrix().T + self.translation

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """self applied after other: (self @ other)(p) == self(other(p))."""
        q = quat_multiply(self.rotation, other.rotation)
        t = self.apply(other.translation)
        return RigidTransform._trusted(q, t)

    def __matmul__(self, other: "RigidTransform") -> "RigidTransform":
        return self.compose(other)


_IDENTITY = RigidTransform._trusted(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))


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

    def overlaps(self, other: "Aabb", margin: float = 0.0) -> bool:
        return bool(
            np.all(self.min <= other.max + margin) and np.all(other.min <= self.max + margin)
        )


@dataclass(frozen=True)
class TriMesh:
    """Indexed triangle mesh with optional per-face part labels.

    `face_labels` uses -1 for unlabeled faces. Vertices are metres in some
    link-local or construction frame; triangle winding is counter-clockwise
    seen from outside.

    Construction checks that vertices are finite, indices in range, labels
    one per triangle and no triangle degenerate (DEGENERATE_AREA). The
    primitives, `convex_hull`, `parse_obj` and `TriMesh(...)` itself run all
    of these checks. `check_meshes` runs them on many meshes in one pass, with
    the errors that checking them one by one raises: the evaluator makes its
    primitives from the same cached templates without the checks and checks
    them that way. `apply_transform` and `merge_meshes` move or reindex
    checked meshes: a move runs only the finite check, a merge none.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    face_labels: np.ndarray | None = None

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
        if tris.size:
            areas = triangle_areas(verts[tris])
            if areas.min() <= DEGENERATE_AREA:
                raise InvalidParameterError(
                    f"degenerate triangle with area {areas.min():.3e} <= {DEGENERATE_AREA}"
                )
        self._freeze(verts, tris, labels)

    def _freeze(self, verts: np.ndarray, tris: np.ndarray, labels: np.ndarray | None) -> None:
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "triangles", tris)
        object.__setattr__(self, "face_labels", labels)
        for arr in (verts, tris) if labels is None else (verts, tris, labels):
            arr.flags.writeable = False

    @classmethod
    def _unchecked(cls, verts: np.ndarray, tris: np.ndarray, labels: np.ndarray | None) -> "TriMesh":
        """A mesh over float64 (n, 3) vertices, int64 (m, 3) triangles and
        int64 (m,) labels or None, without checks: for the triangles of
        checked meshes, reindexed or rigidly moved."""
        mesh = object.__new__(cls)
        mesh._freeze(verts, tris, labels)
        return mesh

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

    def triangle_corners(self) -> np.ndarray:
        """All triangles as an (n, 3, 3) corner array."""
        return self.vertices[self.triangles]

    def with_labels(self, labels) -> "TriMesh":
        return TriMesh(self.vertices, self.triangles, labels)

    def fill_unlabeled(self, label: int) -> "TriMesh":
        """Assign `label` to every face that does not carry a label yet."""
        if self.face_labels is None:
            labels = np.full(self.n_triangles, label, dtype=np.int64)
        else:
            labels = np.where(self.face_labels < 0, label, self.face_labels)
        return self.with_labels(labels)

    @cached_property
    def _obj_records(self) -> str:
        """The OBJ v and f records of `obj_text`, formatted once per mesh."""
        vertices = ("v %s %s %s\n" * self.n_vertices) % tuple(_format_floats(self.vertices.ravel()))
        faces = ("f %d %d %d\n" * self.n_triangles) % tuple((self.triangles + 1).ravel().tolist())
        return vertices + faces


def check_meshes(meshes) -> None:
    """The checks of `TriMesh(...)` on each of `meshes` in one pass: raise what
    checking them one by one, in order, raises first, else nothing.

    The predicates run over the stacked arrays of consecutive groups of
    meshes, each of at most CHECK_GROUP_TRIANGLES triangles unless one mesh
    alone holds more, which bounds the pass's memory: finite vertices, each
    mesh's indices in its own range, one label per triangle and no area at
    most DEGENERATE_AREA, whose areas are elementwise and so the meshes' own.
    If any fails, that group's meshes are checked again one by one, so the
    first failing mesh raises its own error. So does an area that overflows:
    the stacked pass silences NumPy's overflow and invalid warnings, and the
    check one by one gives each in the order and at the mesh where it
    arises."""
    group, size = [], 0
    for m in meshes:
        n = len(m.triangles)
        if group and size + n > CHECK_GROUP_TRIANGLES:
            _check_group(group)
            group, size = [], 0
        group.append(m)
        size += n
    if group:
        _check_group(group)


def _check_group(meshes: list) -> None:
    """`check_meshes` over one group of meshes, stacked."""
    counts = [len(m.triangles) for m in meshes]
    sizes = [len(m.vertices) for m in meshes]
    verts = np.concatenate([m.vertices for m in meshes])
    tris = np.concatenate([m.triangles for m in meshes])
    ok = all(
        m.face_labels is None or len(m.face_labels) == n for m, n in zip(meshes, counts)
    ) and bool(np.isfinite(verts).all())
    if ok and len(tris):
        # Each triangle's indices against its own mesh's size, then shifted
        # into the stacked vertices.
        ok = tris.min() >= 0 and bool((tris < np.repeat(sizes, counts)[:, None]).all())
        if ok:
            starts = np.repeat(list(itertools.accumulate(sizes, initial=0))[:-1], counts)
            corners = np.take(verts, tris + starts[:, None], axis=0)
            with np.errstate(over="ignore", invalid="ignore"):
                areas = triangle_areas(corners)
            ok = bool(((areas > DEGENERATE_AREA) & (areas < np.inf)).all())
    if not ok:
        for m in meshes:
            TriMesh(m.vertices, m.triangles, m.face_labels)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross products of two (n, 3) stacks.

    The component expressions and the C-ordered (n, 3) output of np.cross, so
    results, and the einsum sums taken over them, are bit for bit the same;
    without its axis handling, which dominates on small stacks.
    """
    ax, ay, az = a.T
    bx, by, bz = b.T
    out = np.empty(a.shape)
    np.subtract(ay * bz, az * by, out=out[:, 0])
    np.subtract(az * bx, ax * bz, out=out[:, 1])
    np.subtract(ax * by, ay * bx, out=out[:, 2])
    return out


def triangle_areas(corners: np.ndarray) -> np.ndarray:
    """Areas of the triangles in an (n, 3, 3) corner array."""
    cx, cy, cz = _cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]).T
    # Summed left to right, as np.linalg.norm(..., axis=1) does over three columns.
    return 0.5 * np.sqrt(cx * cx + cy * cy + cz * cz)


def mesh_volume(mesh: TriMesh) -> float:
    """Signed volume of a closed, outward-oriented mesh (divergence theorem)."""
    corners = mesh.triangle_corners()
    return float(np.einsum("ij,ij->i", corners[:, 0], _cross(corners[:, 1], corners[:, 2])).sum() / 6.0)


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


def _orient_outward(verts: np.ndarray, tris: np.ndarray, outward: np.ndarray) -> np.ndarray:
    """Triangles (n, 3) with the last two corners swapped wherever the normal
    opposes its row of `outward` (n, 3), so every winding is counter-clockwise
    seen from outside."""
    corners = verts[tris]
    normals = _cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
    flip = np.einsum("ij,ij->i", normals, outward) < 0.0
    return np.where(flip[:, None], tris[:, [0, 2, 1]], tris)


# Splits each counter-clockwise quad (a, b, c, d) into triangles (a, b, c) and (a, c, d).
_QUAD_TRIANGLES = [0, 1, 2, 0, 2, 3]

# Templates kept per (shape, count); each holds a few read-only arrays.
PRIMITIVE_TEMPLATES = 64


def _constant(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _box(dimensions) -> tuple[np.ndarray, np.ndarray]:
    """The vertices and triangles of `make_box`, unchecked."""
    dims = as_vec3(dimensions)
    if np.any(dims <= 0):
        raise InvalidParameterError(f"box dimensions must be positive, got {dims}")
    return _BOX_SIGNS * (dims / 2.0), _BOX_TRIANGLES


def make_box(dimensions) -> TriMesh:
    """Axis-aligned box centered at the origin: 8 vertices, 12 triangles."""
    return TriMesh(*_box(dimensions))


# Corner k of a box is this sign row times the half extents, (-h, -h, -h) first.
_BOX_SIGNS = _constant(
    np.array(
        [[-1, -1, -1], [1, -1, -1], [1, 1, -1], [-1, 1, -1], [-1, -1, 1], [1, -1, 1], [1, 1, 1], [-1, 1, 1]],
        dtype=np.float64,
    )
)
# -Z, +Z, -Y, +Y, +X, -X faces, each counter-clockwise seen from outside.
_BOX_QUADS = np.array([[0, 3, 2, 1], [4, 5, 6, 7], [0, 1, 5, 4], [2, 3, 7, 6], [1, 2, 6, 5], [3, 0, 4, 7]])
_BOX_TRIANGLES = _constant(_BOX_QUADS[:, _QUAD_TRIANGLES].reshape(-1, 3))


@lru_cache(maxsize=PRIMITIVE_TEMPLATES)
def _prism_template(sides: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """cos and sin of a prism's `sides` corner angles, and its triangles."""
    ang = 2.0 * np.pi * np.arange(sides) / sides
    bc, tc = 0, 1
    b0, t0 = 2, 2 + sides
    tris = []
    for k in range(sides):
        k1 = (k + 1) % sides
        tris.append((bc, b0 + k1, b0 + k))  # bottom cap, outward -Z
        tris.append((tc, t0 + k, t0 + k1))  # top cap, outward +Z
        tris.append((b0 + k, b0 + k1, t0 + k))
        tris.append((b0 + k1, t0 + k1, t0 + k))
    return _constant(np.cos(ang)), _constant(np.sin(ang)), _constant(np.array(tris, dtype=np.int64))


def _prism(radius, height, sides, top_radius=None) -> tuple[np.ndarray, np.ndarray]:
    """The vertices and triangles of `make_ngon_prism`, unchecked."""
    if radius <= 0 or height <= 0:
        raise InvalidParameterError("prism radius and height must be positive")
    sides = int(sides)
    if sides < 3:
        raise InvalidParameterError(f"prism needs at least 3 sides, got {sides}")
    r_top = radius if top_radius is None else float(top_radius)
    if r_top <= 0:
        raise InvalidParameterError("top radius must be positive")
    cos, sin, tris = _prism_template(sides)
    # Both caps' centres, then the bottom ring and the top ring.
    verts = np.empty((2 + 2 * sides, 3))
    verts[:2] = ((0.0, 0.0, -height / 2.0), (0.0, 0.0, height / 2.0))
    bottom, top = verts[2 : 2 + sides], verts[2 + sides :]
    np.multiply(radius, cos, out=bottom[:, 0])
    np.multiply(radius, sin, out=bottom[:, 1])
    bottom[:, 2] = -height / 2.0
    np.multiply(r_top, cos, out=top[:, 0])
    np.multiply(r_top, sin, out=top[:, 1])
    top[:, 2] = height / 2.0
    return verts, tris


def make_ngon_prism(
    radius: float,
    height: float,
    sides: int,
    top_radius: float | None = None,
) -> TriMesh:
    """Closed prism along +Z centered at the origin, optionally tapered toward the top."""
    return TriMesh(*_prism(radius, height, sides, top_radius))


def _cylinder(radius, height, segments=DEFAULT_SEGMENTS) -> tuple[np.ndarray, np.ndarray]:
    """The vertices and triangles of `make_cylinder`, unchecked."""
    if segments < 3:
        raise InvalidParameterError(f"cylinder needs at least 3 segments, got {segments}")
    return _prism(radius, height, segments)


def make_cylinder(radius: float, height: float, segments: int = DEFAULT_SEGMENTS) -> TriMesh:
    """Closed cylinder along +Z centered at the origin; 4*segments triangles."""
    return TriMesh(*_cylinder(radius, height, segments))


@lru_cache(maxsize=PRIMITIVE_TEMPLATES)
def _sphere_template(segments: int) -> tuple[np.ndarray, ...]:
    """cos and sin of a UV sphere's inner ring polar angles and of its
    `segments` azimuths, and its triangles."""
    rings = max(2, segments // 2)
    phi = [np.pi * i / rings for i in range(1, rings)]
    ang = 2.0 * np.pi * np.arange(segments) / segments
    north, south = 0, 1 + (rings - 1) * segments

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
    return tuple(
        _constant(a)
        for a in (
            np.array([math.cos(p) for p in phi]),
            np.array([math.sin(p) for p in phi]),
            np.cos(ang),
            np.sin(ang),
            np.array(tris, dtype=np.int64),
        )
    )


def _sphere(radius, segments=DEFAULT_SEGMENTS) -> tuple[np.ndarray, np.ndarray]:
    """The vertices and triangles of `make_sphere`, unchecked."""
    if radius <= 0:
        raise InvalidParameterError("sphere radius must be positive")
    segments = int(segments)
    if segments < 3:
        raise InvalidParameterError(f"sphere needs at least 3 segments, got {segments}")
    ring_cos, ring_sin, cos, sin, tris = _sphere_template(segments)
    # The north pole, the inner rings from north to south, the south pole.
    verts = np.empty((2 + len(ring_cos) * segments, 3))
    verts[0] = (0.0, 0.0, radius)
    verts[-1] = (0.0, 0.0, -radius)
    rings = verts[1:-1].reshape(len(ring_cos), segments, 3)
    r = radius * ring_sin
    np.multiply(r[:, None], cos, out=rings[..., 0])
    np.multiply(r[:, None], sin, out=rings[..., 1])
    rings[..., 2] = (radius * ring_cos)[:, None]
    return verts, tris


def make_sphere(radius: float, segments: int = DEFAULT_SEGMENTS) -> TriMesh:
    """UV sphere centered at the origin."""
    return TriMesh(*_sphere(radius, segments))


def _rounded_box(dimensions, bevel: float) -> tuple[np.ndarray, np.ndarray]:
    """The vertices and triangles of `make_rounded_box`, unchecked."""
    dims = as_vec3(dimensions)
    if np.any(dims <= 0):
        raise InvalidParameterError(f"box dimensions must be positive, got {dims}")
    bevel = float(bevel)
    if bevel < 0 or bevel >= float(dims.min()) / 2.0:
        raise InvalidParameterError(
            f"bevel must satisfy 0 <= bevel < min(dimensions)/2, got {bevel}"
        )
    if bevel == 0.0:
        return _box(dims)
    h = dims / 2.0
    # Vertex 3 * c + a lies on corner c's face normal to axis a, inset by the bevel
    # along the other two axes.
    verts = np.repeat(_CORNERS * (h - bevel), 3, axis=0)
    verts[_CORNER_FACE_ROWS, _CORNER_FACE_AXES] = (_CORNERS * h).ravel()
    return verts, _orient_outward(verts, _ROUNDED_TRIANGLES, _ROUNDED_OUTWARD)


def make_rounded_box(dimensions, bevel: float) -> TriMesh:
    """Box with one 45-degree chamfer loop on all 12 edges; bevel=0 is exactly make_box."""
    return TriMesh(*_rounded_box(dimensions, bevel))


def _rounded_box_topology() -> tuple[np.ndarray, np.ndarray]:
    """The triangles of every rounded box and the outward direction of each,
    over the vertices `make_rounded_box` lays out."""

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
    outward = np.vstack([np.repeat(outward, 2, axis=0), _CORNERS])
    return _constant(tris), _constant(outward)


_CORNERS = _constant(np.array([(sx, sy, sz) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]))
_CORNER_FACE_ROWS = _constant(np.arange(24))
_CORNER_FACE_AXES = _constant(np.tile(np.arange(3), 8))
_ROUNDED_TRIANGLES, _ROUNDED_OUTWARD = _rounded_box_topology()


def translate_mesh(mesh: TriMesh, offset: np.ndarray) -> TriMesh:
    """`apply_transform(mesh, RigidTransform.from_translation(offset) @
    RigidTransform.identity())`, bit for bit, for a finite float64 (3,)
    offset: that composition turns a -0.0 in the offset into 0.0, and its
    identity rotation takes every vertex over exactly, so adding the offset
    plus 0.0 to the vertices gives the same numbers."""
    if not mesh.n_vertices:
        return mesh
    verts = mesh.vertices + (offset + 0.0)
    _check_finite(verts, "mesh vertices")
    return TriMesh._unchecked(verts, mesh.triangles, mesh.face_labels)


def apply_transform(mesh: TriMesh, transform: RigidTransform) -> TriMesh:
    """Rigidly transform every vertex; topology, labels, and winding are preserved.

    Only the finite check runs, as a translation can overflow: indices and
    labels are the input's, and areas change by rounding alone."""
    if not mesh.n_vertices:
        return mesh
    verts = transform.apply(mesh.vertices)
    _check_finite(verts, "mesh vertices")
    return TriMesh._unchecked(verts, mesh.triangles, mesh.face_labels)


def merge_meshes(meshes) -> TriMesh:
    """Concatenate meshes with vertex reindexing; face labels survive per source.

    No check runs: the result holds the inputs' vertices and triangles as they
    are, with indices offset into the stacked vertices."""
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
    return TriMesh._unchecked(
        np.vstack(verts), np.vstack(tris), np.concatenate(labels) if any_labels else None
    )


# ---------------------------------------------------------------------------
# Triangle-triangle intersection
# ---------------------------------------------------------------------------


# Per dominant normal axis, the two axes a coplanar row keeps.
_KEPT_AXES = np.array([[1, 2], [0, 2], [0, 1]])
# Corner k + 1 (mod 3) of each corner k: edge k runs from corner k to it.
_NEXT = np.array([1, 2, 0])


def _all3(x: np.ndarray) -> np.ndarray:
    """np.all(x, axis=-1) for a last axis of length 3."""
    return x[..., 0] & x[..., 1] & x[..., 2]


def _row_norms(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm(v, axis=1) of an (n, 3) stack, bit for bit: it sums the
    squares left to right, as here, but reduces a length-3 axis slowly."""
    x, y, z = v.T
    return np.sqrt(x * x + y * y + z * z)


def _edge_sides(p, q, tol):
    """2-D predicates of triangles q against triangles p, both (r, 3, 2).

    Returns whether q's edge k strictly straddles the line of p's edge i, and
    whether q's corner k lies on p's edge i, both indexed [row, i, k] with
    edge i running from corner i to corner i + 1; and whether q's corner k
    lies in p, indexed [row, k]. "On" and "in" hold within `tol`.
    """
    p0 = p[:, :, None, :]
    p1 = p[:, _NEXT, None, :]
    c = q[:, None, :, :]
    edge, rel = p1 - p0, c - p0
    side = edge[..., 0] * rel[..., 1] - edge[..., 1] * rel[..., 0]
    side_next = side[:, :, _NEXT]
    straddles = ((side > tol) & (side_next < -tol)) | ((side < -tol) & (side_next > tol))
    near = (np.minimum(p0, p1) - tol[..., None] <= c) & (c <= np.maximum(p0, p1) + tol[..., None])
    on_edge = (np.abs(side) <= tol) & near[..., 0] & near[..., 1]
    above, below = side >= -tol, side <= tol
    inside = (above[:, 0] & above[:, 1] & above[:, 2]) | (below[:, 0] & below[:, 1] & below[:, 2])
    return straddles, on_edge, inside


def _coplanar_overlap(a, b, normal, eps):
    """Row-wise overlap of coplanar triangles, (r, 3, 3) stacks, within (r,) eps.

    Each row drops its normal's dominant axis. The triangles overlap when a
    corner of one lies in the other, a corner lies on an edge, or an edge pair
    crosses.
    """
    kept = _KEPT_AXES[np.argmax(np.abs(normal), axis=1)][:, None, :]
    a2, b2 = np.take_along_axis(a, kept, axis=2), np.take_along_axis(b, kept, axis=2)
    tol = eps[:, None, None]
    b_crosses, b_on_a, b_in_a = _edge_sides(a2, b2, tol)
    a_crosses, a_on_b, a_in_b = _edge_sides(b2, a2, tol)
    touch = b_in_a | a_in_b | np.any(b_on_a | a_on_b, axis=1)
    # Edge i of a and edge j of b cross when each straddles the other's line.
    cross = b_crosses & a_crosses.transpose(0, 2, 1)
    return np.any(touch, axis=1) | np.any(cross.reshape(len(cross), 9), axis=1)


def _plane_side(tris, origin, normal, eps):
    """Signed distances (times |normal|) of each row's corners from the row's
    plane, zeroed within eps * |normal|, and whether all three lie strictly on
    one side."""
    dist = np.einsum("nij,nj->ni", tris - origin[:, None, :], normal)
    dist = np.where(np.abs(dist) <= (eps * _row_norms(normal))[:, None], 0.0, dist)
    return dist, _all3(dist > 0) | _all3(dist < 0)


def _crossing_interval(tris, dists, line_dir):
    """Per row, the (lo, hi) extent along `line_dir` where the triangle meets
    the other plane: its on-plane corners and sign-changing edges. A row not
    strictly on one side has at least one of them."""
    proj = np.einsum("nij,nj->ni", tris, line_dir)
    # Edge k runs from corner k to corner k+1 (mod 3).
    d_next, p_next = dists[:, _NEXT], proj[:, _NEXT]
    crosses = dists * d_next < 0.0
    at = proj + (p_next - proj) * dists / np.where(crosses, dists - d_next, 1.0)
    ts = np.concatenate([proj, at], axis=1)
    hits = np.concatenate([dists == 0.0, crosses], axis=1)
    return np.where(hits, ts, np.inf).min(axis=1), np.where(hits, ts, -np.inf).max(axis=1)


def intersecting_pairs(tris_a, tris_b) -> np.ndarray:
    """Row-wise closed-triangle intersection of two (n, 3, 3) corner stacks.

    Moller's interval test ("A Fast Triangle-Triangle Intersection Test",
    J. Graphics Tools 1997): reject rows with one triangle strictly on one
    side of the other's plane, else overlap the two triangles' crossing
    intervals on the planes' common line. Distances and intervals carry a
    scale-relative eps, so touching contacts (shared vertex or edge) count.
    Coplanar and near-parallel rows take one batched 2-D branch.
    Rows must be non-degenerate; `triangles_intersect` is the checked n=1 view.
    Short axes are reduced elementwise, which gives the reductions' values.
    """
    a = np.asarray(tris_a, dtype=np.float64).reshape(-1, 3, 3)
    b = np.asarray(tris_b, dtype=np.float64).reshape(-1, 3, 3)
    big = np.maximum(np.abs(a.reshape(-1, 9)).max(axis=1), np.abs(b.reshape(-1, 9)).max(axis=1))
    eps = 1e-12 * np.maximum(1.0, big)
    na = _cross(a[:, 1] - a[:, 0], a[:, 2] - a[:, 0])
    nb = _cross(b[:, 1] - b[:, 0], b[:, 2] - b[:, 0])
    da, a_apart = _plane_side(a, b[:, 0], nb, eps)
    db, b_apart = _plane_side(b, a[:, 0], na, eps)
    out = ~(a_apart | b_apart)
    line = _cross(na, nb)
    norm = _row_norms(line)
    flat = out & ((_all3(da == 0.0) & _all3(db == 0.0)) | (norm < eps))
    # Parallel distinct planes were rejected above, so these rows are coplanar.
    rows = np.nonzero(flat)[0]
    if len(rows):  # the 2-D branch costs tens of array calls even with no rows
        tol = eps[rows] * np.maximum(1.0, _row_norms(na[rows]))
        out[rows] = _coplanar_overlap(a[rows], b[rows], na[rows], tol)
    rows = np.nonzero(out & ~flat)[0]
    line = line[rows] / norm[rows, None]
    lo_a, hi_a = _crossing_interval(a[rows], da[rows], line)
    lo_b, hi_b = _crossing_interval(b[rows], db[rows], line)
    big = np.maximum(np.maximum(np.abs(lo_a), np.abs(hi_a)), np.maximum(np.abs(lo_b), np.abs(hi_b)))
    tol = eps[rows] * np.maximum(big, 1.0)
    out[rows] = (lo_a <= hi_b + tol) & (lo_b <= hi_a + tol)
    return out


def triangles_intersect(tri_a, tri_b) -> bool:
    """True iff two closed triangles share at least one point.

    The one-row view of `intersecting_pairs`; touching contacts (shared vertex
    or edge) count as intersection.
    """
    a = np.asarray(tri_a, dtype=np.float64).reshape(1, 3, 3)
    b = np.asarray(tri_b, dtype=np.float64).reshape(1, 3, 3)
    if triangle_areas(np.concatenate([a, b])).min() <= DEGENERATE_AREA:
        raise InvalidParameterError("triangles_intersect requires non-degenerate triangles")
    return bool(intersecting_pairs(a, b)[0])


# ---------------------------------------------------------------------------
# Convex hull
# ---------------------------------------------------------------------------


def convex_hull(mesh_or_points) -> TriMesh:
    """Convex watertight hull with outward normals and a canonical vertex order.

    Qhull (scipy) is imported on the first call, not with this module."""
    from scipy.spatial import ConvexHull, QhullError

    if isinstance(mesh_or_points, TriMesh):
        points = mesh_or_points.vertices
    else:
        points = np.asarray(mesh_or_points, dtype=np.float64).reshape(-1, 3)
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
    return TriMesh(verts, tris)


# ---------------------------------------------------------------------------
# OBJ output
# ---------------------------------------------------------------------------


def format_float(x: float) -> str:
    """Nine significant digits (`%.9g`), so plain decimal for |x| in [1e-4, 1e9)
    and lowercase-e exponent form outside it; zero, also -0.0, is "0".

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


def _format_floats(values: np.ndarray) -> list[str]:
    """`format_float` of each value of a 1-D float array, in one string step.

    The distinct values are formatted with `%.9g` at once and read back; only
    tokens that moved by more than 5e-10, or that read as zero (the "-0"
    case), take the scalar path. Each value then takes its distinct value's
    token; 0.0 and -0.0 share one, as both format as "0".
    """
    distinct, inverse = np.unique(values, return_inverse=True)
    floats = distinct.tolist()
    tokens = (("%.9g " * len(floats)) % tuple(floats)).split()
    back = np.array(tokens, dtype=np.float64)
    for i in np.flatnonzero((np.abs(back - distinct) > 5e-10) | (back == 0.0)).tolist():
        tokens[i] = format_float(floats[i])
    return [tokens[i] for i in inverse.tolist()]


def obj_text(mesh: TriMesh, name: str) -> str:
    """ASCII OBJ with one object, v/f records, and 1-based indices."""
    return f"o {name}\n" + mesh._obj_records


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
