"""Joint-range sweeping for self-penetration between rigid parts.

A sweep plan is a value matrix: one column per movable joint, in sorted id
order, and one row per configuration, drawn as a Cartesian grid or as random
draws. The sweep poses every link for blocks of rows with forward kinematics
and culls link pairs with conservative AABB tests in two levels. Level 1
bounds each link cheaply per row: a link that no row rotates takes its rest
box, translated, and a rotated link the rest box's centre and half-widths
under the row's rotation, padded against rounding. Level 2 computes the exact
vertex boxes of rotated links only where some pair keeps a row at level 1:
products of a link's rest vertices with the block's rotation rows, each at
most _PRODUCT_ENTRIES outputs so that it runs on the calling thread, and only
the products that hold a kept row run. Which rows share a product is fixed by
the block, so a kept row's box is the same bits as with every product run.
The pairs' kept rows are tested again on those boxes, so the survivors are
those of exact vertex boxes on every row.
Each link pair then takes its surviving rows through the narrowphase
together: rows are posed in batches of at most _BATCH_TRIANGLES triangles,
triangle pairs are culled by their boxes, and contacts are confirmed by the
exact triangle-triangle test `geometry.intersecting_pairs`, at most
_BATCH_ROWS candidate rows per call. That test works row by row, and each
configuration keeps its first hit in (triangle_a, triangle_b) order: its
candidates go through the test in that order, _ROUND_CANDIDATES at a time,
until one hits. So the caps and rounds bound memory and work and cannot
change a report. A row becomes a config dict only when it carries a
finding. `verify_finding` runs the same test on one row
(`triangles_intersect`), so the two agree by construction. A tolerance
gate re-tests candidate pairs with the triangles offset inward along their
normals, so parts that merely touch within tolerance are not reported;
witnesses always come from the exact test and re-verify. Containment without
surface contact is outside the contract (witnesses are surface-triangle
pairs).
"""

from __future__ import annotations

import hashlib
import itertools
import math
import numbers
import random
from dataclasses import dataclass

import numpy as np

from .blueprint import AssetInstance, forward_kinematics
from .errors import InvalidParameterError, PlanTooLargeError
from .geometry import (
    DEGENERATE_AREA,
    _all3,
    _cross,
    _row_norms,
    intersecting_pairs,
    triangle_areas,
    triangles_intersect,
)

CONFIG_CAP = 100_000

PAIR_FILTER_ALL = "all"
PAIR_FILTER_ADJACENT_EXCLUDED = "adjacent-excluded"


@dataclass(frozen=True)
class SweepPlan:
    """How to sample joint space and which link pairs to test."""

    strategy: str = "grid"  # "grid" | "random"
    samples: int = 3  # per joint for grid, total configs for random
    seed: int = 0
    pair_filter: str = PAIR_FILTER_ADJACENT_EXCLUDED
    tolerance: float = 1e-6

    def __post_init__(self):
        if self.strategy not in ("grid", "random"):
            raise InvalidParameterError(f"unknown sweep strategy {self.strategy!r}")
        if (
            isinstance(self.samples, bool)
            or not isinstance(self.samples, numbers.Integral)
            or self.samples < 1
        ):
            raise InvalidParameterError(f"samples must be an integer >= 1, got {self.samples!r}")
        if not isinstance(self.tolerance, numbers.Real) or not 0 <= self.tolerance < math.inf:
            raise InvalidParameterError(f"tolerance must be a finite number >= 0, got {self.tolerance!r}")
        if self.pair_filter not in (PAIR_FILTER_ALL, PAIR_FILTER_ADJACENT_EXCLUDED):
            raise InvalidParameterError(f"unknown pair filter {self.pair_filter!r}")


@dataclass(frozen=True)
class Finding:
    link_a: str
    link_b: str
    config: dict
    triangle_a: int
    triangle_b: int

    def to_json_dict(self) -> dict:
        return {
            "link_a": self.link_a,
            "link_b": self.link_b,
            "config": dict(sorted(self.config.items())),
            "witness": [self.triangle_a, self.triangle_b],
        }


@dataclass(frozen=True)
class CollisionReport:
    findings: tuple[Finding, ...]
    configs_tested: int

    @property
    def clean(self) -> bool:
        return not self.findings

    def colliding_pairs(self) -> set:
        return {frozenset((f.link_a, f.link_b)) for f in self.findings}

    def to_json_dict(self) -> dict:
        return {
            "configs_tested": self.configs_tested,
            "clean": self.clean,
            "findings": [f.to_json_dict() for f in self.findings],
        }


def _joint_samples(instance: AssetInstance, plan: SweepPlan):
    """Movable joint ids in sorted order, and one row of their values per configuration."""
    joints = sorted(
        (j for j in instance.joints if not j.is_fixed), key=lambda j: j.joint_id
    )
    joint_ids = [j.joint_id for j in joints]
    if plan.strategy == "grid":
        if plan.samples == 1:
            axes = [(j.default,) for j in joints]
        else:
            axes = [np.linspace(j.lo, j.hi, plan.samples) for j in joints]
        total = 1
        for axis in axes:
            total *= len(axis)
            if total > CONFIG_CAP:
                raise PlanTooLargeError(
                    f"grid sweep needs {total}+ configurations (cap {CONFIG_CAP}); "
                    "use the random strategy instead"
                )
        return joint_ids, np.array(list(itertools.product(*axes)), dtype=np.float64)
    digest = hashlib.sha256(f"sweep|{plan.seed}|{instance.category}|{instance.seed}".encode())
    rng = random.Random(int.from_bytes(digest.digest()[:8], "big"))
    # One getrandbits call returns the generator's next 32-bit outputs, first
    # output in the least significant word; each pair makes one random()
    # double with CPython's exact formula (a * 2**26 + b) / 2**53.
    count = plan.samples * len(joints)
    words = np.frombuffer(rng.getrandbits(64 * count).to_bytes(8 * count, "little"), dtype="<u4")
    r = ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) / 9007199254740992.0
    lo = np.array([j.lo for j in joints], dtype=np.float64)
    hi = np.array([j.hi for j in joints], dtype=np.float64)
    # lo + (hi - lo) * random() is random.uniform(lo, hi), drawn configuration
    # by configuration.
    return joint_ids, lo + (hi - lo) * r.reshape(plan.samples, len(joints))


def _offset_inward(tris: np.ndarray, tolerance: float) -> np.ndarray:
    """Shift triangles along their inward normals and shrink them in-plane.

    The normal offset separates parallel face-on-face touches; the centroid
    shrink separates coplanar faces that only share a boundary edge. Triangles
    smaller than the tolerance collapse and are skipped by the caller. Works
    row by row on any (..., 3, 3) stack.
    """
    flat = tris.reshape(-1, 3, 3)
    c0, c1, c2 = flat[:, 0], flat[:, 1], flat[:, 2]
    normals = _cross(c1 - c0, c2 - c0)
    step = tolerance * (normals / _row_norms(normals)[:, None])
    shifted = (c0 - step, c1 - step, c2 - step)
    # The mean over the corners, summed left to right as np.mean does.
    centroids = (shifted[0] + shifted[1] + shifted[2]) / 3
    out = np.empty_like(flat)
    for k, corner in enumerate(shifted):
        rel = corner - centroids
        scale = np.maximum(1.0 - tolerance / np.maximum(_row_norms(rel), 1e-300), 0.0)
        out[:, k] = centroids + rel * scale[:, None]
    return out.reshape(tris.shape)


def _posed(local: np.ndarray, r: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Rest triangles (k, 3, 3) posed at m rigid motions: (m, k, 3, 3)."""
    return np.matmul(local, r.transpose(0, 2, 1)[:, None]) + t[:, None, None]


def _corner_bounds(tris: np.ndarray):
    """Per-triangle box (lo, hi) of a (..., 3, 3) corner stack. Elementwise
    minima and maxima are exact, as a reduction is; NumPy reduces a length-3
    axis, or any axis in front of one, many times slower."""
    c0, c1, c2 = tris[..., 0, :], tris[..., 1, :], tris[..., 2, :]
    return np.minimum(np.minimum(c0, c1), c2), np.maximum(np.maximum(c0, c1), c2)


def _link_box(lo: np.ndarray, hi: np.ndarray):
    """Per configuration, the box of a link from its (configs, triangles, 3)
    triangle boxes, reduced along a contiguous axis."""
    lo = np.ascontiguousarray(lo.transpose(0, 2, 1)).min(axis=2)
    hi = np.ascontiguousarray(hi.transpose(0, 2, 1)).max(axis=2)
    return lo, hi


def _live_first(tris: np.ndarray, near: np.ndarray):
    """Per configuration, the indices of its triangles in the other link's box
    first, in order, cut to the largest such count; and which of those
    columns are live: near, and not collapsed below DEGENERATE_AREA."""
    count = near.sum(axis=1)
    k = count.max(initial=0)
    idx = np.argsort(~near, axis=1, kind="stable")[:, :k]
    live = np.arange(k) < count[:, None]
    areas = triangle_areas(tris[np.arange(len(tris))[:, None], idx].reshape(-1, 3, 3))
    return idx, live & (areas.reshape(live.shape) > DEGENERATE_AREA)


def _first_hits(tris_a: np.ndarray, tris_b: np.ndarray):
    """First intersecting (triangle_a, triangle_b) pair of each configuration.

    `tris_a` and `tris_b` are (configs, triangles, 3, 3) stacks. Returns two
    (configs,) index arrays, -1 where a configuration has no hit. Candidates
    are the triangle pairs whose boxes overlap, in (triangle_a, triangle_b)
    order per configuration. They go through the exact test in rounds: round
    k takes candidates k * _ROUND_CANDIDATES onward of each configuration
    without a hit yet, in chunks of at most _BATCH_ROWS rows, so a
    configuration stops at the round of its first hit.
    """
    m = len(tris_a)
    lo_a, hi_a = _corner_bounds(tris_a)
    lo_b, hi_b = _corner_bounds(tris_b)
    box_lo_a, box_hi_a = _link_box(lo_a, hi_a)
    box_lo_b, box_hi_b = _link_box(lo_b, hi_b)
    # A triangle outside the other link's box overlaps none of its triangles,
    # and triangles collapsed by the tolerance shrink are skipped.
    ia, live_a = _live_first(tris_a, _all3((lo_a <= box_hi_b[:, None]) & (box_lo_b[:, None] <= hi_a)))
    ib, live_b = _live_first(tris_b, _all3((lo_b <= box_hi_a[:, None]) & (box_lo_a[:, None] <= hi_b)))
    c = np.arange(m)[:, None]
    lo_a, hi_a, lo_b, hi_b = lo_a[c, ia], hi_a[c, ia], lo_b[c, ib], hi_b[c, ib]
    overlap = _all3((lo_a[:, :, None] <= hi_b[:, None]) & (lo_b[:, None] <= hi_a[:, :, None]))
    configs, i, j = np.nonzero(overlap & live_a[:, :, None] & live_b[:, None])
    idx_a, idx_b = ia[configs, i], ib[configs, j]
    per_config = np.bincount(configs, minlength=m)
    rounds = np.arange(len(configs)) - np.repeat(np.cumsum(per_config) - per_config, per_config)
    rounds //= _ROUND_CANDIDATES
    # Candidates by round; the stable sort keeps each round in configuration
    # order, and each configuration's candidates in theirs.
    by_round = np.argsort(rounds, kind="stable")
    starts = np.searchsorted(rounds[by_round], np.arange(rounds.max(initial=-1) + 2))
    first_a, first_b = np.full(m, -1), np.full(m, -1)
    for lo, hi in zip(starts, starts[1:]):
        rows = by_round[lo:hi]
        rows = rows[first_a[configs[rows]] < 0]
        if not len(rows):
            continue
        hit = np.concatenate([
            intersecting_pairs(tris_a[configs[part], idx_a[part]], tris_b[configs[part], idx_b[part]])
            for part in np.split(rows, range(_BATCH_ROWS, len(rows), _BATCH_ROWS))
        ])
        rows = rows[hit]
        # Rows run in configuration order, so a configuration's first hit
        # is the first of its rows here.
        first = rows[np.diff(configs[rows], prepend=-1) != 0]
        first_a[configs[first]] = idx_a[first]
        first_b[configs[first]] = idx_b[first]
    return first_a, first_b


def _pair_witnesses(tris_a: np.ndarray, tris_b: np.ndarray, tolerance: float) -> list:
    """Per configuration, the witness pair when the links penetrate deeper than
    the contact tolerance, else None.

    `tris_a` and `tris_b` are the posed triangles of both links, stacked as
    (configs, triangles, 3, 3). The tolerance gate runs on copies offset
    inward along their face normals: surfaces that merely touch separate,
    genuine penetration still crosses. The reported witness always comes from
    the exact test on the original triangles, so it re-verifies.
    """
    todo = np.arange(len(tris_a))
    if tolerance > 0:
        gate, _ = _first_hits(_offset_inward(tris_a, tolerance), _offset_inward(tris_b, tolerance))
        todo = np.flatnonzero(gate >= 0)
    witnesses = [None] * len(tris_a)
    if len(todo) == 0:
        return witnesses
    first_a, first_b = _first_hits(tris_a[todo], tris_b[todo])
    for c, i, j in zip(todo.tolist(), first_a.tolist(), first_b.tolist()):
        if i >= 0:
            witnesses[c] = (i, j)
    return witnesses


def _candidate_pairs(instance: AssetInstance, plan: SweepPlan):
    adjacent = instance.adjacent_pairs()
    names = [l.link_id for l in instance.links if not l.mesh.is_empty]
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            if plan.pair_filter == PAIR_FILTER_ADJACENT_EXCLUDED and frozenset((a, b)) in adjacent:
                continue
            yield a, b


_CHUNK = 2048
# Fixed caps on the narrowphase's working set, whatever the asset: posed
# triangles of both links per batch of configurations, and candidate rows per
# exact-test call. The exact test is row by row, so chunking changes no result.
_BATCH_TRIANGLES = 4096
_BATCH_ROWS = 4096
# Candidates per configuration in one round of exact tests. Most first hits
# are among a configuration's first few candidates, so later rounds skip the
# rest; a clean configuration takes one round per this many candidates.
_ROUND_CANDIDATES = 16
# Outputs per broadphase product. Products this small run on the calling
# thread; a larger one lets OpenBLAS hand it to helper threads, which then spin
# between calls and hold a second core for no gain in time.
_PRODUCT_ENTRIES = 65536


def _rotated_extents(verts: np.ndarray, r: np.ndarray, keep=None):
    """Per-axis min and max of (k, 3) rest vertices under an (n, 3, 3) stack of
    rotations, as two flat (n * 3,) arrays.

    The rest vertices meet the stacked rotation rows in (k, 3) @ (3, columns)
    products of at most _PRODUCT_ENTRIES outputs, each reduced down its
    contiguous columns. With `keep`, an (n,) mask, only the products that hold
    a kept configuration run, and the others' extents are left at -inf and
    inf. Which columns share a product depends on the whole stack alone, so a
    kept configuration's extents are the same bits with or without `keep`.
    """
    rows = r.reshape(-1, 3)
    step = max(1, _PRODUCT_ENTRIES // len(verts))
    lo, hi = np.full(len(rows), -np.inf), np.full(len(rows), np.inf)
    for s in range(0, len(rows), step):
        if keep is None or keep[s // 3 : (s + step + 2) // 3].any():
            pts = verts @ rows[s : s + step].T
            lo[s : s + step], hi[s : s + step] = pts.min(axis=0), pts.max(axis=0)
    return lo, hi


def _link_boxes(verts: np.ndarray, r: np.ndarray, t: np.ndarray, unrotated: bool, keep=None):
    """Per configuration, the box (lo, hi), each (n, 3), of (k, 3) rest
    vertices under the n rigid motions (r, t); with `keep`, an (n,) mask, only
    the kept configurations' boxes are certain to be computed.

    With `unrotated`, every r is exactly the identity, which is what
    `quat_to_matrix` makes of quaternions with zero imaginary parts. Then
    x * 1 + y * 0 + z * 0 is x exactly, so the rest box plus t is the box the
    rotated extents give, but for signed zeros, which compare equal.
    """
    if unrotated:
        return verts.min(axis=0) + t, verts.max(axis=0) + t
    lo, hi = _rotated_extents(verts, r, keep)
    # Adding t after the min/max gives the same bits, as rounding is monotone.
    return lo.reshape(-1, 3) + t, hi.reshape(-1, 3) + t


# Relative pad of `_bound_boxes`. Either box rounds by a few units in the last
# place (2**-52 each) of |v| + |t| for the link's vertices v; this is about
# 4,500 of them. The smallest normal float covers the absolute error of
# results that underflow.
_BOUND_EPS = 1e-12
_BOUND_FLOOR = np.finfo(np.float64).tiny


def _bound_boxes(verts: np.ndarray, r: np.ndarray, t: np.ndarray):
    """Per configuration, a box (lo, hi), each (n, 3), that contains the box
    `_link_boxes` gives of (k, 3) rest vertices under n rotated motions (r, t).

    The rest box's centre c and half-widths h move to r c + t and |r| h
    (Arvo, "Transforming Axis-Aligned Bounding Boxes", Graphics Gems, 1990),
    a matrix-vector product each instead of one per vertex. The box is padded
    by _BOUND_EPS times a bound on |v| + |t| (rotation entries are at most 1),
    plus _BOUND_FLOOR, so that rounding can never make it tighter than the
    vertex box.
    """
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    rows = r.reshape(-1, 3)
    centre = (rows @ ((lo + hi) * 0.5)).reshape(-1, 3) + t
    reach = (np.abs(rows) @ ((hi - lo) * 0.5)).reshape(-1, 3)
    reach += _BOUND_EPS * (np.abs(t) + np.maximum(-lo, hi).sum()) + _BOUND_FLOOR
    return centre - reach, centre + reach


def _overlap(lo_a, hi_a, lo_b, hi_b, tolerance: float) -> np.ndarray:
    """Per configuration, whether two (n, 3) box stacks overlap within the tolerance."""
    return _all3((lo_a <= hi_b + tolerance) & (lo_b <= hi_a + tolerance))


def _broadphase(verts: dict, world: dict, unrotated: set, pairs, tolerance: float) -> list:
    """The link pairs whose vertex boxes overlap within the tolerance at some
    configuration, as (a, b, rows) with those rows in order.

    `verts` maps link ids to rest vertices, `world` to their (n, 3, 3)
    rotations and (n, 3) translations, and `unrotated` holds the links that no
    configuration rotates. Level 1 boxes every link: an unrotated link by its
    rest box, translated, which is exact, and a rotated link by
    `_bound_boxes`, which contains its vertex box; each pair tests every row
    on them. Level 2 computes the exact `_link_boxes` of a rotated link for
    the rows that some pair keeps at level 1, from the very products a call
    on the whole block makes, and tests each pair's kept rows again on those
    boxes. So the survivors are those of exact boxes on every row, bit for
    bit, whichever rows level 1 keeps.
    """
    lo, hi = {}, {}
    for link_id, (r, t) in world.items():
        if link_id in unrotated:
            lo[link_id], hi[link_id] = _link_boxes(verts[link_id], r, t, True)
        else:
            lo[link_id], hi[link_id] = _bound_boxes(verts[link_id], r, t)
    kept, need = [], {}
    for a, b in pairs:
        rows = np.flatnonzero(_overlap(lo[a], hi[a], lo[b], hi[b], tolerance))
        if len(rows) == 0:
            continue
        kept.append((a, b, rows))
        for link_id in (a, b):
            if link_id not in unrotated:
                need.setdefault(link_id, np.zeros(len(lo[link_id]), dtype=bool))[rows] = True
    for link_id, keep in need.items():
        lo[link_id], hi[link_id] = _link_boxes(verts[link_id], *world[link_id], False, keep)
    survivors = []
    for a, b, rows in kept:
        rows = rows[_overlap(lo[a][rows], hi[a][rows], lo[b][rows], hi[b][rows], tolerance)]
        if len(rows):
            survivors.append((a, b, rows))
    return survivors


def check_configs(
    instance: AssetInstance, joint_ids, values: np.ndarray, plan: SweepPlan
) -> CollisionReport:
    """Pose the instance at each row of `values` and report penetrating pairs.

    Column k of `values` holds joint `joint_ids[k]`; joints without a column
    sit at their defaults. Forward kinematics and the two-level AABB
    broadphase (`_broadphase`) run vectorized over blocks of rows; the exact
    triangle narrowphase runs per link pair over batches of its surviving
    rows, and a link's triangle corners are gathered when a pair of it first
    gets there.
    """
    verts = {l.link_id: l.mesh.vertices for l in instance.links if not l.mesh.is_empty}
    pairs = list(_candidate_pairs(instance, plan))
    local: dict = {}  # link id -> rest triangle corners
    findings: list[Finding] = []
    # Narrowphase results depend only on the pair's relative pose, which grid
    # sweeps repeat heavily (other joints do not move the pair); memoize on it.
    rel_cache: dict = {}
    for start in range(0, len(values), _CHUNK):
        block = values[start : start + _CHUNK]
        n = len(block)
        quat, trans, rot = instance.tree.pose(dict(zip(joint_ids, block.T)), n)
        world, unrotated = {}, set()
        for link_id in verts:
            i = instance.tree.link_index[link_id]
            world[link_id] = (rot[i], trans[i])
            if not quat[i, :, 1:].any():
                unrotated.add(link_id)
        survivors = _broadphase(verts, world, unrotated, pairs, plan.tolerance)
        for a, b, hits in survivors:
            for link_id in (a, b):
                if link_id not in local:
                    local[link_id] = instance.link(link_id).mesh.triangle_corners()
            (ra, ta), (rb, tb) = world[a], world[b]
            # Relative poses over the whole block: each row's 3x3 product keeps
            # the memory layout, and so the bits, of `ra[c].T @ rb[c]` alone.
            ra_t = ra.transpose(0, 2, 1)
            rel_r = np.round((ra_t @ rb)[hits].reshape(-1, 9), 9)
            rel_t = np.round((ra_t @ (tb - ta)[:, :, None])[hits, :, 0], 9)
            keys = [(a, b) + tuple(k) for k in np.hstack([rel_r, rel_t]).tolist()]
            # The first row of each relative pose not yet memoized runs the
            # narrowphase, in batches of at most _BATCH_TRIANGLES posed triangles.
            fresh: dict = {}
            for ci, key in zip(hits.tolist(), keys):
                if key not in rel_cache:
                    fresh.setdefault(key, ci)
            rows = np.array(list(fresh.values()), dtype=np.intp)
            step = max(1, _BATCH_TRIANGLES // (len(local[a]) + len(local[b])))
            witnesses = []
            for s in range(0, len(rows), step):
                batch = rows[s : s + step]
                witnesses += _pair_witnesses(
                    _posed(local[a], ra[batch], ta[batch]),
                    _posed(local[b], rb[batch], tb[batch]),
                    plan.tolerance,
                )
            rel_cache.update(zip(fresh, witnesses))
            for ci, key in zip(hits.tolist(), keys):
                witness = rel_cache[key]
                if witness is not None:
                    config = dict(zip(joint_ids, block[ci].tolist()))
                    findings.append(Finding(a, b, config, witness[0], witness[1]))
    findings.sort(key=lambda f: (sorted(f.config.items()), f.link_a, f.link_b))
    return CollisionReport(tuple(findings), len(values))


def sweep_check(instance: AssetInstance, plan: SweepPlan | None = None) -> CollisionReport:
    """Sweep the joint ranges per the plan and report any penetrating pairs."""
    plan = plan or SweepPlan()
    return check_configs(instance, *_joint_samples(instance, plan), plan)


def check_at(instance: AssetInstance, config: dict, plan: SweepPlan | None = None) -> CollisionReport:
    """Single-configuration specialization of the sweep."""
    plan = plan or SweepPlan()
    full = instance.default_config()
    full.update(config)
    joint_ids = sorted(full)
    values = np.array([[full[j] for j in joint_ids]], dtype=np.float64)
    return check_configs(instance, joint_ids, values, plan)


def verify_finding(instance: AssetInstance, finding: Finding) -> bool:
    """Re-pose the instance at the finding's config and re-test the witness pair
    with the exact (un-inset) triangle test."""
    world = forward_kinematics(instance, finding.config)
    tri_a = world[finding.link_a].apply(
        instance.link(finding.link_a).mesh.triangle_corners()[finding.triangle_a]
    )
    tri_b = world[finding.link_b].apply(
        instance.link(finding.link_b).mesh.triangle_corners()[finding.triangle_b]
    )
    return triangles_intersect(tri_a, tri_b)
