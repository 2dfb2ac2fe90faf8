"""Joint-range sweeping for self-penetration between rigid parts.

A sweep plan is a value matrix: one column per movable joint, in sorted id
order, and one row per configuration, drawn as a Cartesian grid or as random
draws. The sweep poses every link for blocks of rows with forward kinematics
and culls link pairs with conservative AABB tests; products of a link's rest
vertices with the block's rotation rows, each at most _PRODUCT_ENTRIES
outputs so that it runs on the calling thread, give all its boxes.
Each link pair then takes its surviving rows through the narrowphase
together: rows are posed in batches of at most _BATCH_TRIANGLES triangles,
triangle pairs are culled by their boxes, and contacts are confirmed by the
exact triangle-triangle test `geometry.intersecting_pairs`, at most
_BATCH_ROWS candidate rows per call. That test works row by row, and each
configuration keeps its first hit in (triangle_a, triangle_b) order, so the
caps bound memory and cannot change a report. A row becomes a config dict
only when it carries a finding. `verify_finding` runs the same test on one
row (`triangles_intersect`), so the two agree by construction. A tolerance
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
    _cross,
    intersecting_pairs,
    quat_to_matrix,
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
    use_broadphase: bool = True

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
    normals = _cross(flat[:, 1] - flat[:, 0], flat[:, 2] - flat[:, 0])
    normals = normals / np.linalg.norm(normals, axis=1, keepdims=True)
    shifted = flat - tolerance * normals[:, None, :]
    centroids = shifted.mean(axis=1, keepdims=True)
    rel = shifted - centroids
    dist = np.linalg.norm(rel, axis=2, keepdims=True)
    scale = np.maximum(1.0 - tolerance / np.maximum(dist, 1e-300), 0.0)
    return (centroids + rel * scale).reshape(tris.shape)


def _posed(local: np.ndarray, r: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Rest triangles (k, 3, 3) posed at m rigid motions: (m, k, 3, 3)."""
    return np.matmul(local, r.transpose(0, 2, 1)[:, None]) + t[:, None, None]


def _first_hits(tris_a: np.ndarray, tris_b: np.ndarray):
    """First intersecting (triangle_a, triangle_b) pair of each configuration.

    `tris_a` and `tris_b` are (configs, triangles, 3, 3) stacks. Returns two
    (configs,) index arrays, -1 where a configuration has no hit. Candidates
    are the triangle pairs whose boxes overlap, in (triangle_a, triangle_b)
    order per configuration, and all of them go through the exact test in
    chunks of at most _BATCH_ROWS rows.
    """
    m, n_a, n_b = len(tris_a), tris_a.shape[1], tris_b.shape[1]
    lo_a, hi_a = tris_a.min(axis=2), tris_a.max(axis=2)
    lo_b, hi_b = tris_b.min(axis=2), tris_b.max(axis=2)
    # A triangle outside the other link's box overlaps none of its triangles,
    # and triangles collapsed by the tolerance shrink are skipped.
    live_a = np.all(
        (lo_a <= hi_b.max(axis=1)[:, None]) & (lo_b.min(axis=1)[:, None] <= hi_a), axis=2
    ) & (triangle_areas(tris_a.reshape(-1, 3, 3)).reshape(m, n_a) > DEGENERATE_AREA)
    live_b = np.all(
        (lo_b <= hi_a.max(axis=1)[:, None]) & (lo_a.min(axis=1)[:, None] <= hi_b), axis=2
    ) & (triangle_areas(tris_b.reshape(-1, 3, 3)).reshape(m, n_b) > DEGENERATE_AREA)
    configs, idx_a, idx_b = [], [], []
    for c in range(m):
        ia, ib = np.flatnonzero(live_a[c]), np.flatnonzero(live_b[c])
        overlap = np.all(
            (lo_a[c, ia][:, None] <= hi_b[c, ib]) & (lo_b[c, ib] <= hi_a[c, ia][:, None]), axis=2
        )
        i, j = np.nonzero(overlap)
        configs.append(np.full(len(i), c))
        idx_a.append(ia[i])
        idx_b.append(ib[j])
    configs, idx_a, idx_b = np.concatenate(configs), np.concatenate(idx_a), np.concatenate(idx_b)
    hit = np.zeros(len(configs), dtype=bool)
    for s in range(0, len(configs), _BATCH_ROWS):
        part = slice(s, s + _BATCH_ROWS)
        hit[part] = intersecting_pairs(
            tris_a[configs[part], idx_a[part]], tris_b[configs[part], idx_b[part]]
        )
    rows = np.flatnonzero(hit)
    hit_configs, first = np.unique(configs[rows], return_index=True)
    first_a, first_b = np.full(m, -1), np.full(m, -1)
    first_a[hit_configs] = idx_a[rows[first]]
    first_b[hit_configs] = idx_b[rows[first]]
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
# Outputs per broadphase product. Products this small run on the calling
# thread; a larger one lets OpenBLAS hand it to helper threads, which then spin
# between calls and hold a second core for no gain in time.
_PRODUCT_ENTRIES = 65536


def _rotated_extents(verts: np.ndarray, r: np.ndarray):
    """Per-axis min and max of (k, 3) rest vertices under an (n, 3, 3) stack of
    rotations, as two flat (n * 3,) arrays.

    The rest vertices meet the stacked rotation rows in (k, 3) @ (3, columns)
    products of at most _PRODUCT_ENTRIES outputs, each reduced down its
    contiguous columns.
    """
    rows = r.reshape(-1, 3)
    step = max(1, _PRODUCT_ENTRIES // len(verts))
    lo, hi = [], []
    for s in range(0, len(rows), step):
        pts = verts @ rows[s : s + step].T
        lo.append(pts.min(axis=0))
        hi.append(pts.max(axis=0))
    return np.concatenate(lo), np.concatenate(hi)


def check_configs(
    instance: AssetInstance, joint_ids, values: np.ndarray, plan: SweepPlan
) -> CollisionReport:
    """Pose the instance at each row of `values` and report penetrating pairs.

    Column k of `values` holds joint `joint_ids[k]`; joints without a column
    sit at their defaults. Forward kinematics and the AABB broadphase run
    vectorized over blocks of rows; the exact triangle narrowphase runs per
    link pair over batches of its surviving rows.
    """
    local = {
        l.link_id: l.mesh.triangle_corners()
        for l in instance.links
        if not l.mesh.is_empty
    }
    verts_rest = {
        link_id: instance.link(link_id).mesh.vertices for link_id in local
    }
    pairs = list(_candidate_pairs(instance, plan))
    findings: list[Finding] = []
    # Narrowphase results depend only on the pair's relative pose, which grid
    # sweeps repeat heavily (other joints do not move the pair); memoize on it.
    rel_cache: dict = {}
    for start in range(0, len(values), _CHUNK):
        block = values[start : start + _CHUNK]
        n = len(block)
        quat, trans = instance.tree.pose(dict(zip(joint_ids, block.T)), n)
        world, lo_box, hi_box = {}, {}, {}
        for link_id in local:
            i = instance.tree.link_index[link_id]
            r = quat_to_matrix(quat[i])
            t = trans[i] + r @ instance.links[i].local_frame.translation
            world[link_id] = (r, t)
            # Adding t after the min/max gives the same bits, as rounding is monotone.
            lo, hi = _rotated_extents(verts_rest[link_id], r)
            lo_box[link_id] = lo.reshape(n, 3) + t
            hi_box[link_id] = hi.reshape(n, 3) + t
        for a, b in pairs:
            if plan.use_broadphase:
                mask = np.all(
                    (lo_box[a] <= hi_box[b] + plan.tolerance)
                    & (lo_box[b] <= hi_box[a] + plan.tolerance),
                    axis=1,
                )
                hits = np.flatnonzero(mask)
            else:
                hits = np.arange(n)
            if len(hits) == 0:
                continue
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
