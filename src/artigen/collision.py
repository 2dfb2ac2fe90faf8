"""Joint-range sweeping for self-penetration between rigid parts.

The sweep samples joint configurations (a Cartesian grid or random draws),
poses every link with forward kinematics, culls link pairs with a
conservative AABB broadphase, and confirms contacts with exact
triangle-triangle tests. A tolerance gate re-tests candidate pairs with the
triangles offset inward along their normals, so parts that merely touch
within tolerance are not reported; witnesses always come from the exact test
and re-verify. Containment without surface contact is outside the contract
(witnesses are surface-triangle pairs).
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field

import numpy as np

from .blueprint import AssetInstance, forward_kinematics
from .errors import InvalidParameterError, PlanTooLargeError
from .geometry import (
    DEGENERATE_AREA,
    quat_to_matrix,
    triangle_areas,
    triangle_pairs_plane_filter,
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
        if self.samples < 1:
            raise InvalidParameterError("samples must be >= 1")
        if self.tolerance < 0:
            raise InvalidParameterError("tolerance must be >= 0")
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
    """Per-joint sample values, in sorted joint-id order."""
    joints = sorted(
        (j for j in instance.joints if not j.is_fixed), key=lambda j: j.joint_id
    )
    if plan.strategy == "grid":
        per_joint = []
        for j in joints:
            if plan.samples == 1:
                per_joint.append((j.joint_id, (j.default,)))
            else:
                per_joint.append(
                    (j.joint_id, tuple(np.linspace(j.lo, j.hi, plan.samples).tolist()))
                )
        total = 1
        for _, vals in per_joint:
            total *= len(vals)
            if total > CONFIG_CAP:
                raise PlanTooLargeError(
                    f"grid sweep needs {total}+ configurations (cap {CONFIG_CAP}); "
                    "use the random strategy instead"
                )
        names = [name for name, _ in per_joint]
        for combo in itertools.product(*(vals for _, vals in per_joint)):
            yield dict(zip(names, combo))
        return
    digest = hashlib.sha256(f"sweep|{plan.seed}|{instance.category}|{instance.seed}".encode())
    rng = random.Random(int.from_bytes(digest.digest()[:8], "big"))
    for _ in range(plan.samples):
        yield {j.joint_id: rng.uniform(j.lo, j.hi) for j in joints}


def _offset_inward(tris: np.ndarray, tolerance: float) -> np.ndarray:
    """Shift triangles along their inward normals and shrink them in-plane.

    The normal offset separates parallel face-on-face touches; the centroid
    shrink separates coplanar faces that only share a boundary edge. Triangles
    smaller than the tolerance collapse and are skipped by the caller.
    """
    normals = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
    normals = normals / np.linalg.norm(normals, axis=1, keepdims=True)
    shifted = tris - tolerance * normals[:, None, :]
    centroids = shifted.mean(axis=1, keepdims=True)
    rel = shifted - centroids
    dist = np.linalg.norm(rel, axis=2, keepdims=True)
    scale = np.maximum(1.0 - tolerance / np.maximum(dist, 1e-300), 0.0)
    return centroids + rel * scale


def _first_hit(tris_a: np.ndarray, tris_b: np.ndarray):
    """First intersecting (triangle_a, triangle_b) index pair, or None."""
    lo_a, hi_a = tris_a.min(axis=1), tris_a.max(axis=1)
    lo_b, hi_b = tris_b.min(axis=1), tris_b.max(axis=1)
    overlap = np.all(
        (lo_a[:, None, :] <= hi_b[None, :, :]) & (lo_b[None, :, :] <= hi_a[:, None, :]),
        axis=2,
    )
    idx_a, idx_b = np.nonzero(overlap)
    if len(idx_a) == 0:
        return None
    keep = triangle_pairs_plane_filter(tris_a[idx_a], tris_b[idx_b])
    # Skip triangles collapsed by the tolerance shrink.
    keep &= (triangle_areas(tris_a) > DEGENERATE_AREA)[idx_a]
    keep &= (triangle_areas(tris_b) > DEGENERATE_AREA)[idx_b]
    for ia, ib in zip(idx_a[keep], idx_b[keep]):
        if triangles_intersect(tris_a[ia], tris_b[ib]):
            return int(ia), int(ib)
    return None


def _pair_witness(tris_a: np.ndarray, tris_b: np.ndarray, tolerance: float):
    """Witness pair when the links penetrate deeper than the contact tolerance.

    The tolerance gate runs on copies offset inward along their face normals:
    surfaces that merely touch separate, genuine penetration still crosses.
    The reported witness always comes from the exact test on the original
    triangles, so it re-verifies.
    """
    if tolerance > 0:
        gate = _first_hit(_offset_inward(tris_a, tolerance), _offset_inward(tris_b, tolerance))
        if gate is None:
            return None
    return _first_hit(tris_a, tris_b)


def _candidate_pairs(instance: AssetInstance, plan: SweepPlan):
    adjacent = instance.adjacent_pairs()
    names = [l.link_id for l in instance.links if not l.mesh.is_empty]
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            if plan.pair_filter == PAIR_FILTER_ADJACENT_EXCLUDED and frozenset((a, b)) in adjacent:
                continue
            yield a, b


_CHUNK = 2048


def check_configs(instance: AssetInstance, configs, plan: SweepPlan) -> CollisionReport:
    """Pose the instance at each configuration and report penetrating pairs.

    Forward kinematics and the AABB broadphase run vectorized over blocks of
    configurations; the exact triangle narrowphase only touches survivors.
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
    tested = 0
    configs = iter(configs)
    while True:
        block = list(itertools.islice(configs, _CHUNK))
        if not block:
            break
        tested += len(block)
        joint_ids = sorted({k for cfg in block for k in cfg})
        values = {
            jid: np.array([cfg.get(jid, instance.joint(jid).default) for cfg in block])
            for jid in joint_ids
        }
        quat, trans = instance.tree.pose(values, len(block))
        world, lo_box, hi_box = {}, {}, {}
        for link_id in local:
            i = instance.tree.link_index[link_id]
            r = quat_to_matrix(quat[i])
            t = trans[i] + r @ instance.links[i].local_frame.translation
            world[link_id] = (r, t)
            pts = np.einsum("nij,kj->nki", r, verts_rest[link_id]) + t[:, None, :]
            lo_box[link_id] = pts.min(axis=1)
            hi_box[link_id] = pts.max(axis=1)
        for a, b in pairs:
            if plan.use_broadphase:
                mask = np.all(
                    (lo_box[a] <= hi_box[b] + plan.tolerance)
                    & (lo_box[b] <= hi_box[a] + plan.tolerance),
                    axis=1,
                )
                hits = np.nonzero(mask)[0]
            else:
                hits = np.arange(len(block))
            for ci in hits:
                ra, ta = world[a][0][ci], world[a][1][ci]
                rb, tb = world[b][0][ci], world[b][1][ci]
                rel_r = ra.T @ rb
                rel_t = ra.T @ (tb - ta)
                key = (a, b) + tuple(np.round(rel_r.ravel(), 9)) + tuple(np.round(rel_t, 9))
                if key in rel_cache:
                    witness = rel_cache[key]
                else:
                    tris_a = local[a] @ ra.T + ta
                    tris_b = local[b] @ rb.T + tb
                    witness = _pair_witness(tris_a, tris_b, plan.tolerance)
                    rel_cache[key] = witness
                if witness is not None:
                    findings.append(
                        Finding(a, b, dict(block[ci]), witness[0], witness[1])
                    )
    findings.sort(key=lambda f: (sorted(f.config.items()), f.link_a, f.link_b))
    return CollisionReport(tuple(findings), tested)


def sweep_check(instance: AssetInstance, plan: SweepPlan | None = None) -> CollisionReport:
    """Sweep the joint ranges per the plan and report any penetrating pairs."""
    plan = plan or SweepPlan()
    return check_configs(instance, _joint_samples(instance, plan), plan)


def check_at(instance: AssetInstance, config: dict, plan: SweepPlan | None = None) -> CollisionReport:
    """Single-configuration specialization of the sweep."""
    plan = plan or SweepPlan()
    full = dict(instance.default_config())
    full.update(config)
    return check_configs(instance, [full], plan)


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
