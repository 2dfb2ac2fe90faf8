import hashlib
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from artigen import collision
from artigen.blueprint import extract_blueprint, instantiate
from artigen.collision import (
    CollisionReport,
    SweepPlan,
    _first_hits,
    _joint_samples,
    _offset_inward,
    _pair_witnesses,
    check_at,
    sweep_check,
    verify_finding,
)
from artigen.errors import InvalidParameterError, PlanTooLargeError, RangeError
from artigen.generators import CATEGORY_NAMES, build_instance
from artigen.geometry import (
    DEGENERATE_AREA,
    intersecting_pairs,
    quat_to_matrix,
    triangle_areas,
    triangles_intersect,
)
from artigen.graph import NodeGraph
from artigen.params import ParamVector
from artigen.patterns import build_pattern


def instance_of(graph, category="fixture"):
    return instantiate(extract_blueprint(graph), graph, ParamVector({}), category=category)


def two_disjoint_cubes():
    g = NodeGraph()
    a = g.box((1, 1, 1))
    b = g.box((1, 1, 1), at=(3, 0, 0))
    m = g.merge(a)
    # separate link via a fixed joint so there are two rigid parts
    j = g.revolute(m, b, (0, 0, 0), (0, 0, 1), 0.0, 0.0, labels=(None, None, "offside"))
    g.set_output(j)
    return instance_of(g)


def overlapping_at_midrange():
    """A stick that sweeps through a fixed obstacle box exactly at mid-range."""
    g = NodeGraph()
    base = g.box((0.2, 0.2, 0.2))
    obstacle = g.box((0.4, 0.4, 0.4), at=(1.0, 0, -1.0))
    merged = g.merge(base)
    stick = g.box((1.4, 0.08, 0.08), at=(0.9, 0, 0))
    with_obstacle = g.revolute(
        merged, obstacle, (0, 0, 0), (0, 0, 1), 0.0, 0.0, labels=(None, None, "obstacle")
    )
    out = g.revolute(
        with_obstacle, stick, (0, 0, 0), (0, 1, 0), 0.0, math.pi / 2,
        labels=("sweep", "base", "stick"),
    )
    g.set_output(out)
    return instance_of(g)


class TestBasics:
    def test_disjoint_clean(self):
        report = sweep_check(two_disjoint_cubes(), SweepPlan(pair_filter="all"))
        assert report.clean
        assert report.findings == ()
        assert report.configs_tested == 1  # single fixed joint collapses the grid

    def test_constructed_overlap_found_with_recheckable_witness(self):
        inst = overlapping_at_midrange()
        report = sweep_check(inst, SweepPlan(samples=5, pair_filter="all"))
        assert not report.clean
        assert frozenset(("obstacle_0", "stick_0")) in report.colliding_pairs()
        for f in report.findings:
            assert verify_finding(inst, f)

    def test_check_at_defaults_clean_and_matches_grid1(self):
        inst = overlapping_at_midrange()
        at = check_at(inst, {}, SweepPlan(pair_filter="all"))
        grid1 = sweep_check(inst, SweepPlan(samples=1, pair_filter="all"))
        assert at.clean and grid1.clean
        assert at.configs_tested == grid1.configs_tested == 1

    def test_out_of_range_config_rejected(self):
        inst = overlapping_at_midrange()
        with pytest.raises(RangeError):
            check_at(inst, {"sweep_0": 9.0})

    def test_adjacent_excluded_skips_jointed_pairs(self):
        # parent and child overlap by construction, but they are adjacent
        g = NodeGraph()
        base = g.box((1, 1, 1))
        child = g.box((1, 1, 1), at=(0.3, 0, 0))
        j = g.revolute(base, child, (0, 0, 0), (0, 0, 1), -0.5, 0.5, labels=(None, None, "lid"))
        g.set_output(j)
        inst = instance_of(g)
        assert sweep_check(inst, SweepPlan(samples=3)).clean
        assert not sweep_check(inst, SweepPlan(samples=3, pair_filter="all")).clean


class TestPlans:
    def test_cap_exceeded_instructs_random(self, monkeypatch):
        inst = overlapping_at_midrange()
        # one moving joint: force a tiny cap instead of many joints
        monkeypatch.setattr("artigen.collision.CONFIG_CAP", 4)
        with pytest.raises(PlanTooLargeError):
            sweep_check(inst, SweepPlan(samples=9, pair_filter="all"))

    def test_random_strategy_deterministic(self):
        inst = overlapping_at_midrange()
        plan = SweepPlan(strategy="random", samples=32, seed=7, pair_filter="all")
        a = sweep_check(inst, plan)
        b = sweep_check(inst, plan)
        assert a.configs_tested == b.configs_tested == 32
        assert [f.to_json_dict() for f in a.findings] == [f.to_json_dict() for f in b.findings]

    def test_grid_doubling_superset_of_pairs(self):
        inst = overlapping_at_midrange()
        # aligned sample points: n and 2n-1 grids share every n-grid point
        small = sweep_check(inst, SweepPlan(samples=3, pair_filter="all"))
        large = sweep_check(inst, SweepPlan(samples=5, pair_filter="all"))
        assert small.colliding_pairs() <= large.colliding_pairs()

    def test_broadphase_conservative(self):
        inst = overlapping_at_midrange()
        with_bp = sweep_check(inst, SweepPlan(samples=5, pair_filter="all"))
        without = sweep_check(inst, SweepPlan(samples=5, pair_filter="all", use_broadphase=False))
        assert with_bp.colliding_pairs() == without.colliding_pairs()
        assert [f.to_json_dict() for f in with_bp.findings] == [
            f.to_json_dict() for f in without.findings
        ]

    def test_findings_unordered_pairs_unique(self):
        inst = overlapping_at_midrange()
        report = sweep_check(inst, SweepPlan(samples=5, pair_filter="all"))
        seen = set()
        for f in report.findings:
            key = (frozenset((f.link_a, f.link_b)), tuple(sorted(f.config.items())))
            assert key not in seen
            seen.add(key)

    def test_tolerance_ignores_touching_contact(self):
        # two boxes sharing an exact face: touching, not penetrating
        g = NodeGraph()
        a = g.box((1, 1, 1))
        b = g.box((1, 1, 1), at=(1.0, 0, 0))
        j = g.revolute(a, b, (0, 0, 0), (0, 0, 1), 0.0, 0.0, labels=(None, None, "neighbor"))
        g.set_output(j)
        inst = instance_of(g)
        assert sweep_check(inst, SweepPlan(pair_filter="all", tolerance=1e-6)).clean
        assert not sweep_check(inst, SweepPlan(pair_filter="all", tolerance=0.0)).clean


class TestPlanInputs:
    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf, "0.1", None])
    def test_non_finite_or_non_numeric_tolerance_rejected(self, tolerance):
        with pytest.raises(InvalidParameterError, match="tolerance"):
            SweepPlan(tolerance=tolerance)

    @pytest.mark.parametrize("samples", [2.5, 3.0, "3", True])
    def test_samples_not_an_integer_rejected(self, samples):
        with pytest.raises(InvalidParameterError, match="samples"):
            SweepPlan(samples=samples)

    def test_numpy_integer_samples_accepted(self):
        assert SweepPlan(strategy="random", samples=np.int64(4)).samples == 4

    @pytest.mark.parametrize(
        "category, seed, plan_seed",
        [("fridge", 28986, 0), ("lamp", 1117, 5), ("toaster", 1, 1), ("dishwasher", 3, 42)],
    )
    def test_random_rows_equal_per_draw_loop(self, category, seed, plan_seed):
        inst = build_instance(category, seed, salt="")
        plan = SweepPlan(strategy="random", samples=50, seed=plan_seed)
        joints = sorted((j for j in inst.joints if not j.is_fixed), key=lambda j: j.joint_id)
        digest = hashlib.sha256(f"sweep|{plan_seed}|{category}|{seed}".encode())
        rng = random.Random(int.from_bytes(digest.digest()[:8], "big"))
        expected = [[rng.uniform(j.lo, j.hi) for j in joints] for _ in range(plan.samples)]
        joint_ids, values = _joint_samples(inst, plan)
        assert joint_ids == [j.joint_id for j in joints]
        assert values.tolist() == expected


# Two seeds per category; the fridge and lamp seeds have findings at 64 configs.
BATCH_SEEDS = {
    "door": (0, 1),
    "toaster": (1, 2),
    "fridge": (28986, 63448),
    "dishwasher": (0, 3),
    "lamp": (1117, 97883),
}


class TestBatchedSweep:
    @pytest.mark.parametrize("category", CATEGORY_NAMES)
    @pytest.mark.parametrize("tolerance", [0.0, 1e-6])
    def test_broadphase_changes_no_report(self, category, tolerance):
        for seed in BATCH_SEEDS[category]:
            inst = build_instance(category, seed, salt="")
            plan = SweepPlan(strategy="random", samples=64, tolerance=tolerance)
            with_bp = sweep_check(inst, plan).to_json_dict()
            without = sweep_check(inst, replace(plan, use_broadphase=False)).to_json_dict()
            assert with_bp == without, (category, seed)
            assert with_bp["findings"] or category not in ("fridge", "lamp")

    @pytest.mark.parametrize("category, seed", [("fridge", 28986), ("lamp", 1117)])
    def test_batch_caps_change_no_report(self, monkeypatch, category, seed):
        inst = build_instance(category, seed, salt="")
        plan = SweepPlan(strategy="random", samples=64)
        expected = sweep_check(inst, plan).to_json_dict()
        assert expected["findings"]
        monkeypatch.setattr("artigen.collision._BATCH_TRIANGLES", 1)
        monkeypatch.setattr("artigen.collision._BATCH_ROWS", 1)
        assert sweep_check(inst, plan).to_json_dict() == expected

    @pytest.mark.parametrize("round_candidates", [1, 3, 10**9])
    @pytest.mark.parametrize("category, seed", [("fridge", 28986), ("lamp", 1117)])
    def test_round_size_changes_no_report(self, monkeypatch, category, seed, round_candidates):
        inst = build_instance(category, seed, salt="")
        plans = [SweepPlan(strategy="random", samples=64, tolerance=t) for t in (1e-6, 0.0)]
        expected = [sweep_check(inst, plan).to_json_dict() for plan in plans]
        assert all(report["findings"] for report in expected)
        monkeypatch.setattr("artigen.collision._ROUND_CANDIDATES", round_candidates)
        assert [sweep_check(inst, plan).to_json_dict() for plan in plans] == expected


class TestUnrotatedLinks:
    @pytest.mark.parametrize("pattern, rotated", [("simple_prismatic", 0), ("simple_revolute", 1)])
    def test_rest_box_bounds_a_link_no_row_rotates(self, monkeypatch, pattern, rotated):
        """Links that no configuration rotates skip the rotated extents, and
        their boxes equal those the rotated extents give."""
        inst = instance_of(build_pattern(pattern))
        plan = SweepPlan(strategy="random", samples=64, pair_filter="all")
        extents, boxes = [], []
        rotated_extents, link_boxes = collision._rotated_extents, collision._link_boxes

        def counted_extents(verts, r):
            extents.append(len(verts))
            return rotated_extents(verts, r)

        def recorded_boxes(verts, r, t, unrotated):
            boxes.append(link_boxes(verts, r, t, unrotated))
            return boxes[-1]

        monkeypatch.setattr(collision, "_rotated_extents", counted_extents)
        monkeypatch.setattr(collision, "_link_boxes", recorded_boxes)
        report = sweep_check(inst, plan).to_json_dict()
        assert len(extents) == rotated
        shortcut, boxes[:] = list(boxes), []
        def forced_boxes(verts, r, t, unrotated):  # every link through the rotated extents
            return recorded_boxes(verts, r, t, False)

        monkeypatch.setattr(collision, "_link_boxes", forced_boxes)
        assert sweep_check(inst, plan).to_json_dict() == report
        assert len(extents) == rotated + len(inst.links)
        for (lo, hi), (lo_full, hi_full) in zip(shortcut, boxes, strict=True):
            assert np.array_equal(lo, lo_full) and np.array_equal(hi, hi_full)


class TestNarrowphase:
    def test_touching_vertex_contact_has_witness_at_zero_tolerance(self):
        # The shared vertex is not the first corner of either triangle, so after
        # a rigid motion its plane distance is rounding noise, not exactly zero.
        a = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 0]], dtype=float)
        b = np.array([[-1, 0, 1], [0, 0, 0], [0, -1, 1]], dtype=float)
        rng = np.random.default_rng(7)
        quats = rng.normal(size=(1000, 4))
        rotations = quat_to_matrix(quats / np.linalg.norm(quats, axis=1, keepdims=True))
        shifts = rng.uniform(-2, 2, size=(1000, 3))
        tris_a = a @ rotations.transpose(0, 2, 1) + shifts[:, None]
        tris_b = b @ rotations.transpose(0, 2, 1) + shifts[:, None]
        witnesses = _pair_witnesses(tris_a[:, None], tris_b[:, None], 0.0)
        missed = sum(
            witness is None
            for tri_a, tri_b, witness in zip(tris_a, tris_b, witnesses)
            if triangles_intersect(tri_a, tri_b)
        )
        assert missed == 0

    @pytest.mark.parametrize("round_candidates", [1, 4, 10**9])
    def test_first_hits_match_a_test_of_every_candidate(self, monkeypatch, round_candidates):
        # Random soups: first hits fall at candidates 0 to 11, four clean
        # configurations have 11 to 17 candidates, some triangles are
        # collapsed, and the last five configurations are moved apart.
        rng = np.random.default_rng(3)
        tris_a = rng.uniform(0, 1, size=(40, 30, 1, 3)) + rng.normal(scale=0.1, size=(40, 30, 3, 3))
        tris_b = rng.uniform(0, 1, size=(40, 25, 1, 3)) + rng.normal(scale=0.1, size=(40, 25, 3, 3))
        tris_a[:, ::7, 2] = tris_a[:, ::7, 1]
        tris_b[-5:] += 10.0
        expected = np.full((2, 40), -1)
        for c, (ta, tb) in enumerate(zip(tris_a, tris_b)):
            boxes = np.all(
                (ta.min(axis=1)[:, None] <= tb.max(axis=1)) & (tb.min(axis=1) <= ta.max(axis=1)[:, None]),
                axis=2,
            )
            live = np.outer(triangle_areas(ta) > DEGENERATE_AREA, triangle_areas(tb) > DEGENERATE_AREA)
            i, j = np.nonzero(boxes & live)
            hits = np.flatnonzero(intersecting_pairs(ta[i], tb[j]))
            if len(hits):
                expected[:, c] = i[hits[0]], j[hits[0]]
        assert (expected[0] >= 0).sum() == 31
        monkeypatch.setattr("artigen.collision._ROUND_CANDIDATES", round_candidates)
        np.testing.assert_array_equal(np.stack(_first_hits(tris_a, tris_b)), expected)

    def test_offset_inward_matches_numpy_reductions(self):
        rng = np.random.default_rng(5)
        tris = rng.normal(size=(7, 50, 3, 3)) * 10.0 ** rng.uniform(-3, 1, size=(7, 50, 1, 1))
        tolerance = 1e-3
        flat = tris.reshape(-1, 3, 3)
        normals = np.cross(flat[:, 1] - flat[:, 0], flat[:, 2] - flat[:, 0])
        shifted = flat - tolerance * (normals / np.linalg.norm(normals, axis=1, keepdims=True))[:, None]
        centroids = shifted.mean(axis=1, keepdims=True)
        rel = shifted - centroids
        dist = np.linalg.norm(rel, axis=2, keepdims=True)
        scale = np.maximum(1.0 - tolerance / np.maximum(dist, 1e-300), 0.0)
        expected = (centroids + rel * scale).reshape(tris.shape)
        assert np.array_equal(_offset_inward(tris, tolerance), expected)


class TestReportJson:
    def test_shape(self):
        inst = overlapping_at_midrange()
        doc = sweep_check(inst, SweepPlan(samples=5, pair_filter="all")).to_json_dict()
        assert set(doc) == {"configs_tested", "clean", "findings"}
        assert doc["clean"] is False
        f = doc["findings"][0]
        assert set(f) == {"link_a", "link_b", "config", "witness"}

    def test_patterns_clean_at_defaults(self):
        for name in ("simple_revolute", "simple_prismatic", "chained_joints"):
            g = build_pattern(name)
            inst = instantiate(extract_blueprint(g), g, ParamVector({}), category=name)
            assert check_at(inst, {}).clean, name
