import math

import numpy as np
import pytest

from artigen.blueprint import extract_blueprint, instantiate
from artigen.collision import (
    CollisionReport,
    SweepPlan,
    _pair_witness,
    check_at,
    sweep_check,
    verify_finding,
)
from artigen.errors import PlanTooLargeError, RangeError
from artigen.geometry import quat_to_matrix, triangles_intersect
from artigen.graph import JOINT_PRISMATIC, JOINT_REVOLUTE, MERGE, NodeGraph
from artigen.params import ParamVector
from artigen.patterns import _box, _joint, _shift
from artigen.patterns import build_pattern


def instance_of(graph, category="fixture"):
    return instantiate(extract_blueprint(graph), graph, ParamVector({}), category=category)


def two_disjoint_cubes():
    g = NodeGraph()
    a = _box(g, (1, 1, 1))
    b = _shift(g, _box(g, (1, 1, 1)), (3, 0, 0))
    m = g.add_node(MERGE, {})
    g.connect(a, m, "geometry_0")
    # separate link via a fixed joint so there are two rigid parts
    j = _joint(
        g, JOINT_REVOLUTE, m, b,
        pivot=(0, 0, 0), axis=(0, 0, 1), range_lo=0.0, range_hi=0.0,
        child_label="offside",
    )
    g.set_output(j)
    return instance_of(g)


def overlapping_at_midrange():
    """A stick that sweeps through a fixed obstacle box exactly at mid-range."""
    g = NodeGraph()
    base = _box(g, (0.2, 0.2, 0.2))
    obstacle = _shift(g, _box(g, (0.4, 0.4, 0.4)), (1.0, 0, -1.0))
    merged = g.add_node(MERGE, {})
    g.connect(base, merged, "geometry_0")
    stick = _shift(g, _box(g, (1.4, 0.08, 0.08)), (0.9, 0, 0))
    with_obstacle = _joint(
        g, JOINT_REVOLUTE, merged, obstacle,
        pivot=(0, 0, 0), axis=(0, 0, 1), range_lo=0.0, range_hi=0.0,
        child_label="obstacle",
    )
    out = _joint(
        g, JOINT_REVOLUTE, with_obstacle, stick,
        pivot=(0, 0, 0), axis=(0, 1, 0), range_lo=0.0, range_hi=math.pi / 2,
        joint_label="sweep", child_label="stick", parent_label="base",
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
        base = _box(g, (1, 1, 1))
        child = _shift(g, _box(g, (1, 1, 1)), (0.3, 0, 0))
        j = _joint(
            g, JOINT_REVOLUTE, base, child,
            pivot=(0, 0, 0), axis=(0, 0, 1), range_lo=-0.5, range_hi=0.5,
            child_label="lid",
        )
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
        a = _box(g, (1, 1, 1))
        b = _shift(g, _box(g, (1, 1, 1)), (1.0, 0, 0))
        j = _joint(
            g, JOINT_REVOLUTE, a, b,
            pivot=(0, 0, 0), axis=(0, 0, 1), range_lo=0.0, range_hi=0.0,
            child_label="neighbor",
        )
        g.set_output(j)
        inst = instance_of(g)
        assert sweep_check(inst, SweepPlan(pair_filter="all", tolerance=1e-6)).clean
        assert not sweep_check(inst, SweepPlan(pair_filter="all", tolerance=0.0)).clean


class TestNarrowphase:
    def test_touching_vertex_contact_has_witness_at_zero_tolerance(self):
        # The shared vertex is not the first corner of either triangle, so after
        # a rigid motion its plane distance is rounding noise, not exactly zero.
        a = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 0]], dtype=float)
        b = np.array([[-1, 0, 1], [0, 0, 0], [0, -1, 1]], dtype=float)
        rng = np.random.default_rng(7)
        quats = rng.normal(size=(1000, 4))
        rotations = quat_to_matrix(quats / np.linalg.norm(quats, axis=1, keepdims=True))
        missed = 0
        for r, t in zip(rotations, rng.uniform(-2, 2, size=(1000, 3))):
            tri_a, tri_b = a @ r.T + t, b @ r.T + t
            if triangles_intersect(tri_a, tri_b):
                missed += _pair_witness(tri_a[None], tri_b[None], 0.0) is None
        assert missed == 0


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
