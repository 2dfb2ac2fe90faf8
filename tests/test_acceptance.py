"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here, not configurable.
"""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import artigen
from artigen.blueprint import extract_blueprint, instantiate
from artigen.cli import main as cli_main
from artigen.collision import SweepPlan, sweep_check, verify_finding
from artigen.errors import PlanTooLargeError
from artigen.evaluate import evaluate
from artigen.export import export_mjcf, export_urdf, parse_mjcf, parse_urdf
from artigen.generators import CATEGORY_NAMES, build_instance, count_variations, get_generator
from artigen.graph import JOINT_PRISMATIC, JOINT_REVOLUTE, NodeGraph
from artigen.params import ParamVector, sample_parameters
from artigen.patterns import PATTERN_NAMES, build_pattern

from helpers import assert_kinematic_isomorphism, duplicated_revolute

TABLE_DIMS = {"door": 39, "fridge": 32, "dishwasher": 13, "lamp": 29, "toaster": 14}


def ok(n, text):
    print(f"ACCEPTANCE {n:2d} PASS: {text}")


def test_01_table_dof_parity(capsys):
    for category, dims in TABLE_DIMS.items():
        code = cli_main(["info", category])
        out = capsys.readouterr().out
        assert code == 0
        assert f"continuous dims: {dims}" in out, category
    with capsys.disabled():
        ok(1, "cmd_info continuous dims match the documented inventory exactly")


def test_02_variation_magnitude():
    orders = {}
    for category in CATEGORY_NAMES:
        vc = count_variations(get_generator(category))
        total = vc.assets_at_3_values
        assert isinstance(total, int)
        orders[category] = len(str(total)) - 1  # exact floor(log10) for positive ints
        assert 6 <= orders[category] <= 20, (category, total)
    door = count_variations(get_generator("door"))
    dish = count_variations(get_generator("dishwasher"))
    assert door.discrete_combinations >= 60
    assert door.assets_at_3_values == door.discrete_combinations * 4052555153018976267
    assert dish.assets_at_3_values == dish.discrete_combinations * 3**13
    assert orders["dishwasher"] <= 9
    assert orders["door"] == 20
    ok(2, "assets_at_3_values spans 10^6..10^20 (exact integers; door high, dishwasher low)")


def _rotation_about_pivot(point, pivot, axis, angle):
    """Independent Rodrigues-formula oracle for rotation about a pivot line."""
    p = np.asarray(point, dtype=float) - pivot
    k = np.asarray(axis, dtype=float)
    k = k / np.linalg.norm(k)
    rotated = (
        p * math.cos(angle)
        + np.cross(k, p) * math.sin(angle)
        + k * np.dot(k, p) * (1 - math.cos(angle))
    )
    return rotated + pivot


def test_03_joint_semantics_oracle():
    rng = random.Random(2024)
    worst = 0.0
    for trial in range(1000):
        kind = JOINT_REVOLUTE if trial % 2 == 0 else JOINT_PRISMATIC
        pivot = np.array([rng.uniform(-1, 1) for _ in range(3)])
        axis = np.array([rng.uniform(-1, 1) for _ in range(3)])
        while np.linalg.norm(axis) < 1e-3:
            axis = np.array([rng.uniform(-1, 1) for _ in range(3)])
        axis = axis / np.linalg.norm(axis)
        lo, hi = sorted((rng.uniform(-2, 2), rng.uniform(-2, 2)))
        if hi - lo < 1e-6:
            hi = lo + 1.0
        value = rng.uniform(lo, hi)

        g = NodeGraph()
        parent = g.add_node("primitive", {"shape": "box", "size_x": 0.2, "size_y": 0.2, "size_z": 0.2})
        child = g.add_node("primitive", {"shape": "box", "size_x": 0.3, "size_y": 0.2, "size_z": 0.1})
        shift = g.add_node(
            "transform",
            {"translate_x": rng.uniform(-1, 1), "translate_y": rng.uniform(-1, 1),
             "translate_z": rng.uniform(1.0, 2.0)},
        )
        g.connect(child, shift, "geometry")
        j = g.add_node(
            kind,
            {"pivot": tuple(pivot), "axis": tuple(axis), "range_lo": lo, "range_hi": hi,
             "joint_label": "j", "child_label": "arm"},
        )
        g.connect(parent, j, "parent")
        g.connect(shift, j, "child")
        g.set_output(j)

        rest = evaluate(g)
        posed = evaluate(g, joint_values={"j_0": value})
        got = posed.posed_mesh("arm_0").vertices
        base = rest.link("arm_0").mesh.vertices
        if kind == JOINT_REVOLUTE:
            expected = np.array([_rotation_about_pivot(v, pivot, axis, value) for v in base])
        else:
            expected = base + value * axis
        worst = max(worst, float(np.abs(got - expected).max()))
    assert worst < 1e-9, worst
    ok(3, f"1000 random joint evaluations match the closed form (worst {worst:.2e} < 1e-9)")


def test_04_appendix_conformance_corpus(tmp_path):
    from importlib import resources

    for name in PATTERN_NAMES:
        text = resources.files("artigen.data").joinpath(f"patterns/{name}.json").read_text("utf-8")
        graph = NodeGraph.deserialize(text)
        assert graph.validate() == [], name
        bp = extract_blueprint(graph)
        inst = instantiate(bp, graph, ParamVector({}), category=name)
        u = export_urdf(inst, tmp_path / name / "urdf")
        m = export_mjcf(inst, tmp_path / name / "mjcf")
        assert_kinematic_isomorphism(inst, parse_urdf(u.model_path))
        assert_kinematic_isomorphism(inst, parse_mjcf(m.model_path))
    # screw: two chained joints with one axis through a zero-extent passthrough
    graph = build_pattern("multi_joint_screw")
    inst = instantiate(extract_blueprint(graph), graph, ParamVector({}), category="screw")
    passthroughs = [l for l in inst.links if "__passthrough_" in l.link_id]
    assert len(passthroughs) == 1 and passthroughs[0].mesh.is_empty
    model = parse_urdf(export_urdf(inst, tmp_path / "screw").model_path)
    moving = [j for j in model.joints if j.joint_type != "fixed"]
    assert sorted(j.joint_type for j in moving) == ["prismatic", "revolute"]
    np.testing.assert_allclose(moving[0].axis, moving[1].axis, atol=1e-9)
    chain = {j.parent: j.child for j in moving}
    assert len(chain) == 2  # serial, not parallel
    ok(4, "all six articulation fixtures validate, export, and round-trip; screw chains")


def test_05_blueprint_category_invariance():
    for category in CATEGORY_NAMES:
        gen = get_generator(category)
        signatures = set()
        for seed in range(100):
            params = sample_parameters(gen.space, seed, salt="")
            signatures.add(extract_blueprint(gen.build(params)).signature())
        assert len(signatures) == 1, category
    ok(5, "100 seeds per category yield exactly one blueprint signature each")


def test_06_export_round_trip(tmp_path):
    for category in CATEGORY_NAMES:
        for seed in range(20):
            inst = build_instance(category, seed, salt="")
            u = export_urdf(inst, tmp_path / f"{category}_{seed}_u")
            m = export_mjcf(inst, tmp_path / f"{category}_{seed}_m")
            assert_kinematic_isomorphism(
                inst, parse_urdf(u.model_path), origin_tol=1e-6, axis_tol=1e-9, limit_tol=1e-9
            )
            assert_kinematic_isomorphism(
                inst, parse_mjcf(m.model_path), origin_tol=1e-6, axis_tol=1e-9, limit_tol=1e-9
            )
    ok(6, "20 seeds x 5 categories x 2 formats round-trip kinematically isomorphic")


def _bundle_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_07_determinism(tmp_path):
    argv = ["generate", "--category", "fridge", "--seed", "11", "--format", "both"]
    assert cli_main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert cli_main(argv + ["--out", str(tmp_path / "b")]) == 0
    script = (
        "import sys\nfrom artigen.cli import main\n"
        f"sys.exit(main({argv + ['--out', str(tmp_path / 'c')]!r}))\n"
    )
    # The child imports the same artigen as this process, wherever it came from.
    src = str(Path(artigen.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    a = _bundle_bytes(tmp_path / "a")
    b = _bundle_bytes(tmp_path / "b")
    c = _bundle_bytes(tmp_path / "c")
    assert a == b == c
    assert any(name.endswith("model.urdf") for name in a)
    ok(7, "bundles byte-identical across two runs and a separate process")


def _adversarial_fixture(rng):
    """A stick sweeping into a box placed somewhere along its arc."""
    g = NodeGraph()
    base = g.box((0.15, 0.15, 0.15))
    theta = rng.uniform(0.3, 1.2)
    reach = rng.uniform(0.6, 1.4)
    ox = reach * math.cos(theta)
    oz = -reach * math.sin(theta)
    obstacle = g.box((rng.uniform(0.2, 0.5),) * 3, at=(ox, 0, oz))
    merged = g.merge(base)
    stick = g.box((1.7, 0.06, 0.06), at=(1.05, 0, 0))
    fixture = g.revolute(
        merged, obstacle, (0, 0, 0), (0, 0, 1), 0.0, 0.0, labels=(None, None, "obstacle")
    )
    out = g.revolute(
        fixture, stick, (0, 0, 0), (0, 1, 0), 0.0, math.pi / 2, labels=("sweep", None, "stick")
    )
    g.set_output(out)
    return instantiate(extract_blueprint(g), g, ParamVector({}), category="fixture")


def test_08_collision_soundness_and_regression():
    rng = random.Random(99)
    witnesses = 0
    for k in range(50):
        inst = _adversarial_fixture(rng)
        report = sweep_check(inst, SweepPlan(samples=9, pair_filter="all"))
        assert not report.clean, f"fixture {k} unexpectedly clean"
        for finding in report.findings:
            assert verify_finding(inst, finding), f"false positive in fixture {k}"
            witnesses += 1
    # shipped category defaults stay clean; instances past the grid cap use the
    # random strategy, as the plan-size contract prescribes
    for category in CATEGORY_NAMES:
        for seed in range(20):
            inst = build_instance(category, seed, salt="")
            try:
                report = sweep_check(inst, SweepPlan(samples=3))
            except PlanTooLargeError:
                report = sweep_check(
                    inst, SweepPlan(strategy="random", samples=729, seed=0)
                )
            assert report.clean, (category, seed, sorted(report.colliding_pairs()))
    ok(8, f"{witnesses} witnesses re-verified, zero false positives; defaults clean at 20 seeds x 5 categories")


def test_09_duplicate_multiplicity():
    source = evaluate(build_pattern("simple_revolute"))
    for k in range(1, 6):
        body = evaluate(duplicated_revolute([(0.4 * i, 0.0, 0.0) for i in range(k)]))
        assert len(body.joints) == k * len(source.joints)
        assert len(body.links) - 1 == k * (len(source.links) - 1)
    ok(9, "duplication over k in 1..5 points multiplies joints and links exactly k-fold")


def test_10_distribution_control():
    gen = get_generator("door")
    default_space = gen.space
    n = 1000
    inset = 0.09  # the builder's handle inset from the free edge

    def ranges(overrides):
        lengths, distances = [], []
        for seed in range(n):
            pv = sample_parameters(default_space, seed, overrides=overrides, salt="")
            lengths.append(pv["lever_length"])
            distances.append(pv["width"] - inset)
        return (min(lengths), max(lengths)), (min(distances), max(distances))

    (dl_lo, dl_hi), (dd_lo, dd_hi) = ranges(None)
    widened = {
        "lever_length": {"lo": 0.05, "hi": 0.3},
        "width": {"lo": 0.6, "hi": 1.6},
    }
    (wl_lo, wl_hi), (wd_lo, wd_hi) = ranges(widened)
    # the widened samples must cover beyond the default envelope on both sides
    assert wl_lo < dl_lo and wl_hi > dl_hi
    assert wd_lo < dd_lo and wd_hi > dd_hi
    assert wl_lo < 0.07 and wl_hi > 0.27
    assert wd_lo < 0.55 and wd_hi > 1.45
    # and the realized articulation still works at the extremes
    inst = build_instance("door", 0, overrides=widened, salt="")
    assert len(inst.joints) >= 1
    ok(10, "widened handle-length / handle-to-hinge ranges are covered by 1000 samples")


@pytest.mark.slow
def test_11_dataset_scale_smoke(tmp_path):
    failures = []
    for category in CATEGORY_NAMES:
        for seed in range(250):
            try:
                inst = build_instance(category, seed, salt="")
                u = export_urdf(inst, tmp_path / f"{category}_{seed:04d}")
                m = export_mjcf(inst, tmp_path / f"{category}_{seed:04d}")
                assert_kinematic_isomorphism(inst, parse_urdf(u.model_path))
                assert_kinematic_isomorphism(inst, parse_mjcf(m.model_path))
            except Exception as exc:  # noqa: BLE001 - failure accounting
                failures.append((category, seed, repr(exc)))
    assert not failures, failures[:5]
    ok(11, "250 assets per category generated, exported, and round-tripped with zero failures")
