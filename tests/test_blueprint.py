import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import artigen
import artigen.graph
from artigen.blueprint import (
    extract_blueprint,
    forward_kinematics,
    instantiate,
    posed_meshes,
)
from artigen.collision import SweepPlan, sweep_check
from artigen.errors import RangeError, StructuralError
from artigen.evaluate import PASSTHROUGH_MASS, EvaluatedLink, _link_dynamics, evaluate
from artigen.export import export_mjcf, export_urdf
from artigen.generators import CATEGORY_NAMES, build_instance
from artigen.geometry import TriMesh
from artigen.params import ParamVector
from artigen.patterns import PATTERN_NAMES, build_pattern
from helpers import blueprint_parts, edited


def make_instance(name, **kw):
    g = build_pattern(name)
    bp = extract_blueprint(g)
    return instantiate(bp, g, ParamVector({}), category=name, **kw)


class TestExtraction:
    def test_simple_revolute_two_templates_one_joint(self):
        links, edges, _ = blueprint_parts(extract_blueprint(build_pattern("simple_revolute")).tree)
        assert len(links) == 2
        assert len(edges) == 1
        parent, child, joint = edges[0]
        assert joint["type"] == "revolute"
        assert parent == 0

    def test_screw_three_templates_shared_axis_pair(self):
        links, edges, _ = blueprint_parts(extract_blueprint(build_pattern("multi_joint_screw")).tree)
        assert len(links) == 2  # passthrough appears at instantiation
        types = sorted(j["type"] for _, _, j in edges)
        assert types == ["prismatic", "revolute"]
        # both templates live on one parent/child pair
        pairs = {(p, c) for p, c, _ in edges}
        assert len(pairs) == 1

    def test_shared_parent_both_joints_on_root(self):
        links, edges, _ = blueprint_parts(extract_blueprint(build_pattern("shared_parent")).tree)
        assert len(links) == 3
        parents = {p for p, _, _ in edges}
        assert parents == {0}

    def test_chain_nests(self):
        links, edges, _ = blueprint_parts(extract_blueprint(build_pattern("chained_joints")).tree)
        assert len(links) == 3
        pairs = {(p, c) for p, c, _ in edges}
        assert (0, 1) in pairs and (1, 2) in pairs

    def test_duplicate_becomes_repeat_group(self):
        _, _, repeats = blueprint_parts(extract_blueprint(build_pattern("duplicated_bodies")).tree)
        assert len(repeats) == 1


    @pytest.fixture
    def walks(self, monkeypatch):
        """The ops the symbolic walk runs on, in order, from an empty program
        cache."""
        monkeypatch.setattr(artigen.evaluate, "_programs", {})
        walks = []
        init = artigen.graph._SymbolicWalk.__init__

        def counted(self, ops):
            walks.append(ops)
            init(self, ops)

        monkeypatch.setattr(artigen.graph._SymbolicWalk, "__init__", counted)
        return walks

    def test_one_symbolic_walk_per_extraction(self, walks):
        graphs = [build_pattern(name) for name in PATTERN_NAMES]
        for g in graphs:
            extract_blueprint(g)
        assert walks == [artigen.graph._ops(g.structure) for g in graphs]

    def test_extracting_one_structure_twice_walks_once(self, walks):
        a = extract_blueprint(build_pattern("simple_revolute"))
        g = build_pattern("simple_revolute")
        g = edited(g, g.output_node, range_hi=1.2)  # numbers only: the same structure
        b = extract_blueprint(g)
        assert len(walks) == 1
        assert b == a

class TestSignature:
    def test_signature_sees_structure_not_numbers(self):
        a = extract_blueprint(build_pattern("simple_revolute"))
        g = build_pattern("simple_revolute")
        g = edited(g, g.output_node, range_hi=1.2)  # numeric-only change
        b = extract_blueprint(g)
        assert a.signature() == b.signature()

    def test_different_patterns_differ(self):
        sigs = {extract_blueprint(build_pattern(n)).signature() for n in PATTERN_NAMES}
        assert len(sigs) == len(PATTERN_NAMES)

    def test_signature_stable(self):
        a = extract_blueprint(build_pattern("chained_joints")).signature()
        b = extract_blueprint(build_pattern("chained_joints")).signature()
        assert a == b


class TestInstantiate:
    def test_links_joints_tree(self):
        for name in PATTERN_NAMES:
            inst = make_instance(name)
            assert len(inst.links) == len(inst.joints) + 1, name

    def test_masses_positive_inertia_positive(self):
        inst = make_instance("chained_joints")
        for l in inst.links:
            assert l.mass > 0
            assert all(i > 0 for i in l.inertia_diag)

    def test_determinism(self):
        a = make_instance("duplicated_bodies")
        b = make_instance("duplicated_bodies")
        assert [l.link_id for l in a.links] == [l.link_id for l in b.links]
        for la, lb in zip(a.links, b.links):
            np.testing.assert_array_equal(la.mesh.vertices, lb.mesh.vertices)

    def test_screw_normalized_through_passthrough(self):
        inst = make_instance("multi_joint_screw")
        assert len(inst.links) == 3
        passthrough = [l for l in inst.links if "__passthrough_" in l.link_id]
        assert len(passthrough) == 1
        assert passthrough[0].mesh.is_empty
        assert passthrough[0].mass > 0
        axes = [j.axis for j in inst.joints]
        np.testing.assert_allclose(axes[0], axes[1], atol=1e-12)

    def test_passthrough_does_not_change_pose(self):
        g = build_pattern("multi_joint_screw")
        body = evaluate(g, joint_values={"turn_0": 1.0, "lift_0": 0.01})
        inst = make_instance("multi_joint_screw")
        world = forward_kinematics(inst, {"turn_0": 1.0, "lift_0": 0.01})
        cap_direct = body.posed_mesh("cap_0").vertices
        cap_inst = world["cap_0"].apply(inst.link("cap_0").mesh.vertices)
        np.testing.assert_allclose(cap_inst, cap_direct, atol=1e-9)


class TestForwardKinematics:
    def test_defaults_match_evaluate(self):
        for name in PATTERN_NAMES:
            g = build_pattern(name)
            body = evaluate(g)
            inst = make_instance(name)
            world = forward_kinematics(inst, {})
            for link in inst.links:
                if link.mesh.is_empty:
                    continue
                expected = body.posed_mesh(link.link_id).vertices
                got = world[link.link_id].apply(link.mesh.vertices)
                assert np.abs(got - expected).max() < 1e-9, (name, link.link_id)

    def test_prismatic_displacement_linear(self):
        inst = make_instance("simple_prismatic")
        j = inst.joints[0]
        lo = forward_kinematics(inst, {j.joint_id: j.lo})["button_0"].translation
        hi = forward_kinematics(inst, {j.joint_id: j.hi})["button_0"].translation
        np.testing.assert_allclose(hi - lo, (j.hi - j.lo) * np.asarray(j.axis), atol=1e-12)

    def test_out_of_range_rejected(self):
        inst = make_instance("simple_revolute")
        with pytest.raises(RangeError):
            forward_kinematics(inst, {"hinge_0": 10.0})

    def test_revolute_tip_traces_circle(self):
        inst = make_instance("simple_revolute")
        j = inst.joints[0]
        tip_local = np.array([0.0, 0.0, 0.5])  # rod top in link frame
        pivot = inst.pivot_in_parent(j)  # parent is the root: already world
        radii = []
        for theta in np.linspace(j.lo, j.hi, 9):
            world = forward_kinematics(inst, {j.joint_id: float(theta)})
            tip = world["rod_0"].apply(tip_local)
            axis = np.asarray(j.axis)
            radial = tip - pivot - np.dot(tip - pivot, axis) * axis
            radii.append(np.linalg.norm(radial))
        assert np.ptp(radii) < 1e-9

    def test_posed_meshes_shapes(self):
        inst = make_instance("duplicated_bodies")
        meshes = posed_meshes(inst, {})
        assert set(meshes) == {l.link_id for l in inst.links if not l.mesh.is_empty}


class TestDynamicsInvariance:
    def test_mass_invariant_under_reorientation(self):
        from artigen.graph import NodeGraph

        def build(angle):
            g = NodeGraph()
            base = g.box((0.4, 0.4, 0.1))
            rod = g.box((0.05, 0.05, 0.5))
            moved = g._placed(rod, (0, 0, 0.35), (0, 0, 1), angle)
            j = g.revolute(base, moved, (0, 0, 0.1), (0, 0, 1), -1.0, 1.0, labels=(None, None, "rod"))
            g.set_output(j)
            return g

        masses = []
        for angle in (0.0, math.pi / 2):
            g = build(angle)
            inst = instantiate(extract_blueprint(g), g, ParamVector({}))
            masses.append(inst.link("rod_0").mass)
        assert masses[0] == pytest.approx(masses[1], rel=1e-9)
        # inertia about z unchanged by a z-rotation of the link frame
        # (x/y swap under a quarter turn)
        insts = []
        for angle in (0.0, math.pi / 2):
            g = build(angle)
            insts.append(instantiate(extract_blueprint(g), g, ParamVector({})))
        i0 = insts[0].link("rod_0").inertia_diag
        i1 = insts[1].link("rod_0").inertia_diag
        assert i0[2] == pytest.approx(i1[2], rel=1e-9)
        assert sorted(i0[:2]) == pytest.approx(sorted(i1[:2]), rel=1e-9)


class TestLazyDynamics:
    @pytest.mark.parametrize("category", CATEGORY_NAMES)
    def test_equal_to_link_dynamics(self, category):
        for seed in (1, 2, 3):
            for link in build_instance(category, seed).links:
                hull, mass, inertia, origin = _link_dynamics(link.mesh)
                assert (link.mass, link.inertia_diag, link.inertia_origin) == (mass, inertia, origin)
                if hull is None:
                    assert link.hull is None
                else:
                    np.testing.assert_array_equal(link.hull.vertices, hull.vertices)
                    np.testing.assert_array_equal(link.hull.triangles, hull.triangles)

    def test_hulls_built_once_per_link_on_first_read(self, monkeypatch, tmp_path):
        calls = []
        real = artigen.evaluate.convex_hull

        def counting(mesh):
            calls.append(mesh)
            return real(mesh)

        monkeypatch.setattr(artigen.evaluate, "convex_hull", counting)
        inst = build_instance("lamp", 3)
        sweep_check(inst, SweepPlan(strategy="random", samples=16))
        assert calls == []
        export_urdf(inst, tmp_path / "urdf")
        export_mjcf(inst, tmp_path / "mjcf")
        assert len(calls) == sum(1 for l in inst.links if l.mesh.n_vertices >= 4) > 0
        hulls = [l.hull for l in inst.links]
        assert all(l.hull is h for l, h in zip(inst.links, hulls))
        assert len(calls) == sum(1 for l in inst.links if l.mesh.n_vertices >= 4)

    def test_flat_link_gets_passthrough_dynamics(self):
        square = TriMesh([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)], [(0, 1, 2), (0, 2, 3)])
        link = EvaluatedLink("flat_0", None, square, None, "n0")
        assert link.hull is None
        assert link.mass == PASSTHROUGH_MASS
        assert link.inertia_origin == (0.0, 0.0, 0.0)


def test_build_check_and_blueprint_never_import_scipy(tmp_path):
    # A fresh interpreter, so that no other test has loaded scipy yet.
    script = (
        "import sys\n"
        "import artigen.cli\n"
        "from artigen.collision import sweep_check\n"
        "from artigen.export import export_bundle\n"
        "from artigen.generators import CATEGORY_NAMES, build_instance\n"
        "insts = [build_instance(c, 1) for c in CATEGORY_NAMES]\n"
        "for inst in insts:\n"
        "    sweep_check(inst)\n"
        "out = sys.argv[1]\n"
        "assert artigen.cli.main(['check', '--category', 'lamp', '--random', '8', '--out', out]) == 0\n"
        "assert artigen.cli.main(['blueprint', 'door']) == 0\n"
        "print('scipy' in sys.modules)\n"
        "export_bundle(insts[0], out + '/bundle', ('urdf',))\n"
        "print('scipy' in sys.modules)\n"
    )
    # The child imports the same artigen as this process.
    src = str(Path(artigen.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["False", "True"]
