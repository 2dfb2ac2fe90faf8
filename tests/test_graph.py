import json
import math
from dataclasses import replace

import numpy as np
import pytest

from artigen.errors import (
    DocumentParseError,
    EvaluationError,
    GraphCycleError,
    InvalidParameterError,
    MissingParameterError,
    PortTypeError,
    RangeError,
    SchemaError,
    StructuralError,
)
from artigen.evaluate import evaluate, expand_duplicates
from artigen.graph import (
    JOINT_REVOLUTE,
    PRIMITIVE,
    SCALAR_MATH,
    SWITCH,
    JointSpec,
    NodeGraph,
    ParamRef,
    inject_label_attributes,
)
from artigen.generators import CATEGORY_NAMES, get_generator
from artigen.params import Continuous, Count, ParameterSpace, ParamVector, sample_parameters
from artigen.patterns import PATTERN_NAMES, build_pattern


def box_node(g, dims=(1, 1, 1)):
    return g.add_node(PRIMITIVE, {"shape": "box", "size_x": dims[0], "size_y": dims[1], "size_z": dims[2]})


class TestConstruction:
    def test_add_node_counts(self):
        g = NodeGraph()
        before = len(g.nodes)
        nid = box_node(g)
        assert len(g.nodes) == before + 1
        assert g.node(nid).kind == PRIMITIVE

    def test_axis_normalized_on_ingest(self):
        g = NodeGraph()
        j = g.add_node(
            JOINT_REVOLUTE,
            {"pivot": (0, 0, 0), "axis": (0, 0, 2), "range_lo": 0, "range_hi": 1},
        )
        assert g.node(j).params["axis"] == (0.0, 0.0, 1.0)

    def test_axis_normalized_on_load(self):
        doc = json.loads(build_pattern("simple_revolute").serialize())
        (joint,) = [n for n in doc["nodes"] if n["kind"] == JOINT_REVOLUTE]
        joint["params"]["axis"] = [0, 2, 0]
        loaded = NodeGraph.deserialize(json.dumps(doc))
        assert loaded.node(joint["id"]).params["axis"] == (0.0, 1.0, 0.0)
        joint["params"]["axis"] = [0, 0, 0]
        with pytest.raises(InvalidParameterError, match="axis"):
            NodeGraph.deserialize(json.dumps(doc))

    def test_unknown_kind_and_params(self):
        g = NodeGraph()
        with pytest.raises(InvalidParameterError):
            g.add_node("extrude", {})
        with pytest.raises(InvalidParameterError):
            g.add_node(PRIMITIVE, {"shape": "box", "wobble": 3})

    def test_connect_cycle_rejected(self):
        g = NodeGraph()
        b = box_node(g)
        t1 = g.add_node("transform", {})
        t2 = g.add_node("transform", {})
        g.connect(b, t1, "geometry")
        g.connect(t1, t2, "geometry")
        with pytest.raises(GraphCycleError):
            g.connect(t2, t1, "geometry")
        with pytest.raises(GraphCycleError):
            g.connect(t1, t1, "geometry")

    def test_forward_wire_closing_a_cycle_in_loaded_graph_rejected(self):
        g = NodeGraph()
        t1 = g.add_node("transform", {})
        t2 = g.add_node("transform", {})
        g.connect(t2, t1, "geometry")  # from a later node to an earlier one
        loaded = NodeGraph.deserialize(g.serialize())
        with pytest.raises(GraphCycleError):
            loaded.connect(t1, t2, "geometry")

    def test_loaded_wire_from_a_missing_node_counts_as_backward(self):
        g = NodeGraph()
        t0 = g.add_node("transform", {})
        loaded = NodeGraph.deserialize(
            g.serialize().replace('"inputs": {}', '"inputs": {"geometry": "n3"}')
        )
        added = [loaded.add_node("transform", {}) for _ in range(3)]
        assert added[-1] == "n3"
        with pytest.raises(GraphCycleError):
            loaded.connect(t0, "n3", "geometry")

    def test_generator_builds_walk_no_graph(self, monkeypatch):
        walks = []
        reaches = NodeGraph._reaches

        def counting(graph, start, target):
            walks.append((start, target))
            return reaches(graph, start, target)

        monkeypatch.setattr(NodeGraph, "_reaches", counting)
        for category in CATEGORY_NAMES:
            gen = get_generator(category)
            gen.build(sample_parameters(gen.space, 0, salt=""))
        assert walks == []

    def test_connect_port_type_rejected(self):
        g = NodeGraph()
        b = box_node(g)
        s = g.add_node(SCALAR_MATH, {"op": "add", "a": 1, "b": 2})
        t = g.add_node("transform", {})
        with pytest.raises(PortTypeError):
            g.connect(s, t, "geometry")
        with pytest.raises(PortTypeError):
            g.connect(b, t, "rotate_angle")

    def test_div_by_zero_accepted_at_build_raises_at_eval(self):
        g = NodeGraph()
        s = g.add_node(SCALAR_MATH, {"op": "div", "a": 1.0, "b": 0.0})
        b = box_node(g)
        t = g.add_node("transform", {})
        g.connect(b, t, "geometry")
        g.connect(s, t, "translate_x")
        g.set_output(t)
        with pytest.raises(EvaluationError):
            evaluate(g)


class TestValidate:
    def test_patterns_all_clean(self):
        for name in PATTERN_NAMES:
            g = build_pattern(name)
            assert g.validate() == [], name

    def test_joint_self_loop_diagnosed(self):
        g = NodeGraph()
        b = box_node(g)
        j = g.add_node(
            JOINT_REVOLUTE, {"pivot": (0, 0, 0), "axis": (0, 0, 1), "range_lo": 0, "range_hi": 1}
        )
        g.connect(b, j, "parent")
        g.connect(b, j, "child")
        g.set_output(j)
        assert any(d.code == "joint-self-loop" for d in g.validate())

    def test_screw_pattern_not_diagnosed(self):
        g = build_pattern("multi_joint_screw")
        assert g.validate() == []

    def test_missing_input_diagnosed(self):
        g = NodeGraph()
        j = g.add_node(
            JOINT_REVOLUTE, {"pivot": (0, 0, 0), "axis": (0, 0, 1), "range_lo": 0, "range_hi": 1}
        )
        g.set_output(j)
        codes = {d.code for d in g.validate()}
        assert "missing-input" in codes

    def test_unknown_param_diagnosed(self):
        g = NodeGraph()
        b = g.add_node(PRIMITIVE, {"shape": "box", "size_x": ParamRef("width")})
        g.set_output(b)
        assert any(d.code == "unknown-param" for d in g.validate())

    def test_cycle_diagnosed_on_loaded_graph(self):
        g = build_pattern("simple_revolute")
        text = g.serialize()
        # corrupt: wire the joint's output back into the transform input
        bad = text.replace('"geometry": "n1"', f'"geometry": "{g.output_node}"')
        loaded = NodeGraph.deserialize(bad)
        assert any(d.code == "graph-cycle" for d in loaded.validate())


class TestEvaluate:
    def test_revolute_at_zero_matches_unposed(self):
        g = build_pattern("simple_revolute")
        unposed = evaluate(g)
        posed = evaluate(g, joint_values={"hinge_0": 0.0})
        rod = "rod_0"
        np.testing.assert_array_equal(unposed.posed_mesh(rod).vertices, posed.posed_mesh(rod).vertices)

    def test_prismatic_translation_exact(self):
        g = build_pattern("simple_prismatic")
        rest = evaluate(g)
        pressed = evaluate(g, joint_values={"press_0": 0.01})
        t = pressed.world_transforms["button_0"]
        np.testing.assert_array_equal(t.translation, [0, 0, -0.01])
        delta = pressed.posed_mesh("button_0").vertices - rest.posed_mesh("button_0").vertices
        np.testing.assert_allclose(delta, np.tile([0, 0, -0.01], (delta.shape[0], 1)), atol=1e-15)

    def test_revolute_closed_form_about_pivot(self):
        g = NodeGraph()
        parent = box_node(g, (0.2, 0.2, 0.2))
        child = g.add_node(
            "transform", {"translate_x": 2.0}
        )
        cbox = box_node(g, (0.1, 0.1, 0.1))
        g.connect(cbox, child, "geometry")
        j = g.add_node(
            JOINT_REVOLUTE,
            {
                "pivot": (1, 0, 0),
                "axis": (0, 0, 1),
                "range_lo": -math.pi,
                "range_hi": math.pi,
                "joint_label": "swing",
                "child_label": "arm",
            },
        )
        g.connect(parent, j, "parent")
        g.connect(child, j, "child")
        g.set_output(j)
        body = evaluate(g, joint_values={"swing_0": math.pi / 2})
        got = body.world_transforms["arm_0"].apply(np.array([2.0, 0.0, 0.0]))
        np.testing.assert_allclose(got, [1, 1, 0], atol=1e-9)

    def test_value_then_negated_value_restores(self):
        g = build_pattern("simple_revolute")
        for v in (0.3, -0.5, 0.7):
            fwd = evaluate(g, joint_values={"hinge_0": v}).world_transforms["rod_0"]
            back = evaluate(g, joint_values={"hinge_0": -v}).world_transforms["rod_0"]
            combined = back.compose(fwd)  # rotations about same pivot commute-cancel
            np.testing.assert_allclose(
                combined.apply(np.array([0.1, 0.2, 0.4])), [0.1, 0.2, 0.4], atol=1e-9
            )

    def test_range_enforced_inclusive(self):
        g = build_pattern("simple_revolute")
        evaluate(g, joint_values={"hinge_0": -math.pi / 4})
        evaluate(g, joint_values={"hinge_0": math.pi / 4})
        with pytest.raises(RangeError):
            evaluate(g, joint_values={"hinge_0": math.pi / 4 + 0.01})

    def test_determinism(self):
        g = build_pattern("chained_joints")
        a = evaluate(g, joint_values={"elbow_0": 0.2, "shoulder_0": -0.1})
        b = evaluate(g, joint_values={"elbow_0": 0.2, "shoulder_0": -0.1})
        assert [l.link_id for l in a.links] == [l.link_id for l in b.links]
        for la, lb in zip(a.links, b.links):
            np.testing.assert_array_equal(
                a.posed_mesh(la.link_id).vertices, b.posed_mesh(lb.link_id).vertices
            )

    def test_chain_composes_parent_side(self):
        g = build_pattern("chained_joints")
        body = evaluate(g, joint_values={"shoulder_0": math.pi / 6, "elbow_0": 0.0})
        # rod_upper rigidly follows the shoulder rotation when the elbow is at zero
        expected = evaluate(g).posed_mesh("rod_upper_0").vertices
        from artigen.geometry import RigidTransform

        rot = RigidTransform.from_axis_angle((0, 1, 0), math.pi / 6, pivot=(0, 0, 0.05))
        np.testing.assert_allclose(
            body.posed_mesh("rod_upper_0").vertices, rot.apply(expected), atol=1e-9
        )

    def test_missing_parameter(self):
        space = ParameterSpace({"w": Continuous(0.1, 2.0)})
        g = NodeGraph(space)
        b = g.add_node(PRIMITIVE, {"shape": "box", "size_x": ParamRef("w")})
        g.set_output(b)
        with pytest.raises(MissingParameterError):
            evaluate(g, ParamVector({}))
        body = evaluate(g, ParamVector({"w": 1.5}))
        assert body.links[0].mesh.aabb().extents[0] == pytest.approx(1.5)

    def test_param_out_of_bounds(self):
        space = ParameterSpace({"w": Continuous(0.1, 2.0)})
        g = NodeGraph(space)
        b = g.add_node(PRIMITIVE, {"shape": "box", "size_x": ParamRef("w")})
        g.set_output(b)
        with pytest.raises(RangeError):
            evaluate(g, ParamVector({"w": 5.0}))

    def test_switch_selects_lazily_and_checks_range(self):
        space = ParameterSpace({"pick": Count(0, 5)})
        g = NodeGraph(space)
        a = box_node(g, (1, 1, 1))
        bad = g.add_node(PRIMITIVE, {"shape": "cylinder", "radius": 1.0, "height": 1.0, "segments": 2})
        sw = g.add_node(SWITCH, {"select": ParamRef("pick")})
        g.connect(a, sw, "option_0")
        g.connect(bad, sw, "option_1")
        g.set_output(sw)
        body = evaluate(g, ParamVector({"pick": 0}))  # bad branch never evaluated
        assert body.links[0].mesh.n_vertices == 8
        with pytest.raises(RangeError):
            evaluate(g, ParamVector({"pick": 3}))


class TestDuplicates:
    def test_grid_of_four(self):
        g = build_pattern("duplicated_bodies")
        body = evaluate(g)
        knobs = [l for l in body.links if l.label and l.label.startswith("knob")]
        assert len(knobs) == 4
        assert len(body.joints) == 4

    def test_fragment_counts_multiply(self):
        base = build_pattern("simple_revolute")
        body = evaluate(base)
        for k in range(1, 6):
            points = [(0.3 * i, 0, 0) for i in range(k)]
            frag = expand_duplicates(body, points)
            assert len(frag.joints) == k * len(body.joints)
            assert len(frag.links) == k * (len(body.links) - 1)

    def test_single_point_at_origin_matches_original(self):
        base = build_pattern("simple_revolute")
        body = evaluate(base)
        frag = expand_duplicates(body, [(0, 0, 0)])
        rod = body.link("rod_0")
        copy = frag.links[0]
        np.testing.assert_array_equal(copy.mesh.vertices, rod.mesh.vertices)
        assert copy.label == "rod_0"

    def test_expansion_ids_labels_and_placement(self):
        body = evaluate(build_pattern("simple_revolute"))
        rod, hinge = body.link("rod_0"), body.joints[0]
        points = [(0.5, 0.0, 0.0), (0.0, 0.25, -0.5)]
        frag = expand_duplicates(body, points)
        assert [(l.link_id, l.label, l.template) for l in frag.links] == [
            ("rod_0_0", "rod_0", f"{rod.template}@0"),
            ("rod_0_1", "rod_1", f"{rod.template}@1"),
        ]
        assert [(j.joint_id, j.parent, j.child) for j in frag.joints] == [
            ("hinge_0_0", "base_0", "rod_0_0"),
            ("hinge_0_1", "base_0", "rod_0_1"),
        ]
        for k, (point, link, joint) in enumerate(zip(points, frag.links, frag.joints)):
            np.testing.assert_array_equal(link.mesh.vertices, rod.mesh.vertices + point)
            np.testing.assert_array_equal(link.mesh.triangles, rod.mesh.triangles)
            np.testing.assert_array_equal(joint.spec.pivot, np.add(hinge.spec.pivot, point))
            # only the pivot and the joint label change; parent/child labels keep theirs
            assert joint.spec == replace(
                hinge.spec, pivot=joint.spec.pivot, joint_label=f"hinge_{k}"
            )
            assert joint.order == hinge.order + (k,)

    def test_copies_leave_the_anchor_root_untransformed(self, monkeypatch):
        import artigen.evaluate as evaluate_module

        body = evaluate(build_pattern("simple_revolute"))
        root_mesh = body.link(body.root_link).mesh
        moved = []
        apply = evaluate_module.apply_transform

        def recording_apply(mesh, transform):
            moved.append(mesh)
            return apply(mesh, transform)

        monkeypatch.setattr(evaluate_module, "apply_transform", recording_apply)
        expand_duplicates(body, [(0.5, 0.0, 0.0), (0.0, 0.25, -0.5)])
        assert len(moved) == 2 * (len(body.links) - 1)
        assert not any(mesh is root_mesh for mesh in moved)

    def test_empty_points_rejected(self):
        body = evaluate(build_pattern("simple_revolute"))
        with pytest.raises(InvalidParameterError):
            expand_duplicates(body, [])
        with pytest.raises(InvalidParameterError):
            expand_duplicates(evaluate(build_pattern_jointless()), [(0, 0, 0)])


def build_pattern_jointless():
    g = NodeGraph()
    b = g.add_node(PRIMITIVE, {"shape": "box"})
    g.set_output(b)
    return g


class TestInjectLabels:
    def test_one_joint_inserts_two_stores(self):
        g = build_pattern("simple_revolute")
        before = sum(1 for n in g.nodes.values() if n.kind == "store_attribute")
        out = inject_label_attributes(g)
        after = sum(1 for n in out.nodes.values() if n.kind == "store_attribute")
        assert before == 0 and after == 2

    def test_forward_wire_closing_a_cycle_through_a_store_rejected(self):
        g = build_pattern("simple_revolute")
        out = inject_label_attributes(g)
        store = out.nodes[g.output_node].inputs["child"]
        assert out.nodes[store].kind == "store_attribute"
        with pytest.raises(GraphCycleError):
            out.connect(g.output_node, store, "geometry")

    def test_idempotent(self):
        g = build_pattern("chained_joints")
        once = inject_label_attributes(g)
        twice = inject_label_attributes(once)
        assert once.serialize() == twice.serialize()

    def test_no_unlabeled_faces(self):
        for name in PATTERN_NAMES:
            g = inject_label_attributes(build_pattern(name))
            body = evaluate(g)
            for link in body.links:
                assert link.mesh.face_labels is not None, (name, link.link_id)
                assert (link.mesh.face_labels >= 0).all(), (name, link.link_id)


class TestSerde:
    @pytest.mark.parametrize("name", PATTERN_NAMES)
    def test_round_trip_structural_equality(self, name):
        g = build_pattern(name)
        text = g.serialize()
        back = NodeGraph.deserialize(text)
        assert back.structurally_equal(g)
        assert back.serialize() == text

    def test_serialize_byte_deterministic(self):
        a = build_pattern("multi_joint_screw").serialize()
        b = build_pattern("multi_joint_screw").serialize()
        assert a == b

    def test_truncated_text_parse_error_with_location(self):
        text = build_pattern("simple_revolute").serialize()
        with pytest.raises(DocumentParseError) as err:
            NodeGraph.deserialize(text[: len(text) // 2])
        assert err.value.line is not None

    def test_unknown_kind_schema_error(self):
        text = build_pattern("simple_revolute").serialize()
        with pytest.raises(SchemaError):
            NodeGraph.deserialize(text.replace('"primitive"', '"nurbs"'))

    def test_unknown_keys_rejected(self):
        text = build_pattern("simple_revolute").serialize()
        with pytest.raises(SchemaError):
            NodeGraph.deserialize(text.replace('"schema": 1', '"schema": 1, "zzz": 2'))

    def test_node_params_must_be_an_object(self):
        doc = json.loads(build_pattern("simple_revolute").serialize())
        doc["nodes"][0]["params"] = 5
        with pytest.raises(SchemaError):
            NodeGraph.deserialize(json.dumps(doc))

    def test_wrong_schema_version(self):
        text = build_pattern("simple_revolute").serialize()
        with pytest.raises(SchemaError):
            NodeGraph.deserialize(text.replace('"schema": 1', '"schema": 99'))


class TestJointSpec:
    def test_normalizes_axis(self):
        s = JointSpec("revolute", (0, 0, 0), (0, 0, 3), 0, 1)
        assert s.axis == (0, 0, 1)

    def test_rejects_bad_ranges(self):
        with pytest.raises(InvalidParameterError):
            JointSpec("revolute", (0, 0, 0), (0, 0, 1), 1.0, 0.0)
        with pytest.raises(InvalidParameterError):
            JointSpec("revolute", (0, 0, 0), (0, 0, 1), 0.0, 1.0, default_value=2.0)

    def test_fixed_allowed(self):
        s = JointSpec("revolute", (0, 0, 0), (0, 0, 1), 0.5, 0.5, default_value=0.5)
        assert s.is_fixed


class TestScrewComposite:
    def test_parallel_edges_preserved_in_ir(self):
        body = evaluate(build_pattern("multi_joint_screw"))
        assert len(body.links) == 2
        assert len(body.joints) == 2
        pair = body.joints_of_pair("neck_0", "cap_0")
        assert len(pair) == 2

    def test_both_motions_compose(self):
        g = build_pattern("multi_joint_screw")
        body = evaluate(g, joint_values={"turn_0": math.pi, "lift_0": 0.01})
        rest = evaluate(g)
        moved = body.posed_mesh("cap_0").vertices
        # lift shifts every vertex up by exactly 0.01 after the turn
        turned = evaluate(g, joint_values={"turn_0": math.pi}).posed_mesh("cap_0").vertices
        np.testing.assert_allclose(moved, turned + [0, 0, 0.01], atol=1e-12)

    def test_two_parents_rejected(self):
        g = build_pattern("chained_joints")
        # joint the upper rod directly to the base as well: two distinct parents
        rod2_transform = None
        for nid, node in g.nodes.items():
            if node.kind == "transform" and node.params["translate_z"] == 0.5:
                rod2_transform = nid
        j = g.add_node(
            JOINT_REVOLUTE,
            {"pivot": (0, 0, 0), "axis": (0, 0, 1), "range_lo": 0, "range_hi": 1},
        )
        g.connect(g.output_node, j, "parent")
        g.connect(rod2_transform, j, "child")
        g.set_output(j)
        with pytest.raises(StructuralError):
            evaluate(g)
