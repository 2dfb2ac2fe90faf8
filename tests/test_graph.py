import itertools
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from artigen.errors import (
    DocumentParseError,
    EvaluationError,
    InvalidParameterError,
    MissingParameterError,
    PortTypeError,
    RangeError,
    SchemaError,
)
from artigen.blueprint import extract_blueprint, instantiate
from artigen.evaluate import evaluate, evaluate_links
import artigen
from artigen.graph import (
    DUPLICATE,
    JOINT_PRISMATIC,
    JOINT_REVOLUTE,
    MERGE,
    PRIMITIVE,
    SCALAR_MATH,
    SEMANTIC_LABEL,
    STORE_ATTRIBUTE,
    SWITCH,
    TRANSFORM,
    JointSpec,
    NodeGraph,
    ParamRef,
    link_set_relation,
)
from artigen.generators import CATEGORY_NAMES, build_instance, get_generator
from artigen.params import Continuous, Count, ParameterSpace, ParamVector, sample_parameters
from artigen.patterns import PATTERN_NAMES, build_pattern

from helpers import duplicated_revolute, edited, two_parent_graph


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

    def test_zero_rotate_axis_rejected_on_ingest(self):
        g = NodeGraph()
        with pytest.raises(InvalidParameterError, match="rotate_axis"):
            g.add_node(TRANSFORM, {"rotate_axis": (0, 0, 0), "rotate_angle": 0.5})
        # a nonzero axis is kept as given; the rotation normalizes it
        t = g.add_node(TRANSFORM, {"rotate_axis": (0, 0, 2), "rotate_angle": 0.5})
        assert g.node(t).params["rotate_axis"] == (0.0, 0.0, 2.0)

    def test_zero_rotate_axis_rejected_on_load(self):
        doc = json.loads(build_pattern("simple_revolute").serialize())
        (transform,) = [n for n in doc["nodes"] if n["kind"] == TRANSFORM]
        transform["params"].update(rotate_axis=[0, 0, 0], rotate_angle=0.5)
        with pytest.raises(InvalidParameterError, match="rotate_axis"):
            NodeGraph.deserialize(json.dumps(doc))

    def test_nodes_are_read_only_views(self):
        g = build_pattern("simple_revolute")
        joint = g.node(g.output_node)
        assert joint == g.nodes[g.output_node]
        assert (joint.params["range_hi"], joint.params["default"]) == (math.pi / 4, None)
        with pytest.raises(TypeError):
            joint.params["range_hi"] = 1.2
        with pytest.raises(TypeError):
            joint.inputs["child"] = "n0"
        with pytest.raises(AttributeError):
            joint.kind = SCALAR_MATH
        with pytest.raises(TypeError):
            g.nodes["extra"] = joint
        assert g.node(g.output_node) == joint

    def test_unknown_kind_and_params(self):
        g = NodeGraph()
        with pytest.raises(InvalidParameterError):
            g.add_node("extrude", {})
        with pytest.raises(InvalidParameterError):
            g.add_node(PRIMITIVE, {"shape": "box", "wobble": 3})

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


def _two_transforms_wired_back():
    g = NodeGraph()
    t1, t2 = g.add_node(TRANSFORM, {}), g.add_node(TRANSFORM, {})
    g.connect(box_node(g), t1, "geometry")
    g.connect(t1, t2, "geometry")
    g.connect(t2, t1, "geometry")
    g.set_output(t2)
    return g


def _transform_wired_to_itself():
    g = NodeGraph()
    t = g.add_node(TRANSFORM, {})
    g.connect(t, t, "geometry")
    g.set_output(t)
    return g


def _forward_wire_in_loaded_graph():
    g = NodeGraph()
    t1, t2 = g.add_node(TRANSFORM, {}), g.add_node(TRANSFORM, {})
    g.connect(t2, t1, "geometry")  # from a later node to an earlier one
    loaded = NodeGraph.deserialize(g.serialize())
    loaded.connect(t1, t2, "geometry")
    loaded.set_output(t2)
    return loaded


def _forward_wire_through_a_store():
    # The store is added after the joint and feeds it: a backward wire.
    g = build_pattern("simple_revolute")
    joint = g.output_node
    store = g.add_node(STORE_ATTRIBUTE, {"name": "link_label", "value": 0})
    g.connect(g.node(joint).inputs["child"], store, "geometry")
    g.connect(store, joint, "child")
    g.connect(joint, store, "geometry")
    return g


def _wire_onto_a_loaded_missing_source():
    # t0 is loaded wired from a node that does not exist yet; n3 is then added
    # and wired from t0.
    g = NodeGraph()
    t0 = g.add_node(TRANSFORM, {})
    loaded = NodeGraph.deserialize(
        g.serialize().replace('"inputs": {}', '"inputs": {"geometry": "n3"}')
    )
    added = [loaded.add_node(TRANSFORM, {}) for _ in range(3)]
    assert added[-1] == "n3"
    loaded.connect(t0, "n3", "geometry")
    loaded.set_output(t0)
    return loaded


def _scalar_cycle_feeding_a_selector():
    g = NodeGraph()
    a = g.add_node(SCALAR_MATH, {"op": "add", "b": 1.0})
    b = g.add_node(SCALAR_MATH, {"op": "min", "b": 1.0})
    g.connect(b, a, "a")
    g.connect(a, b, "a")
    sw = g.add_node(SWITCH, {"select": 0.0})
    g.connect(b, sw, "select")
    g.connect(box_node(g), sw, "option_0")
    g.connect(box_node(g), sw, "option_1")
    g.set_output(sw)
    return g


def _cycle_the_output_does_not_use():
    g = NodeGraph()
    g.set_output(box_node(g))
    t1, t2 = g.add_node(TRANSFORM, {}), g.add_node(TRANSFORM, {})
    g.connect(t1, t2, "geometry")
    g.connect(t2, t1, "geometry")
    return g


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

    def test_joint_link_overlap_diagnosed(self):
        # Two joints hang different children off one base; a third joint then
        # joins them, so its parent and child share the base without nesting.
        g = NodeGraph()
        base, left, right = box_node(g), box_node(g), box_node(g)
        spec = {"pivot": (0, 0, 0), "axis": (0, 0, 1), "range_lo": 0, "range_hi": 1}
        joints = [g.add_node(JOINT_REVOLUTE, spec) for _ in range(3)]
        for joint, (parent, child) in zip(
            joints, [(base, left), (base, right), (joints[0], joints[1])]
        ):
            g.connect(parent, joint, "parent")
            g.connect(child, joint, "child")
        g.set_output(joints[2])
        diags = g.validate()
        assert [d.code for d in diags] == ["joint-link-overlap"]
        assert diags[0].node_id == joints[2]

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

    def test_scalar_output_diagnosed_once_and_rejected(self):
        g = NodeGraph()
        g.set_output(g.add_node(SCALAR_MATH, {"op": "add", "a": 1.0, "b": 2.0}))
        diags = g.validate()
        assert [(d.code, d.node_id) for d in diags] == [("output-not-geometry", g.output_node)]
        for consumer in (evaluate, extract_blueprint):
            with pytest.raises(InvalidParameterError, match="graph does not validate"):
                consumer(g)

    def test_unknown_param_diagnosed(self):
        g = NodeGraph()
        b = g.add_node(PRIMITIVE, {"shape": "box", "size_x": ParamRef("width")})
        g.set_output(b)
        assert any(d.code == "unknown-param" for d in g.validate())

    @pytest.mark.parametrize(
        "select, ok", [(0.0, True), (1.0 + 5e-10, True), (0.4, False), (2.0, False), (-1.0, False)]
    )
    def test_literal_switch_selector_checked_as_evaluated(self, select, ok):
        def switch_graph(select_param, space=None):
            g = NodeGraph(space)
            sw = g.add_node(SWITCH, {"select": select_param})
            g.connect(box_node(g), sw, "option_0")
            g.connect(box_node(g, (2, 2, 2)), sw, "option_1")
            g.set_output(sw)
            return g

        diags = switch_graph(select).validate()
        assert [d.code for d in diags] == ([] if ok else ["switch-selector-range"])
        # the evaluator takes the same value as a parameter and decides alike
        g = switch_graph(ParamRef("pick"), ParameterSpace({"pick": Continuous(-2.0, 3.0)}))
        if ok:
            evaluate(g, ParamVector({"pick": select}))
        else:
            with pytest.raises((EvaluationError, RangeError)):
                evaluate(g, ParamVector({"pick": select}))

    @pytest.mark.parametrize("select, codes", [(1.0, []), (0.0, ["joint-self-loop"])])
    def test_literal_selector_walks_only_its_pick(self, select, codes):
        # switch(select, joint(box, box), box): the self-looped joint is
        # rejected only where the literal selector picks it.
        g = NodeGraph()
        b = box_node(g)
        j = g.add_node(
            JOINT_REVOLUTE, {"pivot": (0, 0, 0), "axis": (0, 0, 1), "range_lo": 0, "range_hi": 1}
        )
        g.connect(b, j, "parent")
        g.connect(b, j, "child")
        sw = g.add_node(SWITCH, {"select": select})
        g.connect(j, sw, "option_0")
        g.connect(box_node(g, (2, 2, 2)), sw, "option_1")
        g.set_output(sw)
        assert [d.code for d in g.validate()] == codes
        if codes:
            with pytest.raises(InvalidParameterError, match="graph does not validate"):
                evaluate(g)
            return
        body = evaluate(g)
        assert (len(body.links), len(body.joints)) == (1, 0)
        assert body.links[0].template == g.node(sw).inputs["option_1"]
        assert extract_blueprint(g).tree["children"] == []

    def test_cycle_through_an_unpicked_option_diagnosed(self):
        g = NodeGraph()
        sw = g.add_node(SWITCH, {"select": 0.0})
        t = g.add_node(TRANSFORM, {})
        g.connect(box_node(g), sw, "option_0")
        g.connect(t, sw, "option_1")
        g.connect(sw, t, "geometry")
        g.set_output(sw)
        assert [d.code for d in g.validate()] == ["graph-cycle"]

    def test_switch_repeating_an_option_diagnosed_once(self):
        # One box on both options of the parent switch and as the child: one
        # self-loop, not one per equal variant.
        g = NodeGraph(ParameterSpace({"pick": Count(0, 1)}))
        b = box_node(g)
        sw = g.add_node(SWITCH, {"select": ParamRef("pick")})
        g.connect(b, sw, "option_0")
        g.connect(b, sw, "option_1")
        j = g.add_node(
            JOINT_REVOLUTE, {"pivot": (0, 0, 0), "axis": (0, 0, 1), "range_lo": 0, "range_hi": 1}
        )
        g.connect(sw, j, "parent")
        g.connect(b, j, "child")
        g.set_output(j)
        diags = g.validate()
        assert [d.code for d in diags] == ["joint-self-loop"]
        assert diags[0].node_id == j

    def test_switch_over_one_node_is_that_node(self):
        # A switch whose options are all the jointed rod is the rod itself, so
        # a second joint into it joins the hinge's pair: a composite joint.
        g = NodeGraph(ParameterSpace({"k": Count(0, 1)}))
        spec = {"pivot": (0, 0, 0), "axis": (0, 0, 1), "range_lo": 0, "range_hi": 1}
        base, rod = box_node(g), box_node(g)
        hinge = g.add_node(JOINT_REVOLUTE, spec)
        g.connect(base, hinge, "parent")
        g.connect(rod, hinge, "child")
        sw = g.add_node(SWITCH, {"select": ParamRef("k")})
        g.connect(rod, sw, "option_0")
        g.connect(rod, sw, "option_1")
        slide = g.add_node(JOINT_PRISMATIC, spec)
        g.connect(hinge, slide, "parent")
        g.connect(sw, slide, "child")
        g.set_output(slide)
        assert g.validate() == []
        for k in (0, 1):
            body = evaluate(g, ParamVector({"k": k}))
            assert (len(body.links), len(body.joints)) == (2, 2)

    @pytest.mark.parametrize(
        "kind, code",
        [
            (MERGE, "switch-variant-merge"),
            (DUPLICATE, "switch-variant-duplicate"),
            (JOINT_REVOLUTE, "switch-variant-parent"),
            (SWITCH, "switch-variant-parent"),
        ],
    )
    def test_switch_over_jointed_bodies_diagnosed(self, kind, code):
        # A switch between two hinged pairs on their own bases has no shared
        # root: a merge cannot fuse it, a duplicate cannot copy it, and
        # neither a joint's parent nor the output can be it.
        g = NodeGraph(ParameterSpace({"pick": Count(0, 1)}))
        spec = {"pivot": (0, 0, 0), "axis": (0, 0, 1), "range_lo": 0, "range_hi": 1}
        sw = g.add_node(SWITCH, {"select": ParamRef("pick")})
        for i in range(2):
            hinge = g.add_node(JOINT_REVOLUTE, spec)
            g.connect(box_node(g), hinge, "parent")
            g.connect(box_node(g), hinge, "child")
            g.connect(hinge, sw, f"option_{i}")
        if kind == MERGE:
            node = g.add_node(MERGE, {})
            g.connect(sw, node, "geometry_0")
            g.connect(box_node(g), node, "geometry_1")
        elif kind == DUPLICATE:
            node = g.add_node(DUPLICATE, {"points": [(0, 0, 0)]})
            g.connect(box_node(g), node, "parent")
            g.connect(sw, node, "body")
        elif kind == JOINT_REVOLUTE:
            node = g.add_node(JOINT_REVOLUTE, spec)
            g.connect(sw, node, "parent")
            g.connect(box_node(g), node, "child")
        else:
            node = sw
        g.set_output(node)
        assert [(d.code, d.node_id) for d in g.validate()] == [(code, node)]
        with pytest.raises(InvalidParameterError, match="graph does not validate"):
            evaluate(g)

    def test_joint_onto_a_moved_switch_variant(self):
        # Both options hinge a box onto one base; a transform moves the
        # switch, and a third box is hinged onto the moved base.
        g = NodeGraph(ParameterSpace({"pick": Count(0, 1)}))
        spec = {"pivot": (0, 0, 0), "axis": (0, 0, 1), "range_lo": 0, "range_hi": 1}
        base = box_node(g)
        sw = g.add_node(SWITCH, {"select": ParamRef("pick")})
        for i in range(2):
            hinge = g.add_node(JOINT_REVOLUTE, spec)
            g.connect(base, hinge, "parent")
            g.connect(box_node(g), hinge, "child")
            g.connect(hinge, sw, f"option_{i}")
        moved = g.add_node(TRANSFORM, {"translate_x": 1.0})
        g.connect(sw, moved, "geometry")
        joint = g.add_node(JOINT_REVOLUTE, spec)
        g.connect(moved, joint, "parent")
        g.connect(box_node(g), joint, "child")
        g.set_output(joint)
        assert g.validate() == []
        children = extract_blueprint(g).tree["children"]
        assert [c["kind"] for c in children] == ["variant", "joint"]
        for pick in (0, 1):
            body = evaluate(g, ParamVector({"pick": pick}))
            assert (len(body.links), len(body.joints)) == (3, 2)

    @pytest.mark.parametrize("swap", [False, True])
    def test_joint_nested_under_one_selection_and_apart_under_another(self, swap):
        # merge(joint(a, b), switch(transform(a), b)), then a joint from that
        # merge to the switch: at s=0 the switch is a new link and the joint
        # adds it; at s=1 it is b and the joint pairs with the hinge. No one
        # blueprint holds both. With the merge inputs swapped, the merge
        # copies the hinge, so the joint adds a link under both selections.
        g = NodeGraph(ParameterSpace({"s": Count(0, 1)}))
        spec = {"pivot": (0, 0, 0), "axis": (0, 0, 1), "range_lo": 0, "range_hi": 1}
        a, b = box_node(g), box_node(g)
        hinge = g.add_node(JOINT_REVOLUTE, spec)
        g.connect(a, hinge, "parent")
        g.connect(b, hinge, "child")
        moved = g.add_node(TRANSFORM, {"translate_x": 1.0})
        g.connect(a, moved, "geometry")
        sw = g.add_node(SWITCH, {"select": ParamRef("s")})
        g.connect(moved, sw, "option_0")
        g.connect(b, sw, "option_1")
        merged = g.add_node(MERGE, {})
        for port, src in zip(("geometry_0", "geometry_1"), (sw, hinge) if swap else (hinge, sw)):
            g.connect(src, merged, port)
        joint = g.add_node(JOINT_REVOLUTE, spec)
        g.connect(merged, joint, "parent")
        g.connect(sw, joint, "child")
        g.set_output(joint)
        if not swap:
            assert [(d.code, d.node_id) for d in g.validate()] == [("switch-variant-joint", joint)]
            return
        assert g.validate() == []
        for s in (0, 1):
            body = evaluate(g, ParamVector({"s": s}))
            assert (len(body.links), len(body.joints)) == (3, 2)

    def test_random_graphs_that_validate_build_under_every_selection(self):
        # Small random compositions, each node wired from the last few: every
        # graph that validates has a blueprint and evaluates to one tree
        # whichever options its switches select, and every graph that does
        # not is rejected for a node the output depends on.
        rng = random.Random(7)
        spec = {"pivot": (0, 0, 0), "axis": (0, 0, 1), "range_lo": 0, "range_hi": 1}
        validated = 0
        for _ in range(300):
            selectors = [f"s{i}" for i in range(rng.randint(0, 3))]
            g = NodeGraph(ParameterSpace({s: Count(0, 1) for s in selectors}))
            pool = [box_node(g) for _ in range(rng.randint(1, 3))]
            for _ in range(rng.randint(1, 7)):
                select = ParamRef(rng.choice(selectors)) if selectors else 1.0
                points = [(0, 0, 0), (1, 0, 0)][: rng.randint(0, 2)]
                kind, params, ports = rng.choice([
                    (TRANSFORM, {"translate_x": 1.0}, ("geometry",)),
                    (SEMANTIC_LABEL, {"label": "a"}, ("geometry",)),
                    (MERGE, {}, ("geometry_0", "geometry_1")),
                    (SWITCH, {"select": select}, ("option_0", "option_1")),
                    (JOINT_REVOLUTE, spec, ("parent", "child")),
                    (JOINT_REVOLUTE, spec, ("parent", "child")),
                    (DUPLICATE, {"points": points}, ("parent", "body")),
                ])
                node = g.add_node(kind, params)
                for port in ports:
                    g.connect(rng.choice(pool[-4:]), node, port)
                pool.append(node)
            g.set_output(pool[-1])
            diags = g.validate()
            if diags:
                upstream, stack = set(), [g.output_node]
                while stack:
                    nid = stack.pop()
                    if nid not in upstream:
                        upstream.add(nid)
                        stack.extend(g.node(nid).inputs.values())
                assert {d.node_id for d in diags} <= upstream, diags
                continue
            validated += 1
            extract_blueprint(g)
            for picks in itertools.product((0, 1), repeat=len(selectors)):
                evaluate(g, ParamVector(dict(zip(selectors, picks))))
        assert validated > 100

    @pytest.mark.parametrize(
        "corrupt",
        [
            # an unwired joint child
            lambda doc, joint: doc["nodes"][joint]["inputs"].pop("child"),
            # a scalar node feeding a geometry port
            lambda doc, joint: doc["nodes"].append(
                {"id": "s", "kind": SCALAR_MATH, "params": {"op": "add"},
                 "inputs": {}}
            ) or doc["nodes"][joint]["inputs"].update(child="s"),
            # a merge and a switch without inputs
            lambda doc, joint: doc["nodes"].append(
                {"id": "m", "kind": MERGE, "params": {}, "inputs": {}}
            ) or doc["nodes"][joint]["inputs"].update(child="m"),
            lambda doc, joint: doc["nodes"].append(
                {"id": "w", "kind": SWITCH, "params": {"select": {"$param": "pick"}},
                 "inputs": {}}
            ) or doc["nodes"][joint]["inputs"].update(child="w"),
            # an undeclared parameter
            lambda doc, joint: doc["nodes"][joint]["params"].update(range_hi={"$param": "zz"}),
        ],
    )
    def test_invalid_graph_refused_by_evaluation_and_extraction(self, corrupt):
        doc = json.loads(build_pattern("simple_revolute").serialize())
        (joint,) = [i for i, n in enumerate(doc["nodes"]) if n["kind"] == JOINT_REVOLUTE]
        corrupt(doc, joint)
        g = NodeGraph.deserialize(json.dumps(doc))
        assert g.validate()
        with pytest.raises(InvalidParameterError, match="graph does not validate"):
            evaluate(g)
        with pytest.raises(InvalidParameterError, match="graph does not validate"):
            extract_blueprint(g)

    def test_undeclared_duplicate_count_param_diagnosed(self):
        doc = json.loads(build_pattern("duplicated_bodies").serialize())
        (dup,) = [n for n in doc["nodes"] if n["kind"] == DUPLICATE]
        dup["params"]["count_param"] = "zz"
        g = NodeGraph.deserialize(json.dumps(doc))
        diags = g.validate()
        assert [d.code for d in diags] == ["unknown-param"]
        assert diags[0].node_id == dup["id"] and "'zz'" in diags[0].message
        with pytest.raises(InvalidParameterError, match="graph does not validate"):
            evaluate(g)
        with pytest.raises(InvalidParameterError, match="graph does not validate"):
            extract_blueprint(g)

    def test_cycle_diagnosed_on_loaded_graph(self):
        g = build_pattern("simple_revolute")
        text = g.serialize()
        # corrupt: wire the joint's output back into the transform input
        bad = text.replace('"geometry": "n1"', f'"geometry": "{g.output_node}"')
        loaded = NodeGraph.deserialize(bad)
        assert any(d.code == "graph-cycle" for d in loaded.validate())

    @pytest.mark.parametrize(
        "wire_cycle",
        [
            _two_transforms_wired_back,
            _transform_wired_to_itself,
            _forward_wire_in_loaded_graph,
            _forward_wire_through_a_store,
            _wire_onto_a_loaded_missing_source,
            _scalar_cycle_feeding_a_selector,
            _cycle_the_output_does_not_use,
        ],
    )
    def test_wire_closing_a_cycle_is_connected_then_diagnosed(self, wire_cycle):
        g = wire_cycle()  # every connect succeeds
        assert "graph-cycle" in [d.code for d in g.validate()]
        for consumer in (evaluate, extract_blueprint):
            with pytest.raises(InvalidParameterError, match="graph does not validate"):
                consumer(g)


def _cache_probe():
    """A clean graph that touches each part of the validate cache's key: a
    parameter reference, a duplicate's count parameter, a label, and a switch
    whose literal selector picks a labelled box over a box jointed to itself.
    Returns the graph and its node ids by role."""
    space = ParameterSpace({"width": Continuous(0.5, 1.0), "n": Count(1, 3)})
    g = NodeGraph(space)
    spec = {"pivot": (0, 0, 0), "axis": (0, 0, 1), "range_lo": 0, "range_hi": 1}
    ids = {
        "base": g.add_node(PRIMITIVE, {"shape": "box", "size_x": ParamRef("width")}),
        "lid": box_node(g),
        "label": g.add_node(SEMANTIC_LABEL, {"label": "lid"}),
        "loop": g.add_node(JOINT_REVOLUTE, spec),
        "switch": g.add_node(SWITCH, {"select": 0.0}),
        "hinge": g.add_node(JOINT_REVOLUTE, spec),
        "knob": box_node(g),
        "dup": g.add_node(DUPLICATE, {"points": [(0, 0, 0)], "count_param": "n"}),
    }
    for src, dst, port in [
        ("lid", "label", "geometry"),
        ("lid", "loop", "parent"),
        ("lid", "loop", "child"),
        ("label", "switch", "option_0"),
        ("loop", "switch", "option_1"),
        ("base", "hinge", "parent"),
        ("switch", "hinge", "child"),
        ("hinge", "dup", "parent"),
        ("knob", "dup", "body"),
    ]:
        g.connect(ids[src], ids[dst], port)
    g.set_output(ids["dup"])
    return g, ids


# One change each to the probe graph, as a function of the graph and its node
# ids that returns the changed graph, and the diagnostic codes it must get.
_PROBE_VARIANTS = {
    "rewired port": (
        lambda g, n: g.connect(n["base"], n["hinge"], "child") or g, ["joint-self-loop"]
    ),
    "node kind": (lambda g, n: edited(g, n["knob"], SCALAR_MATH, op="add"), ["port-type"]),
    "label string": (lambda g, n: edited(g, n["label"], label="door"), []),
    "undeclared reference": (
        lambda g, n: edited(g, n["base"], size_x={"$param": "depth"}), ["unknown-param"]
    ),
    "count parameter": (lambda g, n: edited(g, n["dup"], count_param="m"), ["unknown-param"]),
    "literal selector": (lambda g, n: edited(g, n["switch"], select=1.0), ["joint-self-loop"]),
    "output node": (lambda g, n: g.set_output(n["loop"]) or g, ["joint-self-loop"]),
    "declared parameters": (
        lambda g, n: setattr(g, "parameters", ParameterSpace({"width": Continuous(0.5, 1.0)})) or g,
        ["unknown-param"],
    ),
}


_PROBE_PARAMS = ParamVector({"width": 0.7, "n": 2})


class TestValidateCache:
    """Evaluation keeps one compiled program per validated graph structure
    (`artigen.evaluate.program_for`), bounded by VALIDATED_STRUCTURES; no
    kept program may answer for a graph whose structure differs, and none
    holds a number of the graph it was compiled from."""

    @pytest.fixture(autouse=True)
    def empty_cache(self, monkeypatch):
        monkeypatch.setattr(artigen.evaluate, "_programs", {})

    @pytest.fixture
    def walks(self, monkeypatch):
        """The ops the symbolic walk runs on, in order."""
        walks = []
        walk_init = artigen.graph._SymbolicWalk.__init__

        def counted_init(self, ops):
            walks.append(ops)
            walk_init(self, ops)

        monkeypatch.setattr(artigen.graph._SymbolicWalk, "__init__", counted_init)
        return walks

    @pytest.mark.parametrize("variant", list(_PROBE_VARIANTS))
    def test_each_variant_reports_its_own_diagnostics(self, variant, walks):
        mutate, codes = _PROBE_VARIANTS[variant]
        clean, _ = _cache_probe()
        evaluate_links(clean, _PROBE_PARAMS)  # compiled and kept
        changed = mutate(*_cache_probe())
        walks.clear()
        if codes:
            with pytest.raises(InvalidParameterError) as refused:
                evaluate_links(changed, _PROBE_PARAMS)
            diags = changed.validate()
            assert str(refused.value) == "graph does not validate: " + "; ".join(map(str, diags))
        else:  # a clean variant gets its own program, from its own walk
            evaluate_links(changed, _PROBE_PARAMS)
            assert walks == [artigen.graph._ops(changed.structure)]
            diags = changed.validate()
        assert [d.code for d in diags] == codes
        walks.clear()
        for graph in (clean, _cache_probe()[0]):
            evaluate_links(graph, _PROBE_PARAMS)
        assert walks == []  # the clean structure is answered by its kept program

    def test_graph_mutated_after_validate_is_checked_again(self):
        g, ids = _cache_probe()
        first = g.validate()
        first.append("caller's own list")
        assert g.validate() == []
        evaluate_links(g, _PROBE_PARAMS)
        g.connect(ids["hinge"], ids["label"], "geometry")  # label -> switch -> hinge -> label
        assert [d.code for d in g.validate()] == ["graph-cycle"]
        with pytest.raises(InvalidParameterError, match="graph does not validate: graph-cycle"):
            evaluate_links(g, _PROBE_PARAMS)
        assert len(artigen.evaluate._programs) == 1  # a refused structure is not kept

    def test_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(artigen.evaluate, "VALIDATED_STRUCTURES", 2)
        graphs = []
        for label in ("a", "b", "c"):
            g, ids = _cache_probe()
            g = edited(g, ids["label"], label=label)
            evaluate_links(g, _PROBE_PARAMS)
            graphs.append(g)
        kept = list(artigen.evaluate._programs)
        assert kept == [graphs[1].structure, graphs[2].structure]

    def test_numbers_share_a_program_and_stay_out_of_it(self, walks):
        """Graphs that differ only in numeric literals run one program, each
        on its own numbers; the program keeps none of them."""
        results = []
        for size in (0.123456789, 0.987654321):
            g, ids = _cache_probe()
            g = edited(edited(g, ids["knob"], size_x=size), ids["dup"], points=[[size, 0.0, 0.0]] * 3)
            links, _, _ = evaluate_links(g, _PROBE_PARAMS)
            results.append(links)
        assert len(walks) == 1 and len(artigen.evaluate._programs) == 1
        (program,) = artigen.evaluate._programs.values()
        kept = repr([program.structure, program.blueprint.tree] + list(map(_slots, program.steps)))
        assert "0.123" not in kept and "0.987" not in kept
        assert not np.array_equal(results[0][0].mesh.vertices, results[1][0].mesh.vertices)


def _slots(step):
    return {name: getattr(step, name) for name in type(step).__slots__ if name != "source"}


def _two_boxes(b):
    return b.box((0.2, 0.2, 0.2)), b.box((0.1, 0.1, 0.1))


_JOINT = {"pivot": (0, 0, 0), "axis": (0, 0, 1), "range_lo": 0, "range_hi": 1}

# A builder call with one bad literal, the same node for NodeGraph.add_node, and
# the message both give.
_BAD_LITERALS = {
    "non-finite size": (
        lambda b: b.box((math.nan, 1, 1)),
        PRIMITIVE, {"shape": "box", "size_x": math.nan},
        "primitive.size_x must be finite",
    ),
    "string size": (
        lambda b: b.box(("wide", 1, 1)),
        PRIMITIVE, {"shape": "box", "size_x": "wide"},
        "primitive.size_x must be a number, got 'wide'",
    ),
    "boolean radius": (
        lambda b: b.cylinder(True, 1.0),
        PRIMITIVE, {"shape": "cylinder", "radius": True},
        "primitive.radius must be a number, got True",
    ),
    "infinite height": (
        lambda b: b.cylinder(0.1, math.inf),
        PRIMITIVE, {"shape": "cylinder", "height": math.inf},
        "primitive.height must be finite",
    ),
    "unset height": (
        lambda b: b.prism(0.1, None, 6),
        PRIMITIVE, {"shape": "ngon_prism", "height": None},
        "primitive.height must be a number, got None",
    ),
    "non-finite offset": (
        lambda b: b.box((1, 1, 1), at=(0, -math.inf, 0)),
        TRANSFORM, {"translate_y": -math.inf},
        "transform.translate_y must be finite",
    ),
    "zero rotate axis": (
        lambda b: b.box((1, 1, 1), at=(1, 0, 0), rotate_axis=(0, 0, 0), rotate_angle=0.5),
        TRANSFORM, {"rotate_axis": (0, 0, 0), "rotate_angle": 0.5},
        "transform.rotate_axis must be nonzero",
    ),
    "non-finite pivot": (
        lambda b: b.revolute(*_two_boxes(b), (0, 0, math.nan), (0, 0, 1), 0, 1),
        JOINT_REVOLUTE, {**_JOINT, "pivot": (0, 0, math.nan)},
        "joint_revolute.pivot must be a finite 3-vector",
    ),
    "short axis": (
        lambda b: b.prismatic(*_two_boxes(b), (0, 0, 0), (0, 1), 0, 1),
        JOINT_PRISMATIC, {**_JOINT, "axis": (0, 1)},
        "joint_prismatic.axis must be a finite 3-vector",
    ),
    "zero axis": (
        lambda b: b.revolute(*_two_boxes(b), (0, 0, 0), (0, 0, 0), 0, 1),
        JOINT_REVOLUTE, {**_JOINT, "axis": (0, 0, 0)},
        "joint_revolute.axis must be nonzero",
    ),
    "non-finite range": (
        lambda b: b.revolute(*_two_boxes(b), (0, 0, 0), (0, 0, 1), 0, math.inf),
        JOINT_REVOLUTE, {**_JOINT, "range_hi": math.inf},
        "joint_revolute.range_hi must be finite",
    ),
    "non-finite point": (
        lambda b: b.duplicate(*_two_boxes(b), [(0, 0, 0), (0, math.nan, 0)]),
        DUPLICATE, {"points": [(0, 0, 0), (0, math.nan, 0)]},
        "duplicate_joints_on_points.points must be a list of finite 3-vectors",
    ),
    "short point": (
        lambda b: b.duplicate(*_two_boxes(b), [(0, 0)]),
        DUPLICATE, {"points": [(0, 0)]},
        "duplicate_joints_on_points.points must be a list of finite 3-vectors",
    ),
    "list operand": (
        lambda b: b.math("add", b.ref("w"), [1.0]),
        SCALAR_MATH, {"op": "add", "b": [1.0]},
        "scalar_math.b must be a number, got [1.0]",
    ),
    "non-finite selector": (
        lambda b: b.switch(math.nan, _two_boxes(b)),
        SWITCH, {"select": math.nan},
        "switch.select must be finite",
    ),
}


@pytest.mark.parametrize("case", list(_BAD_LITERALS))
def test_builder_checks_each_literal_as_add_node_does(case):
    call, kind, params, message = _BAD_LITERALS[case]
    with pytest.raises(InvalidParameterError) as by_builder:
        call(NodeGraph())
    with pytest.raises(InvalidParameterError) as by_node:
        NodeGraph().add_node(kind, params)
    assert str(by_builder.value) == str(by_node.value) == message


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


    def test_store_attribute_fills_only_unlabeled_faces(self):
        # The inner store labels the first box; the outer one labels the rest.
        g = NodeGraph()
        inner = g.add_node(STORE_ATTRIBUTE, {"name": "link_label", "value": 3})
        g.connect(box_node(g), inner, "geometry")
        merge = g.add_node(MERGE, {})
        g.connect(inner, merge, "geometry_0")
        g.connect(box_node(g, (2, 2, 2)), merge, "geometry_1")
        outer = g.add_node(STORE_ATTRIBUTE, {"name": "link_label", "value": 7})
        g.connect(merge, outer, "geometry")
        g.set_output(outer)
        (link,) = evaluate(g).links
        np.testing.assert_array_equal(link.mesh.face_labels, [3] * 12 + [7] * 12)


class TestDuplicates:
    def test_grid_of_four(self):
        g = build_pattern("duplicated_bodies")
        body = evaluate(g)
        knobs = [l for l in body.links if l.label and l.label.startswith("knob")]
        assert len(knobs) == 4
        assert len(body.joints) == 4

    def test_copies_multiply_links_and_joints(self):
        source = evaluate(build_pattern("simple_revolute"))
        for k in range(1, 6):
            body = evaluate(duplicated_revolute([(0.3 * i, 0, 0) for i in range(k)]))
            assert len(body.joints) == k * len(source.joints)
            assert len(body.links) - 1 == k * (len(source.links) - 1)

    def test_single_point_at_origin_matches_original(self):
        source = evaluate(build_pattern("simple_revolute"))
        root, copy = evaluate(duplicated_revolute([(0, 0, 0)])).links
        np.testing.assert_array_equal(root.mesh.vertices, source.link("base_0").mesh.vertices)
        np.testing.assert_array_equal(copy.mesh.vertices, source.link("rod_0").mesh.vertices)
        assert copy.label == "rod_0"

    def test_expansion_ids_labels_and_placement(self):
        source = evaluate(build_pattern("simple_revolute"))
        rod, hinge = source.link("rod_0"), source.joints[0]
        points = [(0.5, 0.0, 0.0), (0.0, 0.25, -0.5)]
        body = evaluate(duplicated_revolute(points))
        copies = body.links[1:]
        assert [(l.link_id, l.label, l.template) for l in copies] == [
            ("rod_0_0", "rod_0", f"{rod.template}@0"),
            ("rod_1_0", "rod_1", f"{rod.template}@1"),
        ]
        assert [(j.joint_id, j.parent, j.child) for j in body.joints] == [
            ("hinge_0_0", "part_0", "rod_0_0"),
            ("hinge_1_0", "part_0", "rod_1_0"),
        ]
        for k, (point, link, joint) in enumerate(zip(points, copies, body.joints)):
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

        moved = []
        for name in ("apply_transform", "translate_mesh"):  # the ways evaluation moves a mesh
            move = getattr(evaluate_module, name)

            def recording_move(mesh, transform, move=move):
                moved.append(mesh)
                return move(mesh, transform)

            monkeypatch.setattr(evaluate_module, name, recording_move)
        body = evaluate(duplicated_revolute([(0.5, 0.0, 0.0), (0.0, 0.25, -0.5)]))
        root_mesh = body.link(body.root_link).mesh
        assert len(moved) == 1 + 2  # the rod's placement, then one per copy
        assert not any(mesh is root_mesh for mesh in moved)

    def test_empty_points_and_jointless_bodies_accepted(self):
        body = evaluate(duplicated_revolute([]))
        assert [l.link_id for l in body.links] == ["part_0"] and body.joints == ()
        # a jointless body merges one translated copy per point into the parent root
        g = NodeGraph()
        parent, box = box_node(g), box_node(g, (0.1, 0.1, 0.1))
        dup = g.add_node(DUPLICATE, {"points": [(1, 0, 0), (2, 0, 0)]})
        g.connect(parent, dup, "parent")
        g.connect(box, dup, "body")
        g.set_output(dup)
        (root,) = evaluate(g).links
        assert root.mesh.n_vertices == 3 * 8  # the parent box and two copies

    def test_points_reference_rejected_on_ingest_and_load(self):
        with pytest.raises(InvalidParameterError, match="points"):
            NodeGraph().add_node(DUPLICATE, {"points": ParamRef("spots")})
        doc = json.loads(build_pattern("duplicated_bodies").serialize())
        (dup,) = [n for n in doc["nodes"] if n["kind"] == DUPLICATE]
        dup["params"]["points"] = {"$param": "spots"}
        with pytest.raises(InvalidParameterError, match="points"):
            NodeGraph.deserialize(json.dumps(doc))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_points_rejected_on_ingest_and_load(self, bad):
        with pytest.raises(InvalidParameterError, match="duplicate_joints_on_points.points"):
            NodeGraph().add_node(DUPLICATE, {"points": [(0, 0, 0), (bad, 0, 0)]})
        doc = json.loads(build_pattern("duplicated_bodies").serialize())
        (dup,) = [n for n in doc["nodes"] if n["kind"] == DUPLICATE]
        dup["params"]["points"][1][2] = bad
        with pytest.raises(InvalidParameterError, match="duplicate_joints_on_points.points"):
            NodeGraph.deserialize(json.dumps(doc))


class TestMerge:
    def merged(self, second_input):
        g = build_pattern("simple_revolute")
        joint = g.output_node
        merge = g.add_node(MERGE, {})
        g.connect(joint, merge, "geometry_0")
        g.connect(second_input(g, joint), merge, "geometry_1")
        g.set_output(merge)
        return g, merge

    def test_joints_on_a_merged_root_move_to_the_fused_root(self):
        g, merge = self.merged(lambda g, joint: box_node(g, (0.1, 0.1, 0.1)))
        body = evaluate(g)
        assert [l.link_id for l in body.links] == ["rod_0", "base_0"]
        assert body.link("base_0").template == merge
        assert body.link("base_0").mesh.n_vertices == 16
        assert [(j.joint_id, j.parent, j.child) for j in body.joints] == [
            ("hinge_0", "base_0", "rod_0")
        ]

    def test_body_merged_twice_is_copied(self):
        g, merge = self.merged(lambda g, joint: joint)
        body = evaluate(g)
        assert [l.link_id for l in body.links] == ["rod_0", "rod_1", "base_0"]
        assert body.link("base_0").template == merge
        np.testing.assert_array_equal(
            body.link("rod_1").mesh.vertices, body.link("rod_0").mesh.vertices
        )
        assert [(j.joint_id, j.parent, j.child) for j in body.joints] == [
            ("hinge_0", "base_0", "rod_0"),
            ("hinge_1", "base_0", "rod_1"),
        ]
        assert extract_blueprint(g).tree_lines() == [
            "base",
            "  [revolute] rod",
            "  [revolute] rod",
        ]

    @pytest.mark.parametrize(
        "build, material",
        [
            (lambda g: g.merge(_cube(g, "metal"), _cube(g, "metal")), "metal"),
            (lambda g: g.merge(_cube(g, "metal"), _cube(g, "glass")), None),
            (lambda g: g.merge(_cube(g, "metal"), _cube(g, None)), None),
            (lambda g: _glass_on_metal(g), "metal"),
            (lambda g: g.merge(_glass_on_metal(g), _cube(g, "metal")), "metal"),
        ],
        ids=["shared", "mixed", "one-unset", "static-duplicate", "merged-static-duplicate"],
    )
    def test_merged_link_takes_the_one_material_its_inputs_share(self, build, material):
        # A static duplicate is its parent link, with the parent's material,
        # whatever the copies it merges in are made of.
        g = NodeGraph()
        g.set_output(build(g))
        (link,) = evaluate(g).links
        assert link.material == material


def _cube(g, material):
    return g.box((0.1, 0.1, 0.1), material=material)


def _glass_on_metal(g):
    """A metal cube with glass cubes merged in at two points: a static duplicate."""
    return g.duplicate(_cube(g, "metal"), _cube(g, "glass"), [(0.2, 0, 0), (0.4, 0, 0)])


def _pattern_or_category(source):
    """Graph, parameters and instance of a pattern or of a category's seed 0."""
    kind, name = source
    if kind == "pattern":
        g, params = build_pattern(name), ParamVector({})
        return g, params, instantiate(None, g, params)
    gen = get_generator(name)
    params = sample_parameters(gen.space, 0)
    return gen.build(params), params, build_instance(name, 0)


@pytest.mark.parametrize(
    "source",
    [("pattern", n) for n in PATTERN_NAMES] + [("category", c) for c in CATEGORY_NAMES],
    ids=lambda source: source[1],
)
def test_link_and_joint_ids_are_names(source):
    g, params, instance = _pattern_or_category(source)
    body = evaluate(g, params)
    for links, joints in ((body.links, body.joints), (instance.links, instance.joints)):
        ids = [l.link_id for l in links]
        ids += [x for j in joints for x in (j.joint_id, j.parent, j.child)]
        assert ids and all(type(x) is str for x in ids), ids


class TestSerde:
    @pytest.mark.parametrize("name", PATTERN_NAMES)
    def test_round_trip_structural_equality(self, name):
        g = build_pattern(name)
        text = g.serialize()
        back = NodeGraph.deserialize(text)
        assert back == g
        assert back.serialize() == text

    def test_omitted_and_given_defaults_are_equal(self):
        def cylinder(**given):
            g = NodeGraph()
            g.set_output(g.add_node(PRIMITIVE, {"shape": "cylinder", **given}))
            return g

        omitted, given = cylinder(), cylinder(segments=32, sides=6)
        assert omitted.serialize() == given.serialize()
        assert omitted == given

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

    def test_unknown_duplicate_parameter_rejected(self):
        doc = json.loads(build_pattern("duplicated_bodies").serialize())
        (dup,) = [n for n in doc["nodes"] if n["kind"] == DUPLICATE]
        dup["params"]["count_map"] = [0, 1]
        with pytest.raises(SchemaError, match="count_map"):
            NodeGraph.deserialize(json.dumps(doc))

    def test_wrong_schema_version(self):
        text = build_pattern("simple_revolute").serialize()
        with pytest.raises(SchemaError):
            NodeGraph.deserialize(text.replace('"schema": 1', '"schema": 99'))

    @pytest.mark.parametrize("output", [["n0"], {"a": 1}, 3, True])
    def test_output_that_is_not_a_node_id_rejected(self, output):
        doc = json.loads(build_pattern("simple_revolute").serialize())
        doc["output"] = output
        with pytest.raises(SchemaError, match="output must be a node id or null"):
            NodeGraph.deserialize(json.dumps(doc))

    @pytest.mark.parametrize(
        "source",
        [("pattern", name) for name in PATTERN_NAMES]
        + [("category", name) for name in CATEGORY_NAMES],
    )
    def test_loaded_document_runs_its_recordings_program(self, source, monkeypatch):
        """A document loads to the structure of the graph that wrote it, so it
        runs that graph's kept program, and evaluates alike, bit for bit."""
        kind, name = source
        if kind == "pattern":
            cases = [(build_pattern(name), ParamVector({}))]
        else:
            gen = get_generator(name)
            vectors = [sample_parameters(gen.space, seed, salt="") for seed in range(5)]
            cases = [(gen.build(params), params) for params in vectors]
        calls = {"walk": 0, "compile": 0}
        walk, program = artigen.graph._SymbolicWalk, artigen.evaluate.Program
        for key, cls in (("walk", walk), ("compile", program)):
            init = cls.__init__

            def counted(self, *args, key=key, init=init):
                calls[key] += 1
                init(self, *args)

            monkeypatch.setattr(cls, "__init__", counted)
        for g, params in cases:
            want = evaluate_links(g, params)  # the recording's program, kept
            calls.update(walk=0, compile=0)
            loaded = NodeGraph.deserialize(g.serialize())
            assert loaded.structure == g.structure
            got = evaluate_links(loaded, params)
            assert calls == {"walk": 0, "compile": 0}
            _assert_same_evaluation(got, want)

    def test_a_document_in_any_key_order_loads_to_one_structure(self):
        g = build_pattern("simple_revolute")
        doc = json.loads(g.serialize())
        for node in doc["nodes"]:
            node["params"] = dict(reversed(node["params"].items()))
            node["inputs"] = dict(reversed(node["inputs"].items()))
        (joint,) = [n for n in doc["nodes"] if n["kind"] == JOINT_REVOLUTE]
        assert list(joint["params"])[:3] == ["range_lo", "range_hi", "pivot"]
        assert list(joint["inputs"]) == ["parent", "child"]
        loaded = NodeGraph.deserialize(json.dumps(doc))  # keys in the order given
        assert loaded.structure == g.structure
        assert loaded.serialize() == g.serialize()
        # a graph made by add_node and connect loads to its own structure too
        probe, _ = _cache_probe()
        assert NodeGraph.deserialize(probe.serialize()).structure == probe.structure


def _assert_same_evaluation(got, want):
    """Equal link and joint records from two `evaluate_links` calls, meshes
    compared array by array."""
    (links, joints, root), (want_links, want_joints, want_root) = got, want
    assert (root, joints) == (want_root, want_joints)
    fields = ("link_id", "label", "material", "template", "origin")
    assert [[getattr(l, f) for f in fields] for l in links] == [
        [getattr(l, f) for f in fields] for l in want_links
    ]
    for link, want_link in zip(links, want_links):
        for array in ("vertices", "triangles", "face_labels"):
            a, b = getattr(link.mesh, array), getattr(want_link.mesh, array)
            assert (a is None) == (b is None) and (a is None or np.array_equal(a, b))


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

    def test_huge_axis_normalized_without_overflow(self):
        assert JointSpec("revolute", (0, 0, 0), (1e200, 0, 0), 0, 1).axis == (1.0, 0.0, 0.0)
        axis = JointSpec("prismatic", (0, 0, 0), (-1e300, 1e300, 0), 0, 1).axis
        np.testing.assert_allclose(axis, (-math.sqrt(0.5), math.sqrt(0.5), 0.0), rtol=1e-15)

    def test_ordinary_axis_keeps_norm_bits(self):
        v = np.array([0.3, -1.7, 2.9])
        assert JointSpec("revolute", (0, 0, 0), v, 0, 1).axis == tuple(v / np.linalg.norm(v))

    @pytest.mark.parametrize(
        "field, pivot, axis",
        [
            ("axis", (0, 0, 0), (0, 1)),
            ("axis", (0, 0, 0), (0, math.nan, 1)),
            ("axis", (0, 0, 0), (math.inf, 0, 0)),
            ("axis", (0, 0, 0), ("up", 0, 0)),
            ("axis", (0, 0, 0), (0, 0, 0)),
            ("pivot", (0, 0), (0, 0, 1)),
            ("pivot", (0, 0, math.nan), (0, 0, 1)),
        ],
    )
    def test_malformed_vectors_rejected(self, field, pivot, axis):
        with pytest.raises(InvalidParameterError, match=f"joint {field}"):
            JointSpec("revolute", pivot, axis, 0.0, 1.0)


@pytest.mark.parametrize(
    "parent, child, relation",
    [
        ({1, 2}, {1, 2}, "equal"),
        ({1, 2}, {2}, "nested"),
        ({1}, {1, 2}, "overlapping"),
        ({1, 2}, {2, 3}, "overlapping"),
        ({1}, {2}, "disjoint"),
    ],
)
def test_link_set_relation(parent, child, relation):
    assert link_set_relation(frozenset(parent), frozenset(child)) == relation


def test_pattern_corpus_imports_without_generator_stack():
    script = (
        "import sys\nimport artigen.patterns\n"
        "print([m for m in ('artigen.generators', 'artigen.blueprint', 'artigen.evaluate')"
        " if m in sys.modules])\n"
    )
    # The child imports the same artigen as this process.
    src = str(Path(artigen.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestScrewComposite:
    def test_parallel_edges_preserved_in_ir(self):
        body = evaluate(build_pattern("multi_joint_screw"))
        assert len(body.links) == 2
        assert len(body.joints) == 2
        pair = [body.joints[k] for k in body.tree.incoming[body.tree.link_index["cap_0"]]]
        assert [(j.parent, j.child) for j in pair] == [("neck_0", "cap_0")] * 2

    def test_both_motions_compose(self):
        g = build_pattern("multi_joint_screw")
        body = evaluate(g, joint_values={"turn_0": math.pi, "lift_0": 0.01})
        rest = evaluate(g)
        moved = body.posed_mesh("cap_0").vertices
        # lift shifts every vertex up by exactly 0.01 after the turn
        turned = evaluate(g, joint_values={"turn_0": math.pi}).posed_mesh("cap_0").vertices
        np.testing.assert_allclose(moved, turned + [0, 0, 0.01], atol=1e-12)

    def test_two_parents_rejected(self):
        g, j = two_parent_graph()
        assert [(d.code, d.node_id) for d in g.validate()] == [("joint-two-parents", j)]
        consumers = (evaluate, lambda g: instantiate(None, g, ParamVector({})), extract_blueprint)
        for consumer in consumers:
            with pytest.raises(InvalidParameterError, match="graph does not validate"):
                consumer(g)
