import functools
import math

import numpy as np
import pytest

import artigen.blueprint
import artigen.evaluate
import artigen.generators.common
import artigen.geometry
import artigen.graph
from artigen.blueprint import extract_blueprint, forward_kinematics, instantiate
from artigen.generators import (
    CATEGORY_NAMES,
    build_instance,
    count_variations,
    get_generator,
)
from artigen.errors import ArtigenError, InvalidParameterError, MissingParameterError
from artigen.export import export_bundle, manifest_param_vector
from artigen.evaluate import evaluate_links
from artigen.generators.common import CategoryGenerator
from artigen.graph import NodeGraph, ParamRef
from artigen.kinematics import KinematicTree
from artigen.params import (
    Continuous,
    Count,
    Discrete,
    ParameterSpace,
    merge_overrides,
    sample_parameters,
)
from artigen.patterns import PATTERN_NAMES, build_pattern
from helpers import blueprint_parts

def _counted(calls: dict, key: str, fn):
    """`fn`, adding one to `calls[key]` per call."""
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)
    return wrapper


# the paper-style inventory: category -> (continuous dims, discrete combinations)
EXPECTED = {
    "door": (39, 60),
    "fridge": (32, 360),
    "dishwasher": (13, 224),
    "lamp": (29, 256),
    "toaster": (14, 240),
}

A3_NAMES = {
    "toaster": [
        "Dimension of Lever handle", "Slot Width", "Slot Length", "Slot Depth",
        "Toaster Length", "Knob Vertical Location", "Knob Horizontal Location",
        "Knob Size", "Circular Button Size", "Square Button Width",
        "Inter-Button Distances", "Button Horizontal Offset", "Button Vertical Offset",
        "Protrusion parameter",
    ],
    "fridge": [
        "Size", "Wall Thickness", "Body Outer Roundness", "Body Inner Roundness",
        "Door Handle Margin", "Door Shelf Size", "Door Shelf Thickness", "Door Shelf Num",
        "Door Shelf Margin", "Door Handle Top Size", "Door Handle Top Thickness",
        "Door Handle Top Roundness", "Door Handle Support Size", "Door Handle Support Margin",
        "Door Left Margin", "Door Right Margin", "Door Upper Margin", "Door Lower Margin",
        "Shelf Margin", "Shelf Thickness", "Shelf Board Margin", "Drawer Height",
        "Drawer Wall Thickness", "Drawer Handle Margin", "Drawer Handle Top Size",
        "Drawer Handle Top Thickness", "Drawer Handle Top Roundness",
        "Drawer Handle Support Size", "Drawer Handle Support Margin",
        "Drawer Body Roundness", "Drawer Slide Roundness", "Drawer Inner Roundness",
    ],
    "dishwasher": [
        "Depth", "Width", "Height", "Door Thickness", "Rack Radius", "Rack Height",
        "Rack Depth", "Handle Radius", "Handle Position", "Number of Racks",
        "Density of Supports in Rack", "Button Position", "Handle Curvature",
    ],
    "lamp": [
        "Pull String Radius", "Pull String Base Height", "Pull String Length",
        "Button Base Size", "Button Size", "Button Height", "Twist Button Base Size",
        "Twist Button Size", "Twist Button Height", "Twist Button Twister height",
        "Switch Base Size", "Switch Size", "Switch Curvature", "Button X-Location",
        "Length of Bar 1", "Location of Bar 2 joint on Bar 1", "Length of Bar 2",
        "Location of Bar 3 joint on Bar 2", "Radius", "Height", "Radius of Base",
        "Base Height", "Number of Sides on Base", "Shade Height", "Rack Height",
        "Top Radius", "Bottom Radius", "Rack Thickness", "Number of Sides on Shade",
    ],
    "door": [
        "Width", "Height", "Depth", "Panel margin", "Bevel Width", "Shrink Width",
        "Door Frame Width", "Handle Height", "Push Bar Length", "Push Bar Thickness",
        "Push Bar Aspect Ratio", "Push Bar Height Ratio", "Push Bar Length Ratio",
        "Push Bar End Length Ratio", "Push Bar End Height Ratio",
        "Push Bar Overall Z-Offset", "Knob Radius", "Knob Base Radius",
        "Knob Middle Radius", "Knob Central Radius", "Knob Depth", "Knob Middle Depth",
        "Lever Radius", "Lever Middle Radius", "Lever Depth", "Lever Middle Depth",
        "Lever Length", "Lever Type", "Pull Handle Size", "Pull Handle Depth",
        "Pull Handle Width", "Pull Handle Extension", "Pull Handle Bevel Width",
        "Pull Handle Pull Radius", "Pull Handle Bevel Side Length", "Louver Width",
        "Louver Margin", "Louver Size", "Louver Angle",
    ],
}


def normalize(name: str) -> str:
    out = []
    for ch in name.lower():
        out.append(ch if ch.isalnum() else "_")
    collapsed = "".join(out)
    while "__" in collapsed:
        collapsed = collapsed.replace("__", "_")
    return collapsed.strip("_")


def sample_for(category, seed, **fixed):
    gen = get_generator(category)
    overrides = {name: {"fixed": value} for name, value in fixed.items()}
    return sample_parameters(gen.space, seed, overrides=overrides)


def instance_for(category, seed, **fixed):
    gen = get_generator(category)
    pv = sample_for(category, seed, **fixed)
    g = gen.build(pv)
    return instantiate(extract_blueprint(g), g, pv, category=category)


class TestInventory:
    @pytest.mark.parametrize("category", CATEGORY_NAMES)
    def test_continuous_dims_match(self, category):
        gen = get_generator(category)
        expected_dims, _ = EXPECTED[category]
        assert sum(isinstance(e, Continuous) for e in gen.space.entries.values()) == expected_dims
        assert count_variations(gen).continuous_dims == expected_dims

    @pytest.mark.parametrize("category", CATEGORY_NAMES)
    def test_named_parameters_verbatim(self, category):
        gen = get_generator(category)
        expected = [normalize(n) for n in A3_NAMES[category]]
        got = [n for n, e in gen.space.entries.items() if isinstance(e, Continuous)]
        assert sorted(got) == sorted(expected)
        assert len(got) == len(expected)

    @pytest.mark.parametrize("category", CATEGORY_NAMES)
    def test_discrete_combinations_exact(self, category):
        gen = get_generator(category)
        vc = count_variations(gen)
        _, expected_combos = EXPECTED[category]
        assert vc.discrete_combinations == expected_combos
        # brute-force the product over the declared choice sets
        from artigen.params import Count, Discrete

        brute = 1
        for entry in gen.space.entries.values():
            if isinstance(entry, Discrete):
                brute *= len(entry.labels)
            elif isinstance(entry, Count):
                brute *= len(range(entry.min, entry.max + 1))
        assert vc.discrete_combinations == brute

    @pytest.mark.parametrize("category", CATEGORY_NAMES)
    def test_assets_at_3_values_magnitude(self, category):
        vc = count_variations(get_generator(category))
        order = len(str(vc.assets_at_3_values)) - 1  # floor(log10) for exact ints
        assert 6 <= order <= 20

    def test_door_high_end_dishwasher_low_end(self):
        door = count_variations(get_generator("door"))
        dish = count_variations(get_generator("dishwasher"))
        assert door.assets_at_3_values == 60 * 3**39
        assert 3**39 == 4052555153018976267
        assert dish.assets_at_3_values == 224 * 3**13
        assert dish.assets_at_3_values < 10**9 < door.assets_at_3_values


class TestSampling:
    def test_fixed_seed_reproducible(self):
        gen = get_generator("door")
        a = sample_parameters(gen.space, 7, salt="")
        b = sample_parameters(gen.space, 7, salt="")
        assert a.values == b.values

    def test_substreams_stable_under_new_parameter(self):
        from artigen.params import ParameterSpace

        gen = get_generator("toaster")
        base = sample_parameters(gen.space, 3, salt="")
        extended = ParameterSpace(list(gen.space.entries.items()))
        extended.add("extra_knob", Continuous(0, 1))
        wider = sample_parameters(extended, 3, salt="")
        for name in gen.space.entries:
            assert wider.values[name] == base.values[name]

    def test_uniform_mean(self):
        from artigen.params import ParameterSpace

        space = ParameterSpace({"x": Continuous(0.0, 1.0)})
        draws = [sample_parameters(space, s, salt="")["x"] for s in range(10_000)]
        assert 0.48 <= float(np.mean(draws)) <= 0.52

    def test_salt_changes_draws(self):
        gen = get_generator("lamp")
        a = sample_parameters(gen.space, 5, salt="")
        b = sample_parameters(gen.space, 5, salt="other")
        assert a.values != b.values

    def test_override_widens_range(self):
        gen = get_generator("door")
        lo, hi = 0.3, 2.0
        values = [
            sample_parameters(
                gen.space, s, overrides={"lever_length": {"lo": lo, "hi": hi}}
            )["lever_length"]
            for s in range(1000)
        ]
        assert min(values) < 0.4 and max(values) > 1.8


class TestDoor:
    def test_single_lever_door(self):
        inst = instance_for("door", 1, door_count=1, handle_type=1)
        assert len(inst.links) == 3
        assert len(inst.joints) == 2
        labels = sorted(l.label for l in inst.links)
        assert labels == ["frame", "handle", "panel"]
        types = sorted(j.joint_type for j in inst.joints)
        assert types == ["revolute", "revolute"]

    def test_no_handle(self):
        inst = instance_for("door", 2, handle_type=0, door_count=1)
        assert len(inst.links) == 2
        assert len(inst.joints) == 1

    def test_hinge_range_sign_by_side(self):
        left = instance_for("door", 3, door_count=1, hinge_side=0, handle_type=0)
        right = instance_for("door", 3, door_count=1, hinge_side=1, handle_type=0)
        jl, jr = left.joints[0], right.joints[0]
        assert jl.lo == 0.0 and jl.hi > 0
        assert jr.hi == 0.0 and jr.lo < 0

    def test_handle_tip_arc_radius_within_reach(self):
        inst = instance_for("door", 4, door_count=1, handle_type=1, hinge_side=0)
        pv = inst.params
        hinge = next(j for j in inst.joints if j.joint_label == "hinge")
        handle_j = next(j for j in inst.joints if j.joint_label == "handle_turn")
        handle = inst.link(handle_j.child)
        # farthest handle point from the hinge axis, over a hinge sweep
        pivot = inst.pivot_in_parent(hinge)
        axis = np.asarray(hinge.axis)
        radii = []
        for theta in np.linspace(hinge.lo, hinge.hi, 5):
            world = forward_kinematics(inst, {hinge.joint_id: float(theta)})
            pts = world[handle.link_id].apply(handle.mesh.vertices)
            rel = pts - pivot
            rad = np.linalg.norm(rel - np.outer(rel @ axis, axis), axis=1)
            radii.append(rad.max())
        # the arc radius is constant and bounded by the hinge-to-handle reach
        assert np.ptp(radii) < 1e-9
        d = abs(inst.pivot_in_parent(handle_j)[0])  # handle-to-hinge distance along the panel
        reach = pv["lever_length"] + 0.08
        assert d - reach <= radii[0] <= d + reach

    def test_double_door_mirrored(self):
        inst = instance_for("door", 5, door_count=2, handle_type=0)
        hinges = [j for j in inst.joints if j.joint_label == "hinge"]
        assert len(hinges) == 2
        assert {(h.lo == 0.0) for h in hinges} == {True, False}


class TestToaster:
    def test_two_slots_one_lever_equal_ranges(self):
        inst = instance_for("toaster", 1, slot_count=2, levers_per_slot=1)
        levers = [j for j in inst.joints if (j.joint_label or "").startswith("press")]
        assert len(levers) == 2
        assert levers[0].hi == levers[1].hi

    def test_lever_travel_equals_slot_depth(self):
        inst = instance_for("toaster", 2)
        sd = inst.params["slot_depth"]
        for j in inst.joints:
            if (j.joint_label or "").startswith("press"):
                assert j.hi == pytest.approx(sd, abs=1e-12)
                assert j.joint_type == "prismatic"

    def test_zero_buttons(self):
        inst = instance_for("toaster", 3, buttons_per_lever=0)
        assert not any((l.label or "").startswith("button") for l in inst.links)

    def test_lever_count_product(self):
        inst = instance_for("toaster", 4, slot_count=3, levers_per_slot=2)
        levers = [j for j in inst.joints if (j.joint_label or "").startswith("press")]
        assert len(levers) == 6


class TestFridge:
    def test_minimal_config(self):
        inst = instance_for(
            "fridge", 1, door_count=1, external_drawer_count=0,
            internal_shelf_count=0, internal_drawer_count=0, shelves_per_door=0,
        )
        assert len(inst.links) == 2
        assert len(inst.joints) == 1
        assert inst.joints[0].joint_type == "revolute"

    def test_internal_drawer_axes_parallel(self):
        inst = instance_for("fridge", 2, internal_drawer_count=2)
        drawers = [j for j in inst.joints
                   if (inst.link(j.child).label or "").startswith("internal_drawer")]
        assert len(drawers) == 2
        dot = float(np.dot(drawers[0].axis, drawers[1].axis))
        assert abs(dot - 1.0) < 1e-9

    def test_internal_drawer_occluded_when_closed(self):
        inst = instance_for("fridge", 3, internal_drawer_count=1, door_count=1)
        world = forward_kinematics(inst, {})
        body_box = None
        drawer_box = None
        for link in inst.links:
            pts = world[link.link_id].apply(link.mesh.vertices)
            lo, hi = pts.min(axis=0), pts.max(axis=0)
            if link.link_id == inst.root_link:
                body_box = (lo, hi)
            if (link.label or "").startswith("internal_drawer"):
                drawer_box = (lo, hi)
        assert drawer_box is not None
        assert np.all(body_box[0] <= drawer_box[0] + 1e-9)
        assert np.all(drawer_box[1] <= body_box[1] + 1e-9)

    def test_door_shelves_ride_door_link(self):
        few = instance_for("fridge", 4, shelves_per_door=0, door_count=1)
        many = instance_for("fridge", 4, shelves_per_door=4, door_count=1)
        assert len(few.links) == len(many.links)  # shelves merge into the door link
        door_few = next(l for l in few.links if l.label == "door")
        door_many = next(l for l in many.links if l.label == "door")
        assert door_many.mesh.n_triangles > door_few.mesh.n_triangles


class TestDishwasher:
    def test_three_racks_one_repeat_group(self):
        gen = get_generator("dishwasher")
        pv = sample_for("dishwasher", 1, rack_count=3)
        g = gen.build(pv)
        bp = extract_blueprint(g)
        _, _, repeats = blueprint_parts(bp.tree)
        rack_groups = [r for r in repeats if r["count_param"] == "rack_count"]
        assert len(rack_groups) == 1
        inst = instantiate(bp, g, pv, category="dishwasher")
        racks = [j for j in inst.joints if (inst.link(j.child).label or "").startswith("rack")]
        assert len(racks) == 3
        assert all(j.joint_type == "prismatic" for j in racks)

    def test_zero_racks(self):
        inst = instance_for("dishwasher", 2, rack_count=0, button_count=0)
        assert len(inst.joints) == 1
        assert inst.joints[0].joint_type == "revolute"

    def test_rack_axes_equal(self):
        inst = instance_for("dishwasher", 3, rack_count=3)
        racks = [j for j in inst.joints if (inst.link(j.child).label or "").startswith("rack")]
        for j in racks[1:]:
            assert np.abs(np.asarray(j.axis) - np.asarray(racks[0].axis)).max() < 1e-9


class TestLamp:
    def test_three_revolute_segments_chain_depth(self):
        inst = instance_for(
            "lamp", 1, arm_segments=3,
            segment_1_joint_type=0, segment_2_joint_type=0, segment_3_joint_type=0,
        )
        head = next(l for l in inst.links if l.label == "head")
        by_child = {j.child: j for j in inst.joints}
        depth, cur = 1, head.link_id
        while cur in by_child:
            depth += 1
            cur = by_child[cur].parent
        assert depth == 5  # base, three bars, head

    def test_zero_segments_head_on_base(self):
        inst = instance_for("lamp", 2, arm_segments=0)
        head = next(l for l in inst.links if l.label == "head")
        j = next(j for j in inst.joints if j.child == head.link_id)
        assert inst.link(j.parent).label == "base"
        assert j.is_fixed
        assert any(l.label == "switch" for l in inst.links)

    def test_joint_type_sequence_matches_selection(self):
        inst = instance_for(
            "lamp", 3, arm_segments=3,
            segment_1_joint_type=0, segment_2_joint_type=1, segment_3_joint_type=0,
        )
        by_label = {j.joint_label: j for j in inst.joints if j.joint_label}
        assert by_label["elbow_1"].joint_type == "revolute"
        assert by_label["elbow_2"].joint_type == "prismatic"
        assert by_label["elbow_3"].joint_type == "revolute"

    def test_pull_string_forced_to_head(self):
        inst = instance_for("lamp", 4, switch_type=3, switch_location=0)
        switch = next(l for l in inst.links if l.label == "switch")
        j = next(j for j in inst.joints if j.child == switch.link_id)
        assert inst.link(j.parent).label == "head"
        assert j.joint_type == "prismatic"

    @pytest.mark.parametrize(
        "name, override",
        [
            ("number_of_sides_on_shade", {"fixed": 0.0}),
            ("number_of_sides_on_base", {"lo": 0.0, "hi": 0.4}),
            ("number_of_sides_on_shade", {"lo": 1.0, "hi": 2.4}),
        ],
    )
    def test_too_few_sides_names_the_parameter(self, name, override):
        with pytest.raises(InvalidParameterError, match=name):
            build_instance("lamp", 0, overrides={name: override}, salt="")


class TestBlueprintInvariance:
    @pytest.mark.parametrize("category", CATEGORY_NAMES)
    def test_single_signature_across_seeds(self, category):
        gen = get_generator(category)
        sigs = set()
        for seed in range(25):
            pv = sample_parameters(gen.space, seed, salt="")
            sigs.add(extract_blueprint(gen.build(pv)).signature())
        assert len(sigs) == 1

    @pytest.mark.parametrize("category", CATEGORY_NAMES)
    def test_one_structure_across_seeds(self, category):
        """The category blueprint is extracted from the seed-0 graph alone, so
        every seed must build the same nodes, wiring, parameter references and
        string parameters; numeric values, duplication points among them, vary."""

        def structure(graph):
            return graph.output_node, [
                (
                    node.node_id,
                    node.kind,
                    sorted(node.inputs.items()),
                    {
                        name: value
                        for name, value in node.params.items()
                        if isinstance(value, (ParamRef, str))
                    },
                )
                for node in graph.nodes.values()
            ]

        gen = get_generator(category)
        first = structure(gen.build(sample_parameters(gen.space, 0, salt="")))
        for seed in range(1, 60):
            graph = gen.build(sample_parameters(gen.space, seed, salt=""))
            assert structure(graph) == first, seed

    def test_categories_differ(self):
        sigs = set()
        for category in CATEGORY_NAMES:
            gen = get_generator(category)
            pv = sample_parameters(gen.space, 0, salt="")
            sigs.add(extract_blueprint(gen.build(pv)).signature())
        assert len(sigs) == len(CATEGORY_NAMES)

    def test_build_validates_once_and_never_extracts(self, monkeypatch):
        # warm-up: each category's one structure has been compiled, which
        # validated it and wrote the category blueprint
        for category in CATEGORY_NAMES:
            build_instance(category, 0, salt="")
        calls = {"validate": 0, "walk": 0, "blueprint": 0, "compile": 0, "pose": 0}
        calls.update({"literal check": 0, "node view": 0})
        counted = functools.partial(_counted, calls)
        monkeypatch.setattr(NodeGraph, "validate", counted("validate", NodeGraph.validate))
        walk = artigen.graph._SymbolicWalk
        monkeypatch.setattr(walk, "__init__", counted("walk", walk.__init__))
        program = artigen.evaluate.Program
        monkeypatch.setattr(program, "__init__", counted("compile", program.__init__))
        # neither the category blueprint nor any other is written again
        for module in (artigen.graph, artigen.evaluate):
            write = module.write_blueprint
            monkeypatch.setattr(module, "write_blueprint", counted("blueprint", write))
        # instantiate needs no link poses, so a build never poses the tree
        monkeypatch.setattr(KinematicTree, "pose", counted("pose", KinematicTree.pose))
        # each recorded node takes the literal check once, and none is viewed
        split = artigen.graph._split_params
        monkeypatch.setattr(artigen.graph, "_split_params", counted("literal check", split))
        monkeypatch.setattr(artigen.graph, "Node", counted("node view", artigen.graph.Node))
        recorded = 0
        for category in CATEGORY_NAMES:
            nodes = len(get_generator(category).program.structure[3])
            for seed in (1, 2):
                build_instance(category, seed, salt="")
                recorded += nodes
        # a warm build records its graph and runs the compiled program: no
        # structure is checked or compiled
        assert calls == {
            "validate": 0, "walk": 0, "blueprint": 0, "compile": 0, "pose": 0,
            "literal check": recorded, "node view": 0,
        }

    def test_validate_checks_no_literal_again(self, monkeypatch):
        graphs = [build_pattern(name) for name in PATTERN_NAMES]
        for category in CATEGORY_NAMES:
            gen = get_generator(category)
            graphs.append(gen.build(sample_parameters(gen.space, 3, salt="")))
        calls = {"literal check": 0}
        split = artigen.graph._split_params
        monkeypatch.setattr(artigen.graph, "_split_params", _counted(calls, "literal check", split))
        for g in graphs:
            assert g.validate() == []
        assert calls == {"literal check": 0}

    def test_build_checks_each_mesh_where_it_is_made(self, monkeypatch, tmp_path):
        """Primitives and final link meshes take the full mesh check, and
        meshes moved or merged in between do not: a warm build makes one
        check pass (`check_meshes`), over its primitives and then its link
        meshes, whose area checks take at most CHECK_GROUP_TRIANGLES
        triangles each (or one larger mesh) and exactly the triangles those
        meshes hold. An instance's first export makes one more pass, over its
        link-frame meshes, and later exports none."""
        for category in CATEGORY_NAMES:
            build_instance(category, 0, salt="")
        calls = {"passes": 0, "areas": [], "primitives": 0, "made": 0}

        def areas(corners):
            calls["areas"].append(len(corners))
            return triangle_areas(corners)

        def counted(make):
            def made(*args):
                verts, tris = make(*args)
                calls["primitives"] += 1
                calls["made"] += len(tris)
                return verts, tris
            return made

        def check(meshes):
            calls["passes"] += 1
            return check_meshes(meshes)

        triangle_areas = artigen.geometry.triangle_areas
        check_meshes = artigen.geometry.check_meshes
        monkeypatch.setattr(artigen.geometry, "triangle_areas", areas)
        monkeypatch.setattr(artigen.evaluate, "check_meshes", check)
        # evaluation makes each primitive with exactly one of these
        for shape, make in artigen.evaluate._MAKERS.items():
            monkeypatch.setitem(artigen.evaluate._MAKERS, shape, counted(make))
        cap = artigen.geometry.CHECK_GROUP_TRIANGLES
        for category in CATEGORY_NAMES:
            for seed in (1, 2):
                calls.update(passes=0, areas=[], primitives=0, made=0)
                inst = build_instance(category, seed, salt="")
                links = sum(l.mesh.n_triangles for l in inst.links)
                largest = max(l.mesh.n_triangles for l in inst.links)
                assert calls["primitives"] > 0, (category, seed)
                assert calls["passes"] == 1, (category, seed)
                assert sum(calls["areas"]) == calls["made"] + links, (category, seed)
                assert max(calls["areas"]) <= max(cap, largest), (category, seed)
                calls.update(passes=0)
                export_bundle(inst, tmp_path / f"{category}_{seed}", ("urdf",))
                export_bundle(inst, tmp_path / f"{category}_{seed}", ("mjcf",))
                assert calls["passes"] == 1, (category, seed)

    @pytest.mark.parametrize("category", CATEGORY_NAMES)
    def test_category_blueprint_matches_each_seed(self, category):
        space = get_generator(category).space
        cont = next(n for n, e in space.entries.items() if isinstance(e, Continuous))
        disc, entry = next(
            (n, e) for n, e in space.entries.items() if not isinstance(e, Continuous)
        )
        if isinstance(entry, Discrete):
            choices = range(len(entry.labels))
        else:
            choices = range(entry.min, entry.max + 1)
        for seed in range(10):
            end = space.entries[cont].lo if seed % 2 else space.entries[cont].hi
            pinned = {cont: {"fixed": end}, disc: {"fixed": choices[seed % len(choices)]}}
            for overrides in (None, pinned):
                pv = sample_parameters(space, seed, overrides=overrides, salt="")
                graph = get_generator(category).build(pv)
                graph.parameters = merge_overrides(graph.parameters, overrides)
                instance = build_instance(category, seed, overrides=overrides, salt="")
                assert instance.blueprint.signature() == extract_blueprint(graph).signature()


@pytest.mark.parametrize("category", CATEGORY_NAMES)
@pytest.mark.parametrize("bad", ["a", None, [1], True], ids=["string", "null", "list", "bool"])
def test_manifest_value_of_the_wrong_type_names_the_parameter(category, bad, monkeypatch):
    """The parameter vector is checked before the recipe reads it, so a value
    that is not a number of its entry's kind raises a typed error naming the
    parameter, and no graph is recorded."""
    gen = get_generator(category)
    _ = gen.blueprint  # compiled outside the count below
    name = next(n for n, e in gen.space.entries.items() if not isinstance(e, Continuous))
    values = {**sample_parameters(gen.space, 0, salt="").values, name: bad}
    params = manifest_param_vector({"seed": 0, "params": values})
    calls = {"build": 0}
    monkeypatch.setattr(CategoryGenerator, "build", _counted(calls, "build", CategoryGenerator.build))
    with pytest.raises(ArtigenError, match=f"parameter {name!r}"):
        build_instance(category, 0, params=params)
    assert calls == {"build": 0}



def test_manifest_value_with_an_undeclared_name_is_rejected(monkeypatch):
    """A parameter vector holding a name its space does not declare, as a
    misspelled entry in a hand-edited manifest, is rejected naming it before
    any graph is recorded, instead of building and being recorded."""
    gen = get_generator("door")
    _ = gen.blueprint  # compiled outside the count below
    values = {**sample_parameters(gen.space, 3, salt="").values, "door_cnt": 7}
    params = manifest_param_vector({"seed": 3, "params": values})
    calls = {"build": 0}
    monkeypatch.setattr(CategoryGenerator, "build", _counted(calls, "build", CategoryGenerator.build))
    with pytest.raises(MissingParameterError, match="'door_cnt'"):
        build_instance("door", 3, params=params)
    assert calls == {"build": 0}

def _toy_recipe(b, p):
    """A base with one arm, or two when `arms` is 2: two structures."""
    base = b.box((p["width"], 0.2, 0.1), material="metal")
    arm = b.box((0.05, 0.05, 0.3), at=(0, 0, 0.2))
    out = b.revolute(base, arm, (0, 0, 0.05), (0, 1, 0), -1.0, 1.0, labels=("hinge", "base", "arm"))
    if p["arms"] == 2:
        other = b.cylinder(0.03, 0.3, at=(0.1, 0, 0.2), segments=12)
        out = b.prismatic(out, other, (0.1, 0, 0.05), (0, 0, 1), 0.0, 0.1, labels=("slide", None, "arm"))
    return out


class TestCompiledPrograms:
    @pytest.mark.parametrize("category", CATEGORY_NAMES)
    def test_program_matches_evaluating_the_built_graph(self, category):
        gen = get_generator(category)
        for seed in range(10):
            params = sample_parameters(gen.space, seed, salt="")
            graph = gen.build(params)
            assert graph.structure == gen.program.structure
            links, joints, root = gen.evaluate(params)
            want_links, want_joints, want_root = evaluate_links(graph, params)
            assert (root, joints) == (want_root, want_joints)
            assert len(links) == len(want_links)
            for got, want in zip(links, want_links):
                fields = ("link_id", "label", "material", "template", "origin")
                assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]
                assert np.array_equal(got.mesh.vertices, want.mesh.vertices)
                assert np.array_equal(got.mesh.triangles, want.mesh.triangles)
                assert (got.mesh.face_labels is None) == (want.mesh.face_labels is None)
                if got.mesh.face_labels is not None:
                    assert np.array_equal(got.mesh.face_labels, want.mesh.face_labels)

    def test_cold_compile_reads_the_recording_alone(self, monkeypatch):
        """With no program kept, each category's first program is checked and
        compiled from the structure of its seed-0 recording: one graph is
        recorded per category, each node takes the literal check once, and no
        node view is made."""
        blueprints, nodes = {}, 0
        for category in CATEGORY_NAMES:
            gen = get_generator(category)
            blueprints[category] = gen.blueprint
            nodes += len(gen.program.structure[3])
            monkeypatch.delitem(gen.__dict__, "program")
        monkeypatch.setattr(artigen.evaluate, "_programs", {})
        calls = {"graph": 0, "compile": 0, "literal check": 0, "node view": 0}
        counted = functools.partial(_counted, calls)
        monkeypatch.setattr(NodeGraph, "__init__", counted("graph", NodeGraph.__init__))
        program = artigen.evaluate.Program
        monkeypatch.setattr(program, "__init__", counted("compile", program.__init__))
        split = artigen.graph._split_params
        monkeypatch.setattr(artigen.graph, "_split_params", counted("literal check", split))
        monkeypatch.setattr(artigen.graph, "Node", counted("node view", artigen.graph.Node))
        for category in CATEGORY_NAMES:
            assert get_generator(category).program.blueprint == blueprints[category]
        n = len(CATEGORY_NAMES)
        assert calls == {"graph": n, "compile": n, "literal check": nodes, "node view": 0}
        assert len(artigen.evaluate._programs) == n

    def test_a_branching_recipe_compiles_each_structure_once(self, monkeypatch):
        monkeypatch.setattr(artigen.evaluate, "_programs", {})
        calls = {"walk": 0, "compile": 0}
        walk = artigen.graph._SymbolicWalk
        monkeypatch.setattr(walk, "__init__", _counted(calls, "walk", walk.__init__))
        program = artigen.evaluate.Program
        monkeypatch.setattr(program, "__init__", _counted(calls, "compile", program.__init__))
        space = ParameterSpace({"width": Continuous(0.3, 0.5), "arms": Count(1, 2)})
        gen = CategoryGenerator("toy", space, _toy_recipe)
        arms = set()
        for seed in range(12):
            params = sample_parameters(space, seed, salt="")
            links, joints, _ = gen.evaluate(params)
            assert len(joints) == params["arms"] and len(links) == params["arms"] + 1
            assert joints == evaluate_links(gen.build(params), params)[1]
            arms.add(params["arms"])
        assert arms == {1, 2}
        # each structure was validated and compiled once, whichever came first
        assert calls == {"walk": 2, "compile": 2}
        structures = {gen.build(sample_parameters(space, s, salt="")).structure for s in range(12)}
        assert structures == set(artigen.evaluate._programs)


class TestPipelineSmoke:
    @pytest.mark.parametrize("category", CATEGORY_NAMES)
    def test_validate_instantiate_export(self, category, tmp_path):
        import sys

        sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
        from helpers import assert_kinematic_isomorphism

        from artigen.export import export_mjcf, export_urdf, parse_mjcf, parse_urdf

        gen = get_generator(category)
        for seed in range(4):
            pv = sample_parameters(gen.space, seed, salt="")
            g = gen.build(pv)
            assert g.validate() == []
            inst = build_instance(category, seed)
            u = export_urdf(inst, tmp_path / f"{category}_{seed}_u")
            m = export_mjcf(inst, tmp_path / f"{category}_{seed}_m")
            assert_kinematic_isomorphism(inst, parse_urdf(u.model_path))
            assert_kinematic_isomorphism(inst, parse_mjcf(m.model_path))
