"""One kinematic tree: evaluate, instantiate and build_instance give one asset,
batches match single configs, and a link takes one incoming joint."""

import dataclasses
import random

import numpy as np
import pytest

from artigen.blueprint import (
    AssetInstance,
    extract_blueprint,
    forward_kinematics,
    instantiate,
    posed_meshes,
)
from artigen.collision import check_at
from artigen.errors import InvalidParameterError, StructuralError
from artigen.evaluate import evaluate
from artigen.generators import CATEGORY_NAMES, build_instance, get_generator
from artigen.geometry import quat_multiply, quat_to_matrix
from artigen.graph import NodeGraph
from artigen.params import ParamVector, sample_parameters
from artigen.patterns import PATTERN_NAMES, build_pattern

CASES = [("pattern", name) for name in PATTERN_NAMES] + [
    ("category", name) for name in CATEGORY_NAMES
]


def _graph_and_params(kind, name):
    if kind == "pattern":
        return build_pattern(name), ParamVector({})
    gen = get_generator(name)
    params = sample_parameters(gen.space, 7, salt="")
    return gen.build(params), params


def _random_configs(instance, count, seed):
    rng = random.Random(seed)
    return [
        {j.joint_id: rng.uniform(j.lo, j.hi) for j in instance.joints} for _ in range(count)
    ]


@pytest.fixture(scope="module", params=CASES, ids=[f"{k}-{n}" for k, n in CASES])
def case(request):
    graph, params = _graph_and_params(*request.param)
    instance = instantiate(extract_blueprint(graph), graph, params, category=request.param[1])
    return graph, params, instance


def _assert_same_asset(a, b):
    """Equal links (ids, labels, materials, templates, origins and meshes, bit
    for bit), joints and root, and so the same poses."""
    assert a.root_link == b.root_link
    assert len(a.links) == len(b.links)
    for la, lb in zip(a.links, b.links):
        fields = ("link_id", "label", "material", "template")
        assert [getattr(la, f) for f in fields] == [getattr(lb, f) for f in fields]
        assert _same_bits(np.array(la.origin), np.array(lb.origin)), la.link_id
        for field in ("vertices", "triangles", "face_labels"):
            x, y = getattr(la.mesh, field), getattr(lb.mesh, field)
            assert (x is None and y is None) or _same_bits(x, y), (la.link_id, field)
    assert a.joints == b.joints


def test_instance_pose_matches_evaluated_pose(case):
    """`evaluate`, `instantiate` and, for a category at seeds 0-4,
    `build_instance` give the same asset, bit for bit, and so the same tree
    and pose at every configuration."""
    graph, params, instance = case
    name = instance.category
    if name not in CATEGORY_NAMES:
        _assert_same_asset(evaluate(graph, params), instance)
        return
    gen = get_generator(name)
    for seed in range(5):
        params = sample_parameters(gen.space, seed, salt="")
        graph = gen.build(params)
        built = build_instance(name, seed, salt="")
        _assert_same_asset(built, instantiate(gen.blueprint, graph, params, category=name))
        _assert_same_asset(built, evaluate(graph, params))


def test_instance_tree_poses_with_the_evaluated_joint_specs(case):
    graph, params, instance = case
    evaluated = {j.joint_id: j.spec for j in evaluate(graph, params).joints}
    tree_joints = instance.tree.joints
    assert len(tree_joints) == len(instance.joints)
    for tree_joint, joint in zip(tree_joints, instance.joints):
        assert tree_joint is joint
        assert joint.spec == evaluated[joint.joint_id]
        assert joint.spec.pivot == instance.link(joint.child).origin


def test_batched_pose_matches_single_configs(case):
    _graph, _params, instance = case
    tree = instance.tree
    configs = _random_configs(instance, 6, seed=5)
    values = {j.joint_id: np.array([c[j.joint_id] for c in configs]) for j in instance.joints}
    quat, trans, _ = tree.pose(values, len(configs))
    for c, config in enumerate(configs):
        single = tree.transforms(config)
        for i, link_id in enumerate(tree.link_ids):
            np.testing.assert_allclose(trans[i, c], single[link_id].translation, atol=1e-12)
            sign = 1.0 if quat[i, c, 0] >= 0 else -1.0  # transforms keep w >= 0
            np.testing.assert_allclose(sign * quat[i, c], single[link_id].rotation, atol=1e-12)


def _composed_pose(tree, values, n):
    """The pose loop before each link kept its rotation matrices: every joint
    converts its parent's quaternions, the root's identity included, and every
    row is composed on its own. Kept as the reference that
    `KinematicTree.pose` must match bit for bit."""
    lo, hi, default, revolute, axis, pivot_perp, axis_cross_pivot = tree._motion
    v = np.repeat(default[:, None], n, axis=1)
    for joint_id, joint_values in values.items():
        v[tree.joint_index[joint_id]] = joint_values
    revolute = revolute[:, None]
    motion_q = np.zeros(v.shape + (4,))
    motion_q[..., 0] = np.where(revolute, np.cos(0.5 * v), 1.0)
    motion_q[..., 1:] = np.where(revolute, np.sin(0.5 * v), 0.0)[..., None] * axis[:, None]
    motion_t = np.where(
        revolute[..., None],
        (1.0 - np.cos(v))[..., None] * pivot_perp[:, None]
        - np.sin(v)[..., None] * axis_cross_pivot[:, None],
        v[..., None] * axis[:, None],
    )
    quat = np.empty((len(tree.link_ids), n, 4))
    trans = np.empty((len(tree.link_ids), n, 3))
    root = tree.order[0]
    quat[root] = (1.0, 0.0, 0.0, 0.0)
    trans[root] = 0.0
    for i in tree.order[1:]:
        q, t = quat[tree.parent[i]], trans[tree.parent[i]]
        k = tree.parent_joint[i]
        quat[i] = quat_multiply(q, motion_q[k])
        trans[i] = t + np.einsum("nij,nj->ni", quat_to_matrix(q), motion_t[k])
    return quat, trans


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _assert_pose_matches_composition(tree, values, n):
    quat, trans, rot = tree.pose(values, n)
    ref_quat, ref_trans = _composed_pose(tree, values, n)
    assert _same_bits(quat, ref_quat) and _same_bits(trans, ref_trans)
    assert len(rot) == len(tree.link_ids)
    for i, r in enumerate(rot):
        assert r.shape == (n, 3, 3)
        expected = quat_to_matrix(quat[i])
        assert _same_bits(r, expected), tree.link_ids[i]


def test_pose_matches_the_composition_loop_bit_for_bit(case):
    """Every pattern, multi_joint_screw's chain through a passthrough link
    among them, and every category."""
    _graph, _params, instance = case
    configs = _random_configs(instance, 64, seed=3)
    values = {j.joint_id: np.array([c[j.joint_id] for c in configs]) for j in instance.joints}
    _assert_pose_matches_composition(instance.tree, values, len(configs))
    _assert_pose_matches_composition(instance.tree, {}, 1)  # defaults


def _slides_and_root_children_instance():
    """Children of the root on revolute joints with ranges past +-pi, whose
    axes have zero components of either sign: cos(v/2) < 0 and negative zeros
    in the joint motion. Beside them a slider on the root carries a twisting
    knob and a carriage on a second slide, so two links are posed by slides
    alone, one of them two joints from the root. The arm turning about z
    carries a forearm turning about z again, past +-pi both, and on it a sled
    on a slide: the forearm's quaternions have zero parts of either sign."""
    g = NodeGraph()
    out = g.box((0.2, 0.2, 0.2))
    axes = [(0.6, 0.0, -0.8), (-0.0, 0.0, 1.0), (0.0, -1.0, 0.0), (-0.6, 0.8, 0.0)]
    for k, axis in enumerate(axes):
        arm = g.box((0.1, 0.1, 0.4), at=(k + 1.0, 0, 0))
        if k == 1:
            forearm = g.box((0.05, 0.05, 0.2), at=(2.0, 0, 0.3))
            sled = g.box((0.05, 0.05, 0.05), at=(2.0, 0, 0.5))
            forearm = g.prismatic(forearm, sled, (2.0, 0, 0.5), (1.0, 0.0, -0.0), 0.0, 0.5, labels=("glide", None, "sled"))
            arm = g.revolute(arm, forearm, (2.0, 0, 0.3), (0.0, -0.0, 1.0), -4.0, 4.0, labels=("bend", None, "forearm"))
        out = g.revolute(out, arm, (k + 1.0, 0, 0), axis, -4.0, 4.0, labels=(f"spin{k}", None, f"arm{k}"))
    slider = g.box((0.1, 0.1, 0.1), at=(0, 2.0, 0))
    knob = g.box((0.05, 0.05, 0.05), at=(0, 2.0, 0.2))
    carriage = g.box((0.05, 0.05, 0.05), at=(0, 2.0, -0.2))
    on_slider = g.revolute(slider, knob, (0, 2.0, 0.2), (-0.0, 0.0, -1.0), -4.0, 4.0, labels=("twist", "slider", "knob"))
    on_slider = g.prismatic(on_slider, carriage, (0, 2.0, -0.2), (-1.0, 0.0, -0.0), 0.0, 0.5, labels=("ride", None, "carriage"))
    out = g.prismatic(out, on_slider, (0, 2.0, 0), (0.0, -1.0, 0.0), -1.0, 1.0, labels=("slide", None, None))
    g.set_output(out)
    return instantiate(extract_blueprint(g), g, ParamVector({}))


def test_slides_and_root_children_pose_bit_for_bit():
    instance = _slides_and_root_children_instance()
    tree = instance.tree
    root = tree.order[0]
    depth = {root: 0}
    for i in tree.order[1:]:
        depth[i] = depth[tree.parent[i]] + 1
    assert sum(d == 1 for d in depth.values()) == 5
    assert instance.joint("ride_0").joint_type == "prismatic"
    assert depth[tree.link_index[instance.joint("ride_0").child]] == 2
    grid = np.array([-4.0, -3.5, -np.pi, -1.0, -0.0, 0.0, 1.0, np.pi, 3.5, 4.0])
    # The grid ten times over, shuffled per joint, so joints meet in many
    # combinations of its values.
    grid, rng = np.tile(grid, 10), np.random.default_rng(0)
    values = {
        j.joint_id: rng.permutation(grid if j.joint_type == "revolute" else (grid + 4.0) / 16)
        for j in instance.joints
    }
    _assert_pose_matches_composition(tree, values, len(grid))


def test_unknown_joint_id_is_a_typed_error_naming_it():
    instance = _screw_instance()
    graph = build_pattern("multi_joint_screw")
    known = sorted(instance.tree.joint_ids)
    calls = [
        lambda: instance.tree.pose({"nope": np.zeros(1)}),
        lambda: forward_kinematics(instance, {"nope": 0.0}),
        lambda: check_at(instance, {"nope": 0.0}),
        lambda: posed_meshes(evaluate(graph, ParamVector({})), {"nope": 0.0}),
    ]
    for call in calls:
        with pytest.raises(InvalidParameterError, match="'nope'") as info:
            call()
        assert str(known) in str(info.value)


def test_unknown_pattern_is_a_typed_error_naming_it():
    with pytest.raises(InvalidParameterError, match="'nope'.*simple_revolute"):
        build_pattern("nope")


def _screw_instance():
    graph = build_pattern("multi_joint_screw")
    return instantiate(extract_blueprint(graph), graph, ParamVector({}))


def _rebuild(instance, links, joints):
    return AssetInstance(
        instance.category, instance.seed, instance.params, links, joints, instance.root_link
    )


def test_link_with_two_parents_rejected():
    inst = _screw_instance()
    # the screw's cap hangs off a passthrough link; give it the root as a second parent
    cap_joint = next(j for j in inst.joints if j.child == "cap_0")
    extra = dataclasses.replace(cap_joint, joint_id="extra_0", parent=inst.root_link)
    with pytest.raises(StructuralError, match="parent"):
        _rebuild(inst, inst.links, inst.joints + (extra,))


def test_link_unreachable_from_root_rejected():
    inst = _screw_instance()
    stray = dataclasses.replace(inst.link("cap_0"), link_id="stray_0")
    with pytest.raises(StructuralError, match="stray_0"):
        _rebuild(inst, inst.links + (stray,), inst.joints)
