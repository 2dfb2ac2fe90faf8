"""One kinematic tree: evaluate and instance poses agree, batches match single configs."""

import dataclasses
import random

import numpy as np
import pytest

from artigen.blueprint import AssetInstance, extract_blueprint, forward_kinematics, instantiate
from artigen.errors import StructuralError
from artigen.evaluate import evaluate
from artigen.generators import CATEGORY_NAMES, get_generator
from artigen.geometry import RigidTransform
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


def test_instance_pose_matches_evaluated_pose(case):
    graph, params, instance = case
    for config in _random_configs(instance, 4, seed=11):
        world = forward_kinematics(instance, config)
        body = evaluate(graph, params, joint_values=config)
        for link in body.links:
            origin = RigidTransform.from_translation(instance.link(link.link_id).origin)
            expected = body.world_transforms[link.link_id] @ origin
            got = world[link.link_id]
            np.testing.assert_allclose(
                got.rotation_matrix(), expected.rotation_matrix(), atol=1e-12, err_msg=link.link_id
            )
            np.testing.assert_allclose(
                got.translation, expected.translation, atol=1e-12, err_msg=link.link_id
            )


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
    quat, trans = tree.pose(values, len(configs))
    for c, config in enumerate(configs):
        single = tree.transforms(config)
        for i, link_id in enumerate(tree.link_ids):
            np.testing.assert_allclose(trans[i, c], single[link_id].translation, atol=1e-12)
            sign = 1.0 if quat[i, c, 0] >= 0 else -1.0  # transforms keep w >= 0
            np.testing.assert_allclose(sign * quat[i, c], single[link_id].rotation, atol=1e-12)


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
