"""Shared oracles for round-trip checks and blueprint trees, a duplication
fixture and a graph whose joints give one link two parents."""

import math
from xml.etree import ElementTree as ET

import numpy as np

from artigen.export import _joint_frame, _names
from artigen.geometry import RigidTransform
from artigen.graph import DUPLICATE, JOINT_REVOLUTE
from artigen.patterns import build_pattern

# `format_float` writes every number within this much of its value.
FORMAT_ABS = 5e-10


def duplicated_revolute(points):
    """The `simple_revolute` pattern with its hinged rod copied onto its base at
    `points`: a duplicate-joints-on-points node whose parent is the base and
    whose body is the hinged pair."""
    g = build_pattern("simple_revolute")
    hinged = g.output_node
    dup = g.add_node(DUPLICATE, {"points": list(points)})
    g.connect(g.node(hinged).inputs["parent"], dup, "parent")
    g.connect(hinged, dup, "body")
    g.set_output(dup)
    return g


def two_parent_graph():
    """`chained_joints` with its upper rod also jointed to the whole body, so
    that the upper rod gets two distinct parents; returns the graph and the
    id of the added joint."""
    g = build_pattern("chained_joints")
    (upper_rod,) = [
        nid for nid, node in g.nodes.items()
        if node.kind == "transform" and node.params["translate_z"] == 0.5
    ]
    j = g.add_node(
        JOINT_REVOLUTE, {"pivot": (0, 0, 0), "axis": (0, 0, 1), "range_lo": 0, "range_hi": 1}
    )
    g.connect(g.output_node, j, "parent")
    g.connect(upper_rod, j, "child")
    g.set_output(j)
    return g, j


def assert_kinematic_isomorphism(instance, parsed, origin_tol=1e-6, axis_tol=1e-9, limit_tol=1e-9):
    """Parsed model must mirror the instance tree with types, axes, origins, limits."""
    link_names, joint_names = _names(instance)
    assert {l.name for l in parsed.links} == set(link_names.values())
    parsed_joints = {j.name: j for j in parsed.joints if j.joint_type != "fixed" or True}

    by_name = {j.name: j for j in parsed.joints}
    synthetic_fixed = [j for j in parsed.joints if j.name.endswith("__fixed")]
    for j in instance.joints:
        name = joint_names[j.joint_id]
        if name in by_name:
            pj = by_name[name]
        else:
            # MJCF welds fixed joints: find the synthetic edge by child body
            candidates = [s for s in synthetic_fixed if s.child == link_names[j.child]]
            assert candidates, f"no parsed joint for {name}"
            pj = candidates[0]
        expected_type = "fixed" if j.is_fixed else j.joint_type
        assert pj.joint_type == expected_type, (name, pj.joint_type, expected_type)
        assert pj.parent == link_names[j.parent]
        assert pj.child == link_names[j.child]
        np.testing.assert_allclose(pj.origin, _joint_frame(instance, j)[0], atol=origin_tol)
        if expected_type != "fixed":
            np.testing.assert_allclose(pj.axis, j.axis, atol=axis_tol)
            assert abs(pj.lo - j.lo) <= limit_tol
            assert abs(pj.hi - j.hi) <= limit_tol
    del parsed_joints
    assert len(parsed.joints) == len(instance.joints)


def pose_parsed_model(model, config):
    """Pose a parsed URDF or MJCF model: parsed link name -> (world transform
    of its frame, its depth in joints below the root, the summed lengths of
    the joint origins from the root, the number of rotated joint origins on
    that path).

    `config` maps parsed joint names to values, each clipped into the written
    range; fixed joints rest. A link's frame is its parent's, moved to the
    joint origin and turned by the origin's rotation, and then turned about
    the joint axis or slid along it by the joint value."""
    incoming = {j.child: j for j in model.joints}
    placed = {}

    def place(name):
        if name not in placed:
            j = incoming.get(name)
            if j is None:
                placed[name] = (RigidTransform.identity(), 0, 0.0, 0)
            else:
                frame, depth, length, turned = place(j.parent)
                frame = frame @ RigidTransform(np.asarray(j.rotation), j.origin)
                if j.joint_type != "fixed":
                    value = min(max(config[j.name], j.lo), j.hi)
                    if j.joint_type == "revolute":
                        frame = frame @ RigidTransform.from_axis_angle(j.axis, value)
                    else:
                        frame = frame @ RigidTransform.from_translation(value * np.asarray(j.axis))
                rotated = tuple(j.rotation) != (1.0, 0.0, 0.0, 0.0)
                length += np.linalg.norm(j.origin)
                placed[name] = (frame, depth + 1, length, turned + rotated)
        return placed[name]

    return {l.name: place(l.name) for l in model.links}


def pose_tolerance(depth: int, reach: float, turn: float, turned: int = 0) -> float:
    """How far a vertex placed from a parsed document may sit from its
    evaluated position, for a link `depth` joints below the root, when no
    point lies farther than `reach` from any pivot, no joint value exceeds
    `turn` in magnitude and `turned` joint origins on the path are rotated.

    Each written number is within FORMAT_ABS, so a written 3-vector is off by
    at most e = sqrt(3) * FORMAT_ABS and a renormalized unit axis by 2e. The
    vertex and the `depth` origins summed to its frame give (1 + depth) e.
    Per joint on the path: its pivot, a sum of at most `depth` origins, is
    off by depth e, which a rotation moves by at most twice that; its axis
    error turns the point by at most 2 * 2e * turn * reach, or slides it by
    2e * turn; its value, clipped into the written range, is off by
    FORMAT_ABS, which turns the point by FORMAT_ABS * reach or slides it by
    FORMAT_ABS. Adding the turning and sliding bounds covers either joint
    type. A rotated origin is written as three angles (URDF roll, pitch and
    yaw), each within FORMAT_ABS, or as a quaternion (MJCF) within
    2 FORMAT_ABS, which renormalizing at most doubles. Two unit quaternions'
    rotations differ by at most twice their distance in angle, so either
    form turns the point by at most 8 * FORMAT_ABS * reach."""
    e = math.sqrt(3) * FORMAT_ABS
    per_joint = 2 * depth * e + (4 * e * turn + FORMAT_ABS) * (reach + 1)
    per_rotation = 8 * FORMAT_ABS * (reach + 1)
    return (1 + depth) * e + depth * per_joint + turned * per_rotation


def parsed_inertials(model_path) -> dict:
    """Link name -> (mass, centre of mass, 3x3 inertia) of each inertial
    block of an exported URDF or MJCF document, in the link frame. A rotated
    link frame (a URDF joint origin's rpy, an MJCF body's quat) turns the
    block with it; asserts that no inertial frame is rotated within its
    link frame."""
    root = ET.parse(model_path).getroot()

    def floats(text):
        return np.array([float(v) for v in text.split()])

    out = {}
    if root.tag == "robot":
        for link in root.iter("link"):
            inertial = link.find("inertial")
            origin = inertial.find("origin")
            assert origin.get("rpy") == "0 0 0"
            i = {k: float(v) for k, v in inertial.find("inertia").attrib.items()}
            inertia = np.array(
                [
                    [i["ixx"], i["ixy"], i["ixz"]],
                    [i["ixy"], i["iyy"], i["iyz"]],
                    [i["ixz"], i["iyz"], i["izz"]],
                ]
            )
            mass = float(inertial.find("mass").get("value"))
            out[link.get("name")] = (mass, floats(origin.get("xyz")), inertia)
    else:
        rotations = {"quat", "axisangle", "euler", "xyaxes", "zaxis", "fullinertia"}
        for body in root.iter("body"):
            inertial = body.find("inertial")
            assert not rotations & set(inertial.attrib)
            inertia = np.diag(floats(inertial.get("diaginertia")))
            mass = float(inertial.get("mass"))
            out[body.get("name")] = (mass, floats(inertial.get("pos")), inertia)
    return out


def blueprint_parts(tree):
    """A blueprint tree's link nodes in depth-first order (the root first),
    its joints as (parent index, child index, joint dict) and its repeat nodes.
    A joint into a variant subtree counts once per branch."""
    links, edges, repeats = [], [], []

    def subtree(node, parent=None, joints=()):
        if node["kind"] == "variant":
            for branch in node["branches"]:
                subtree(branch, parent, joints)
            return
        index = len(links)
        links.append(node)
        edges.extend((parent, index, j) for j in joints)
        for att in node["children"]:
            attachment(att, index)

    def attachment(att, parent):
        if att["kind"] == "joint":
            subtree(att["child"], parent, att["joints"])
        elif att["kind"] == "repeat":
            repeats.append(att)
            for inner in att["attachments"]:
                attachment(inner, parent)
        else:  # a variant over optional joints
            for branch in att["branches"]:
                if branch is not None:
                    attachment(branch, parent)

    subtree(tree)
    return links, edges, repeats
