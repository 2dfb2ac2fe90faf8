"""Shared oracles for round-trip checks and blueprint trees, and a
duplication fixture."""

import numpy as np

from artigen.export import _names
from artigen.graph import DUPLICATE
from artigen.patterns import build_pattern


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
        np.testing.assert_allclose(pj.origin, j.pivot_in_parent, atol=origin_tol)
        if expected_type != "fixed":
            np.testing.assert_allclose(pj.axis, j.axis, atol=axis_tol)
            assert abs(pj.lo - j.lo) <= limit_tol
            assert abs(pj.hi - j.hi) <= limit_tol
    del parsed_joints
    assert len(parsed.joints) == len(instance.joints)


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
