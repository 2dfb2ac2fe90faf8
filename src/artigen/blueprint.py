"""Category-level kinematic blueprints, asset instantiation, and forward kinematics.

A blueprint is the symbolic walk that `NodeGraph.validate` makes over graph
structure alone, written out as a tree: numeric literals are ignored, switches
over articulated bodies become variant groups, duplication nodes become repeat
groups, and parallel joints between one link pair stay one composite joint
entry. Two graphs built by the same generator under different sampled
parameters therefore yield the same blueprint and the same signature.
Instantiation normalizes each composite joint into a serial chain through
zero-extent passthrough links.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import InvalidParameterError
from .evaluate import EvaluatedJoint, EvaluatedLink, evaluate_links
from .geometry import RigidTransform, TriMesh, apply_transform
from .graph import (
    JOINT_REVOLUTE,
    SCALAR_MATH,
    NodeGraph,
    ParamRef,
    _SymJoint,
    _SymRepeat,
    _SymVariant,
)
from .kinematics import KinematicTree
from .params import ParamVector


# ---------------------------------------------------------------------------
# Public blueprint
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KinematicBlueprint:
    """Tree template of link and joint slots with repeat and variant groups."""

    tree: dict  # nested structural description

    def signature(self) -> str:
        """Deterministic digest of topology, joint types, labels, and groups.

        All numeric values (ranges, pivots, duplication points) are excluded,
        so every instance of a category shares one signature.
        """
        canon = json.dumps(self.tree, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

    def tree_lines(self) -> list[str]:
        lines: list[str] = []

        def walk(node: dict, depth: int, prefix: str):
            pad = "  " * depth
            kind = node["kind"]
            if kind == "link":
                lines.append(f"{pad}{prefix}{node['label'] or node['source']}")
                for att in node["children"]:
                    walk(att, depth + 1, "")
            elif kind == "joint":
                joints = " + ".join(f"[{j['type']}]" for j in node["joints"])
                walk(node["child"], depth, f"{joints} ")
            elif kind == "repeat":
                count = node["count_param"] or "points"
                lines.append(f"{pad}{prefix}repeat x{count}:")
                if node["static_source"]:
                    lines.append(f"{pad}  geometry {node['static_source']}")
                for att in node["attachments"]:
                    walk(att, depth + 1, "")
            elif kind == "variant":
                lines.append(f"{pad}{prefix}variant on {node['selector']}:")
                for i, branch in enumerate(node["branches"]):
                    if branch is None:
                        lines.append(f"{pad}  option {i}: (absent)")
                    else:
                        lines.append(f"{pad}  option {i}:")
                        walk(branch, depth + 2, "")

        walk(self.tree, 0, "")
        return lines


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def extract_blueprint(graph: NodeGraph) -> KinematicBlueprint:
    """Compile a graph into its category-level kinematic blueprint: the
    symbolic body that validation walked, written out as a tree."""
    diags, body = graph.structure()
    if diags:
        raise InvalidParameterError(
            "graph does not validate: " + "; ".join(str(d) for d in diags)
        )

    def expr(node, name: str) -> str:
        """A parameter slot's structure: literals masked, parameter names kept."""
        if name in node.inputs:
            src = graph.nodes[node.inputs[name]]
            if src.kind == SCALAR_MATH:
                return f"{src.params['op']}({expr(src, 'a')},{expr(src, 'b')})"
            return f"<{src.kind}>"
        value = node.params[name]
        if isinstance(value, ParamRef):
            return value.name
        return "default" if value is None else "#"

    def joint_dict(node) -> dict:
        slots = [(slot, expr(node, slot)) for slot in ("range_lo", "range_hi", "default")]
        return {
            "type": "revolute" if node.kind == JOINT_REVOLUTE else "prismatic",
            "joint_label": node.params["joint_label"],
            "parent_label": node.params["parent_label"],
            "child_label": node.params["child_label"],
            "slots": [[slot, rep] for slot, rep in slots if rep not in ("#", "default")],
            # Signatures ignore numeric literals; the key stays so that they keep their bytes.
            "range": None,
            "source": node.node_id,
        }

    def walk_attachment(att) -> dict:
        if isinstance(att, _SymJoint):
            return {
                "kind": "joint",
                "joints": [joint_dict(j) for j in att.joints],
                "child": walk_subtree(att.child),
            }
        if isinstance(att, _SymRepeat):
            return {
                "kind": "repeat",
                "count_param": att.count_param,
                "count_map": None,  # a retired key, kept so that signatures keep their bytes
                "static_source": att.static_source,
                "attachments": [walk_attachment(a) for a in att.attachments],
            }
        return {
            "kind": "variant",
            "selector": expr(att.switch, "select"),
            "branches": [None if b is None else walk_attachment(b) for b in att.options],
        }

    def walk_subtree(value) -> dict:
        if isinstance(value, _SymVariant):
            branches = [walk_subtree(o) for o in value.options]
            selector = expr(value.switch, "select")
            return {"kind": "variant", "selector": selector, "branches": branches}
        return {
            "kind": "link",
            "label": value.root.label,
            "source": value.root.source,
            "children": [walk_attachment(att) for att in value.attachments],
        }

    return KinematicBlueprint(walk_subtree(body))


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssetInstance:
    """One sampled realization: its links, a realized joint tree, seed.

    The links and joints are the evaluated records, with composite joints
    normalized into serial chains: each link's mesh is in its own frame, at
    `origin` (its incoming joint's pivot) in the construction frame, and each
    joint's spec stays in the construction frame. `tree` indexes the links and
    joints; building it raises StructuralError when the joints do not form one
    tree rooted at `root_link`.
    """

    category: str
    seed: int
    params: ParamVector
    links: tuple[EvaluatedLink, ...]
    joints: tuple[EvaluatedJoint, ...]
    root_link: str
    blueprint: KinematicBlueprint | None = None

    def __post_init__(self):
        _ = self.tree  # build it now, so a malformed joint tree fails at construction

    @cached_property
    def tree(self) -> KinematicTree:
        return KinematicTree(self.root_link, [l.link_id for l in self.links], self.joints)

    def link(self, link_id: str) -> EvaluatedLink:
        return self.links[self.tree.link_index[link_id]]

    def joint(self, joint_id: str) -> EvaluatedJoint:
        return self.joints[self.tree.joint_index[joint_id]]

    def children_of(self, link_id: str) -> list[EvaluatedJoint]:
        """Joints whose parent is `link_id`, by joint id."""
        return [self.joints[k] for k in self.tree.children[self.tree.link_index[link_id]]]

    def pivot_in_parent(self, joint: EvaluatedJoint) -> np.ndarray:
        """The joint's pivot, the child link's frame origin, in the parent link's frame."""
        return np.subtract(joint.spec.pivot, self.link(joint.parent).origin)

    def default_config(self) -> dict:
        return {j.joint_id: j.default for j in self.joints}

    def adjacent_pairs(self) -> set:
        return {frozenset((j.parent, j.child)) for j in self.joints}


def instantiate(
    blueprint: KinematicBlueprint | None,
    graph: NodeGraph,
    params: ParamVector,
    category: str = "asset",
) -> AssetInstance:
    """Realize one asset: evaluate meshes, normalize composite joints and
    check each link mesh in full. Link dynamics are left to the first read of
    each link's."""
    evaluated_links, evaluated_joints, root = evaluate_links(graph, params)

    # Normalize parallel joints between one pair into a serial chain.
    links: list[EvaluatedLink] = list(evaluated_links)
    joints: list[EvaluatedJoint] = []
    grouped: dict = {}
    for j in evaluated_joints:
        grouped.setdefault((j.parent, j.child), []).append(j)
    for (parent, child), group in grouped.items():
        if len(group) == 1:
            joints.append(group[0])
            continue
        prev = parent
        for i, j in enumerate(group[:-1], start=1):
            pass_id = f"{child}__passthrough_{i}"
            links.append(
                EvaluatedLink(pass_id, None, TriMesh.empty(), None, f"{j.spec.joint_type}-pass")
            )
            joints.append(replace(j, parent=prev, child=pass_id))
            prev = pass_id
        joints.append(replace(group[-1], parent=prev))

    # Each link's frame sits at its incoming joint's pivot; the root's at zero.
    # Evaluation moves and merges meshes unchecked, so each realized link mesh
    # takes the full TriMesh check here, once.
    origins = {j.child: j.spec.pivot for j in joints}
    for i, l in enumerate(links):
        origin = origins.get(l.link_id, l.origin)
        mesh = l.mesh
        if mesh.n_vertices:
            mesh = apply_transform(mesh, RigidTransform.from_translation(-np.asarray(origin)))
            mesh = TriMesh(mesh.vertices, mesh.triangles, mesh.face_labels)
        links[i] = replace(l, mesh=mesh, origin=origin)

    return AssetInstance(category, params.seed, params, tuple(links), tuple(joints), root, blueprint)


def forward_kinematics(instance: AssetInstance, config: dict | None = None) -> dict:
    """World transform per link id; missing joints pose at their default value."""
    world = instance.tree.transforms(config)
    return {
        link_id: t @ RigidTransform.from_translation(instance.link(link_id).origin)
        for link_id, t in world.items()
    }


def posed_meshes(instance: AssetInstance, config: dict | None = None) -> dict:
    """World-frame mesh per link at the given joint configuration."""
    world = forward_kinematics(instance, config)
    out = {}
    for l in instance.links:
        if l.mesh.n_vertices:
            out[l.link_id] = apply_transform(l.mesh, world[l.link_id])
    return out
