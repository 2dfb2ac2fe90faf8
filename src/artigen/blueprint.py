"""Category-level kinematic blueprints, asset instantiation, and forward kinematics.

A blueprint is the symbolic walk that validation makes over a graph's
structure alone (`NodeGraph.structure`), written out as a tree
(`artigen.graph.check_structure`): numeric literals are ignored, switches
over articulated bodies become variant groups, duplication nodes become
repeat groups, and parallel joints between one link pair stay one composite
joint entry. Two graphs built by the same generator under different sampled
parameters therefore yield the same blueprint and the same signature, and
`extract_blueprint` reads it from the compiled program of the graph's
structure, so each structure is walked once.
Instantiation normalizes each composite joint into a serial chain through
zero-extent passthrough links.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .evaluate import EvaluatedJoint, EvaluatedLink, evaluate_links, program_for
from .geometry import RigidTransform, TriMesh, apply_transform
from .graph import KinematicBlueprint, NodeGraph
from .kinematics import KinematicTree
from .params import ParamVector


def extract_blueprint(graph: NodeGraph) -> KinematicBlueprint:
    """A graph's category-level kinematic blueprint: that of the compiled
    program of its structure (`program_for`), which raises
    InvalidParameterError ("graph does not validate") on any diagnostic."""
    return program_for(graph.structure).blueprint


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
    """Realize one asset from a graph: `realize` over `evaluate_links(graph, params)`."""
    return realize(blueprint, evaluate_links(graph, params), params, category)


def realize(
    blueprint: KinematicBlueprint | None,
    evaluated: tuple[tuple[EvaluatedLink, ...], tuple[EvaluatedJoint, ...], str],
    params: ParamVector,
    category: str = "asset",
) -> AssetInstance:
    """One asset from evaluated (links, joints, root link): normalize composite
    joints and check each link mesh in full. Link dynamics are left to the
    first read of each link's."""
    evaluated_links, evaluated_joints, root = evaluated

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
