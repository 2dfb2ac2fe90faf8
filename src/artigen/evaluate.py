"""Graph evaluation: turn a validated NodeGraph plus a ParamVector into an
articulated body with realized joints.

Meshes are kept in the construction frame (the frame in which primitives were
placed); a joint at value v conjugates its motion about the stored pivot, so a
value of 0 reproduces the construction placement exactly. Evaluation is demand
driven and memoized: switch branches that are not selected are never built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    EvaluationError,
    InvalidParameterError,
    RangeError,
    StructuralError,
)
from .geometry import (
    RigidTransform,
    TriMesh,
    apply_transform,
    make_box,
    make_cylinder,
    make_ngon_prism,
    make_rounded_box,
    make_sphere,
    merge_meshes,
)
from .graph import JointSpec, NodeGraph, ParamRef, link_set_relation, whole_number
from .kinematics import KinematicTree
from .params import ParamVector


@dataclass(frozen=True)
class EvaluatedLink:
    link_id: str
    label: str | None
    mesh: TriMesh  # construction frame at joint value 0
    material: str | None
    template: str


@dataclass(frozen=True)
class EvaluatedJoint:
    joint_id: str
    parent: str
    child: str
    spec: JointSpec  # pivot/axis in the construction frame
    order: tuple


@dataclass(frozen=True)
class _Body:
    """The links (the root first) and joints one node evaluates to. Inside this
    module link and joint ids are integer uids, in creation order in the
    evaluator; `evaluate_links` replaces them with names."""

    links: tuple[EvaluatedLink, ...]
    joints: tuple[EvaluatedJoint, ...]

    @property
    def root(self) -> EvaluatedLink:
        return self.links[0]

    def link_uids(self):
        return {l.link_id for l in self.links}


def _transform(links, joints, t: RigidTransform, remap: dict, fresh_uid):
    """`links` and `joints` moved by `t` under uids from `fresh_uid`. `remap` maps
    the uids of links left out of `links` to the uids their joints attach to."""
    moved = []
    for l in links:
        uid = fresh_uid()
        remap[l.link_id] = uid
        moved.append(replace(l, link_id=uid, mesh=apply_transform(l.mesh, t)))
    rot = t.rotation_matrix()
    return tuple(moved), tuple(
        replace(
            e,
            joint_id=fresh_uid(),
            parent=remap[e.parent],
            child=remap[e.child],
            spec=replace(
                e.spec,
                pivot=tuple(t.apply(e.spec.pivot_array())),
                axis=tuple(rot @ np.asarray(e.spec.axis)),
            ),
        )
        for e in joints
    )


class _Context:
    """Evaluates a graph that `NodeGraph.validate` accepted, with a parameter
    vector that `ParameterSpace.validate_vector` accepted: wiring, port types,
    the output type, parameter names and parameter values are not checked
    again here."""

    def __init__(self, graph: NodeGraph, params: ParamVector):
        self.graph = graph
        self.params = params
        self.cache: dict[str, object] = {}
        self.fresh_uid = itertools.count(1).__next__  # link and joint uids in creation order
        self._node_index = {nid: i for i, nid in enumerate(graph.nodes)}

    # --- scalar resolution -------------------------------------------------

    def scalar(self, node, name: str) -> float:
        if name in node.inputs:
            return self.eval(node.inputs[name])
        value = node.params.get(name)
        if isinstance(value, ParamRef):
            return float(self.params.values[value.name])
        return float(value)

    def int_scalar(self, node, name: str) -> int:
        value = self.scalar(node, name)
        rounded = whole_number(value)
        if rounded is None:
            raise EvaluationError(f"{node.kind}.{name} must be an integer, got {value}")
        return rounded

    # --- node evaluation -----------------------------------------------------

    def eval(self, node_id: str):
        if node_id in self.cache:
            return self.cache[node_id]
        node = self.graph.nodes[node_id]
        value = getattr(self, f"_eval_{node.kind}")(node)
        self.cache[node_id] = value
        return value

    def _eval_primitive(self, node) -> _Body:
        shape = node.params["shape"]
        material = node.params.get("material")
        if shape == "box":
            dims = tuple(self.scalar(node, f"size_{c}") for c in "xyz")
            mesh = make_box(dims, material_tag=material)
        elif shape == "cylinder":
            mesh = make_cylinder(
                self.scalar(node, "radius"),
                self.scalar(node, "height"),
                self.int_scalar(node, "segments"),
                material_tag=material,
            )
        elif shape == "sphere":
            mesh = make_sphere(
                self.scalar(node, "radius"), self.int_scalar(node, "segments"), material_tag=material
            )
        elif shape == "rounded_box":
            dims = tuple(self.scalar(node, f"size_{c}") for c in "xyz")
            mesh = make_rounded_box(dims, self.scalar(node, "bevel"), material_tag=material)
        else:  # ngon_prism
            top = node.params.get("top_radius")
            top_val = self.scalar(node, "top_radius") if top is not None else None
            mesh = make_ngon_prism(
                self.scalar(node, "radius"),
                self.scalar(node, "height"),
                self.int_scalar(node, "sides"),
                top_radius=top_val,
                material_tag=material,
            )
        return _Body((EvaluatedLink(self.fresh_uid(), None, mesh, material, node.node_id),), ())

    def _eval_scalar_math(self, node) -> float:
        op = node.params["op"]
        a = self.scalar(node, "a")
        b = self.scalar(node, "b")
        if op == "add":
            return a + b
        if op == "sub":
            return a - b
        if op == "mul":
            return a * b
        if op == "div":
            if b == 0.0:
                raise EvaluationError(f"division by zero in {node.node_id}")
            return a / b
        if op == "min":
            return min(a, b)
        return max(a, b)

    def _eval_transform(self, node) -> _Body:
        body = self.eval(node.inputs["geometry"])
        axis = node.params["rotate_axis"]
        angle = self.scalar(node, "rotate_angle")
        translate = np.array([self.scalar(node, f"translate_{c}") for c in "xyz"])
        rot = (
            RigidTransform.from_axis_angle(axis, angle)
            if angle != 0.0
            else RigidTransform.identity()
        )
        t = RigidTransform.from_translation(translate) @ rot
        return _Body(*_transform(body.links, body.joints, t, {}, self.fresh_uid))

    def _eval_merge(self, node) -> _Body:
        inputs = []
        idx = 0
        while f"geometry_{idx}" in node.inputs:
            inputs.append(self.eval(node.inputs[f"geometry_{idx}"]))
            idx += 1
        seen: set[int] = set()
        bodies = []
        for body in inputs:
            if body.link_uids() & seen:
                identity = RigidTransform.identity()
                body = _Body(*_transform(body.links, body.joints, identity, {}, self.fresh_uid))
            seen |= body.link_uids()
            bodies.append(body)
        mesh = merge_meshes([b.root.mesh for b in bodies])
        label = next((b.root.label for b in bodies if b.root.label), None)
        root = EvaluatedLink(self.fresh_uid(), label, mesh, mesh.material_tag, node.node_id)
        links = [root]
        joints = []
        for b in bodies:
            links.extend(b.links[1:])
            for e in b.joints:
                if e.parent == b.root.link_id:
                    e = replace(e, parent=root.link_id)
                joints.append(e)
        return _Body(tuple(links), tuple(joints))

    def _eval_switch(self, node) -> _Body:
        n_opts = 0
        while f"option_{n_opts}" in node.inputs:
            n_opts += 1
        select = self.int_scalar(node, "select")
        if not 0 <= select < n_opts:
            raise RangeError(
                f"switch selector {select} outside options 0..{n_opts - 1} on {node.node_id}"
            )
        return self.eval(node.inputs[f"option_{select}"])

    def _eval_joint(self, node, joint_type: str) -> _Body:
        parent = self.eval(node.inputs["parent"])
        child = self.eval(node.inputs["child"])
        lo = self.scalar(node, "range_lo")
        hi = self.scalar(node, "range_hi")
        default_param = node.params.get("default")
        if default_param is None and "default" not in node.inputs:
            default = min(max(0.0, lo), hi)
        else:
            default = self.scalar(node, "default")
        spec = JointSpec(
            joint_type,
            tuple(node.params["pivot"]),
            tuple(node.params["axis"]),
            lo,
            hi,
            default,
            node.params.get("joint_label"),
            node.params.get("parent_label"),
            node.params.get("child_label"),
        )
        relation = link_set_relation(parent.link_uids(), child.link_uids())
        if relation == "equal":
            raise StructuralError(f"joint {node.node_id}: child geometry is its own parent")
        if relation == "overlapping":
            raise StructuralError(f"joint {node.node_id}: parent and child share links")

        def relabel(body: _Body, uid: int, label: str | None) -> _Body:
            if label is None:
                return body
            links = tuple(
                replace(l, label=l.label or label) if l.link_id == uid else l for l in body.links
            )
            return _Body(links, body.joints)

        order = (self._node_index[node.node_id],)
        edge = EvaluatedJoint(
            self.fresh_uid(), parent.root.link_id, child.root.link_id, spec, order
        )
        if relation == "nested":
            body = _Body(parent.links, parent.joints + (edge,))
            body = relabel(body, parent.root.link_id, spec.parent_label)
            return relabel(body, child.root.link_id, spec.child_label)
        parent = relabel(parent, parent.root.link_id, spec.parent_label)
        child = relabel(child, child.root.link_id, spec.child_label)
        return _Body(parent.links + child.links, parent.joints + child.joints + (edge,))

    def _eval_joint_revolute(self, node) -> _Body:
        return self._eval_joint(node, "revolute")

    def _eval_joint_prismatic(self, node) -> _Body:
        return self._eval_joint(node, "prismatic")

    def _eval_duplicate_joints_on_points(self, node) -> _Body:
        parent = self.eval(node.inputs["parent"])
        body = self.eval(node.inputs["body"])
        points = node.params["points"]
        if not body.joints:
            # Static replication: copies of a jointless body merge into the parent root.
            if not points:
                return parent
            copies = [parent.root.mesh]
            for p in points:
                copies.append(apply_transform(body.root.mesh, RigidTransform.from_translation(p)))
            root = replace(parent.root, mesh=merge_meshes(copies))
            return _Body((root,) + parent.links[1:], parent.joints)
        # Copy k is `body` translated to point k, without its root; joints on
        # that root move onto the parent's root. Templates get `@k`, link and
        # joint labels `_k`, and joint orders `k` appended.
        links = list(parent.links)
        joints = list(parent.joints)
        for k, point in enumerate(points):
            copy_links, copy_joints = _transform(
                body.links[1:],
                body.joints,
                RigidTransform.from_translation(point),
                {body.root.link_id: parent.root.link_id},
                self.fresh_uid,
            )
            links.extend(
                replace(l, template=f"{l.template}@{k}", label=f"{l.label}_{k}" if l.label else None)
                for l in copy_links
            )
            joints.extend(
                replace(
                    e,
                    spec=replace(
                        e.spec,
                        joint_label=f"{e.spec.joint_label}_{k}" if e.spec.joint_label else None,
                    ),
                    order=e.order + (k,),
                )
                for e in copy_joints
            )
        return _Body(tuple(links), tuple(joints))

    def _eval_semantic_label(self, node) -> _Body:
        body = self.eval(node.inputs["geometry"])
        label = node.params["label"]
        return _Body((replace(body.root, label=label),) + body.links[1:], body.joints)

    def _eval_store_attribute(self, node) -> _Body:
        body = self.eval(node.inputs["geometry"])
        value = node.params["value"]
        links = tuple(replace(l, mesh=l.mesh.fill_unlabeled(value)) for l in body.links)
        return _Body(links, body.joints)


# ---------------------------------------------------------------------------
# Public evaluation result
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvaluatedBody:
    """Realized links and joints of one evaluation, posed at given joint values;
    `tree` indexes them."""

    links: tuple[EvaluatedLink, ...]
    joints: tuple[EvaluatedJoint, ...]
    root_link: str
    world_transforms: dict
    tree: KinematicTree

    def link(self, link_id: str) -> EvaluatedLink:
        return self.links[self.tree.link_index[link_id]]

    def posed_mesh(self, link_id: str) -> TriMesh:
        return apply_transform(self.link(link_id).mesh, self.world_transforms[link_id])


def evaluate_links(
    graph: NodeGraph, params: ParamVector | dict | None = None
) -> tuple[tuple[EvaluatedLink, ...], tuple[EvaluatedJoint, ...], str]:
    """Validate and evaluate a graph into its links, its joints sorted by
    construction order, and the root link id, without posing any link.

    The parameter vector is checked once, as a whole, against the graph's
    parameter space: a missing value raises MissingParameterError and one
    outside its entry RangeError."""
    diags = graph.validate()
    if diags:
        raise InvalidParameterError(
            "graph does not validate: " + "; ".join(str(d) for d in diags)
        )
    if params is None:
        params = ParamVector({})
    elif isinstance(params, dict):
        params = ParamVector(params)
    graph.parameters.validate_vector(params)
    body = _Context(graph, params).eval(graph.output_node)
    # Deterministic public names: creation order, label-based with ordinals.
    name_counts: dict[str, int] = {}
    link_names: dict[int, str] = {}
    links = []
    for l in sorted(body.links, key=lambda l: l.link_id):
        base = l.label or "part"
        n = name_counts.get(base, 0)
        name_counts[base] = n + 1
        link_names[l.link_id] = f"{base}_{n}"
        links.append(replace(l, link_id=link_names[l.link_id]))
    joints = []
    joint_counts: dict[str, int] = {}
    for e in sorted(body.joints, key=lambda e: (e.order, e.joint_id)):
        base = e.spec.joint_label or "joint"
        n = joint_counts.get(base, 0)
        joint_counts[base] = n + 1
        parent, child = link_names[e.parent], link_names[e.child]
        joints.append(replace(e, joint_id=f"{base}_{n}", parent=parent, child=child))
    return tuple(links), tuple(joints), link_names[body.root.link_id]


def evaluate(
    graph: NodeGraph, params: ParamVector | dict | None = None, joint_values: dict | None = None
) -> EvaluatedBody:
    """Evaluate a validated graph into an EvaluatedBody.

    `joint_values` maps joint ids to values; absent joints pose at their
    default. Values outside a joint's range raise RangeError.
    """
    links, joints, root = evaluate_links(graph, params)
    tree = KinematicTree(root, [l.link_id for l in links], joints)
    return EvaluatedBody(links, joints, root, tree.transforms(joint_values), tree)
