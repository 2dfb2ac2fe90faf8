"""Graph evaluation: turn a validated NodeGraph plus a ParamVector into an
articulated body with realized joints.

Meshes are kept in the construction frame (the frame in which primitives were
placed); a joint at value v conjugates its motion about the stored pivot, so a
value of 0 reproduces the construction placement exactly. Evaluation is demand
driven and memoized: switch branches that are not selected are never built.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    EvaluationError,
    InvalidParameterError,
    MissingParameterError,
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
from .graph import JointSpec, NodeGraph, ParamRef
from .kinematics import KinematicTree
from .params import ParamVector


@dataclass(frozen=True)
class _Link:
    uid: int
    template: str
    label: str | None
    mesh: TriMesh
    material: str | None


@dataclass(frozen=True)
class _Edge:
    uid: int
    parent_uid: int
    child_uid: int
    spec: JointSpec
    order: tuple


@dataclass(frozen=True)
class _Body:
    links: tuple[_Link, ...]  # the root link first
    joints: tuple[_Edge, ...]

    @property
    def root(self) -> _Link:
        return self.links[0]

    def link_uids(self):
        return {l.uid for l in self.links}


class _Context:
    def __init__(self, graph: NodeGraph, params: ParamVector):
        self.graph = graph
        self.params = params
        self.cache: dict[str, object] = {}
        self._uid = 0
        self._node_index = {nid: i for i, nid in enumerate(graph.nodes)}

    def fresh_uid(self) -> int:
        self._uid += 1
        return self._uid

    # --- scalar resolution -------------------------------------------------

    def scalar(self, node, name: str) -> float:
        if name in node.inputs:
            value = self.eval(node.inputs[name])
            if not isinstance(value, float):
                raise EvaluationError(f"port {name!r} of {node.node_id} did not yield a scalar")
            return value
        value = node.params.get(name)
        if isinstance(value, ParamRef):
            resolved = self.params.get(value.name)
            if resolved is None:
                raise MissingParameterError(f"parameter {value.name!r} missing from vector")
            if value.name in self.graph.parameters:
                self.graph.parameters.check_value(value.name, resolved)
            return float(resolved)
        if value is None:
            raise InvalidParameterError(f"{node.kind}.{name} has no value")
        return float(value)

    def int_scalar(self, node, name: str) -> int:
        value = self.scalar(node, name)
        rounded = int(round(value))
        if abs(value - rounded) > 1e-9:
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

    def _body_input(self, node, port: str) -> _Body:
        src = node.inputs.get(port)
        if src is None:
            raise InvalidParameterError(f"{node.kind}.{port} is not wired on {node.node_id}")
        value = self.eval(src)
        if not isinstance(value, _Body):
            raise EvaluationError(f"port {port!r} of {node.node_id} did not yield geometry")
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
        return _Body((_Link(self.fresh_uid(), node.node_id, None, mesh, material),), ())

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
        body = self._body_input(node, "geometry")
        axis = node.params["rotate_axis"]
        angle = self.scalar(node, "rotate_angle")
        translate = np.array([self.scalar(node, f"translate_{c}") for c in "xyz"])
        rot = (
            RigidTransform.from_axis_angle(axis, angle)
            if angle != 0.0
            else RigidTransform.identity()
        )
        t = RigidTransform.from_translation(translate) @ rot
        return _Body(*self._transform(body.links, body.joints, t, {}))

    def _transform(self, links, joints, t: RigidTransform, remap: dict):
        """`links` and `joints` moved by `t` under fresh uids. `remap` maps the
        uids of links left out of `links` to the uids their joints attach to."""
        moved = []
        for l in links:
            uid = self.fresh_uid()
            remap[l.uid] = uid
            moved.append(replace(l, uid=uid, mesh=apply_transform(l.mesh, t)))
        rot = t.rotation_matrix()
        return tuple(moved), tuple(
            replace(
                e,
                uid=self.fresh_uid(),
                parent_uid=remap[e.parent_uid],
                child_uid=remap[e.child_uid],
                spec=replace(
                    e.spec,
                    pivot=tuple(t.apply(e.spec.pivot_array())),
                    axis=tuple(rot @ np.asarray(e.spec.axis)),
                ),
            )
            for e in joints
        )

    def _copy_body(self, body: _Body, offset, k: int, anchor: int):
        """Copy `k` of a duplication: `body` translated by `offset`, without its
        root; joints on the root move onto link `anchor`. Templates get `@k`,
        link and joint labels `_k`, and joint orders `k` appended."""
        links, joints = self._transform(
            body.links[1:],
            body.joints,
            RigidTransform.from_translation(offset),
            {body.root.uid: anchor},
        )
        links = tuple(
            replace(l, template=f"{l.template}@{k}", label=f"{l.label}_{k}" if l.label else None)
            for l in links
        )
        joints = tuple(
            replace(
                e,
                spec=replace(
                    e.spec,
                    joint_label=f"{e.spec.joint_label}_{k}" if e.spec.joint_label else None,
                ),
                order=e.order + (k,),
            )
            for e in joints
        )
        return links, joints

    def _eval_merge(self, node) -> _Body:
        inputs = []
        idx = 0
        while f"geometry_{idx}" in node.inputs:
            inputs.append(self._body_input(node, f"geometry_{idx}"))
            idx += 1
        if not inputs:
            raise InvalidParameterError(f"merge node {node.node_id} has no inputs")
        seen: set[int] = set()
        bodies = []
        for body in inputs:
            if body.link_uids() & seen:
                copied = self._transform(body.links, body.joints, RigidTransform.identity(), {})
                body = _Body(*copied)
            seen |= body.link_uids()
            bodies.append(body)
        mesh = merge_meshes([b.root.mesh for b in bodies])
        label = next((b.root.label for b in bodies if b.root.label), None)
        root = _Link(self.fresh_uid(), node.node_id, label, mesh, mesh.material_tag)
        links = [root]
        joints = []
        for b in bodies:
            links.extend(b.links[1:])
            for e in b.joints:
                if e.parent_uid == b.root.uid:
                    e = replace(e, parent_uid=root.uid)
                joints.append(e)
        return _Body(tuple(links), tuple(joints))

    def _eval_switch(self, node) -> _Body:
        n_opts = 0
        while f"option_{n_opts}" in node.inputs:
            n_opts += 1
        if n_opts == 0:
            raise InvalidParameterError(f"switch node {node.node_id} has no options")
        select = self.int_scalar(node, "select")
        if not 0 <= select < n_opts:
            raise RangeError(
                f"switch selector {select} outside options 0..{n_opts - 1} on {node.node_id}"
            )
        return self._body_input(node, f"option_{select}")

    def _eval_joint(self, node, joint_type: str) -> _Body:
        parent = self._body_input(node, "parent")
        child = self._body_input(node, "child")
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
        parent_uids = parent.link_uids()
        child_uids = child.link_uids()
        if child_uids == parent_uids:
            raise StructuralError(f"joint {node.node_id}: child geometry is its own parent")
        composite = child_uids <= parent_uids
        if not composite and (child_uids & parent_uids):
            raise StructuralError(f"joint {node.node_id}: parent and child share links")

        def relabel(body: _Body, uid: int, label: str | None) -> _Body:
            if label is None:
                return body
            links = tuple(
                replace(l, label=l.label or label) if l.uid == uid else l for l in body.links
            )
            return _Body(links, body.joints)

        edge = _Edge(
            self.fresh_uid(),
            parent.root.uid,
            child.root.uid,
            spec,
            (self._node_index[node.node_id],),
        )
        if composite:
            body = _Body(parent.links, parent.joints + (edge,))
            body = relabel(body, parent.root.uid, spec.parent_label)
            return relabel(body, child.root.uid, spec.child_label)
        parent = relabel(parent, parent.root.uid, spec.parent_label)
        child = relabel(child, child.root.uid, spec.child_label)
        return _Body(parent.links + child.links, parent.joints + child.joints + (edge,))

    def _eval_joint_revolute(self, node) -> _Body:
        return self._eval_joint(node, "revolute")

    def _eval_joint_prismatic(self, node) -> _Body:
        return self._eval_joint(node, "prismatic")

    def _eval_duplicate_joints_on_points(self, node) -> _Body:
        parent = self._body_input(node, "parent")
        body = self._body_input(node, "body")
        points = node.params["points"]
        if isinstance(points, ParamRef):
            raise InvalidParameterError("duplication points must be baked literals")
        if not body.joints:
            # Static replication: copies of a jointless body merge into the parent root.
            if not points:
                return parent
            copies = [parent.root.mesh]
            for p in points:
                copies.append(apply_transform(body.root.mesh, RigidTransform.from_translation(p)))
            root = replace(parent.root, mesh=merge_meshes(copies))
            return _Body((root,) + parent.links[1:], parent.joints)
        links = list(parent.links)
        joints = list(parent.joints)
        for k, point in enumerate(points):
            copy_links, copy_joints = self._copy_body(body, point, k, parent.root.uid)
            links.extend(copy_links)
            joints.extend(copy_joints)
        return _Body(tuple(links), tuple(joints))

    def _eval_semantic_label(self, node) -> _Body:
        body = self._body_input(node, "geometry")
        label = node.params["label"]
        return _Body((replace(body.root, label=label),) + body.links[1:], body.joints)

    def _eval_store_attribute(self, node) -> _Body:
        body = self._body_input(node, "geometry")
        value = node.params["value"]
        links = tuple(replace(l, mesh=l.mesh.fill_unlabeled(value)) for l in body.links)
        return _Body(links, body.joints)


# ---------------------------------------------------------------------------
# Public evaluation result
# ---------------------------------------------------------------------------


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

    def joints_of_pair(self, a: str, b: str) -> list[EvaluatedJoint]:
        return [j for j in self.joints if {j.parent, j.child} == {a, b}]


def evaluate_links(
    graph: NodeGraph, params: ParamVector | dict | None = None
) -> tuple[tuple[EvaluatedLink, ...], tuple[EvaluatedJoint, ...], str]:
    """Validate and evaluate a graph into its links, its joints sorted by
    construction order, and the root link id, without posing any link."""
    diags = graph.validate()
    if diags:
        raise InvalidParameterError(
            "graph does not validate: " + "; ".join(str(d) for d in diags)
        )
    if params is None:
        params = ParamVector({})
    elif isinstance(params, dict):
        params = ParamVector(params)
    body = _Context(graph, params).eval(graph.output_node)
    if not isinstance(body, _Body):
        raise EvaluationError("graph output is not geometry")
    # Deterministic public names: creation order, label-based with ordinals.
    name_counts: dict[str, int] = {}
    link_names: dict[int, str] = {}
    links = []
    for l in sorted(body.links, key=lambda l: l.uid):
        base = l.label or "part"
        n = name_counts.get(base, 0)
        name_counts[base] = n + 1
        link_names[l.uid] = f"{base}_{n}"
        links.append(EvaluatedLink(link_names[l.uid], l.label, l.mesh, l.material, l.template))
    joints = []
    joint_counts: dict[str, int] = {}
    for e in sorted(body.joints, key=lambda e: (e.order, e.uid)):
        base = e.spec.joint_label or "joint"
        n = joint_counts.get(base, 0)
        joint_counts[base] = n + 1
        joints.append(
            EvaluatedJoint(
                f"{base}_{n}", link_names[e.parent_uid], link_names[e.child_uid], e.spec, e.order
            )
        )
    return tuple(links), tuple(joints), link_names[body.root.uid]


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


@dataclass(frozen=True)
class DuplicateFragment:
    """Copies produced by duplication: links plus joints anchored at the source root."""

    links: tuple[EvaluatedLink, ...]
    joints: tuple[EvaluatedJoint, ...]


def expand_duplicates(body: EvaluatedBody, points) -> DuplicateFragment:
    """One translated copy of a jointed body per point, each with independent joints.

    The body's root link acts as the anchor: it is not replicated, and copied
    joints that hung off it stay anchored there. Copy k of link or joint `x`
    is named `x_k`; templates, labels and orders change as in the evaluator's
    duplication, which makes the copies.
    """
    points = list(points)
    if not points:
        raise InvalidParameterError("expand_duplicates requires at least one point")
    if not body.joints:
        raise InvalidParameterError("expand_duplicates requires a body with at least one joint")
    ordered = sorted(body.links, key=lambda l: l.link_id != body.root_link)  # root first
    uid = {l.link_id: i for i, l in enumerate(ordered)}
    source = _Body(
        tuple(_Link(uid[l.link_id], l.template, l.label, l.mesh, l.material) for l in ordered),
        tuple(
            _Edge(n, uid[j.parent], uid[j.child], j.spec, j.order)
            for n, j in enumerate(body.joints)
        ),
    )
    ctx = _Context(NodeGraph(), ParamVector({}))
    links: list[EvaluatedLink] = []
    joints: list[EvaluatedJoint] = []
    for k, point in enumerate(points):
        # Joints off the root stay on it: uid 0 is the source root's, which fresh uids never reuse.
        copy_links, copy_joints = ctx._copy_body(source, point, k, 0)
        names = {c.uid: f"{l.link_id}_{k}" for c, l in zip(copy_links, ordered[1:])}
        names[0] = body.root_link
        links.extend(
            EvaluatedLink(names[c.uid], c.label, c.mesh, c.material, c.template)
            for c in copy_links
        )
        joints.extend(
            EvaluatedJoint(
                f"{j.joint_id}_{k}", names[e.parent_uid], names[e.child_uid], e.spec, e.order
            )
            for j, e in zip(body.joints, copy_joints)
        )
    return DuplicateFragment(tuple(links), tuple(joints))
