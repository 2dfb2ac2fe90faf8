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
from .graph import (
    DUPLICATE,
    JOINT_KINDS,
    JOINT_PRISMATIC,
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
)
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
    joint_type: str
    pivot: tuple[float, float, float]
    axis: tuple[float, float, float]
    lo: float
    hi: float
    default: float
    joint_label: str | None
    parent_label: str | None
    child_label: str | None
    order: tuple
    source: str


@dataclass(frozen=True)
class _Body:
    links: tuple[_Link, ...]
    joints: tuple[_Edge, ...]
    root_uid: int

    def link_uids(self):
        return {l.uid for l in self.links}

    def link(self, uid):
        for l in self.links:
            if l.uid == uid:
                return l
        raise KeyError(uid)


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
        link = _Link(self.fresh_uid(), node.node_id, None, mesh, material)
        return _Body((link,), (), link.uid)

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
        return self._transform_body(body, t, node.node_id)

    def _transform_body(self, body: _Body, t: RigidTransform, stamp: str) -> _Body:
        remap = {}
        links = []
        for l in body.links:
            uid = self.fresh_uid()
            remap[l.uid] = uid
            links.append(replace(l, uid=uid, template=l.template, mesh=apply_transform(l.mesh, t)))
        rot = t.rotation_matrix()
        joints = []
        for e in body.joints:
            pivot = t.apply(np.asarray(e.pivot))
            axis = rot @ np.asarray(e.axis)
            joints.append(
                replace(
                    e,
                    uid=self.fresh_uid(),
                    parent_uid=remap[e.parent_uid],
                    child_uid=remap[e.child_uid],
                    pivot=tuple(float(c) for c in pivot),
                    axis=tuple(float(c) for c in axis),
                )
            )
        return _Body(tuple(links), tuple(joints), remap[body.root_uid])

    def _copy_body(self, body: _Body, offset, suffix: str | None) -> _Body:
        t = RigidTransform.from_translation(offset)
        copied = self._transform_body(body, t, "copy")
        if suffix is None:
            return copied
        links = tuple(
            replace(
                l,
                template=f"{l.template}@{suffix}",
                label=f"{l.label}_{suffix}" if l.label else None,
            )
            for l in copied.links
        )
        joints = tuple(
            replace(
                e,
                source=f"{e.source}@{suffix}",
                joint_label=f"{e.joint_label}_{suffix}" if e.joint_label else None,
                order=e.order + (int(suffix),),
            )
            for e in copied.joints
        )
        return _Body(links, joints, copied.root_uid)

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
                body = self._copy_body(body, (0.0, 0.0, 0.0), None)
            seen |= body.link_uids()
            bodies.append(body)
        root_meshes = [b.link(b.root_uid).mesh for b in bodies]
        root_labels = [b.link(b.root_uid).label for b in bodies]
        mesh = merge_meshes(root_meshes)
        label = next((l for l in root_labels if l), None)
        root = _Link(self.fresh_uid(), node.node_id, label, mesh, mesh.material_tag)
        links = [root]
        joints = []
        for b in bodies:
            links.extend(l for l in b.links if l.uid != b.root_uid)
            for e in b.joints:
                if e.parent_uid == b.root_uid:
                    e = replace(e, parent_uid=root.uid)
                joints.append(e)
        return _Body(tuple(links), tuple(joints), root.uid)

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
            return _Body(links, body.joints, body.root_uid)

        edge = _Edge(
            self.fresh_uid(),
            parent.root_uid,
            child.root_uid,
            joint_type,
            spec.pivot,
            spec.axis,
            spec.lo,
            spec.hi,
            spec.default_value,
            spec.joint_label,
            spec.parent_label,
            spec.child_label,
            (self._node_index[node.node_id],),
            node.node_id,
        )
        if composite:
            body = _Body(parent.links, parent.joints + (edge,), parent.root_uid)
            body = relabel(body, parent.root_uid, spec.parent_label)
            return relabel(body, child.root_uid, spec.child_label)
        parent = relabel(parent, parent.root_uid, spec.parent_label)
        child = relabel(child, child.root_uid, spec.child_label)
        return _Body(
            parent.links + child.links, parent.joints + child.joints + (edge,), parent.root_uid
        )

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
        links = list(parent.links)
        joints = list(parent.joints)
        if not body.joints:
            # Static replication: copies of a jointless body merge into the parent root.
            if not points:
                return parent
            root = parent.link(parent.root_uid)
            copies = [root.mesh]
            src_mesh = body.link(body.root_uid).mesh
            for p in points:
                copies.append(apply_transform(src_mesh, RigidTransform.from_translation(p)))
            merged = merge_meshes(copies)
            links = [
                replace(l, mesh=merged) if l.uid == parent.root_uid else l for l in parent.links
            ]
            return _Body(tuple(links), parent.joints, parent.root_uid)
        for k, point in enumerate(points):
            copy = self._copy_body(body, point, str(k))
            remap_root = {copy.root_uid: parent.root_uid}
            for l in copy.links:
                if l.uid != copy.root_uid:
                    links.append(l)
            for e in copy.joints:
                joints.append(
                    replace(
                        e,
                        parent_uid=remap_root.get(e.parent_uid, e.parent_uid),
                        child_uid=remap_root.get(e.child_uid, e.child_uid),
                    )
                )
        return _Body(tuple(links), tuple(joints), parent.root_uid)

    def _eval_semantic_label(self, node) -> _Body:
        body = self._body_input(node, "geometry")
        label = node.params["label"]
        links = tuple(
            replace(l, label=label) if l.uid == body.root_uid else l for l in body.links
        )
        return _Body(links, body.joints, body.root_uid)

    def _eval_store_attribute(self, node) -> _Body:
        body = self._body_input(node, "geometry")
        value = node.params["value"]
        links = tuple(replace(l, mesh=l.mesh.fill_unlabeled(value)) for l in body.links)
        return _Body(links, body.joints, body.root_uid)


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
    """Realized links and joints of one evaluation, posed at given joint values."""

    links: tuple[EvaluatedLink, ...]
    joints: tuple[EvaluatedJoint, ...]
    root_link: str
    world_transforms: dict

    def link(self, link_id: str) -> EvaluatedLink:
        for l in self.links:
            if l.link_id == link_id:
                return l
        raise KeyError(link_id)

    def posed_mesh(self, link_id: str) -> TriMesh:
        return apply_transform(self.link(link_id).mesh, self.world_transforms[link_id])

    def joints_of_pair(self, a: str, b: str) -> list[EvaluatedJoint]:
        return [j for j in self.joints if {j.parent, j.child} == {a, b}]


def _assemble(body: _Body, joint_values: dict | None) -> EvaluatedBody:
    # Deterministic public names: creation order, label-based with ordinals.
    name_counts: dict[str, int] = {}
    link_names: dict[int, str] = {}
    links = []
    ordered = sorted(body.links, key=lambda l: l.uid)
    for l in ordered:
        base = l.label or "part"
        n = name_counts.get(base, 0)
        name_counts[base] = n + 1
        link_names[l.uid] = f"{base}_{n}"
    for l in ordered:
        links.append(EvaluatedLink(link_names[l.uid], l.label, l.mesh, l.material, l.template))
    joints = []
    joint_counts: dict[str, int] = {}
    for e in sorted(body.joints, key=lambda e: (e.order, e.uid)):
        base = e.joint_label or "joint"
        n = joint_counts.get(base, 0)
        joint_counts[base] = n + 1
        spec = JointSpec(
            e.joint_type,
            e.pivot,
            e.axis,
            e.lo,
            e.hi,
            e.default,
            e.joint_label,
            e.parent_label,
            e.child_label,
        )
        joints.append(
            EvaluatedJoint(
                f"{base}_{n}", link_names[e.parent_uid], link_names[e.child_uid], spec, e.order
            )
        )
    root = link_names[body.root_uid]
    tree = KinematicTree(
        root, [l.link_id for l in links], [(j.joint_id, j.parent, j.child, j.spec) for j in joints]
    )
    return EvaluatedBody(tuple(links), tuple(joints), root, tree.transforms(joint_values))


def evaluate(
    graph: NodeGraph, params: ParamVector | dict | None = None, joint_values: dict | None = None
) -> EvaluatedBody:
    """Evaluate a validated graph into an EvaluatedBody.

    `joint_values` maps joint ids to values; absent joints pose at their
    default. Values outside a joint's range raise RangeError.
    """
    diags = graph.validate()
    if diags:
        raise InvalidParameterError(
            "graph does not validate: " + "; ".join(str(d) for d in diags)
        )
    if params is None:
        params = ParamVector({})
    elif isinstance(params, dict):
        params = ParamVector(params)
    ctx = _Context(graph, params)
    value = ctx.eval(graph.output_node)
    if not isinstance(value, _Body):
        raise EvaluationError("graph output is not geometry")
    return _assemble(value, joint_values)


@dataclass(frozen=True)
class DuplicateFragment:
    """Copies produced by duplication: links plus joints anchored at the source root."""

    links: tuple[EvaluatedLink, ...]
    joints: tuple[EvaluatedJoint, ...]


def expand_duplicates(body: EvaluatedBody, points) -> DuplicateFragment:
    """One translated copy of a jointed body per point, each with independent joints.

    The body's root link acts as the anchor: it is not replicated, and copied
    joints that hung off it stay anchored there. Link and joint labels get the
    copy index as a suffix.
    """
    points = list(points)
    if not points:
        raise InvalidParameterError("expand_duplicates requires at least one point")
    if not body.joints:
        raise InvalidParameterError("expand_duplicates requires a body with at least one joint")
    links: list[EvaluatedLink] = []
    joints: list[EvaluatedJoint] = []
    for k, point in enumerate(points):
        t = RigidTransform.from_translation(point)
        rename = {}
        for l in body.links:
            if l.link_id == body.root_link:
                continue
            new_id = f"{l.link_id}_{k}"
            rename[l.link_id] = new_id
            links.append(
                EvaluatedLink(
                    new_id,
                    f"{l.label}_{k}" if l.label else None,
                    apply_transform(l.mesh, t),
                    l.material,
                    f"{l.template}@{k}",
                )
            )
        for j in body.joints:
            spec = j.spec
            moved = JointSpec(
                spec.joint_type,
                tuple(t.apply(spec.pivot_array())),
                spec.axis,
                spec.lo,
                spec.hi,
                spec.default_value,
                f"{spec.joint_label}_{k}" if spec.joint_label else None,
                spec.parent_label,
                spec.child_label,
            )
            joints.append(
                EvaluatedJoint(
                    f"{j.joint_id}_{k}",
                    rename.get(j.parent, j.parent),
                    rename.get(j.child, j.child),
                    moved,
                    j.order + (k,),
                )
            )
    return DuplicateFragment(tuple(links), tuple(joints))
