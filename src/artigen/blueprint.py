"""Category-level kinematic blueprints, asset instantiation, and forward kinematics.

A blueprint is extracted from graph structure alone: numeric literals are
ignored, switches over articulated bodies become variant groups, duplication
nodes become repeat groups, and parallel joints between one link pair are
normalized into a serial chain through zero-extent passthrough links. Two
graphs built by the same generator under different sampled parameters
therefore yield the same blueprint and the same signature.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import DegeneracyError, InvalidParameterError, StructuralError
from .evaluate import EvaluatedJoint, EvaluatedLink, evaluate_links
from .geometry import RigidTransform, TriMesh, apply_transform, convex_hull, mesh_volume
from .graph import SCALAR_MATH, JointSpec, NodeGraph, ParamRef
from .kinematics import KinematicTree
from .params import ParamVector

LINK_DENSITY = 500.0  # kg/m^3 applied to the collision hull volume
PASSTHROUGH_MASS = 1e-6  # simulators reject exact zero mass
PASSTHROUGH_INERTIA = 1e-9


# ---------------------------------------------------------------------------
# Symbolic structures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _SymLink:
    token: int
    source: str
    label: str | None


@dataclass(frozen=True)
class JointTemplate:
    joint_type: str
    joint_label: str | None
    parent_label: str | None
    child_label: str | None
    slots: tuple  # (slot name, expression) pairs for parameter-driven values
    source: str


@dataclass(frozen=True)
class _SymJoint:
    joints: tuple[JointTemplate, ...]  # len > 1 marks a composite pair
    child: object  # _SymBody | _SymVariant


@dataclass(frozen=True)
class _SymRepeat:
    count_param: str | None
    attachments: tuple  # joints hanging off the anchor, replicated per point
    static_source: str | None  # jointless bodies merge geometry into the parent


@dataclass(frozen=True)
class _SymBody:
    root: _SymLink
    attachments: tuple = ()


@dataclass(frozen=True)
class _SymVariant:
    selector: str
    options: tuple


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


class _Extractor:
    """Symbolic evaluation of a graph that `NodeGraph.validate` accepted:
    wiring and port types are not checked again here."""

    def __init__(self, graph: NodeGraph):
        self.graph = graph
        self.cache: dict[str, object] = {}
        self._factored: dict[int, _SymBody] = {}
        self._token = 0

    def factor_variant(self, variant: "_SymVariant") -> "_SymBody":
        # memoized so repeated consumers share attachment identity
        key = id(variant)
        if key not in self._factored:
            self._factored[key] = _factor_variant(variant)
        return self._factored[key]

    def fresh_token(self) -> int:
        self._token += 1
        return self._token

    def expr(self, node, name: str) -> str:
        """Structural expression repr: literals masked, parameter names kept."""
        if name in node.inputs:
            src = self.graph.nodes[node.inputs[name]]
            if src.kind == SCALAR_MATH:
                return f"{src.params['op']}({self.expr(src, 'a')},{self.expr(src, 'b')})"
            return f"<{src.kind}>"
        value = node.params.get(name)
        if isinstance(value, ParamRef):
            return value.name
        if value is None:
            return "default"
        return "#"

    def visit(self, node_id: str):
        if node_id in self.cache:
            return self.cache[node_id]
        node = self.graph.nodes[node_id]
        handler = getattr(self, f"_visit_{node.kind}", None)
        value = handler(node) if handler else None
        self.cache[node_id] = value
        return value

    def _visit_primitive(self, node):
        return _SymBody(_SymLink(self.fresh_token(), node.node_id, None))

    def _visit_semantic_label(self, node):
        body = self.visit(node.inputs["geometry"])
        label = node.params["label"]

        def retag(value):
            if isinstance(value, _SymVariant):
                return _SymVariant(value.selector, tuple(retag(o) for o in value.options))
            return _SymBody(replace(value.root, label=label), value.attachments)

        return retag(body)

    def _visit_store_attribute(self, node):
        return self.visit(node.inputs["geometry"])

    def _visit_transform(self, node):
        return self._retoken(self.visit(node.inputs["geometry"]))

    def _retoken(self, value):
        if isinstance(value, _SymVariant):
            return _SymVariant(value.selector, tuple(self._retoken(o) for o in value.options))
        root = replace(value.root, token=self.fresh_token())
        atts = tuple(
            _SymJoint(a.joints, self._retoken(a.child)) if isinstance(a, _SymJoint) else a
            for a in value.attachments
        )
        return _SymBody(root, atts)

    def _visit_merge(self, node):
        bodies = []
        idx = 0
        while f"geometry_{idx}" in node.inputs:
            value = self.visit(node.inputs[f"geometry_{idx}"])
            if isinstance(value, _SymVariant):
                raise InvalidParameterError(
                    f"merge {node.node_id} cannot take switch variants with joints"
                )
            bodies.append(value)
            idx += 1
        label = next((b.root.label for b in bodies if b.root.label), None)
        atts = tuple(a for b in bodies for a in b.attachments)
        return _SymBody(_SymLink(self.fresh_token(), node.node_id, label), atts)

    def _visit_switch(self, node):
        options = []
        idx = 0
        while f"option_{idx}" in node.inputs:
            options.append(self.visit(node.inputs[f"option_{idx}"]))
            idx += 1
        plain = all(isinstance(o, _SymBody) and not o.attachments for o in options)
        if plain:
            labels = {o.root.label for o in options}
            label = labels.pop() if len(labels) == 1 else None
            return _SymBody(_SymLink(self.fresh_token(), node.node_id, label))
        return _SymVariant(self.expr(node, "select"), tuple(options))

    def _joint_template(self, node, joint_type: str) -> JointTemplate:
        slots = []
        for slot in ("range_lo", "range_hi", "default"):
            rep = self.expr(node, slot)
            if rep not in ("#", "default"):
                slots.append((slot, rep))
        return JointTemplate(
            joint_type,
            node.params.get("joint_label"),
            node.params.get("parent_label"),
            node.params.get("child_label"),
            tuple(slots),
            node.node_id,
        )

    def _attach_joint(self, parent: _SymBody, child, template: JointTemplate, node_id: str):
        if isinstance(child, _SymBody):
            tokens_parent = _collect_tokens(parent)
            if child.root.token in tokens_parent:
                return self._append_composite(parent, child.root.token, template, node_id)
        if child is parent or (
            isinstance(child, _SymBody) and child.root.token == parent.root.token
        ):
            raise StructuralError(f"joint {node_id}: child is its own parent")
        relabeled = _relabel(child, template.child_label)
        root = parent.root
        if template.parent_label and root.label is None:
            root = replace(root, label=template.parent_label)
        return _SymBody(root, parent.attachments + (_SymJoint((template,), relabeled),))

    def _append_composite(self, parent: _SymBody, token: int, template: JointTemplate, node_id: str):
        found = []

        def walk(body: _SymBody) -> _SymBody:
            atts = []
            for att in body.attachments:
                if isinstance(att, _SymJoint) and isinstance(att.child, _SymBody):
                    if att.child.root.token == token and body.root.token == parent.root.token:
                        found.append(True)
                        atts.append(_SymJoint(att.joints + (template,), att.child))
                        continue
                    atts.append(_SymJoint(att.joints, walk(att.child)) if isinstance(att.child, _SymBody) else att)
                else:
                    atts.append(att)
            return _SymBody(body.root, tuple(atts))

        out = walk(parent)
        if not found:
            raise StructuralError(
                f"joint {node_id} would give a link two distinct parents (kinematic cycle)"
            )
        return out

    def _visit_joint(self, node, joint_type):
        parent = self.visit(node.inputs["parent"])
        if isinstance(parent, _SymVariant):
            parent = self.factor_variant(parent)
        child = self.visit(node.inputs["child"])
        return self._attach_joint(parent, child, self._joint_template(node, joint_type), node.node_id)

    def _visit_joint_revolute(self, node):
        return self._visit_joint(node, "revolute")

    def _visit_joint_prismatic(self, node):
        return self._visit_joint(node, "prismatic")

    def _visit_duplicate_joints_on_points(self, node):
        parent = self.visit(node.inputs["parent"])
        if isinstance(parent, _SymVariant):
            parent = self.factor_variant(parent)
        body = self.visit(node.inputs["body"])
        if isinstance(body, _SymVariant):
            raise InvalidParameterError(
                f"duplicate {node.node_id} cannot replicate switch variants"
            )
        count_param = node.params.get("count_param")
        if body.attachments:
            group = _SymRepeat(count_param, body.attachments, None)
        else:
            group = _SymRepeat(count_param, (), body.root.source)
        return _SymBody(parent.root, parent.attachments + (group,))


def _relabel(value, label: str | None):
    if label is None:
        return value
    if isinstance(value, _SymVariant):
        return _SymVariant(value.selector, tuple(_relabel(o, label) for o in value.options))
    if value.root.label is None:
        return _SymBody(replace(value.root, label=label), value.attachments)
    return value


def _collect_tokens(value) -> set:
    if value is None:
        return set()
    if isinstance(value, _SymVariant):
        out = set()
        for o in value.options:
            out |= _collect_tokens(o)
        return out
    out = {value.root.token}
    for att in value.attachments:
        if isinstance(att, _SymJoint):
            out |= _collect_tokens(att.child)
    return out


def _factor_variant(variant: _SymVariant) -> _SymBody:
    """Rewrite a switch over bodies that share one root link as that root plus
    a variant-joint attachment (one optional joint/subtree per branch)."""
    options = [o for o in variant.options if isinstance(o, _SymBody)]
    roots = {o.root.token for o in options}
    if len(options) != len(variant.options) or len(roots) != 1:
        raise StructuralError(
            "switch branches used as a joint parent must share one root link"
        )
    base = options[0]
    shared = [o.attachments for o in options]
    common = 0
    min_len = min(len(a) for a in shared)
    while common < min_len and all(a[common] is shared[0][common] for a in shared):
        common += 1
    branches = []
    for atts in shared:
        extra = atts[common:]
        if not extra:
            branches.append(None)
        elif len(extra) == 1 and isinstance(extra[0], _SymJoint):
            branches.append(extra[0])
        else:
            raise StructuralError("switch branches must add at most one joint each")
    return _SymBody(
        base.root,
        base.attachments[:common] + (("variant-joint", variant.selector, tuple(branches)),),
    )


def extract_blueprint(graph: NodeGraph) -> KinematicBlueprint:
    """Compile a validated graph into its category-level kinematic blueprint."""
    diags = graph.validate()
    if diags:
        raise InvalidParameterError(
            "graph does not validate: " + "; ".join(str(d) for d in diags)
        )
    extractor = _Extractor(graph)
    value = extractor.visit(graph.output_node)
    if isinstance(value, _SymVariant):
        value = extractor.factor_variant(value)
    if not isinstance(value, _SymBody):
        raise InvalidParameterError("graph output is not geometry")

    def jt_dict(jt: JointTemplate) -> dict:
        return {
            "type": jt.joint_type,
            "joint_label": jt.joint_label,
            "parent_label": jt.parent_label,
            "child_label": jt.child_label,
            "slots": [list(s) for s in jt.slots],
            # Signatures ignore numeric literals; the key stays so that they keep their bytes.
            "range": None,
            "source": jt.source,
        }

    def walk_attachment(att) -> dict:
        if isinstance(att, _SymJoint):
            return {
                "kind": "joint",
                "joints": [jt_dict(j) for j in att.joints],
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
        _tag, selector, branches = att  # ("variant-joint", selector, branches)
        return {
            "kind": "variant",
            "selector": selector,
            "branches": [None if b is None else walk_attachment(b) for b in branches],
        }

    def walk_subtree(value) -> dict:
        if isinstance(value, _SymVariant):
            branches = [walk_subtree(o) for o in value.options]
            return {"kind": "variant", "selector": value.selector, "branches": branches}
        return {
            "kind": "link",
            "label": value.root.label,
            "source": value.root.source,
            "children": [walk_attachment(att) for att in value.attachments],
        }

    return KinematicBlueprint(walk_subtree(value))


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InstanceLink:
    link_id: str
    label: str | None
    mesh: TriMesh  # link-local frame (origin at the parent joint pivot)
    hull: TriMesh | None
    mass: float
    inertia_diag: tuple[float, float, float]
    inertia_origin: tuple[float, float, float]
    local_frame: RigidTransform  # link-local -> construction frame at zero pose
    material: str | None
    template: str


@dataclass(frozen=True)
class InstanceJoint:
    """One realized joint. `spec` is the evaluated JointSpec, in the
    construction frame with its pivot at the child link's frame origin;
    `pivot_in_parent` is that origin in the parent link's frame."""

    joint_id: str
    parent: str
    child: str
    spec: JointSpec
    pivot_in_parent: tuple[float, float, float]

    # Read-only views of `spec`, for export, collision and callers.
    joint_type = property(lambda self: self.spec.joint_type)
    axis = property(lambda self: self.spec.axis)
    lo = property(lambda self: self.spec.lo)
    hi = property(lambda self: self.spec.hi)
    default = property(lambda self: self.spec.default_value)
    joint_label = property(lambda self: self.spec.joint_label)
    is_fixed = property(lambda self: self.spec.is_fixed)


@dataclass(frozen=True)
class AssetInstance:
    """One sampled realization: links with dynamics, a realized joint tree, seed.

    `tree` indexes the links and joints; building it raises StructuralError
    when the joints do not form one tree rooted at `root_link`.
    """

    category: str
    seed: int
    params: ParamVector
    links: tuple[InstanceLink, ...]
    joints: tuple[InstanceJoint, ...]
    root_link: str
    blueprint: KinematicBlueprint | None = None

    def __post_init__(self):
        _ = self.tree  # build it now, so a malformed joint tree fails at construction

    @cached_property
    def tree(self) -> KinematicTree:
        return KinematicTree(self.root_link, [l.link_id for l in self.links], self.joints)

    def link(self, link_id: str) -> InstanceLink:
        return self.links[self.tree.link_index[link_id]]

    def joint(self, joint_id: str) -> InstanceJoint:
        return self.joints[self.tree.joint_index[joint_id]]

    def children_of(self, link_id: str) -> list[InstanceJoint]:
        """Joints whose parent is `link_id`, by joint id."""
        return [self.joints[k] for k in self.tree.children[self.tree.link_index[link_id]]]

    def default_config(self) -> dict:
        return {j.joint_id: j.default for j in self.joints}

    def adjacent_pairs(self) -> set:
        return {frozenset((j.parent, j.child)) for j in self.joints}


def _link_dynamics(mesh: TriMesh):
    if mesh.is_empty or mesh.n_vertices < 4:
        return None, PASSTHROUGH_MASS, (PASSTHROUGH_INERTIA,) * 3, (0.0, 0.0, 0.0)
    try:
        hull = convex_hull(mesh)
    except DegeneracyError:
        return None, PASSTHROUGH_MASS, (PASSTHROUGH_INERTIA,) * 3, (0.0, 0.0, 0.0)
    mass = mesh_volume(hull) * LINK_DENSITY
    box = mesh.aabb()
    e = box.extents
    ixx = mass / 12.0 * (e[1] ** 2 + e[2] ** 2)
    iyy = mass / 12.0 * (e[0] ** 2 + e[2] ** 2)
    izz = mass / 12.0 * (e[0] ** 2 + e[1] ** 2)
    return hull, mass, (ixx, iyy, izz), tuple(float(c) for c in box.center)


def instantiate(
    blueprint: KinematicBlueprint | None,
    graph: NodeGraph,
    params: ParamVector,
    category: str = "asset",
) -> AssetInstance:
    """Realize one asset: evaluate meshes, normalize composite joints, add dynamics."""
    if graph.parameters.entries:
        graph.parameters.validate_vector(params)
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

    origins = {j.child: j.spec.pivot_array() for j in joints}

    def origin_of(link_id: str) -> np.ndarray:
        return origins.get(link_id, np.zeros(3))

    instance_links = []
    for l in links:
        o = origin_of(l.link_id)
        local_mesh = (
            apply_transform(l.mesh, RigidTransform.from_translation(-o))
            if l.mesh.n_vertices
            else l.mesh
        )
        hull, mass, inertia, com = _link_dynamics(local_mesh)
        instance_links.append(
            InstanceLink(
                l.link_id,
                l.label,
                local_mesh,
                hull,
                mass,
                inertia,
                com,
                RigidTransform.from_translation(o),
                l.material,
                l.template,
            )
        )

    instance_joints = [
        InstanceJoint(
            j.joint_id,
            j.parent,
            j.child,
            j.spec,
            tuple(float(c) for c in (origin_of(j.child) - origin_of(j.parent))),
        )
        for j in joints
    ]

    return AssetInstance(
        category,
        params.seed,
        params,
        tuple(instance_links),
        tuple(instance_joints),
        root,
        blueprint,
    )


def forward_kinematics(instance: AssetInstance, config: dict | None = None) -> dict:
    """World transform per link id; missing joints pose at their default value."""
    world = instance.tree.transforms(config)
    return {link_id: t @ instance.link(link_id).local_frame for link_id, t in world.items()}


def posed_meshes(instance: AssetInstance, config: dict | None = None) -> dict:
    """World-frame mesh per link at the given joint configuration."""
    world = forward_kinematics(instance, config)
    out = {}
    for l in instance.links:
        if l.mesh.n_vertices:
            out[l.link_id] = apply_transform(l.mesh, world[l.link_id])
    return out
