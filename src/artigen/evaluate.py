"""Graph evaluation: compile each distinct graph structure once into a
Program, then run it on the numbers of every graph of that structure.

A `NodeGraph` records each node as an op of its structure
(`NodeGraph.structure`), which is everything validation reads, and beside it
the node's numeric literals (`NodeGraph.numbers`). `program_for` compiles a
structure the first time it meets it, from the structure alone: it checks the
structure (`artigen.graph.check_structure`, the check that
`NodeGraph.validate` runs), writes the walk of that check out as its
blueprint, and resolves each node's handler, wires, parameter references and
defaults into a step. It keeps the last VALIDATED_STRUCTURES programs under
their structures, and a program holds no number but a switch's literal
selector. Each run then reads only that graph's numbers and the parameter
values, which the caller has checked with `ParameterSpace.validate_vector`.

A primitive that only a transform reads runs as one step with it, which makes
one link, with a uid where the transform's link had its own: the uids keep
their relative creation order, so names are unchanged. Within a run each
distinct (shape, arguments) mesh is made once and shared, as meshes are
immutable and the makers pure, and a placement without rotation only
translates its mesh (`geometry.translate_mesh`), which gives the numbers that
composing and applying the transform gives. Meshes and bundles are therefore
unchanged, bit for bit.

Meshes are kept in the construction frame (the frame in which primitives were
placed); a joint at value v conjugates its motion about the stored pivot, so a
value of 0 reproduces the construction placement exactly. Evaluation is demand
driven and memoized, as the symbolic walk is: switch branches that are not
selected are never built, and link and joint uids follow the order in which
nodes are first needed.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (
    DegeneracyError,
    EvaluationError,
    InvalidParameterError,
    RangeError,
    StructuralError,
)
from .geometry import (
    RigidTransform,
    TriMesh,
    apply_transform,
    as_vec3,
    convex_hull,
    make_box,
    make_cylinder,
    make_ngon_prism,
    make_rounded_box,
    make_sphere,
    merge_meshes,
    mesh_volume,
    translate_mesh,
)
from .graph import (
    _KINDS,
    _Op,
    _ops,
    JOINT_KINDS,
    JOINT_REVOLUTE,
    PRIMITIVE,
    TRANSFORM,
    JointSpec,
    NodeGraph,
    ParamRef,
    check_structure,
    link_set_relation,
    whole_number,
    write_blueprint,
)
from .kinematics import KinematicTree
from .params import ParamVector

# Compiled programs kept, one per graph structure; the oldest is dropped first.
VALIDATED_STRUCTURES = 128
_programs: dict[tuple, "Program"] = {}


LINK_DENSITY = 500.0  # kg/m^3 applied to the collision hull volume
PASSTHROUGH_MASS = 1e-6  # simulators reject exact zero mass
PASSTHROUGH_INERTIA = 1e-9


@dataclass(frozen=True)
class EvaluatedLink:
    """One realized link. `mesh` is in the link's frame, whose position in the
    construction frame at joint value 0 is `origin`: zero from evaluation, the
    incoming joint's pivot after `blueprint.instantiate`.

    Its `hull`, `mass`, `inertia_diag` and `inertia_origin` are computed from
    `mesh` on first read, once per link, and cached: building and sweeping an
    asset never compute a hull, so only export loads Qhull. A hull that cannot
    be built (fewer than four points, or a flat or degenerate point set) gives
    no hull and the passthrough dynamics; any other error from hull
    construction surfaces at that first read."""

    link_id: str
    label: str | None
    mesh: TriMesh
    material: str | None
    template: str
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)

    @cached_property
    def _dynamics(self):
        return _link_dynamics(self.mesh)

    hull = property(lambda self: self._dynamics[0])
    mass = property(lambda self: self._dynamics[1])
    inertia_diag = property(lambda self: self._dynamics[2])
    inertia_origin = property(lambda self: self._dynamics[3])


def _link_dynamics(mesh: TriMesh):
    """(hull, mass, inertia_diag, inertia_origin) of a link-frame mesh."""
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


@dataclass(frozen=True)
class EvaluatedJoint:
    """One realized joint. `spec` is the evaluated JointSpec, with its pivot
    and axis in the construction frame."""

    joint_id: str
    parent: str
    child: str
    spec: JointSpec
    order: tuple

    # Read-only views of `spec`, for export, collision and callers.
    joint_type = property(lambda self: self.spec.joint_type)
    axis = property(lambda self: self.spec.axis)
    lo = property(lambda self: self.spec.lo)
    hi = property(lambda self: self.spec.hi)
    default = property(lambda self: self.spec.default_value)
    joint_label = property(lambda self: self.spec.joint_label)
    is_fixed = property(lambda self: self.spec.is_fixed)


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


# Per node kind, every parameter's schema default; steps share them.
_DEFAULTS = {
    kind: {name: spec.default for name, spec in spec.params.items()} for kind, spec in _KINDS.items()
}


class _Step:
    """One node of a compiled program: its handler, its wires as op indices,
    and where each parameter comes from. A scalar is read from its wire, else
    its parameter reference, else the graph's number for it, else `consts`:
    the schema default, or a switch's literal selector."""

    __slots__ = ("index", "node_id", "kind", "run", "inputs", "refs", "params", "consts", "source")

    def __init__(self, index: int, op: _Op):
        self.index = index
        self.node_id, self.kind, self.inputs, params = op
        self.run = _HANDLERS[self.kind]
        self.refs = {name: ref.name for name, ref in params.items() if isinstance(ref, ParamRef)}
        self.params = {name: value for name, value in params.items() if name not in self.refs}
        self.consts = _DEFAULTS[self.kind]
        if "select" in self.params:  # a literal selector
            self.consts = {**self.consts, "select": self.params["select"]}
        self.source: _Step | None = None  # the primitive a placing transform runs


class _Run:
    """One run of a program on one graph's numbers and the values of one
    parameter vector that `ParameterSpace.validate_vector` accepted. The
    program's structure was validated when it was compiled: wiring, port
    types, the output type, parameter names and parameter values are not
    checked again here."""

    def __init__(self, steps: list, numbers: list, values: dict):
        self.steps = steps
        self.numbers = numbers
        self.values = values
        self.memo: list = [None] * len(steps)
        self.meshes: dict[tuple, TriMesh] = {}  # (shape, maker arguments) -> mesh
        self.fresh_uid = itertools.count(1).__next__  # link and joint uids in creation order

    def value(self, index: int):
        value = self.memo[index]
        if value is None:
            step = self.steps[index]
            value = self.memo[index] = step.run(self, step)
        return value

    # --- scalar resolution -------------------------------------------------

    def scalar(self, step: _Step, name: str) -> float:
        src = step.inputs.get(name)
        if src is not None:
            return self.value(src)
        ref = step.refs.get(name)
        if ref is not None:
            return float(self.values[ref])
        return float(self.numbers[step.index].get(name, step.consts[name]))

    def is_set(self, step: _Step, name: str) -> bool:
        """Whether an optional scalar holds a value (not None)."""
        return name in step.params or name in step.refs

    def int_scalar(self, step: _Step, name: str) -> int:
        value = self.scalar(step, name)
        rounded = whole_number(value)
        if rounded is None:
            raise EvaluationError(f"{step.kind}.{name} must be an integer, got {value}")
        return rounded

    # --- node evaluation -----------------------------------------------------

    def _primitive_mesh(self, step: _Step) -> TriMesh:
        """A primitive node's mesh. Meshes are immutable and the makers pure,
        so a run makes each distinct (shape, arguments) once and shares it."""
        shape = step.params["shape"]
        if shape == "box" or shape == "rounded_box":
            args = (tuple(self.scalar(step, f"size_{c}") for c in "xyz"),)
            if shape == "rounded_box":
                args += (self.scalar(step, "bevel"),)
        elif shape == "cylinder":
            args = (
                self.scalar(step, "radius"),
                self.scalar(step, "height"),
                self.int_scalar(step, "segments"),
            )
        elif shape == "sphere":
            args = (self.scalar(step, "radius"), self.int_scalar(step, "segments"))
        else:  # ngon_prism
            top = self.scalar(step, "top_radius") if self.is_set(step, "top_radius") else None
            args = (
                self.scalar(step, "radius"),
                self.scalar(step, "height"),
                self.int_scalar(step, "sides"),
                top,
            )
        key = (shape, args)
        mesh = self.meshes.get(key)
        if mesh is None:
            mesh = self.meshes[key] = _MAKERS[shape](*args)
        return mesh

    def _eval_primitive(self, step: _Step) -> _Body:
        mesh = self._primitive_mesh(step)
        link = EvaluatedLink(self.fresh_uid(), None, mesh, step.params.get("material"), step.node_id)
        return _Body((link,), ())

    def _eval_scalar_math(self, step: _Step) -> float:
        op = step.params["op"]
        a = self.scalar(step, "a")
        b = self.scalar(step, "b")
        if op == "add":
            return a + b
        if op == "sub":
            return a - b
        if op == "mul":
            return a * b
        if op == "div":
            if b == 0.0:
                raise EvaluationError(f"division by zero in {step.node_id}")
            return a / b
        if op == "min":
            return min(a, b)
        return max(a, b)

    def _placement(self, step: _Step) -> tuple[np.ndarray, RigidTransform | None]:
        """A transform node's translation, and its rotation unless its angle is 0."""
        axis = self.numbers[step.index].get("rotate_axis", step.consts["rotate_axis"])
        angle = self.scalar(step, "rotate_angle")
        translate = np.array([self.scalar(step, f"translate_{c}") for c in "xyz"])
        return translate, RigidTransform.from_axis_angle(axis, angle) if angle != 0.0 else None

    def _eval_transform(self, step: _Step) -> _Body:
        body = self.value(step.inputs["geometry"])
        translate, rot = self._placement(step)
        t = RigidTransform.from_translation(translate) @ (rot or RigidTransform.identity())
        return _Body(*_transform(body.links, body.joints, t, {}, self.fresh_uid))

    def _eval_placed_primitive(self, step: _Step) -> _Body:
        """A transform over a primitive that nothing else reads, as one step:
        `_eval_primitive` then `_eval_transform`, with the primitive's link
        never made. Without a rotation the mesh is only translated, which
        gives the transform's numbers exactly (`translate_mesh`)."""
        primitive = step.source
        mesh = self._primitive_mesh(primitive)
        translate, rot = self._placement(step)
        if rot is None:  # as_vec3: the finite check that from_translation makes
            mesh = translate_mesh(mesh, as_vec3(translate))
        else:
            mesh = apply_transform(mesh, RigidTransform.from_translation(translate) @ rot)
        material = primitive.params.get("material")
        link = EvaluatedLink(self.fresh_uid(), None, mesh, material, primitive.node_id)
        return _Body((link,), ())

    def _eval_merge(self, step: _Step) -> _Body:
        inputs = []
        idx = 0
        while f"geometry_{idx}" in step.inputs:
            inputs.append(self.value(step.inputs[f"geometry_{idx}"]))
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
        materials = {b.root.material for b in bodies}  # one shared material, else None
        material = materials.pop() if len(materials) == 1 else None
        root = EvaluatedLink(self.fresh_uid(), label, mesh, material, step.node_id)
        links = [root]
        joints = []
        for b in bodies:
            links.extend(b.links[1:])
            for e in b.joints:
                if e.parent == b.root.link_id:
                    e = replace(e, parent=root.link_id)
                joints.append(e)
        return _Body(tuple(links), tuple(joints))

    def _eval_switch(self, step: _Step) -> _Body:
        n_opts = 0
        while f"option_{n_opts}" in step.inputs:
            n_opts += 1
        select = self.int_scalar(step, "select")
        if not 0 <= select < n_opts:
            raise RangeError(
                f"switch selector {select} outside options 0..{n_opts - 1} on {step.node_id}"
            )
        return self.value(step.inputs[f"option_{select}"])

    def _eval_joint(self, step: _Step) -> _Body:
        parent = self.value(step.inputs["parent"])
        child = self.value(step.inputs["child"])
        lo = self.scalar(step, "range_lo")
        hi = self.scalar(step, "range_hi")
        if self.is_set(step, "default") or "default" in step.inputs:
            default = self.scalar(step, "default")
        else:
            default = min(max(0.0, lo), hi)
        numbers = self.numbers[step.index]
        spec = JointSpec(
            "revolute" if step.kind == JOINT_REVOLUTE else "prismatic",
            tuple(numbers["pivot"]),
            tuple(numbers["axis"]),
            lo,
            hi,
            default,
            step.params.get("joint_label"),
            step.params.get("parent_label"),
            step.params.get("child_label"),
        )
        relation = link_set_relation(parent.link_uids(), child.link_uids())
        if relation == "equal":
            raise StructuralError(f"joint {step.node_id}: child geometry is its own parent")
        if relation == "overlapping":
            raise StructuralError(f"joint {step.node_id}: parent and child share links")

        def relabel(body: _Body, uid: int, label: str | None) -> _Body:
            if label is None:
                return body
            links = tuple(
                replace(l, label=l.label or label) if l.link_id == uid else l for l in body.links
            )
            return _Body(links, body.joints)

        order = (step.index,)
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

    def _eval_duplicate_joints_on_points(self, step: _Step) -> _Body:
        parent = self.value(step.inputs["parent"])
        body = self.value(step.inputs["body"])
        points = self.numbers[step.index]["points"]
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

    def _eval_semantic_label(self, step: _Step) -> _Body:
        body = self.value(step.inputs["geometry"])
        label = step.params["label"]
        return _Body((replace(body.root, label=label),) + body.links[1:], body.joints)

    def _eval_store_attribute(self, step: _Step) -> _Body:
        body = self.value(step.inputs["geometry"])
        value = step.params["value"]
        links = tuple(replace(l, mesh=l.mesh.fill_unlabeled(value)) for l in body.links)
        return _Body(links, body.joints)


# The maker of each primitive shape, looked up in this module at each call.
_MAKERS = {
    "box": lambda dims: make_box(dims),
    "rounded_box": lambda dims, bevel: make_rounded_box(dims, bevel),
    "cylinder": lambda radius, height, segments: make_cylinder(radius, height, segments),
    "sphere": lambda radius, segments: make_sphere(radius, segments),
    "ngon_prism": lambda radius, height, sides, top: make_ngon_prism(
        radius, height, sides, top_radius=top
    ),
}

_HANDLERS = {
    kind: _Run._eval_joint if kind in JOINT_KINDS else getattr(_Run, f"_eval_{kind}")
    for kind in _KINDS
}


class Program:
    """A validated graph structure compiled into steps, one per node, plus its
    blueprint, which the structure's symbolic body (`check_structure`) writes
    out; `ops` are the structure's (`artigen.graph._ops`). `run` evaluates it
    on one graph's numbers."""

    def __init__(self, structure: tuple, ops: list[_Op], body):
        self.structure = structure
        self.output = structure[0]
        self.blueprint = write_blueprint(ops, body)
        self.steps = [_Step(i, op) for i, op in enumerate(ops)]
        readers = Counter(src for step in self.steps for src in step.inputs.values())
        for step in self.steps:
            src = step.inputs.get("geometry")
            placing = step.kind == TRANSFORM and self.steps[src].kind == PRIMITIVE
            if placing and readers[src] == 1 and src != self.output:
                step.run = _Run._eval_placed_primitive
                step.source = self.steps[src]

    def run(
        self, numbers: list, values: dict
    ) -> tuple[tuple[EvaluatedLink, ...], tuple[EvaluatedJoint, ...], str]:
        """The links, the joints sorted by construction order, and the root
        link id of one graph of this structure, without posing any link.
        `values` are the parameter values, already checked against the
        graph's space (`ParameterSpace.validate_vector`)."""
        body = _Run(self.steps, numbers, values).value(self.output)
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


def program_for(structure: tuple) -> Program:
    """The compiled program of a graph structure (`NodeGraph.structure`). A
    structure met for the first time is checked (`check_structure`) and
    compiled, reading its ops once; any diagnostic raises
    InvalidParameterError ("graph does not validate") and nothing is kept."""
    program = _programs.get(structure)
    if program is None:
        ops = _ops(structure)
        diags, body = check_structure(structure, ops)
        if diags:
            raise InvalidParameterError(
                "graph does not validate: " + "; ".join(str(d) for d in diags)
            )
        program = Program(structure, ops, body)
        if len(_programs) >= VALIDATED_STRUCTURES:
            _programs.pop(next(iter(_programs)), None)
        _programs[structure] = program
    return program


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
    construction order, and the root link id, without posing any link: the
    program of its structure (`program_for`) runs on its numbers, once the
    parameter vector is checked against `graph.parameters` (a missing value
    raises MissingParameterError and one outside its entry RangeError)."""
    program = program_for(graph.structure)
    if not isinstance(params, ParamVector):
        params = ParamVector(params or {})
    return program.run(graph.numbers, graph.parameters.validate_vector(params))


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
