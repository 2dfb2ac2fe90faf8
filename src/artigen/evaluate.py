"""Graph evaluation: compile each distinct graph structure once into a
Program, then run it on the numbers of every graph of that structure.

A `NodeGraph` records each node as an op of its structure
(`NodeGraph.structure`) and, beside it, its numeric literals
(`NodeGraph.numbers`). `program_for` compiles a structure the first time it
meets it, from the structure alone, and keeps the last VALIDATED_STRUCTURES
programs; a program holds no number but a switch's literal selector. Each run
reads only one graph's numbers and the parameter values, which the caller has
checked with `ParameterSpace.validate_vector`.

The check (`artigen.graph.check_structure`, which `NodeGraph.validate` runs)
decides link identity once per op, for every switch selection: whether a
joint adds a new child or is a second joint into a child its parent holds,
which inputs a merge copies, and whether a duplicate merges static geometry
or copies jointed links. A run carries the decisions out and works out
nothing structural, so a graph that validates builds the tree its blueprint
describes. Generator graphs get the decisions that each selection's own link
sets would give. A hand-built graph can differ where those differ between
selections or with a duplicate's point list, which the check does not read: a
merge input that shares links with an earlier one under some selection is
copied under all of them (link names can change), and a duplicate whose body
can hold a joint copies jointed links, so adds nothing where none is built.

A primitive that only a transform reads runs as one step with it, which makes
one link, with a uid where the transform's link had its own: the uids keep
their relative creation order, so names are unchanged. Within a run each
distinct (shape, arguments) mesh is made once and shared, as meshes are
immutable and the makers pure, and a placement without rotation only
translates its mesh (`geometry.translate_mesh`), which gives the numbers that
composing and applying the transform gives. A primitive's mesh is its shape's
template (`geometry`: triangles and angle tables cached per shape and count)
scaled by the node's numbers, made without the mesh checks; the run checks
them all in creation order in one pass (`geometry.check_meshes`) when it
ends, or as soon as anything raises, so the first bad primitive raises the
error it raises when checked where it is made, as `make_*` do.

Meshes are kept in the construction frame (the frame in which primitives were
placed); a joint at value v conjugates its motion about the stored pivot, so a
value of 0 reproduces the construction placement exactly. Evaluation is demand
driven and memoized: switch branches that are not selected are never built,
and link and joint uids follow the order in which nodes are first needed. The
run's naming pass also sets each link's `origin`, its incoming joint's pivot,
and chains each composite pair (several joints between one link pair, as the
check decided) through passthrough links, so every link has one incoming
joint. `AssetInstance` wraps the result: `evaluate`, `blueprint.instantiate`
and `generators.build_instance` all return one. Only export and a link's
dynamics read `origin` to move a mesh into its link frame.
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
)
from .geometry import (
    RigidTransform,
    TriMesh,
    _box,
    _cylinder,
    _format_floats,
    _obj_records,
    _prism,
    _rounded_box,
    _sphere,
    apply_transform,
    as_vec3,
    check_meshes,
    convex_hulls,
    merge_meshes,
    translate_mesh,
    unit_vector,
)
from .graph import (
    _KINDS,
    _Op,
    _ops,
    _port_family,
    JOINT_KINDS,
    JOINT_REVOLUTE,
    PRIMITIVE,
    TRANSFORM,
    KinematicBlueprint,
    NodeGraph,
    ParamRef,
    check_structure,
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
    """One realized link. `mesh` is in the construction frame, where
    evaluation placed it. `origin` is the position there of the link's own
    frame: its incoming joint's pivot, or zero at the root. Only export and
    the link's dynamics use that frame.

    `frame_mesh` is `mesh` moved by -origin into the link frame, unchecked
    until `AssetInstance.frame_meshes` checks it. The `hull`, `mass`,
    `inertia_diag` and `inertia_origin` are computed from it once and cached:
    for all of an instance's links at once on its first export
    (`AssetInstance.obj_records`), or for this link alone when read before
    that, by the same pass (`_link_dynamics`) on one mesh. Building and
    sweeping an asset never compute a hull, so only export loads Qhull. A
    hull that cannot be built (fewer than four points, or a flat or
    degenerate point set) gives no hull and the passthrough dynamics; any
    other error from hull construction surfaces at that first read."""

    link_id: str
    label: str | None
    mesh: TriMesh
    material: str | None
    template: str
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)

    @cached_property
    def frame_mesh(self) -> TriMesh:
        if not self.mesh.n_vertices:
            return self.mesh
        verts = RigidTransform.from_translation(-np.asarray(self.origin)).apply(self.mesh.vertices)
        return TriMesh._unchecked(verts, self.mesh.triangles, self.mesh.face_labels)

    @cached_property
    def _dynamics(self):
        return _link_dynamics([self.frame_mesh])[0]

    hull = property(lambda self: self._dynamics[0])
    mass = property(lambda self: self._dynamics[1])
    inertia_diag = property(lambda self: self._dynamics[2])
    inertia_origin = property(lambda self: self._dynamics[3])


_PASSTHROUGH = (None, PASSTHROUGH_MASS, (PASSTHROUGH_INERTIA,) * 3, (0.0, 0.0, 0.0), None)


def _link_dynamics(meshes) -> list[tuple]:
    """(hull, mass, inertia_diag, inertia_origin, hull_rows) of each
    link-frame mesh, in one pass: the hulls and their volumes from
    `convex_hulls`, and each mesh's bounding box, whose extents give the
    box-approximated inertia and whose centre the inertial origin, reduced
    over the stacked vertices. `hull_rows` are the rows of the mesh's
    vertices that its hull keeps. A mesh without a hull gets the passthrough
    dynamics."""
    dynamics = [_PASSTHROUGH] * len(meshes)
    hulls = convex_hulls([m.vertices for m in meshes])
    solid = [i for i, hull in enumerate(hulls) if not isinstance(hull, DegeneracyError)]
    if not solid:
        return dynamics
    points = [meshes[i].vertices for i in solid]
    starts = list(itertools.accumulate((len(p) for p in points[:-1]), initial=0))
    stacked = np.concatenate(points)
    lo, hi = np.minimum.reduceat(stacked, starts), np.maximum.reduceat(stacked, starts)
    for i, e, center in zip(solid, hi - lo, 0.5 * (lo + hi)):
        hull = hulls[i]
        mass = hull.volume * LINK_DENSITY
        ixx = mass / 12.0 * (e[1] ** 2 + e[2] ** 2)
        iyy = mass / 12.0 * (e[0] ** 2 + e[2] ** 2)
        izz = mass / 12.0 * (e[0] ** 2 + e[1] ** 2)
        dynamics[i] = (hull.mesh, mass, (ixx, iyy, izz), tuple(center.tolist()), hull.rows)
    return dynamics


@dataclass(frozen=True)
class EvaluatedJoint:
    """One realized joint: its type, its pivot and axis in the construction
    frame, its range, default value and label, and its `order` (the joint
    step's index, then each duplicate's copy index), which names follow.

    Construction checks the type, that the pivot is finite and that
    lo <= default <= hi, and normalizes the axis (`unit_vector`), so a copy
    made with `dataclasses.replace`, such as a rotated one, renormalizes it;
    `relinked` copies a joint under other ids without either. lo == hi is
    allowed and flags an immovable joint."""

    joint_id: str
    parent: str
    child: str
    joint_type: str
    pivot: tuple[float, float, float]
    axis: tuple[float, float, float]
    lo: float
    hi: float
    default: float = 0.0
    joint_label: str | None = None
    order: tuple = ()

    def __post_init__(self):
        if self.joint_type not in ("revolute", "prismatic"):
            raise InvalidParameterError(f"unknown joint type {self.joint_type!r}")
        object.__setattr__(self, "axis", unit_vector(self.axis, "joint axis"))
        object.__setattr__(self, "pivot", tuple(as_vec3(self.pivot, "joint pivot").tolist()))
        if not (self.lo <= self.hi):
            raise InvalidParameterError(f"joint range needs lo <= hi, got [{self.lo}, {self.hi}]")
        if not (self.lo <= self.default <= self.hi):
            raise InvalidParameterError(
                f"default {self.default} outside joint range [{self.lo}, {self.hi}]"
            )

    @property
    def is_fixed(self) -> bool:
        return self.lo == self.hi

    def relinked(self, **ids) -> "EvaluatedJoint":
        """This joint under another `joint_id`, `parent` or `child`. Its motion
        is kept as it is: not checked again, and its axis not renormalized,
        which could move it by an ulp."""
        joint = object.__new__(EvaluatedJoint)
        joint.__dict__.update(self.__dict__, **ids)
        return joint


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


def _copy_label(label: str | None, k: int | None) -> str | None:
    """A label on duplicate copy k, `label_k`; outside a copy (k None), `label`."""
    if k is None:
        return label
    return f"{label}_{k}" if label else None


def _transform(links, joints, t: RigidTransform, remap: dict, fresh_uid, k: int | None = None):
    """`links` and `joints` moved by `t` under uids from `fresh_uid`. `remap` maps
    the uids of links left out of `links` to the uids their joints attach to.
    As duplicate copy `k`, templates also get `@k`, link and joint labels `_k`,
    and joint orders `k` appended."""
    moved = []
    for l in links:
        uid = remap[l.link_id] = fresh_uid()
        template = l.template if k is None else f"{l.template}@{k}"
        label = _copy_label(l.label, k)
        mesh = apply_transform(l.mesh, t)
        moved.append(replace(l, link_id=uid, mesh=mesh, template=template, label=label))
    rot = t.rotation_matrix()
    return tuple(moved), tuple(
        replace(
            e,
            joint_id=fresh_uid(),
            parent=remap[e.parent],
            child=remap[e.child],
            pivot=tuple(t.apply(np.asarray(e.pivot))),
            axis=tuple(rot @ np.asarray(e.axis)),
            joint_label=_copy_label(e.joint_label, k),
            order=e.order if k is None else e.order + (k,),
        )
        for e in joints
    )


# Per node kind, every parameter's schema default; steps share them.
_DEFAULTS = {
    kind: {name: spec.default for name, spec in spec.params.items()} for kind, spec in _KINDS.items()
}


class _Step:
    """One node of a compiled program: its handler, its wires as op indices,
    its `sources` (a merge's inputs or a switch's options, in port order),
    the check's identity decision at its op, and where each parameter comes
    from. A scalar is read from its wire, else its parameter reference, else
    the graph's number for it, else `consts`: the schema default, or a
    switch's literal selector."""

    __slots__ = ("index", "node_id", "kind", "run", "inputs", "sources", "decision", "refs",
                 "params", "consts", "source")

    def __init__(self, index: int, op: _Op, decision=None):
        self.index = index
        self.node_id, self.kind, self.inputs, params = op
        self.run = _HANDLERS[self.kind]
        prefix = _KINDS[self.kind].dynamic_ports
        self.sources = _port_family(op, prefix) if prefix else ()
        self.decision = decision
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
    checked again here, and each joint, merge and duplicate carries out the
    identity decision of its step instead of working one out."""

    def __init__(self, steps: list, numbers: list, values: dict):
        self.steps = steps
        self.numbers = numbers
        self.values = values
        self.memo: list = [None] * len(steps)
        self.meshes: dict[tuple, TriMesh] = {}  # (shape, maker arguments) -> mesh
        self.made: list[TriMesh] = []  # those meshes in creation order, not yet checked
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
        """A primitive node's mesh, from its shape's template and unchecked
        until `Program.run` checks all of the run's meshes. Meshes are
        immutable and the makers pure, so a run makes each distinct (shape,
        arguments) once and shares it."""
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
            mesh = self.meshes[key] = TriMesh._unchecked(*_MAKERS[shape](*args), None)
            self.made.append(mesh)
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
        bodies = []
        for src, copied in zip(step.sources, step.decision):
            body = self.value(src)
            if copied:  # an input that shares links with an earlier one
                identity = RigidTransform.identity()
                body = _Body(*_transform(body.links, body.joints, identity, {}, self.fresh_uid))
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
                    e = e.relinked(parent=root.link_id)
                joints.append(e)
        return _Body(tuple(links), tuple(joints))

    def _eval_switch(self, step: _Step) -> _Body:
        select = self.int_scalar(step, "select")
        if not 0 <= select < len(step.sources):
            raise RangeError(
                f"switch selector {select} outside options 0..{len(step.sources) - 1} on {step.node_id}"
            )
        return self.value(step.sources[select])

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
        edge = EvaluatedJoint(
            self.fresh_uid(),
            parent.root.link_id,
            child.root.link_id,
            "revolute" if step.kind == JOINT_REVOLUTE else "prismatic",
            tuple(numbers["pivot"]),
            tuple(numbers["axis"]),
            lo,
            hi,
            default,
            step.params.get("joint_label"),
            (step.index,),
        )
        links, joints = parent.links, parent.joints
        if not step.decision:  # a new child, not a second joint into one the parent holds
            links, joints = links + child.links, joints + child.joints
        labels = {
            parent.root.link_id: step.params.get("parent_label"),
            child.root.link_id: step.params.get("child_label"),
        }
        links = tuple(
            l if l.label or labels.get(l.link_id) is None else replace(l, label=labels[l.link_id])
            for l in links
        )
        return _Body(links, joints + (edge,))

    def _eval_duplicate_joints_on_points(self, step: _Step) -> _Body:
        parent = self.value(step.inputs["parent"])
        body = self.value(step.inputs["body"])
        points = self.numbers[step.index]["points"]
        if step.decision:  # static: copies of a body without joints merge into the parent root
            if not points:
                return parent
            copies = [parent.root.mesh]
            for p in points:
                copies.append(apply_transform(body.root.mesh, RigidTransform.from_translation(p)))
            root = replace(parent.root, mesh=merge_meshes(copies))
            return _Body((root,) + parent.links[1:], parent.joints)
        # Copy k is `body` translated to point k, without its root; joints on
        # that root move onto the parent's root.
        links = list(parent.links)
        joints = list(parent.joints)
        for k, point in enumerate(points):
            copy_links, copy_joints = _transform(
                body.links[1:],
                body.joints,
                RigidTransform.from_translation(point),
                {body.root.link_id: parent.root.link_id},
                self.fresh_uid,
                k,
            )
            links.extend(copy_links)
            joints.extend(copy_joints)
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


# The vertices and triangles of each primitive shape, with the maker's
# argument checks and without the mesh checks.
_MAKERS = {
    "box": _box,
    "rounded_box": _rounded_box,
    "cylinder": _cylinder,
    "sphere": _sphere,
    "ngon_prism": _prism,
}

_HANDLERS = {
    kind: _Run._eval_joint if kind in JOINT_KINDS else getattr(_Run, f"_eval_{kind}")
    for kind in _KINDS
}


class Program:
    """A validated graph structure compiled into steps, one per node, plus its
    blueprint. The check (`check_structure`) decides link identity, and each
    step keeps the decision at its op for runs to carry out; the check's
    symbolic body is written out as the blueprint. `ops` are the structure's
    (`artigen.graph._ops`). `run` evaluates it on one graph's numbers."""

    def __init__(self, structure: tuple, ops: list[_Op], body, decisions: dict):
        self.structure = structure
        self.output = structure[0]
        self.blueprint = write_blueprint(ops, body)
        self.steps = [_Step(i, op, decisions.get(i)) for i, op in enumerate(ops)]
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
        """The links, the joints and the root link id of one graph of this
        structure, without posing any link. `values` are the parameter
        values, already checked against the graph's space
        (`ParameterSpace.validate_vector`).

        Links and joints are named in creation and construction order. Each
        link's `origin` is its incoming joint's pivot. Several joints between
        one link pair (a screw) become a serial chain through passthrough
        links `{child}__passthrough_{i}`, which come after the evaluated
        links, so every link has one incoming joint. The run's primitive
        meshes and then its link meshes are checked in one pass
        (`check_meshes`), and only the primitives when anything raises
        first, so the first bad mesh raises what it raised when each was
        checked where it was made."""
        run = _Run(self.steps, numbers, values)
        try:
            body = run.value(self.output)
        except Exception:
            check_meshes(run.made)
            raise
        # Deterministic public names: creation order, label-based with ordinals.
        name_counts: dict[str, int] = {}
        link_names: dict[int, str] = {}
        evaluated = sorted(body.links, key=lambda l: l.link_id)
        for l in evaluated:
            base = l.label or "part"
            n = name_counts.get(base, 0)
            name_counts[base] = n + 1
            link_names[l.link_id] = f"{base}_{n}"
        pairs: dict[tuple, list] = {}  # (parent, child) uids -> named joints
        joint_counts: dict[str, int] = {}
        for e in sorted(body.joints, key=lambda e: (e.order, e.joint_id)):
            base = e.joint_label or "joint"
            n = joint_counts.get(base, 0)
            joint_counts[base] = n + 1
            parent, child = link_names[e.parent], link_names[e.child]
            named = e.relinked(joint_id=f"{base}_{n}", parent=parent, child=child)
            pairs.setdefault((e.parent, e.child), []).append(named)
        origins: dict[int, tuple] = {}
        joints: list[EvaluatedJoint] = []
        passthrough: list[EvaluatedLink] = []
        for (_, child), (*chained, last) in pairs.items():
            prev = last.parent
            for i, j in enumerate(chained, start=1):
                pass_id = f"{last.child}__passthrough_{i}"
                template = f"{j.joint_type}-pass"
                passthrough.append(
                    EvaluatedLink(pass_id, None, TriMesh.empty(), None, template, j.pivot)
                )
                joints.append(j.relinked(parent=prev, child=pass_id))
                prev = pass_id
            joints.append(last.relinked(parent=prev) if chained else last)
            origins[child] = last.pivot
        links = [
            replace(l, link_id=link_names[l.link_id], origin=origins.get(l.link_id, l.origin))
            for l in evaluated
        ]
        check_meshes(run.made + [l.mesh for l in links])
        return tuple(links + passthrough), tuple(joints), link_names[body.root.link_id]


def program_for(structure: tuple) -> Program:
    """The compiled program of a graph structure (`NodeGraph.structure`). A
    structure met for the first time is checked (`check_structure`) and
    compiled, reading its ops once; any diagnostic raises
    InvalidParameterError ("graph does not validate") and nothing is kept."""
    program = _programs.get(structure)
    if program is None:
        ops = _ops(structure)
        diags, body, decisions = check_structure(structure, ops)
        if diags:
            raise InvalidParameterError(
                "graph does not validate: " + "; ".join(str(d) for d in diags)
            )
        program = Program(structure, ops, body, decisions)
        if len(_programs) >= VALIDATED_STRUCTURES:
            _programs.pop(next(iter(_programs)), None)
        _programs[structure] = program
    return program


# ---------------------------------------------------------------------------
# Public evaluation result
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssetInstance:
    """One sampled realization: its links, joints and root link, its
    parameters and seed, and its category blueprint when it has one.

    The links and joints are those of one run (`evaluate_links`): meshes,
    pivots and axes in the construction frame, each link's `origin` at its
    incoming joint's pivot, and composite pairs chained through passthrough
    links. `tree` indexes them; building it raises StructuralError when the
    joints do not form one tree rooted at `root_link`.
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

    @cached_property
    def frame_meshes(self) -> tuple[TriMesh, ...]:
        """Each link's `frame_mesh`, indexed like `links`, checked in one
        pass (`check_meshes`) on first read: a translation can round an area
        below DEGENERATE_AREA. Bit-equal meshes (vertex and triangle bytes),
        such as a duplicate's copies, are one object here, so that the work
        export does on them runs once per distinct mesh. Export writes these."""
        distinct: dict[tuple, TriMesh] = {}
        meshes = tuple(
            distinct.setdefault((m.vertices.tobytes(), m.triangles.tobytes()), m)
            for m in (l.frame_mesh for l in self.links)
        )
        check_meshes(distinct.values())
        return meshes

    @cached_property
    def _mesh_dynamics(self) -> dict[int, tuple]:
        """The dynamics (`_link_dynamics`) of each distinct frame mesh, by
        its id, in one pass over them in tree order, which seeds each link's
        own unless it was read already. Qhull runs once per distinct mesh,
        and a bad hull raises what the first link to read it in that order
        raises on its own."""
        frames = self.frame_meshes
        distinct = {id(frames[i]): frames[i] for i in self.tree.order}
        dynamics = dict(zip(distinct, _link_dynamics(list(distinct.values()))))
        for link, frame in zip(self.links, frames):
            link.__dict__.setdefault("_dynamics", dynamics[id(frame)])
        return dynamics

    @cached_property
    def obj_records(self) -> tuple[tuple[bytes | None, bytes | None], ...]:
        """Indexed like `links`: the OBJ v and f records (`geometry.obj_text`
        without its object line), encoded, of each link's frame mesh and of
        its hull, None where it has no mesh or no hull. Reading them runs the
        dynamics pass (`_mesh_dynamics`). Each distinct frame mesh is
        formatted once, and its hull's v records take its own vertex tokens,
        as a hull keeps rows of its input bit for bit. They are kept, so a
        second export formats and encodes nothing."""
        dynamics = self._mesh_dynamics
        records: dict[int, tuple] = {}
        for key, frame in {id(f): f for f in self.frame_meshes}.items():
            hull, *_, rows = dynamics[key]
            if frame.is_empty:
                records[key] = (None, None)
                continue
            tokens = _format_floats(frame.vertices)
            records[key] = (
                _obj_records(tokens, frame.triangles).encode(),
                None if hull is None else _obj_records(tokens[rows], hull.triangles).encode(),
            )
        return tuple(records[id(frame)] for frame in self.frame_meshes)

    def link(self, link_id: str) -> EvaluatedLink:
        return self.links[self.tree.link_index[link_id]]

    def joint(self, joint_id: str) -> EvaluatedJoint:
        return self.joints[self.tree.joint_index[joint_id]]

    def children_of(self, link_id: str) -> list[EvaluatedJoint]:
        """Joints whose parent is `link_id`, by joint id."""
        return [self.joints[k] for k in self.tree.children[self.tree.link_index[link_id]]]

    def pivot_in_parent(self, joint: EvaluatedJoint) -> np.ndarray:
        """The joint's pivot, the child link's frame origin, in the parent link's frame."""
        return np.subtract(joint.pivot, self.link(joint.parent).origin)

    def default_config(self) -> dict:
        return {j.joint_id: j.default for j in self.joints}

    def adjacent_pairs(self) -> set:
        return {frozenset((j.parent, j.child)) for j in self.joints}


def evaluate_links(
    graph: NodeGraph, params: ParamVector | dict | None = None
) -> tuple[tuple[EvaluatedLink, ...], tuple[EvaluatedJoint, ...], str]:
    """Validate and evaluate a graph into its links, its joints and the root
    link id, as `Program.run` gives them, composite pairs chained: the
    program of its structure (`program_for`) runs on its numbers, once the
    parameter vector is checked against `graph.parameters` (a missing value
    raises MissingParameterError and one outside its entry RangeError)."""
    program = program_for(graph.structure)
    if not isinstance(params, ParamVector):
        params = ParamVector(params or {})
    return program.run(graph.numbers, graph.parameters.validate_vector(params))


def evaluate(graph: NodeGraph, params: ParamVector | dict | None = None) -> AssetInstance:
    """The AssetInstance of a graph under `params`, of category "asset" and
    without a blueprint. Pose it with its tree (`AssetInstance.tree`)."""
    if not isinstance(params, ParamVector):
        params = ParamVector(params or {})
    return AssetInstance("asset", params.seed, params, *evaluate_links(graph, params))
