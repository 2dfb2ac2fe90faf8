"""The procedural program representation: a typed DAG of geometry, math, joint,
duplication, and label nodes, recorded as evaluation reads it, with
validation, canonical serialization and the blueprint writer.

Geometry-typed ports carry articulated bodies (a plain primitive is a body with
one link and no joints), scalar ports carry numbers. A graph is mutable while
it is being built and should be treated as frozen once validated.

Validation is the one structural gate and the only place that looks for
cycles: `connect` checks a wire by the port rule (`_port_rule`), not what it
closes, and each literal is checked once, where its node is recorded
(`_split_params`). No rule of validation reads a numeric literal, so a
`NodeGraph` records each node as an op of its structure (the kind, the wires
and the non-numeric parameters) and, beside it, the node's numeric literals,
and validation reads the structure alone (`check_structure`): each op's local
rules, one depth-first pass that orders the ops and finds cycles, and one
symbolic walk over the ops the output depends on, which decides link
identity and rejects every structure that cannot become one kinematic tree.
`write_blueprint` writes the walk out as the blueprint and evaluation carries
out its decisions, so a structure that validates builds the tree its
blueprint describes. The patterns and the generators record their graphs with
`NodeGraph`'s builder methods; `artigen.evaluate` compiles each structure once.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import sys
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .errors import DocumentParseError, InvalidParameterError, PortTypeError, SchemaError
from .geometry import unit_vector
from .params import ParameterSpace

SCHEMA_VERSION = 1

GEOMETRY = "geometry"
SCALAR = "scalar"

PRIMITIVE = "primitive"
TRANSFORM = "transform"
MERGE = "merge"
SCALAR_MATH = "scalar_math"
SWITCH = "switch"
JOINT_REVOLUTE = "joint_revolute"
JOINT_PRISMATIC = "joint_prismatic"
DUPLICATE = "duplicate_joints_on_points"
SEMANTIC_LABEL = "semantic_label"
STORE_ATTRIBUTE = "store_attribute"

JOINT_KINDS = (JOINT_REVOLUTE, JOINT_PRISMATIC)

PRIMITIVE_SHAPES = ("box", "cylinder", "sphere", "rounded_box", "ngon_prism")
MATH_OPS = ("add", "sub", "mul", "div", "min", "max")

def whole_number(value: float) -> int | None:
    """`value` as an integer if it lies within 1e-9 of one, else None."""
    rounded = int(round(value))
    return rounded if abs(value - rounded) <= 1e-9 else None


@dataclass(frozen=True)
class ParamRef:
    """A node parameter that resolves against the ParamVector at evaluation time."""

    name: str


def link_set_relation(parent: frozenset, child: frozenset) -> str:
    """How a joint's child link set sits against its parent's: "equal",
    "nested" (a proper subset: a second joint onto an already-jointed pair),
    "overlapping" (shared links otherwise) or "disjoint"."""
    if child == parent:
        return "equal"
    if child < parent:
        return "nested"
    return "overlapping" if child & parent else "disjoint"


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    node_id: str | None = None

    def __str__(self):
        loc = f" [{self.node_id}]" if self.node_id else ""
        return f"{self.code}{loc}: {self.message}"


# --- node parameter schemas -------------------------------------------------

# Value kinds: scalar (number | ParamRef | wired), int, str, vec3, points.
# "scalar" parameters may be driven by a wired scalar port of the same name.


@dataclass(frozen=True)
class _ParamSpec:
    kind: str
    required: bool = False
    default: object = None
    choices: tuple | None = None


@dataclass(frozen=True)
class _KindSpec:
    params: dict
    geometry_ports: tuple = ()  # named geometry inputs, each of which must be wired
    dynamic_ports: str | None = None  # prefix for geometry port families
    output: str = GEOMETRY


_JOINT_PARAMS = {
    "pivot": _ParamSpec("vec3", required=True),
    "axis": _ParamSpec("vec3", required=True),
    "range_lo": _ParamSpec("scalar", required=True),
    "range_hi": _ParamSpec("scalar", required=True),
    "default": _ParamSpec("scalar", default=None),
    "joint_label": _ParamSpec("str", default=None),
    "parent_label": _ParamSpec("str", default=None),
    "child_label": _ParamSpec("str", default=None),
}

_KINDS: dict[str, _KindSpec] = {
    PRIMITIVE: _KindSpec(
        params={
            "shape": _ParamSpec("str", required=True, choices=PRIMITIVE_SHAPES),
            "size_x": _ParamSpec("scalar", default=1.0),
            "size_y": _ParamSpec("scalar", default=1.0),
            "size_z": _ParamSpec("scalar", default=1.0),
            "radius": _ParamSpec("scalar", default=0.5),
            "top_radius": _ParamSpec("scalar", default=None),
            "height": _ParamSpec("scalar", default=1.0),
            "segments": _ParamSpec("scalar", default=32.0),
            "sides": _ParamSpec("scalar", default=6.0),
            "bevel": _ParamSpec("scalar", default=0.0),
            "material": _ParamSpec("str", default=None),
        },
    ),
    TRANSFORM: _KindSpec(
        params={
            "translate_x": _ParamSpec("scalar", default=0.0),
            "translate_y": _ParamSpec("scalar", default=0.0),
            "translate_z": _ParamSpec("scalar", default=0.0),
            "rotate_axis": _ParamSpec("vec3", default=(0.0, 0.0, 1.0)),
            "rotate_angle": _ParamSpec("scalar", default=0.0),
        },
        geometry_ports=("geometry",),
    ),
    MERGE: _KindSpec(params={}, dynamic_ports="geometry_"),
    SCALAR_MATH: _KindSpec(
        params={
            "op": _ParamSpec("str", required=True, choices=MATH_OPS),
            "a": _ParamSpec("scalar", default=0.0),
            "b": _ParamSpec("scalar", default=0.0),
        },
        output=SCALAR,
    ),
    SWITCH: _KindSpec(
        params={"select": _ParamSpec("scalar", required=True)},
        dynamic_ports="option_",
    ),
    JOINT_REVOLUTE: _KindSpec(
        params=dict(_JOINT_PARAMS),
        geometry_ports=("parent", "child"),
    ),
    JOINT_PRISMATIC: _KindSpec(
        params=dict(_JOINT_PARAMS),
        geometry_ports=("parent", "child"),
    ),
    DUPLICATE: _KindSpec(
        params={
            "points": _ParamSpec("points", required=True),
            "count_param": _ParamSpec("str", default=None),
        },
        geometry_ports=("parent", "body"),
    ),
    SEMANTIC_LABEL: _KindSpec(
        params={"label": _ParamSpec("str", required=True)},
        geometry_ports=("geometry",),
    ),
    STORE_ATTRIBUTE: _KindSpec(
        params={
            "name": _ParamSpec("str", required=True),
            "value": _ParamSpec("int", required=True),
        },
        geometry_ports=("geometry",),
    ),
}

# Per kind, the parameters that only ever hold numeric literals.
_LITERAL_PARAMS = {
    kind: frozenset(n for n, p in spec.params.items() if p.kind in ("vec3", "points"))
    for kind, spec in _KINDS.items()
}
# Per kind, the scalar parameters that may be left unset (None).
_OPTIONAL_SCALARS = {
    kind: frozenset(n for n, p in spec.params.items() if p.kind == "scalar" and p.default is None)
    for kind, spec in _KINDS.items()
}
# Per kind, the scalar parameters whose float value is a numeric literal: all
# but a switch's selector, which is structure.
_NUMERIC_SCALARS = {
    kind: frozenset(n for n, p in spec.params.items() if p.kind == "scalar" and n != "select")
    for kind, spec in _KINDS.items()
}
# Per kind, the parameters that must be given, in schema order.
_REQUIRED = {kind: [n for n, p in s.params.items() if p.required] for kind, s in _KINDS.items()}


class _Literal:
    """Marks, in a graph's structure, an optional scalar parameter that holds a
    number: whether it is set is structure, its value is not."""

    def __repr__(self):
        return "#"


LITERAL = _Literal()


def _normalize_param(kind: str, name: str, spec: _ParamSpec, value):
    if isinstance(value, ParamRef):
        if spec.kind != "scalar":
            raise InvalidParameterError(
                f"{kind}.{name} of type {spec.kind} cannot be a parameter reference"
            )
        return value
    if spec.kind == "scalar":
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise InvalidParameterError(f"{kind}.{name} must be a number, got {value!r}")
        if not math.isfinite(float(value)):
            raise InvalidParameterError(f"{kind}.{name} must be finite")
        return float(value)
    if spec.kind == "int":
        if not isinstance(value, int) or isinstance(value, bool):
            raise InvalidParameterError(f"{kind}.{name} must be an integer, got {value!r}")
        return int(value)
    if spec.kind == "str":
        if not isinstance(value, str):
            raise InvalidParameterError(f"{kind}.{name} must be a string, got {value!r}")
        if spec.choices and value not in spec.choices:
            raise InvalidParameterError(
                f"{kind}.{name} must be one of {spec.choices}, got {value!r}"
            )
        return value
    if spec.kind == "vec3":
        try:
            vec = tuple(float(c) for c in value)
        except (TypeError, ValueError):
            raise InvalidParameterError(f"{kind}.{name} must be a 3-vector") from None
        if len(vec) != 3 or any(not math.isfinite(c) for c in vec):
            raise InvalidParameterError(f"{kind}.{name} must be a finite 3-vector")
        return vec
    if spec.kind == "points":
        try:
            pts = tuple(tuple(float(c) for c in p) for p in value)
        except (TypeError, ValueError):
            raise InvalidParameterError(f"{kind}.{name} must be a list of 3-vectors") from None
        if any(len(p) != 3 or not all(map(math.isfinite, p)) for p in pts):
            raise InvalidParameterError(f"{kind}.{name} must be a list of finite 3-vectors")
        return pts
    raise InvalidParameterError(f"unhandled parameter kind {spec.kind}")


# How far from 1 the squared length of a normalized axis (`unit_vector`) can
# round; normalizing such an axis again can move it by an ulp.
_UNIT_ROUNDING = 4 * sys.float_info.epsilon


def _split_params(kind: str, params: dict, error: type) -> tuple[tuple, dict]:
    """The one literal check of every node a `NodeGraph` records
    (`NodeGraph._add`), and the node's parameters as (structure, numbers):
    the non-numeric values by name, in the order given, and the numeric
    literals by name. A switch's literal selector is structure, as it picks
    the option that is walked, and an optional scalar that holds a number
    leaves LITERAL in the structure. None values are left out, as they mean
    the parameter is unset.

    An unknown or missing name raises `error`, and each given value is
    checked and coerced by `_normalize_param` (a None is absent where None is
    the default), a joint axis scaled to unit length and a transform's
    rotate_axis checked; bad values raise InvalidParameterError."""
    specs = _KINDS[kind].params
    scalars = _NUMERIC_SCALARS[kind]
    literal = _LITERAL_PARAMS[kind]
    optional = _OPTIONAL_SCALARS[kind]
    structure = []
    numbers = {}
    for name, value in params.items():
        if type(value) is float and name in scalars and math.isfinite(value):
            pass  # a finite numeric literal, as nearly every value is
        else:
            spec = specs.get(name)
            if spec is None:
                raise error(f"unknown parameters for {kind}: {sorted(set(params) - set(specs))}")
            if value is not None or spec.default is not None:
                value = _normalize_param(kind, name, spec, value)
            if value is None:
                continue
            if name not in literal and (name not in scalars or isinstance(value, ParamRef)):
                structure.append((name, value))
                continue
        numbers[name] = value
        if name in optional:
            structure.append((name, LITERAL))
    for name in _REQUIRED[kind]:
        if params.get(name) is None:
            raise error(f"{kind} requires parameter {name!r}")
    if kind in JOINT_KINDS:  # a vec3 axis is always literal
        numbers["axis"] = unit_vector(numbers["axis"], f"{kind}.axis")
    elif kind == TRANSFORM and "rotate_axis" in numbers:
        unit_vector(numbers["rotate_axis"], "transform.rotate_axis")
    return tuple(structure), numbers


def _filled_params(kind: str, structure, numbers: dict) -> dict:
    """Every parameter of a `kind` node from its op's parameters and its
    numbers, the rest defaulted, in schema order: the inverse of
    `_split_params`."""
    params = {name: spec.default for name, spec in _KINDS[kind].params.items()}
    params.update(item for item in structure if item[1] is not LITERAL)
    params.update(numbers)
    return params


@dataclass(frozen=True)
class Node:
    """A read-only view of one node: every parameter, the unset ones at their
    defaults, in schema order, and its wires as port -> source node id."""

    node_id: str
    kind: str
    params: Mapping
    inputs: Mapping


@functools.lru_cache(maxsize=1024)
def port_type(kind: str, port: str) -> str | None:
    """Type of an input port on nodes of `kind`, or None if no such port."""
    spec = _KINDS[kind]
    if port in spec.geometry_ports:
        return GEOMETRY
    if spec.dynamic_ports and port.startswith(spec.dynamic_ports):
        suffix = port[len(spec.dynamic_ports):]
        if suffix.isdigit():
            return GEOMETRY
    pspec = spec.params.get(port)
    if pspec is not None and pspec.kind == "scalar":
        return SCALAR
    return None


def _port_rule(node_id: str, kind: str, port: str, src, src_kind: str | None) -> Diagnostic | None:
    """The port rule: the diagnostic for wiring `src` (a `src_kind` node, or
    None where there is none) into `port` of a `kind` node; None if sound."""
    if src_kind is None:
        return Diagnostic("missing-node", f"port {port!r} wired to missing node {src!r}", node_id)
    ptype = port_type(kind, port)
    if ptype is None:
        return Diagnostic("bad-port", f"no port {port!r} on kind {kind}", node_id)
    if _KINDS[src_kind].output != ptype:
        message = f"{src_kind} output wired into {ptype} port {port!r}"
        return Diagnostic("port-type", message, node_id)
    return None


def _schema_ordered(kind: str, params: dict) -> dict:
    """`params` with the names of `kind`'s schema first, in schema order."""
    return {**{name: params[name] for name in _KINDS[kind].params if name in params}, **params}


class _Missing(NamedTuple):
    """A node that a wire or the output names and the graph lacks, kept for
    its diagnostic."""

    node_id: object


class NodeGraph:
    """A graph of nodes plus the declared parameter space of its generator;
    `validate` accepts only a DAG. `add_node`, the builder methods (`box` ...
    `clamp01`) and `deserialize` each record a node through `_add`, as an op
    of `structure` and its literals in `numbers`, so a loaded document has the
    structure of the graph that wrote it. `nodes` and `node(id)` are
    read-only views."""

    def __init__(self, parameters: ParameterSpace | None = None):
        self.parameters = parameters if parameters is not None else ParameterSpace()
        self.output_node: str | None = None
        self.numbers: list[dict] = []  # per node, its numeric literals by name
        self._ops: list[tuple] = []  # per node, (kind, wires, parameters)
        self._ids: list[str] = []
        self._index: dict[str, int] = {}  # node id -> op index
        self._named = False  # whether some node's id is not n<its index>
        self._missing: set = set()  # ids that wires name and no node has
        self._next_id = 0

    @property
    def structure(self) -> tuple:
        """(output op, declared parameter names, node ids or None for n0, n1,
        ..., ops), which is all that validation and compiling read. Each op
        is (kind, wires, parameters): the wires as (port, op index) pairs
        sorted by port, the parameters as `_split_params` gives them. It holds
        no number but a switch's literal selector; a wire from a missing node
        and a missing output hold `_Missing`."""
        output = self.output_node
        if output is not None:
            output = self._index.get(output, _Missing(output))
        ids = tuple(self._ids) if self._named else None
        return (output, tuple(self.parameters.entries), ids, tuple(self._ops))

    # --- construction -------------------------------------------------------

    def _source(self, node_id: str, kind: str, port: str, src) -> int:
        """The op index of `src`, checked by the port rule as a wire into `port`
        of node `node_id` of `kind`: InvalidParameterError for a missing
        source, PortTypeError otherwise."""
        source = self._index.get(src)
        src_kind = None if source is None else self._ops[source][0]
        problem = _port_rule(node_id, kind, port, src, src_kind)
        if problem is not None:
            error = InvalidParameterError if problem.code == "missing-node" else PortTypeError
            raise error(f"{node_id}: {problem.message}")
        return source

    def _add(self, kind: str, params: dict, wires=(), node_id=None, error=InvalidParameterError) -> str:
        """Record one `kind` node by the literal check (an unknown or missing
        name raises `error`), its (port, source id) wires by the port rule;
        its id, `n<k>` unless given."""
        structure, numbers = _split_params(kind, params, error)
        index = len(self._ops)
        if node_id is None:
            node_id = f"n{self._next_id}"
        inputs = []
        for port, src in wires:
            inputs.append((port, self._source(node_id, kind, port, src)))
        if len(inputs) > 1:
            inputs.sort()
        self._ops.append((kind, tuple(inputs), structure))
        self.numbers.append(numbers)
        self._ids.append(node_id)
        self._index[node_id] = index
        self._next_id += 1  # `deserialize` sets it clear of the ids it loads
        if node_id in self._missing:  # wires that named this id now reach it
            self._missing.discard(node_id)
            gone = _Missing(node_id)
            self._ops = [
                (k, tuple((port, index if src == gone else src) for port, src in w), p)
                for k, w, p in self._ops
            ]
        return node_id

    def add_node(self, kind: str, params: dict | None = None) -> str:
        if kind not in _KINDS:
            raise InvalidParameterError(f"unknown node kind {kind!r}")
        return self._add(kind, _schema_ordered(kind, params or {}))

    def connect(self, src: str, dst: str, port: str) -> None:
        """Wire src's output into (dst, port). Rejects missing nodes and type
        mismatches; a wire that closes a cycle is left to `validate`."""
        if dst not in self._index:
            raise InvalidParameterError(f"unknown target node {dst!r}")
        index = self._index[dst]
        kind, wires, params = self._ops[index]
        wires = dict(wires) | {port: self._source(dst, kind, port, src)}
        self._ops[index] = (kind, tuple(sorted(wires.items())), params)

    def set_output(self, node_id: str) -> None:
        if node_id not in self._index:
            raise InvalidParameterError(f"unknown node {node_id!r}")
        self.output_node = node_id

    def node(self, node_id: str) -> Node:
        """A read-only view of one node."""
        index = self._index[node_id]
        kind, wires, params = self._ops[index]
        params = _filled_params(kind, params, self.numbers[index])
        inputs = {
            port: src.node_id if isinstance(src, _Missing) else self._ids[src] for port, src in wires
        }
        return Node(node_id, kind, MappingProxyType(params), MappingProxyType(inputs))

    @property
    def nodes(self) -> Mapping[str, Node]:
        """Read-only views of every node by id, in recording order."""
        return MappingProxyType({node_id: self.node(node_id) for node_id in self._ids})

    # --- validation -----------------------------------------------------------

    def validate(self) -> list[Diagnostic]:
        """Composition diagnostics; an empty list means the graph is exportable
        and has a kinematic blueprint. Each call checks the graph as it is
        now, by the check that compiling runs (`check_structure`)."""
        return check_structure(self.structure)[0]

    # --- serialization --------------------------------------------------------

    def serialize(self) -> str:
        """Canonical, byte-deterministic JSON document for this graph."""
        nodes = []
        for node in self.nodes.values():
            params = {}
            for name, value in node.params.items():
                spec = _KINDS[node.kind].params[name]
                if value is None or value == spec.default:
                    continue
                params[name] = _encode_param(value)
            nodes.append(
                {
                    "id": node.node_id,
                    "kind": node.kind,
                    "params": params,
                    "inputs": dict(sorted(node.inputs.items())),
                }
            )
        doc = {
            "schema": SCHEMA_VERSION,
            "nodes": nodes,
            "output": self.output_node,
            "parameters": self.parameters.to_json_list(),
        }
        return json.dumps(doc, sort_keys=True, indent=1) + "\n"

    @staticmethod
    def deserialize(text: str) -> "NodeGraph":
        """Parse a graph document, recording each node under its own id;
        structural problems are left for validate(). A joint axis of unit
        length within rounding (_UNIT_ROUNDING), as `serialize` writes one,
        is kept as it is, so that a written graph loads to the same numbers;
        any other is scaled to unit length, as a built one is."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DocumentParseError(
                f"malformed graph document: {exc.msg}", line=exc.lineno, column=exc.colno
            ) from None
        if not isinstance(doc, dict):
            raise DocumentParseError("graph document must be a JSON object")
        unknown = set(doc) - {"schema", "nodes", "output", "parameters"}
        if unknown:
            raise SchemaError(f"unknown document keys: {sorted(unknown)}")
        if doc.get("schema") != SCHEMA_VERSION:
            raise SchemaError(f"unsupported schema version {doc.get('schema')!r}")
        graph = NodeGraph(ParameterSpace.from_json_list(doc.get("parameters", [])))
        wiring = []
        for entry in doc.get("nodes", []):
            if not isinstance(entry, dict):
                raise SchemaError("node entries must be objects")
            unknown = set(entry) - {"id", "kind", "params", "inputs"}
            if unknown:
                raise SchemaError(f"unknown node keys: {sorted(unknown)}")
            kind = entry.get("kind")
            if kind not in _KINDS:
                raise SchemaError(f"unknown node kind {kind!r}")
            node_id = entry.get("id")
            if not isinstance(node_id, str) or node_id in graph._index:
                raise SchemaError(f"bad or duplicate node id {node_id!r}")
            raw = entry.get("params", {})
            if not isinstance(raw, dict):
                raise SchemaError(f"node {node_id} params must be an object")
            decoded = {name: _decode_param(value) for name, value in raw.items()}
            graph._add(kind, _schema_ordered(kind, decoded), (), node_id, SchemaError)
            if kind in JOINT_KINDS:  # a stored unit axis is kept bit for bit
                axis = tuple(float(c) for c in decoded["axis"])
                if abs(sum(c * c for c in axis) - 1.0) <= _UNIT_ROUNDING:
                    graph.numbers[-1]["axis"] = axis
            inputs = entry.get("inputs", {})
            if not isinstance(inputs, dict) or not all(isinstance(v, str) for v in inputs.values()):
                raise SchemaError(f"node {node_id} inputs must map ports to node ids")
            wiring.append(inputs)
        output = doc.get("output")
        if output is not None and not isinstance(output, str):
            raise SchemaError(f"output must be a node id or null, got {output!r}")

        def at(node_id):
            if node_id in graph._index:
                return graph._index[node_id]
            graph._missing.add(node_id)
            return _Missing(node_id)

        for index, inputs in enumerate(wiring):
            kind, _, params = graph._ops[index]
            wires = tuple(sorted((port, at(src)) for port, src in inputs.items()))
            graph._ops[index] = (kind, wires, params)
        graph.output_node = output
        graph._named = any(node_id != f"n{i}" for i, node_id in enumerate(graph._ids))
        numeric = [int(n[1:]) for n in graph._ids if n.startswith("n") and n[1:].isdigit()]
        graph._next_id = max(numeric, default=-1) + 1  # clear of the nodes' own ids
        return graph

    def __eq__(self, other):
        """Graphs are equal when their canonical documents are."""
        return isinstance(other, NodeGraph) and self.serialize() == other.serialize()

    # --- building: geometry ----------------------------------------------------

    def _placed(self, node, at, rotate_axis=None, rotate_angle=0.0):
        if at == (0, 0, 0) and rotate_angle == 0.0:
            return node
        params = {"translate_x": at[0], "translate_y": at[1], "translate_z": at[2]}
        if rotate_angle != 0.0:
            params["rotate_axis"] = rotate_axis or (0, 0, 1)
            params["rotate_angle"] = rotate_angle
        return self._add(TRANSFORM, params, (("geometry", node),))

    def box(self, dims, at=(0, 0, 0), material=None, rotate_axis=None, rotate_angle=0.0):
        node = self._add(
            PRIMITIVE,
            {"shape": "box", "size_x": dims[0], "size_y": dims[1], "size_z": dims[2], "material": material},
        )
        return self._placed(node, at, rotate_axis, rotate_angle)

    def rounded_box(self, dims, bevel, at=(0, 0, 0), material=None):
        node = self._add(
            PRIMITIVE,
            {"shape": "rounded_box", "size_x": dims[0], "size_y": dims[1], "size_z": dims[2],
             "bevel": bevel, "material": material},
        )
        return self._placed(node, at)

    def cylinder(self, radius, height, at=(0, 0, 0), segments=32, material=None,
                 rotate_axis=None, rotate_angle=0.0):
        node = self._add(
            PRIMITIVE,
            {"shape": "cylinder", "radius": radius, "height": height, "segments": segments,
             "material": material},
        )
        return self._placed(node, at, rotate_axis, rotate_angle)

    def prism(self, radius, height, sides, at=(0, 0, 0), top_radius=None, material=None):
        node = self._add(
            PRIMITIVE,
            {"shape": "ngon_prism", "radius": radius, "top_radius": top_radius, "height": height,
             "sides": sides, "material": material},
        )
        return self._placed(node, at)

    def sphere(self, radius, at=(0, 0, 0), segments=24, material=None):
        node = self._add(
            PRIMITIVE, {"shape": "sphere", "radius": radius, "segments": segments, "material": material}
        )
        return self._placed(node, at)

    def merge(self, *nodes):
        return self._add(MERGE, {}, [(f"geometry_{i}", node) for i, node in enumerate(nodes)])

    def label(self, node, name):
        return self._add(SEMANTIC_LABEL, {"label": name}, (("geometry", node),))

    # --- building: joints --------------------------------------------------------

    def _joint(self, kind, parent, child, pivot, axis, lo, hi, default=None, labels=()):
        params = {"pivot": pivot, "axis": axis, "range_lo": lo, "range_hi": hi}
        if default is not None:
            params["default"] = default
        for key, value in zip(("joint_label", "parent_label", "child_label"), labels):
            if value is not None:
                params[key] = value
        return self._add(kind, params, (("parent", parent), ("child", child)))

    def revolute(self, parent, child, pivot, axis, lo, hi, default=None, labels=()):
        return self._joint(JOINT_REVOLUTE, parent, child, pivot, axis, lo, hi, default, labels)

    def prismatic(self, parent, child, pivot, axis, lo, hi, default=None, labels=()):
        return self._joint(JOINT_PRISMATIC, parent, child, pivot, axis, lo, hi, default, labels)

    def fixed(self, parent, child, pivot, labels=()):
        """Immovable attachment expressed as a zero-range hinge."""
        return self._joint(JOINT_REVOLUTE, parent, child, pivot, (0, 0, 1), 0.0, 0.0, 0.0, labels)

    def duplicate(self, parent, body, points, count_param=None):
        params = {"points": list(points), "count_param": count_param}
        return self._add(DUPLICATE, params, (("parent", parent), ("body", body)))

    # --- building: scalars -------------------------------------------------------

    def math(self, op, a, b):
        """ScalarMath node; a and b may be numbers, ParamRefs, or scalar node ids."""
        params = {"op": op}
        wires = []
        for name, value in (("a", a), ("b", b)):
            if isinstance(value, str):  # upstream scalar node
                params[name] = 0.0
                wires.append((name, value))
            else:
                params[name] = value
        return self._add(SCALAR_MATH, params, wires)

    def ref(self, name) -> ParamRef:
        return ParamRef(name)

    def switch(self, select, options):
        """Switch node; `select` may be a number, ParamRef, or scalar node id."""
        params = {"select": 0.0 if isinstance(select, str) else select}
        wires = [("select", select)] if isinstance(select, str) else []
        wires.extend((f"option_{i}", opt) for i, opt in enumerate(options))
        return self._add(SWITCH, params, wires)

    def clamp01(self, value):
        """min(1, max(0, value)) as scalar nodes."""
        return self.math("min", 1.0, self.math("max", 0.0, value))


def _encode_param(value):
    if isinstance(value, ParamRef):
        return {"$param": value.name}
    if isinstance(value, tuple):
        return [_encode_param(v) for v in value]
    return value


def _decode_param(value):
    if isinstance(value, dict):
        if set(value) == {"$param"} and isinstance(value["$param"], str):
            return ParamRef(value["$param"])
        raise SchemaError(f"unknown parameter encoding {value!r}")
    if isinstance(value, list):
        return [_decode_param(v) for v in value]
    return value


# --- the check ----------------------------------------------------------------


class _Op(NamedTuple):
    """One op of a graph's structure, as the check reads it."""

    node_id: str
    kind: str
    inputs: dict  # port -> op index, or _Missing
    params: dict  # as `_split_params` gives them


def _ops(structure: tuple) -> list[_Op]:
    """A graph structure's ops, each with its node id."""
    _, _, ids, ops = structure
    ids = ids or [f"n{i}" for i in range(len(ops))]
    return [
        _Op(nid, kind, dict(wires), dict(params)) for nid, (kind, wires, params) in zip(ids, ops)
    ]


def check_structure(structure: tuple, ops: list[_Op] | None = None) -> tuple[list[Diagnostic], _SymBody | None, dict]:
    """The diagnostics of a graph's structure (`NodeGraph.structure`, whose
    ops are `ops` when given) and, with none, the output's symbolic body,
    which `write_blueprint` writes out as the blueprint, and the walk's
    identity decisions by op index, which evaluation carries out.

    The local rules (wiring, ports, inputs, parameter names, literal
    selectors, output kind) check every op, and the cycle check covers them
    all. Only a structure that passes them gets the symbolic walk over the
    output's dependencies, whose rejections are the link-set and shape
    diagnostics."""
    output, declared, _, _ = structure
    ops = _ops(structure) if ops is None else ops
    diags: list[Diagnostic] = []
    if output is None:
        diags.append(Diagnostic("no-output", "graph has no output node"))
    elif isinstance(output, _Missing):
        diags.append(Diagnostic("missing-node", f"output node {output.node_id!r} missing"))
    elif _KINDS[ops[output].kind].output != GEOMETRY:
        message = f"output is a {ops[output].kind} node"
        diags.append(Diagnostic("output-not-geometry", message, ops[output].node_id))

    for op in ops:
        spec = _KINDS[op.kind]
        for port, src in op.inputs.items():
            source = (src.node_id, None) if isinstance(src, _Missing) else ops[src][:2]
            problem = _port_rule(op.node_id, op.kind, port, *source)
            if problem is not None:
                diags.append(problem)
        for port in spec.geometry_ports:
            if port not in op.inputs:
                diags.append(Diagnostic("missing-input", f"port {port!r} is not wired", op.node_id))
        if spec.dynamic_ports:
            idxs = sorted(
                int(p[len(spec.dynamic_ports):])
                for p in op.inputs
                if p.startswith(spec.dynamic_ports) and p[len(spec.dynamic_ports):].isdigit()
            )
            if not idxs:
                diags.append(Diagnostic("missing-input", f"{op.kind} has no inputs", op.node_id))
            elif idxs != list(range(len(idxs))):
                message = f"{op.kind} inputs must be contiguous"
                diags.append(Diagnostic("missing-input", message, op.node_id))
        for pname, value in op.params.items():
            if isinstance(value, ParamRef) and value.name not in declared:
                message = f"{op.kind}.{pname} references undeclared parameter {value.name!r}"
                diags.append(Diagnostic("unknown-param", message, op.node_id))
        count_param = op.params.get("count_param") if op.kind == DUPLICATE else None
        if count_param is not None and count_param not in declared:
            message = f"{op.kind}.count_param names undeclared parameter {count_param!r}"
            diags.append(Diagnostic("unknown-param", message, op.node_id))
        if op.kind == SWITCH:
            sel = op.params.get("select")
            n_opts = sum(1 for p in op.inputs if p.startswith("option_"))
            if isinstance(sel, float) and "select" not in op.inputs:
                pick = whole_number(sel)
                if pick is None or not 0 <= pick < max(n_opts, 1):
                    message = f"literal selector {sel} is not an option index 0..{n_opts - 1}"
                    diags.append(Diagnostic("switch-selector-range", message, op.node_id))

    order = _walk_order(ops, output)
    if order is None:
        diags.append(Diagnostic("graph-cycle", "graph contains a cycle"))
    if diags:
        return diags, None, {}
    walk = _SymbolicWalk(ops)
    body = walk.run(order, output)
    return walk.diagnostics, body, walk.decisions


def _walk_order(ops: list[_Op], output) -> list[int] | None:
    """The output and every op it depends on, each after its inputs; None if
    the ops have a cycle anywhere.

    One iterative depth-first pass starts from the output and then from every
    other op, so the output's dependencies lead the order it finishes ops in.
    A missing output and wires from missing nodes are stepped over: the local
    rules report them. The cycle check follows every wire, but a switch with
    a literal selector depends only on the option it picks, so the others
    are left out of the order."""
    order: list[int] = []
    finished: dict[int, bool] = {}  # False while the op is on the path

    def visit(start: int) -> bool:
        if start in finished:
            return True
        finished[start] = False
        path = [(start, iter(ops[start].inputs.values()))]
        while path:
            i, inputs = path[-1]
            for src in inputs:
                if isinstance(src, _Missing) or finished.get(src):
                    continue
                if src in finished:  # on the path: a cycle
                    return False
                finished[src] = False
                path.append((src, iter(ops[src].inputs.values())))
                break
            else:
                path.pop()
                finished[i] = True
                order.append(i)
        return True

    if type(output) is int and not visit(output):
        return None
    used = list(order)
    if not all(map(visit, range(len(ops)))):
        return None
    needed = {output}
    for i in reversed(used):  # each consumer before its inputs
        if i in needed:
            picked = _picked_option(ops[i])
            needed.update(ops[i].inputs.values() if picked is None else (picked,))
    return [i for i in used if i in needed]


# --- the symbolic walk ----------------------------------------------------------


class _Rejected(Exception):
    """A node that the symbolic walk cannot place in one kinematic tree."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class _SymLink(NamedTuple):
    token: int
    source: str
    label: str | None
    options: tuple = ()  # a plain switch's option links: it is the selected one


class _SymJoint(NamedTuple):
    joints: tuple[_Op, ...]  # the joint ops; more than one marks a composite pair
    child: object  # _SymBody | _SymVariant


class _SymRepeat(NamedTuple):
    count_param: str | None
    attachments: tuple  # joints hanging off the anchor, replicated per point
    static_source: str | None  # jointless bodies merge geometry into the parent


class _SymVariantJoint(NamedTuple):
    switch: _Op
    options: tuple  # per switch option, its one _SymJoint, or None


class _SymBody(NamedTuple):
    root: _SymLink
    attachments: tuple = ()


class _SymVariant(NamedTuple):
    switch: _Op
    options: tuple


def _picked_option(op: _Op):
    """The op index of the option that a switch's literal selector picks;
    None when the selector is a parameter, wired or out of range."""
    select = op.params.get("select")
    if op.kind != SWITCH or "select" in op.inputs or not isinstance(select, float):
        return None
    return op.inputs.get(f"option_{whole_number(select)}")


def _port_family(op: _Op, prefix: str) -> tuple[int, ...]:
    """The sources wired to `prefix`0, `prefix`1, ... in port order."""
    sources, inputs = [], op.inputs
    while (src := inputs.get(f"{prefix}{len(sources)}")) is not None:
        sources.append(src)
    return tuple(sources)


class _SymbolicWalk:
    """Symbolic evaluation of the geometry ops that a structure's output
    depends on, for a structure that passed the local rules.

    Numeric values are not read, so every graph a generator builds walks to
    one structure. Switches over articulated bodies become variants and
    duplicate nodes repeat groups. The walk decides link identity, and
    evaluation carries out its `decisions` (by op index): a transform copies
    every link, a merge fuses its inputs' roots into a new link and copies an
    input that shares links with an earlier one under any selection, a switch
    is its selected option, and a duplicate merges static geometry unless a
    selection puts a link below its body's root. A copy of a switch variant
    copies what its options share once, so they still share it. A joint adds
    a new child, or pairs with a joint into a child the parent holds, when
    `link_set_relation` finds every pair of their possible link sets disjoint,
    or nested. A node that cannot join one kinematic tree becomes a
    Diagnostic, and the nodes downstream of it are not walked."""

    def __init__(self, ops: list[_Op]):
        self.ops = ops
        self.values: dict[int, object] = {}
        self.decisions: dict[int, object] = {}  # op index -> its identity decision
        self.diagnostics: list[Diagnostic] = []
        self._factored: dict[int, _SymBody] = {}
        self._tokens: dict[int, tuple] = {}  # id -> (value, its tokens)
        self.fresh_token = itertools.count(1).__next__  # link tokens in creation order

    def run(self, order: list[int], output: int) -> _SymBody | None:
        """Walk `order`, the output's dependencies each after its inputs and
        the output last; the output's body, or None when any op was
        rejected."""
        failed: set[int] = set()
        for i in order:
            op = self.ops[i]
            visit = getattr(self, f"_visit_{op.kind}", None)
            if visit is None:  # scalar ops make no body
                continue
            if failed and not failed.isdisjoint(op.inputs.values()):
                failed.add(i)
                continue
            try:
                self.values[i] = visit(i, op)
            except _Rejected as exc:
                failed.add(i)
                self.diagnostics.append(Diagnostic(exc.code, str(exc), op.node_id))
        if self.diagnostics:
            return None
        try:
            return self.as_body(self.values[output])
        except _Rejected as exc:
            self.diagnostics.append(Diagnostic(exc.code, str(exc), self.ops[output].node_id))
            return None

    def as_body(self, value) -> _SymBody:
        """`value` as one body: a variant factors into its shared root plus a
        variant joint, memoized so that repeated consumers share attachments."""
        if isinstance(value, _SymBody):
            return value
        key = id(value)
        if key not in self._factored:
            self._factored[key] = _factor_variant(value)
        return self._factored[key]

    def tokens(self, value) -> frozenset:
        """Every link token `value` can evaluate to, under any switch options;
        memoized per value (which the memo keeps alive, so ids stay unique),
        since bodies share attachments."""
        if isinstance(value, _SymBody) and not value.attachments:
            value = value.root
        if isinstance(value, _SymLink) and not value.options:
            return frozenset((value.token,))
        hit = self._tokens.get(id(value))
        if hit is None:
            tokens = frozenset().union(*map(self.tokens, _parts(value)[1]))
            hit = self._tokens[id(value)] = (value, tokens)
        return hit[1]

    def _visit_primitive(self, i, op):
        return _SymBody(_SymLink(self.fresh_token(), op.node_id, None))

    def _visit_semantic_label(self, i, op):
        return _relabel(self.values[op.inputs["geometry"]], op.params["label"], force=True)

    def _visit_store_attribute(self, i, op):
        return self.values[op.inputs["geometry"]]

    def _visit_transform(self, i, op):
        return self._retoken(self.values[op.inputs["geometry"]])

    def _retoken(self, value):
        """`value` with every link new, as a copy made in evaluation. A link
        token or an attachment that switch options share is copied once, so
        the copies share it too, as `_factor_variant` needs."""
        if isinstance(value, _SymBody) and not value.attachments:  # one link
            return _SymBody(_SymLink(self.fresh_token(), value.root.source, value.root.label))
        tokens: dict[int, int] = {}  # old token -> new
        copies: dict[int, object] = {}  # id of an attachment -> its copy

        def body(value):
            if isinstance(value, _SymVariant):
                return _SymVariant(value.switch, tuple(map(body, value.options)))
            root = value.root
            if root.token not in tokens:
                tokens[root.token] = self.fresh_token()
            root = _SymLink(tokens[root.token], root.source, root.label)
            return _SymBody(root, tuple(map(attachment, value.attachments)))

        def attachment(att):
            copy = copies.get(id(att))
            if copy is None:
                if isinstance(att, _SymJoint):
                    copy = _SymJoint(att.joints, body(att.child))
                elif isinstance(att, _SymRepeat):
                    copy = att._replace(attachments=tuple(map(attachment, att.attachments)))
                else:
                    options = tuple(o and attachment(o) for o in att.options)
                    copy = _SymVariantJoint(att.switch, options)
                copies[id(att)] = copy
            return copy

        return body(value)

    def _visit_merge(self, i, op):
        bodies, copied, seen = [], [], set()
        for src in _port_family(op, "geometry_"):
            value = self.values[src]
            if isinstance(value, _SymVariant):
                message = "merge cannot take switch variants with joints"
                raise _Rejected("switch-variant-merge", message)
            copied.append(not seen.isdisjoint(self.tokens(value)))
            value = self._retoken(value) if copied[-1] else value
            seen |= self.tokens(value)
            bodies.append(value)
        self.decisions[i] = tuple(copied)
        label = next((b.root.label for b in bodies if b.root.label), None)
        atts = tuple(a for b in bodies for a in b.attachments)
        return _SymBody(_SymLink(self.fresh_token(), op.node_id, label), atts)

    def _visit_switch(self, i, op):
        picked = _picked_option(op)
        if picked is not None:
            return self.values[picked]
        sources = _port_family(op, "option_")
        if len(set(sources)) == 1:  # every selection yields that one op's value
            return self.values[sources[0]]
        options = [self.values[src] for src in sources]
        if all(isinstance(o, _SymBody) and not o.attachments for o in options):
            labels = {o.root.label for o in options}
            label = labels.pop() if len(labels) == 1 else None
            roots = tuple(o.root for o in options)
            return _SymBody(_SymLink(self.fresh_token(), op.node_id, label, roots))
        return _SymVariant(op, tuple(options))

    def _visit_joint(self, i, op):
        parent = self.as_body(self.values[op.inputs["parent"]])
        child = self.values[op.inputs["child"]]
        relations = set()
        if not self.tokens(parent).isdisjoint(self.tokens(child)):
            for parent_links in _link_sets(parent):
                relations.update(link_set_relation(parent_links, c) for c in _link_sets(child))
        if "equal" in relations:
            raise _Rejected("joint-self-loop", "joint child geometry is also its parent geometry")
        if "overlapping" in relations:
            raise _Rejected(
                "joint-link-overlap", "joint parent and child share links without being nested"
            )
        if "nested" in relations and "disjoint" in relations:
            raise _Rejected(
                "switch-variant-joint",
                "joint parent and child are nested under some switch selections and apart under others",
            )
        self.decisions[i] = "nested" in relations  # a second joint into a child the parent holds
        if self.decisions[i]:
            return _append_composite(parent, child, op)
        parent = _relabel(parent, op.params.get("parent_label"))
        child = _relabel(child, op.params.get("child_label"))
        return _SymBody(parent.root, parent.attachments + (_SymJoint((op,), child),))

    _visit_joint_revolute = _visit_joint_prismatic = _visit_joint

    def _visit_duplicate_joints_on_points(self, i, op):
        parent = self.as_body(self.values[op.inputs["parent"]])
        body = self.values[op.inputs["body"]]
        if isinstance(body, _SymVariant):
            message = "duplicate cannot replicate switch variants"
            raise _Rejected("switch-variant-duplicate", message)
        count_param = op.params.get("count_param")
        self.decisions[i] = self.tokens(body) == _root_tokens(body)  # static: no link below the root
        if self.decisions[i]:
            group = _SymRepeat(count_param, (), body.root.source)
        else:
            group = _SymRepeat(count_param, self._retoken(body).attachments, None)
        return _SymBody(parent.root, parent.attachments + (group,))


def _append_composite(parent: _SymBody, child, joint: _Op) -> _SymBody:
    """`parent` with `joint` added to its joint into `child`'s root: the
    second joint of a pair that `parent` already holds."""
    if not _root_tokens(parent).isdisjoint(_root_tokens(child)):
        raise _Rejected("joint-self-loop", "joint child is its parent's root link")
    if isinstance(child, _SymBody):
        for k, att in enumerate(parent.attachments):
            if (
                isinstance(att, _SymJoint)
                and isinstance(att.child, _SymBody)
                and att.child.root.token == child.root.token
            ):
                composite = _SymJoint(att.joints + (joint,), att.child)
                atts = parent.attachments[:k] + (composite,) + parent.attachments[k + 1:]
                return _SymBody(parent.root, atts)
    raise _Rejected("joint-two-parents", "joint would give a link a second parent")


def _root_tokens(value) -> set[int]:
    """The tokens that the root link of `value` can be, under any options."""
    if isinstance(value, _SymVariant):
        return set().union(*map(_root_tokens, value.options))
    link = value.root if isinstance(value, _SymBody) else value
    return set().union(*map(_root_tokens, link.options)) if link.options else {link.token}


def _relabel(value, label: str | None, force: bool = False):
    """`value` with `label` on its root (on each option's root), where the
    root has no label yet or `force` is set."""
    if label is None:
        return value
    if isinstance(value, _SymVariant):
        return _SymVariant(value.switch, tuple(_relabel(o, label, force) for o in value.options))
    if force or value.root.label is None:
        return _SymBody(value.root._replace(label=label), value.attachments)
    return value


def _parts(value) -> tuple[bool, tuple]:
    """Whether `value` evaluates to one of its parts (a switch), and the
    parts; otherwise it evaluates to all of them."""
    if isinstance(value, (_SymVariant, _SymVariantJoint, _SymLink)):
        return True, value.options
    if isinstance(value, _SymBody):
        return False, (value.root,) + value.attachments
    if isinstance(value, _SymRepeat):
        return False, value.attachments
    if isinstance(value, _SymJoint):
        return False, (value.child,)
    return False, ()  # an option that adds no joint


def _link_sets(value) -> set[frozenset]:
    """The link-token sets `value` can evaluate to, one per choice of options."""
    if isinstance(value, _SymLink) and not value.options:
        return {frozenset((value.token,))}
    choose, parts = _parts(value)
    if choose:
        return set().union(*map(_link_sets, parts))
    sets = {frozenset()}
    for part in parts:
        sets = {a | b for a in sets for b in _link_sets(part)}
    return sets


def _factor_variant(variant: _SymVariant) -> _SymBody:
    """Rewrite a switch over bodies that share one root link as that root plus
    a variant joint (one optional joint/subtree per branch)."""
    options = [o for o in variant.options if isinstance(o, _SymBody)]
    roots = {o.root.token for o in options}
    if len(options) != len(variant.options) or len(roots) != 1:
        message = "switch branches used as one body must share one root link"
        raise _Rejected("switch-variant-parent", message)
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
            message = "switch branches used as one body must add at most one joint each"
            raise _Rejected("switch-variant-parent", message)
    variant_joint = _SymVariantJoint(variant.switch, tuple(branches))
    return _SymBody(base.root, base.attachments[:common] + (variant_joint,))


# --- the blueprint ----------------------------------------------------------------


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


def write_blueprint(ops: list[_Op], body: _SymBody) -> KinematicBlueprint:
    """The symbolic body that `check_structure` walked, written out as its
    kinematic blueprint; `ops` are the structure's (`_ops`). Only structure is
    read: parameter names, labels, wiring and node ids, never a number."""

    def expr(op, name: str) -> str:
        """A parameter slot's structure: literals masked, parameter names kept."""
        if name in op.inputs:
            src = ops[op.inputs[name]]
            if src.kind == SCALAR_MATH:
                return f"{src.params['op']}({expr(src, 'a')},{expr(src, 'b')})"
            return f"<{src.kind}>"
        value = op.params.get(name)
        return value.name if isinstance(value, ParamRef) else "#"

    def joint_dict(op) -> dict:
        slots = [(slot, expr(op, slot)) for slot in ("range_lo", "range_hi", "default")]
        return {
            "type": "revolute" if op.kind == JOINT_REVOLUTE else "prismatic",
            "joint_label": op.params.get("joint_label"),
            "parent_label": op.params.get("parent_label"),
            "child_label": op.params.get("child_label"),
            "slots": [[slot, rep] for slot, rep in slots if rep != "#"],
            # Signatures ignore numeric literals; the key stays so that they keep their bytes.
            "range": None,
            "source": op.node_id,
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
