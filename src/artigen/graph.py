"""The procedural program representation: a typed DAG of geometry, math, joint,
duplication, and label nodes, with validation, canonical serialization, and
GraphBuilder, the helper that builds the patterns and the generators.

Geometry-typed ports carry articulated bodies (a plain primitive is a body with
one link and no joints), scalar ports carry numbers. A graph is mutable while
it is being built and should be treated as frozen once validated.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DocumentParseError,
    GraphCycleError,
    InvalidParameterError,
    PortTypeError,
    SchemaError,
)
from .geometry import as_vec3, unit_vector
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


@dataclass(frozen=True)
class JointSpec:
    """One joint's type, pivot, axis, range, default value, and semantic labels.

    The pivot and axis are in the construction frame (the frame the graph's
    geometry is built in); the axis is normalized on construction. lo == hi
    is allowed and flags an immovable joint.
    """

    joint_type: str
    pivot: tuple[float, float, float]
    axis: tuple[float, float, float]
    lo: float
    hi: float
    default_value: float = 0.0
    joint_label: str | None = None
    parent_label: str | None = None
    child_label: str | None = None

    def __post_init__(self):
        if self.joint_type not in ("revolute", "prismatic"):
            raise InvalidParameterError(f"unknown joint type {self.joint_type!r}")
        object.__setattr__(self, "axis", unit_vector(self.axis, "joint axis"))
        object.__setattr__(self, "pivot", tuple(as_vec3(self.pivot, "joint pivot").tolist()))
        if not (self.lo <= self.hi):
            raise InvalidParameterError(f"joint range needs lo <= hi, got [{self.lo}, {self.hi}]")
        if not (self.lo <= self.default_value <= self.hi):
            raise InvalidParameterError(
                f"default {self.default_value} outside joint range [{self.lo}, {self.hi}]"
            )

    @property
    def is_fixed(self) -> bool:
        return self.lo == self.hi

    def pivot_array(self) -> np.ndarray:
        return np.asarray(self.pivot, dtype=np.float64)


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
    geometry_ports: tuple = ()
    dynamic_ports: str | None = None  # prefix for geometry port families
    required_ports: tuple = ()
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
        required_ports=("geometry",),
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
        required_ports=("parent", "child"),
    ),
    JOINT_PRISMATIC: _KindSpec(
        params=dict(_JOINT_PARAMS),
        geometry_ports=("parent", "child"),
        required_ports=("parent", "child"),
    ),
    DUPLICATE: _KindSpec(
        params={
            "points": _ParamSpec("points", required=True),
            "count_param": _ParamSpec("str", default=None),
        },
        geometry_ports=("parent", "body"),
        required_ports=("parent", "body"),
    ),
    SEMANTIC_LABEL: _KindSpec(
        params={"label": _ParamSpec("str", required=True)},
        geometry_ports=("geometry",),
        required_ports=("geometry",),
    ),
    STORE_ATTRIBUTE: _KindSpec(
        params={
            "name": _ParamSpec("str", required=True),
            "value": _ParamSpec("int", required=True),
        },
        geometry_ports=("geometry",),
        required_ports=("geometry",),
    ),
}


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


def _normalize_params(kind: str, params: dict, error: type) -> dict:
    """Every parameter of a `kind` node: given values checked and coerced, the
    rest defaulted, a joint's axis scaled to unit length. A None value
    counts as absent where None is the default. Unknown or missing parameter
    names raise `error`; bad values, a zero joint axis or transform
    rotate_axis among them, raise InvalidParameterError."""
    spec = _KINDS[kind]
    unknown = set(params) - set(spec.params)
    if unknown:
        raise error(f"unknown parameters for {kind}: {sorted(unknown)}")
    normalized = {}
    for name, pspec in spec.params.items():
        if name in params and not (params[name] is None and pspec.default is None):
            normalized[name] = _normalize_param(kind, name, pspec, params[name])
        elif pspec.required:
            raise error(f"{kind} requires parameter {name!r}")
        else:
            normalized[name] = pspec.default
    if kind in JOINT_KINDS:  # a vec3 axis is always literal
        normalized["axis"] = unit_vector(normalized["axis"], f"{kind}.axis")
    elif kind == TRANSFORM:
        unit_vector(normalized["rotate_axis"], "transform.rotate_axis")
    return normalized


@dataclass
class Node:
    node_id: str
    kind: str
    params: dict
    inputs: dict = field(default_factory=dict)  # port name -> upstream node id

    def structural_key(self):
        return (self.node_id, self.kind, _params_key(self.params), tuple(sorted(self.inputs.items())))


def _params_key(params: dict):
    return tuple(sorted((k, repr(v)) for k, v in params.items()))


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


class NodeGraph:
    """A DAG of nodes plus the declared parameter space of the generator."""

    def __init__(self, parameters: ParameterSpace | None = None):
        self.nodes: dict[str, Node] = {}
        self.output_node: str | None = None
        self.parameters = parameters if parameters is not None else ParameterSpace()
        self._next_id = 0
        self._rank: dict[str, int] = {}  # node id -> insertion rank
        # True while every wire runs from an earlier node to a later one; a
        # forward wire then cannot close a cycle, so connect skips the walk.
        self._forward = True

    # --- construction -------------------------------------------------------

    def add_node(self, kind: str, params: dict | None = None) -> str:
        if kind not in _KINDS:
            raise InvalidParameterError(f"unknown node kind {kind!r}")
        normalized = _normalize_params(kind, params or {}, InvalidParameterError)
        node_id = f"n{self._next_id}"
        self._next_id += 1
        self.nodes[node_id] = Node(node_id, kind, normalized)
        self._rank[node_id] = len(self._rank)
        return node_id

    def connect(self, src: str, dst: str, port: str) -> None:
        """Wire src's output into (dst, port). Rejects cycles and type mismatches."""
        if dst not in self.nodes:
            raise InvalidParameterError(f"unknown target node {dst!r}")
        problem = self._wiring_problem(src, self.nodes[dst].kind, port)
        if problem is not None:
            code, message = problem
            error = InvalidParameterError if code == "missing-node" else PortTypeError
            raise error(f"{dst}: {message}")
        forward = self._rank[src] < self._rank[dst]
        if not (forward and self._forward) and (src == dst or self._reaches(src, dst)):
            raise GraphCycleError(f"wiring {src} -> {dst}.{port} would create a cycle")
        self.nodes[dst].inputs[port] = src
        self._forward = self._forward and forward

    def set_output(self, node_id: str) -> None:
        if node_id not in self.nodes:
            raise InvalidParameterError(f"unknown node {node_id!r}")
        self.output_node = node_id

    def _wiring_problem(self, src: str, kind: str, port: str) -> tuple[str, str] | None:
        """The diagnostic code and message for wiring `src` into `port` of a
        `kind` node, or None if that wire is sound."""
        if src not in self.nodes:
            return "missing-node", f"port {port!r} wired to missing node {src!r}"
        ptype = port_type(kind, port)
        if ptype is None:
            return "bad-port", f"no port {port!r} on kind {kind}"
        src_kind = self.nodes[src].kind
        if _KINDS[src_kind].output != ptype:
            return "port-type", f"{src_kind} output wired into {ptype} port {port!r}"
        return None

    def _reaches(self, start: str, target: str) -> bool:
        """True if `target` is reachable from `start` walking upstream."""
        stack, seen = [start], set()
        while stack:
            cur = stack.pop()
            if cur == target:
                return True
            if cur in seen or cur not in self.nodes:
                continue
            seen.add(cur)
            stack.extend(self.nodes[cur].inputs.values())
        return False

    def node(self, node_id: str) -> Node:
        return self.nodes[node_id]

    def topo_order(self) -> list[str]:
        """Topological order (upstream first); raises GraphCycleError on cycles."""
        indeg = {nid: 0 for nid in self.nodes}
        downstream: dict[str, list[str]] = {nid: [] for nid in self.nodes}
        for nid, node in self.nodes.items():
            for src in node.inputs.values():
                if src in self.nodes:
                    indeg[nid] += 1
                    downstream[src].append(nid)
        ready = [nid for nid, d in indeg.items() if d == 0]
        order = []
        while ready:
            ready.sort()
            cur = ready.pop(0)
            order.append(cur)
            for nxt in downstream[cur]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    ready.append(nxt)
        if len(order) != len(self.nodes):
            raise GraphCycleError("graph contains a cycle")
        return order

    # --- validation -----------------------------------------------------------

    def validate(self) -> list[Diagnostic]:
        """Composition diagnostics; an empty list means the graph is exportable."""
        diags: list[Diagnostic] = []
        if self.output_node is None:
            diags.append(Diagnostic("no-output", "graph has no output node"))
        elif self.output_node not in self.nodes:
            diags.append(Diagnostic("missing-node", f"output node {self.output_node!r} missing"))

        for nid, node in self.nodes.items():
            spec = _KINDS[node.kind]
            for port, src in node.inputs.items():
                problem = self._wiring_problem(src, node.kind, port)
                if problem is not None:
                    diags.append(Diagnostic(*problem, nid))
            for port in spec.required_ports:
                if port not in node.inputs:
                    diags.append(Diagnostic("missing-input", f"port {port!r} is not wired", nid))
            if spec.dynamic_ports:
                idxs = sorted(
                    int(p[len(spec.dynamic_ports):])
                    for p in node.inputs
                    if p.startswith(spec.dynamic_ports) and p[len(spec.dynamic_ports):].isdigit()
                )
                if not idxs:
                    diags.append(Diagnostic("missing-input", f"{node.kind} has no inputs", nid))
                elif idxs != list(range(len(idxs))):
                    diags.append(
                        Diagnostic("missing-input", f"{node.kind} inputs must be contiguous", nid)
                    )
            for pname, value in node.params.items():
                if isinstance(value, ParamRef) and value.name not in self.parameters:
                    diags.append(
                        Diagnostic(
                            "unknown-param",
                            f"{node.kind}.{pname} references undeclared parameter {value.name!r}",
                            nid,
                        )
                    )
            count_param = node.params.get("count_param") if node.kind == DUPLICATE else None
            if count_param is not None and count_param not in self.parameters:
                diags.append(
                    Diagnostic(
                        "unknown-param",
                        f"{node.kind}.count_param names undeclared parameter {count_param!r}",
                        nid,
                    )
                )
            if node.kind == SWITCH:
                sel = node.params.get("select")
                n_opts = sum(1 for p in node.inputs if p.startswith("option_"))
                if isinstance(sel, float) and "select" not in node.inputs:
                    pick = whole_number(sel)
                    if pick is None or not 0 <= pick < max(n_opts, 1):
                        diags.append(
                            Diagnostic(
                                "switch-selector-range",
                                f"literal selector {sel} is not an option index 0..{n_opts - 1}",
                                nid,
                            )
                        )

        try:
            order = self.topo_order()
        except GraphCycleError:
            diags.append(Diagnostic("graph-cycle", "graph contains a cycle"))
            return diags

        diags.extend(self._link_set_diagnostics(order))
        return diags

    def _abstract_bodies(self, topo_order: list[str]):
        """Per-node abstract body: list of (root_token, frozenset of link tokens).

        Multiple entries model switch variants; a list holds each distinct
        entry once, in first-seen order. Mirrors evaluation identity:
        transforms copy links, merges fuse roots into a fresh link.
        """
        values: dict[str, list[tuple]] = {}
        for nid in topo_order:
            node = self.nodes[nid]
            kind = node.kind

            def inputs_for(prefix):
                idx = 0
                out = []
                while f"{prefix}{idx}" in node.inputs:
                    out.append(node.inputs[f"{prefix}{idx}"])
                    idx += 1
                return out

            if kind == PRIMITIVE:
                values[nid] = [(nid, frozenset([nid]))]
            elif kind in (SEMANTIC_LABEL, STORE_ATTRIBUTE):
                src = node.inputs.get("geometry")
                values[nid] = values.get(src, [(nid, frozenset([nid]))])
            elif kind == TRANSFORM:
                src = node.inputs.get("geometry")
                outs = []
                for root, tokens in values.get(src, []):
                    rename = {t: f"{nid}:{t}" for t in tokens}
                    outs.append((rename[root], frozenset(rename.values())))
                values[nid] = outs or [(nid, frozenset([nid]))]
            elif kind == MERGE:
                tokens = {nid}
                for src in inputs_for("geometry_"):
                    for root, toks in values.get(src, []):
                        tokens |= set(toks) - {root}
                values[nid] = [(nid, frozenset(tokens))]
            elif kind == SWITCH:
                outs = []
                for src in inputs_for("option_"):
                    outs.extend(values.get(src, []))
                values[nid] = list(dict.fromkeys(outs)) or [(nid, frozenset([nid]))]
            elif kind in JOINT_KINDS:
                parents = values.get(node.inputs.get("parent"), [])
                children = values.get(node.inputs.get("child"), [])
                outs = []
                for proot, ptoks in parents or [(nid, frozenset())]:
                    for _croot, ctoks in children or [(nid, frozenset())]:
                        outs.append((proot, ptoks | ctoks))
                values[nid] = list(dict.fromkeys(outs))
            elif kind == DUPLICATE:
                parents = values.get(node.inputs.get("parent"), [])
                bodies = values.get(node.inputs.get("body"), [])
                outs = []
                for proot, ptoks in parents or [(nid, frozenset())]:
                    extra = set()
                    for broot, btoks in bodies:
                        extra |= {f"{nid}:{t}" for t in btoks - {broot}}
                    outs.append((proot, ptoks | extra))
                values[nid] = outs
            else:  # scalar nodes produce no body
                values[nid] = []
        return values

    def _link_set_diagnostics(self, topo_order: list[str]) -> list[Diagnostic]:
        diags = []
        values = self._abstract_bodies(topo_order)
        for nid, node in self.nodes.items():
            if node.kind not in JOINT_KINDS:
                continue
            parents = values.get(node.inputs.get("parent"), [])
            children = values.get(node.inputs.get("child"), [])
            for _proot, ptoks in parents:
                for _croot, ctoks in children:
                    if not ptoks or not ctoks:
                        continue
                    relation = link_set_relation(ptoks, ctoks)
                    if relation == "equal":
                        diags.append(
                            Diagnostic(
                                "joint-self-loop",
                                "joint child geometry is also its parent geometry",
                                nid,
                            )
                        )
                    elif relation == "overlapping":
                        diags.append(
                            Diagnostic(
                                "joint-link-overlap",
                                "joint parent and child share links without being nested",
                                nid,
                            )
                        )
        return diags

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
        """Parse a graph document; structural problems are left for validate()."""
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
            if not isinstance(node_id, str) or node_id in graph.nodes:
                raise SchemaError(f"bad or duplicate node id {node_id!r}")
            raw = entry.get("params", {})
            if not isinstance(raw, dict):
                raise SchemaError(f"node {node_id} params must be an object")
            decoded = {name: _decode_param(value) for name, value in raw.items()}
            params = _normalize_params(kind, decoded, SchemaError)
            inputs = entry.get("inputs", {})
            if not isinstance(inputs, dict) or not all(isinstance(v, str) for v in inputs.values()):
                raise SchemaError(f"node {node_id} inputs must map ports to node ids")
            graph.nodes[node_id] = Node(node_id, kind, params, dict(inputs))
            graph._rank[node_id] = len(graph._rank)
        graph._forward = all(
            graph._rank.get(src, len(graph._rank)) < graph._rank[nid]
            for nid, node in graph.nodes.items()
            for src in node.inputs.values()
        )
        graph.output_node = doc.get("output")
        # keep fresh ids clear of loaded ones
        numeric = [int(n[1:]) for n in graph.nodes if n.startswith("n") and n[1:].isdigit()]
        graph._next_id = max(numeric, default=-1) + 1
        return graph

    def structurally_equal(self, other: "NodeGraph") -> bool:
        if self.output_node != other.output_node:
            return False
        if self.parameters != other.parameters:
            return False
        if list(self.nodes) != list(other.nodes):
            return False
        return all(
            self.nodes[nid].structural_key() == other.nodes[nid].structural_key()
            for nid in self.nodes
        )

    def __eq__(self, other):
        return isinstance(other, NodeGraph) and self.structurally_equal(other)


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


def inject_label_attributes(graph: NodeGraph) -> NodeGraph:
    """Insert a StoreAttribute node on every geometry feed of a joint or
    duplication port, assigning a stable link-label id to every face.

    Idempotent: feeds that already come from a StoreAttribute node are left
    alone, and labels already present on faces are never overwritten.
    """
    clone = NodeGraph.deserialize(graph.serialize())
    targets = []
    for nid in clone.topo_order():
        node = clone.nodes[nid]
        if node.kind in JOINT_KINDS:
            targets.extend((nid, port) for port in ("parent", "child"))
        elif node.kind == DUPLICATE:
            targets.extend((nid, port) for port in ("parent", "body"))
    next_label = 0
    for nid, port in targets:
        src = clone.nodes[nid].inputs.get(port)
        if src is None:
            continue
        if clone.nodes[src].kind == STORE_ATTRIBUTE:
            next_label = max(next_label, clone.nodes[src].params["value"] + 1)
            continue
        store = clone.add_node(
            STORE_ATTRIBUTE, {"name": "link_label", "value": next_label}
        )
        next_label += 1
        clone.connect(src, store, "geometry")
        clone.connect(store, nid, port)
    return clone


# --- building -----------------------------------------------------------------


class GraphBuilder:
    """Thin convenience layer over NodeGraph; it builds the pattern corpus and
    the category generators."""

    def __init__(self, space: ParameterSpace):
        self.g = NodeGraph(space)

    # geometry ----------------------------------------------------------------

    def _placed(self, node, at, rotate_axis=None, rotate_angle=0.0):
        if at == (0, 0, 0) and rotate_angle == 0.0:
            return node
        params = {"translate_x": at[0], "translate_y": at[1], "translate_z": at[2]}
        if rotate_angle != 0.0:
            params["rotate_axis"] = rotate_axis or (0, 0, 1)
            params["rotate_angle"] = rotate_angle
        t = self.g.add_node(TRANSFORM, params)
        self.g.connect(node, t, "geometry")
        return t

    def box(self, dims, at=(0, 0, 0), material=None, rotate_axis=None, rotate_angle=0.0):
        node = self.g.add_node(
            PRIMITIVE,
            {"shape": "box", "size_x": dims[0], "size_y": dims[1], "size_z": dims[2], "material": material},
        )
        return self._placed(node, at, rotate_axis, rotate_angle)

    def rounded_box(self, dims, bevel, at=(0, 0, 0), material=None):
        node = self.g.add_node(
            PRIMITIVE,
            {
                "shape": "rounded_box",
                "size_x": dims[0],
                "size_y": dims[1],
                "size_z": dims[2],
                "bevel": bevel,
                "material": material,
            },
        )
        return self._placed(node, at)

    def cylinder(self, radius, height, at=(0, 0, 0), segments=32, material=None,
                 rotate_axis=None, rotate_angle=0.0):
        node = self.g.add_node(
            PRIMITIVE,
            {"shape": "cylinder", "radius": radius, "height": height, "segments": segments,
             "material": material},
        )
        return self._placed(node, at, rotate_axis, rotate_angle)

    def prism(self, radius, height, sides, at=(0, 0, 0), top_radius=None, material=None):
        node = self.g.add_node(
            PRIMITIVE,
            {"shape": "ngon_prism", "radius": radius, "height": height, "sides": sides,
             "top_radius": top_radius, "material": material},
        )
        return self._placed(node, at)

    def sphere(self, radius, at=(0, 0, 0), segments=24, material=None):
        node = self.g.add_node(
            PRIMITIVE, {"shape": "sphere", "radius": radius, "segments": segments, "material": material}
        )
        return self._placed(node, at)

    def merge(self, *nodes):
        m = self.g.add_node(MERGE, {})
        for i, node in enumerate(nodes):
            self.g.connect(node, m, f"geometry_{i}")
        return m

    def label(self, node, name):
        l = self.g.add_node(SEMANTIC_LABEL, {"label": name})
        self.g.connect(node, l, "geometry")
        return l

    # joints -------------------------------------------------------------------

    def _joint(self, kind, parent, child, pivot, axis, lo, hi, default=None, labels=()):
        params = {
            "pivot": pivot,
            "axis": axis,
            "range_lo": lo,
            "range_hi": hi,
        }
        if default is not None:
            params["default"] = default
        for key, value in zip(("joint_label", "parent_label", "child_label"), labels):
            if value is not None:
                params[key] = value
        j = self.g.add_node(kind, params)
        self.g.connect(parent, j, "parent")
        self.g.connect(child, j, "child")
        return j

    def revolute(self, parent, child, pivot, axis, lo, hi, default=None, labels=()):
        return self._joint(JOINT_REVOLUTE, parent, child, pivot, axis, lo, hi, default, labels)

    def prismatic(self, parent, child, pivot, axis, lo, hi, default=None, labels=()):
        return self._joint(JOINT_PRISMATIC, parent, child, pivot, axis, lo, hi, default, labels)

    def fixed(self, parent, child, pivot, labels=()):
        """Immovable attachment expressed as a zero-range hinge."""
        return self._joint(JOINT_REVOLUTE, parent, child, pivot, (0, 0, 1), 0.0, 0.0, 0.0, labels)

    def duplicate(self, parent, body, points, count_param=None):
        d = self.g.add_node(DUPLICATE, {"points": list(points), "count_param": count_param})
        self.g.connect(parent, d, "parent")
        self.g.connect(body, d, "body")
        return d

    # scalars -------------------------------------------------------------------

    def math(self, op, a, b):
        """ScalarMath node; a and b may be numbers, ParamRefs, or scalar node ids."""
        params = {"op": op}
        wires = {}
        for name, value in (("a", a), ("b", b)):
            if isinstance(value, str):  # upstream scalar node
                params[name] = 0.0
                wires[name] = value
            else:
                params[name] = value
        node = self.g.add_node(SCALAR_MATH, params)
        for port, src in wires.items():
            self.g.connect(src, node, port)
        return node

    def ref(self, name) -> ParamRef:
        return ParamRef(name)

    def switch(self, select, options):
        """Switch node; `select` may be a number, ParamRef, or scalar node id."""
        params = {"select": 0.0 if isinstance(select, str) else select}
        node = self.g.add_node(SWITCH, params)
        if isinstance(select, str):
            self.g.connect(select, node, "select")
        for i, opt in enumerate(options):
            self.g.connect(opt, node, f"option_{i}")
        return node

    def clamp01(self, value):
        """min(1, max(0, value)) as scalar nodes."""
        return self.math("min", 1.0, self.math("max", 0.0, value))

    def output(self, node) -> NodeGraph:
        self.g.set_output(node)
        return self.g
