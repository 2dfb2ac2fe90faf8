"""Shared machinery for the category generators: the graph-building helper,
the shipped parameter-range table, and variation counting."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources

from ..blueprint import KinematicBlueprint, extract_blueprint
from ..errors import InvalidParameterError
from ..graph import (
    DUPLICATE,
    JOINT_PRISMATIC,
    JOINT_REVOLUTE,
    MERGE,
    PRIMITIVE,
    SCALAR_MATH,
    SEMANTIC_LABEL,
    SWITCH,
    NodeGraph,
    ParamRef,
)
from ..params import Continuous, Count, Discrete, ParameterSpace, ParamVector, sample_parameters


@lru_cache(maxsize=1)
def load_range_table() -> dict:
    """The versioned per-category continuous range table shipped with the package."""
    text = resources.files("artigen.data").joinpath("param_ranges.json").read_text("utf-8")
    table = json.loads(text)
    if table.get("version") != 1:
        raise InvalidParameterError(f"unsupported range table version {table.get('version')!r}")
    return table


def continuous_entries(category: str, names: list[str]) -> list[tuple[str, Continuous]]:
    """Continuous entries for `names`, ranges drawn from the shipped table."""
    table = load_range_table()["categories"][category]
    missing = [n for n in names if n not in table]
    if missing:
        raise InvalidParameterError(f"range table lacks {category} entries: {missing}")
    extras = [n for n in table if n not in names]
    if extras:
        raise InvalidParameterError(f"range table has unknown {category} entries: {extras}")
    out = []
    for name in names:
        lo, hi, units = table[name]
        out.append((name, Continuous(lo, hi, units)))
    return out


@dataclass(frozen=True)
class VariationCount:
    """Exact discrete/continuous variation inventory of one generator."""

    discrete_combinations: int
    continuous_dims: int

    @property
    def assets_at_3_values(self) -> int:
        return self.discrete_combinations * 3**self.continuous_dims


@dataclass(frozen=True)
class CategoryGenerator:
    name: str
    space: ParameterSpace
    builder: object  # ParamVector -> NodeGraph
    continuous_dims: int  # documented count (Table-style inventory)

    def build(self, params: ParamVector) -> NodeGraph:
        return self.builder(params)

    @cached_property
    def blueprint(self) -> KinematicBlueprint:
        """The category blueprint, from the seed-0 graph; every seed shares it."""
        return extract_blueprint(self.build(sample_parameters(self.space, 0, salt="")))


def count_variations(generator: CategoryGenerator) -> VariationCount:
    """Exact integer product over discrete entries times 3^continuous dims."""
    combos = 1
    dims = 0
    for entry in generator.space.entries.values():
        if isinstance(entry, Discrete):
            combos *= len(entry.labels)
        elif isinstance(entry, Count):
            combos *= entry.max - entry.min + 1
        else:
            dims += 1
    return VariationCount(combos, dims)


class GraphBuilder:
    """Thin convenience layer over NodeGraph for the category builders."""

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
        t = self.g.add_node("transform", params)
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

    def duplicate(self, parent, body, points, count_param=None, count_map=None):
        d = self.g.add_node(
            DUPLICATE,
            {"points": list(points), "count_param": count_param, "count_map": count_map},
        )
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


def label_of(space: ParameterSpace, params: ParamVector, name: str) -> str:
    return space.label_of(name, params[name])
