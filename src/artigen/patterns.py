"""Minimal articulation patterns shipped as a conformance corpus.

Each pattern is a recipe, as a category generator's is: it records one
composition the joint nodes support on a NodeGraph and returns the output
node. The six are a single hinge, a single slider, duplicated jointed bodies
on points, a serial chain built inside-out, two children sharing one parent,
and a two-joint (hinge + slide) pair between the same links that exports as a
screw-like serial chain.
"""

from __future__ import annotations

import math

from .errors import InvalidParameterError
from .graph import NodeGraph

PATTERN_NAMES = (
    "simple_revolute",
    "simple_prismatic",
    "duplicated_bodies",
    "chained_joints",
    "shared_parent",
    "multi_joint_screw",
)


def simple_revolute(g: NodeGraph) -> str:
    """A rod rotating about a pivot on top of a base block."""
    base = g.box((0.4, 0.4, 0.1))
    rod = g.box((0.05, 0.05, 0.5), at=(0, 0, 0.35))
    return g.revolute(
        base, rod, (0, 0, 0.1), (0, 1, 0), -math.pi / 4, math.pi / 4,
        labels=("hinge", "base", "rod"),
    )


def simple_prismatic(g: NodeGraph) -> str:
    """An articulated button sliding into its housing."""
    housing = g.box((0.12, 0.12, 0.06))
    button = g.cylinder(0.02, 0.02, at=(0, 0, 0.04))
    return g.prismatic(
        housing, button, (0, 0, 0.04), (0, 0, -1), 0.0, 0.015,
        labels=("press", "housing", "button"),
    )


def duplicated_bodies(g: NodeGraph) -> str:
    """Articulated knobs replicated at a grid of points on one panel."""
    panel = g.box((0.5, 0.3, 0.02))
    knob = g.cylinder(0.025, 0.04, at=(0, 0, 0.03))
    jointed = g.revolute(
        panel, knob, (0, 0, 0.03), (0, 0, 1), -math.pi, math.pi,
        labels=("twist", "panel", "knob"),
    )
    points = [(-0.15, -0.07, 0), (0.15, -0.07, 0), (-0.15, 0.07, 0), (0.15, 0.07, 0)]
    return g.duplicate(panel, jointed, points)


def chained_joints(g: NodeGraph) -> str:
    """Two rods jointed together first, then the combined body jointed to a base."""
    base = g.box((0.3, 0.3, 0.1))
    rod1 = g.box((0.04, 0.04, 0.3), at=(0, 0, 0.2))
    rod2 = g.box((0.03, 0.03, 0.3), at=(0, 0, 0.5))
    upper = g.revolute(
        rod1, rod2, (0, 0, 0.35), (0, 1, 0), -math.pi / 3, math.pi / 3,
        labels=("elbow", "rod_lower", "rod_upper"),
    )
    return g.revolute(
        base, upper, (0, 0, 0.05), (0, 1, 0), -math.pi / 3, math.pi / 3,
        labels=("shoulder", "base"),
    )


def shared_parent(g: NodeGraph) -> str:
    """Two rods jointed to the same sphere via its top-most parent body."""
    sphere = g.sphere(0.1)
    rod_up = g.box((0.03, 0.03, 0.3), at=(0, 0, 0.25))
    rod_side = g.box((0.3, 0.03, 0.03), at=(0.25, 0, 0))
    first = g.revolute(
        sphere, rod_up, (0, 0, 0.1), (0, 1, 0), -math.pi / 4, math.pi / 4,
        labels=("pivot_up", "sphere", "rod_up"),
    )
    return g.revolute(
        first, rod_side, (0.1, 0, 0), (0, 0, 1), -math.pi / 4, math.pi / 4,
        labels=("pivot_side", None, "rod_side"),
    )


def multi_joint_screw(g: NodeGraph) -> str:
    """A cap connected to a bottle neck by a hinge and a slide on one axis."""
    neck = g.cylinder(0.04, 0.1)
    cap = g.cylinder(0.048, 0.03, at=(0, 0, 0.07))
    turned = g.revolute(
        neck, cap, (0, 0, 0.07), (0, 0, 1), 0.0, 4 * math.pi,
        labels=("turn", "neck", "cap"),
    )
    return g.prismatic(turned, cap, (0, 0, 0.07), (0, 0, 1), 0.0, 0.02, labels=("lift",))


_RECIPES = {
    "simple_revolute": simple_revolute,
    "simple_prismatic": simple_prismatic,
    "duplicated_bodies": duplicated_bodies,
    "chained_joints": chained_joints,
    "shared_parent": shared_parent,
    "multi_joint_screw": multi_joint_screw,
}


def build_pattern(name: str) -> NodeGraph:
    if name not in _RECIPES:
        raise InvalidParameterError(f"unknown pattern {name!r}; choose from {PATTERN_NAMES}")
    g = NodeGraph()
    g.set_output(_RECIPES[name](g))
    return g
