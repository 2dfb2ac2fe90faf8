"""Minimal articulation patterns shipped as a conformance corpus.

Each builder demonstrates one composition the joint nodes support: a single
hinge, a single slider, duplicated jointed bodies on points, a serial chain
built inside-out, two children sharing one parent, and a two-joint
(hinge + slide) pair between the same links that exports as a screw-like
serial chain.
"""

from __future__ import annotations

import math

from .graph import GraphBuilder, NodeGraph
from .params import ParameterSpace

PATTERN_NAMES = (
    "simple_revolute",
    "simple_prismatic",
    "duplicated_bodies",
    "chained_joints",
    "shared_parent",
    "multi_joint_screw",
)


def simple_revolute() -> NodeGraph:
    """A rod rotating about a pivot on top of a base block."""
    b = GraphBuilder(ParameterSpace())
    base = b.box((0.4, 0.4, 0.1))
    rod = b.box((0.05, 0.05, 0.5), at=(0, 0, 0.35))
    out = b.revolute(
        base, rod, (0, 0, 0.1), (0, 1, 0), -math.pi / 4, math.pi / 4,
        labels=("hinge", "base", "rod"),
    )
    return b.output(out)


def simple_prismatic() -> NodeGraph:
    """An articulated button sliding into its housing."""
    b = GraphBuilder(ParameterSpace())
    housing = b.box((0.12, 0.12, 0.06))
    button = b.cylinder(0.02, 0.02, at=(0, 0, 0.04))
    out = b.prismatic(
        housing, button, (0, 0, 0.04), (0, 0, -1), 0.0, 0.015,
        labels=("press", "housing", "button"),
    )
    return b.output(out)


def duplicated_bodies() -> NodeGraph:
    """Articulated knobs replicated at a grid of points on one panel."""
    b = GraphBuilder(ParameterSpace())
    panel = b.box((0.5, 0.3, 0.02))
    knob = b.cylinder(0.025, 0.04, at=(0, 0, 0.03))
    jointed = b.revolute(
        panel, knob, (0, 0, 0.03), (0, 0, 1), -math.pi, math.pi,
        labels=("twist", "panel", "knob"),
    )
    points = [(-0.15, -0.07, 0), (0.15, -0.07, 0), (-0.15, 0.07, 0), (0.15, 0.07, 0)]
    return b.output(b.duplicate(panel, jointed, points))


def chained_joints() -> NodeGraph:
    """Two rods jointed together first, then the combined body jointed to a base."""
    b = GraphBuilder(ParameterSpace())
    base = b.box((0.3, 0.3, 0.1))
    rod1 = b.box((0.04, 0.04, 0.3), at=(0, 0, 0.2))
    rod2 = b.box((0.03, 0.03, 0.3), at=(0, 0, 0.5))
    upper = b.revolute(
        rod1, rod2, (0, 0, 0.35), (0, 1, 0), -math.pi / 3, math.pi / 3,
        labels=("elbow", "rod_lower", "rod_upper"),
    )
    out = b.revolute(
        base, upper, (0, 0, 0.05), (0, 1, 0), -math.pi / 3, math.pi / 3,
        labels=("shoulder", "base"),
    )
    return b.output(out)


def shared_parent() -> NodeGraph:
    """Two rods jointed to the same sphere via its top-most parent body."""
    b = GraphBuilder(ParameterSpace())
    sphere = b.sphere(0.1)
    rod_up = b.box((0.03, 0.03, 0.3), at=(0, 0, 0.25))
    rod_side = b.box((0.3, 0.03, 0.03), at=(0.25, 0, 0))
    first = b.revolute(
        sphere, rod_up, (0, 0, 0.1), (0, 1, 0), -math.pi / 4, math.pi / 4,
        labels=("pivot_up", "sphere", "rod_up"),
    )
    out = b.revolute(
        first, rod_side, (0.1, 0, 0), (0, 0, 1), -math.pi / 4, math.pi / 4,
        labels=("pivot_side", None, "rod_side"),
    )
    return b.output(out)


def multi_joint_screw() -> NodeGraph:
    """A cap connected to a bottle neck by a hinge and a slide on one axis."""
    b = GraphBuilder(ParameterSpace())
    neck = b.cylinder(0.04, 0.1)
    cap = b.cylinder(0.048, 0.03, at=(0, 0, 0.07))
    turned = b.revolute(
        neck, cap, (0, 0, 0.07), (0, 0, 1), 0.0, 4 * math.pi,
        labels=("turn", "neck", "cap"),
    )
    out = b.prismatic(turned, cap, (0, 0, 0.07), (0, 0, 1), 0.0, 0.02, labels=("lift",))
    return b.output(out)


_BUILDERS = {
    "simple_revolute": simple_revolute,
    "simple_prismatic": simple_prismatic,
    "duplicated_bodies": duplicated_bodies,
    "chained_joints": chained_joints,
    "shared_parent": shared_parent,
    "multi_joint_screw": multi_joint_screw,
}


def build_pattern(name: str) -> NodeGraph:
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise KeyError(f"unknown pattern {name!r}; choose from {PATTERN_NAMES}") from None
