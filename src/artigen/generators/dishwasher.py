"""Dishwasher generator: drop-front door with a handle, sliding wire racks,
and a row of control buttons on the top band.

Racks travel is capped so they stay behind the closed door at every sampled
configuration; the door folds down in front of the body, clear of the floor
plane and the control band.
"""

from __future__ import annotations

import math

from ..graph import GraphBuilder
from ..params import Count, Discrete, ParameterSpace, ParamVector
from .common import CategoryGenerator, continuous_entries

CONTINUOUS_NAMES = [
    "depth", "width", "height", "door_thickness", "rack_radius", "rack_height",
    "rack_depth", "handle_radius", "handle_position", "number_of_racks",
    "density_of_supports_in_rack", "button_position", "handle_curvature",
]

BAND_H = 0.08  # control band across the top front


def space() -> ParameterSpace:
    s = ParameterSpace()
    s.add("rack_count", Count(0, 3))
    s.add("button_count", Count(0, 6))
    s.add("button_type", Discrete(("square", "circle")))
    s.add("handle_type", Discrete(("square", "circle")))
    s.add("handle_curve_style", Discrete(("curved", "square")))
    for name, entry in continuous_entries("dishwasher", CONTINUOUS_NAMES):
        s.add(name, entry)
    return s


def _door_handle(b: GraphBuilder, p: ParamVector, y0: float, z: float, width: float):
    """Handle bar across the door; shape and curvature are discrete switches."""
    r = p["handle_radius"]
    length = width * 0.6
    standoff = r * 2.2
    # square vs round cross-section bar
    bar_sq = b.box((length, standoff, r * 2), at=(0, y0 + standoff / 2, z), material="metal")
    bar_rd = b.cylinder(r, length, at=(0, y0 + standoff, z), segments=16,
                        rotate_axis=(0, 1, 0), rotate_angle=math.pi / 2, material="metal")
    bar = b.switch(b.ref("handle_type"), [bar_sq, bar_rd])
    # curved style bows the bar out with angled end segments
    bow = p["handle_curvature"] * r * 1.5
    end_len = length * 0.18
    curved = b.merge(
        b.cylinder(r, length * 0.7, at=(0, y0 + standoff + bow, z), segments=16,
                   rotate_axis=(0, 1, 0), rotate_angle=math.pi / 2, material="metal"),
        b.box((end_len, standoff + bow, r * 2),
              at=(-(length * 0.7 + end_len) / 2, y0 + (standoff + bow) / 2, z), material="metal"),
        b.box((end_len, standoff + bow, r * 2),
              at=((length * 0.7 + end_len) / 2, y0 + (standoff + bow) / 2, z), material="metal"),
    )
    straight = b.merge(
        bar,
        b.box((r * 1.6, standoff, r * 1.6),
              at=(-length * 0.4, y0 + standoff / 2, z), material="metal"),
        b.box((r * 1.6, standoff, r * 1.6),
              at=(length * 0.4, y0 + standoff / 2, z), material="metal"),
    )
    return b.switch(b.ref("handle_curve_style"), [curved, straight])


def _rack(b: GraphBuilder, p: ParamVector, anchor, cavity, z0: float):
    """Wire basket: rim, posts, and a support grid whose density is a parameter."""
    x_lo, x_hi, y_back, y_front_max = cavity
    rr = p["rack_radius"]
    rh = p["rack_height"]
    rdepth = min(p["rack_depth"], (y_front_max - y_back) - 0.02)
    width = (x_hi - x_lo) - 0.03
    back = y_back + 0.01
    cy = back + rdepth / 2
    rim_parts = [
        b.box((width, rr * 2, rr * 2), at=(0, back + rr, z0 + rh), material="metal"),
        b.box((width, rr * 2, rr * 2), at=(0, back + rdepth - rr, z0 + rh), material="metal"),
        b.box((rr * 2, rdepth, rr * 2), at=(-width / 2 + rr, cy, z0 + rh), material="metal"),
        b.box((rr * 2, rdepth, rr * 2), at=(width / 2 - rr, cy, z0 + rh), material="metal"),
        # floor frame
        b.box((width, rr * 2, rr * 2), at=(0, back + rr, z0), material="metal"),
        b.box((width, rr * 2, rr * 2), at=(0, back + rdepth - rr, z0), material="metal"),
    ]
    for sx in (-1, 1):
        rim_parts.append(
            b.box((rr * 2, rr * 2, rh), at=(sx * (width / 2 - rr), back + rr, z0 + rh / 2),
                  material="metal")
        )
        rim_parts.append(
            b.box((rr * 2, rr * 2, rh),
                  at=(sx * (width / 2 - rr), back + rdepth - rr, z0 + rh / 2), material="metal")
        )
    rack_frame = b.merge(*rim_parts)
    # support wires across the floor, replicated by the density parameter
    n_wires = max(2, int(round(p["density_of_supports_in_rack"])))
    wire = b.box((rr * 1.6, rdepth - rr * 2, rr * 1.6), at=(0, cy, z0), material="metal")
    pitch = (width - 0.02) / n_wires
    xs = [(-(width - 0.02) / 2 + pitch * (k + 0.5), 0.0, 0.0) for k in range(n_wires)]
    rack_geom = b.duplicate(rack_frame, wire, [(x, 0.0, 0.0) for x, _, _ in xs],
                            count_param="density_of_supports_in_rack")
    travel = (y_front_max - 0.006) - (back + rdepth)
    return b.prismatic(
        anchor, rack_geom,
        pivot=(0, back + rdepth, z0), axis=(0, 1, 0),
        lo=0.0, hi=max(travel, 0.01), default=0.0,
        labels=("slide", "body", "rack"),
    ), rack_geom


def build(b: GraphBuilder, p: ParamVector) -> str:
    """Record the dishwasher graph for `p` on `b`; its output node."""
    width, depth, height = p["width"], p["depth"], p["height"]
    w = 0.03
    y_front = depth / 2
    door_t = p["door_thickness"]
    door_top = height - BAND_H - 0.01

    shell = b.merge(
        b.box((w, depth, height), at=(-(width - w) / 2, 0, height / 2), material="metal"),
        b.box((w, depth, height), at=((width - w) / 2, 0, height / 2), material="metal"),
        b.box((width - 2 * w, w, height), at=(0, -(depth - w) / 2, height / 2), material="metal"),
        b.box((width - 2 * w, depth - w, w), at=(0, -w / 2, w / 2), material="metal"),
        b.box((width - 2 * w, depth - w, w), at=(0, -w / 2, height - w / 2), material="metal"),
        # control band across the top front
        b.box((width, w, BAND_H), at=(0, y_front - w / 2, height - BAND_H / 2), material="metal"),
    )

    cavity = (-width / 2 + w, width / 2 - w, -depth / 2 + w, y_front - door_t - 0.012)

    # racks: one prismatic template duplicated over shelf heights
    rack_zone_lo = w + 0.06
    rack_zone_hi = height - BAND_H - 0.08
    slot = (rack_zone_hi - rack_zone_lo) / 3
    rack_j, _ = _rack(b, p, shell, cavity, rack_zone_lo)
    rack_skew = min(1.2, 0.9 + 0.1 * p["number_of_racks"])  # fine spacing control
    acc = b.duplicate(
        shell, rack_j,
        [(0.0, 0.0, slot * k * rack_skew) for k in range(int(p["rack_count"]))],
        count_param="rack_count",
    )

    # buttons across the control band
    n_btn = int(p["button_count"])
    btn_z = height - BAND_H * 0.5
    btn_x0 = -width / 2 + width * p["button_position"]
    btn_sq = b.box((0.014, 0.008, 0.014), at=(btn_x0, y_front + 0.004, btn_z),
                   material="plastic")
    btn_rd = b.cylinder(0.008, 0.008, at=(btn_x0, y_front + 0.004, btn_z), segments=16,
                        rotate_axis=(1, 0, 0), rotate_angle=math.pi / 2, material="plastic")
    btn_geom = b.switch(b.ref("button_type"), [btn_sq, btn_rd])
    btn_j = b.prismatic(
        shell, btn_geom,
        pivot=(btn_x0, y_front + 0.004, btn_z), axis=(0, -1, 0),
        lo=0.0, hi=0.005, default=0.0,
        labels=("push", None, "button"),
    )
    acc = b.duplicate(
        acc, btn_j,
        [(0.024 * k, 0.0, 0.0) for k in range(n_btn)],
        count_param="button_count",
    )

    # drop-front door with its handle
    door_h = door_top - 0.015
    door_y0 = y_front + 0.004
    door = b.merge(
        b.box((width - 0.01, door_t, door_h),
              at=(0, door_y0 + door_t / 2, 0.015 + door_h / 2), material="metal"),
        _door_handle(
            b, p, door_y0 + door_t, 0.015 + door_h * p["handle_position"], width - 0.01
        ),
    )
    out = b.revolute(
        acc, door,
        pivot=(0, door_y0 + door_t + 0.006, 0.012), axis=(-1, 0, 0),
        lo=0.0, hi=MAX_OPEN, default=0.0,
        labels=("hinge", "body", "door"),
    )
    return out


MAX_OPEN = 1.45


def generator() -> CategoryGenerator:
    return CategoryGenerator("dishwasher", space(), build)
