"""Toaster generator: slots with sprung levers, push buttons, and a browning knob.

Levers ride the front face and travel straight down by exactly the slot-depth
parameter (the range upper bound is wired to the parameter, not baked).
Buttons sit in their own column between lever columns so nothing crosses a
lever's travel path. Sizes yield to the column pitch on small bodies.
"""

from __future__ import annotations

import math

from ..graph import NodeGraph
from ..params import Count, Discrete, ParameterSpace, ParamVector
from .common import CategoryGenerator, continuous_entries

LEVER_TYPES = ("cylinder", "half_cylinder", "ellipsoid", "sphere", "flat")


def space() -> ParameterSpace:
    s = ParameterSpace()
    s.add("slot_count", Count(1, 3))
    s.add("protrusion_axis", Discrete(("x_axis", "y_axis")))
    s.add("levers_per_slot", Count(1, 2))
    s.add("lever_type", Discrete(LEVER_TYPES))
    s.add("buttons_per_lever", Count(0, 3))
    for name, entry in continuous_entries("toaster"):
        s.add(name, entry)
    return s


def _lever_head(b: NodeGraph, p: ParamVector, size: float, at):
    """Five swappable lever-handle styles behind one geometry switch."""
    cylinder = b.cylinder(
        size / 2, size, at=at, segments=20,
        rotate_axis=(0, 1, 0), rotate_angle=math.pi / 2, material="plastic",
    )
    half = b.merge(
        b.cylinder(size / 2, size * 0.55, at=at, segments=20,
                   rotate_axis=(0, 1, 0), rotate_angle=math.pi / 2, material="plastic"),
        b.box((size, size * 0.5, size * 0.4), at=(at[0], at[1] + size * 0.2, at[2]),
              material="plastic"),
    )
    ellipsoid = b.merge(
        b.sphere(size / 2, at=at, segments=16, material="plastic"),
        b.box((size * 0.9, size * 0.5, size * 0.5), at=at, material="plastic"),
    )
    sphere = b.sphere(size / 2, at=at, segments=16, material="plastic")
    flat = b.box((size, 0.01, size * 0.6), at=at, material="plastic")
    return b.switch(b.ref("lever_type"), [cylinder, half, ellipsoid, sphere, flat])


def build(b: NodeGraph, p: ParamVector) -> str:
    """Record the toaster graph for `p` on `b`; its output node."""
    s_count = int(p["slot_count"])
    lv = int(p["levers_per_slot"])
    n_btn = int(p["buttons_per_lever"])
    length = p["toaster_length"]
    wd = 0.45 * length
    ht = p["slot_depth"] + 0.085  # slots must sink fully into the body
    front = -wd / 2

    body_main = b.rounded_box((length, wd, ht), 0.008, at=(0, 0, ht / 2), material="metal")
    pp = p["protrusion_parameter"] + 0.02
    bulge_x = b.box((pp, wd * 0.75, ht * 0.7), at=(length / 2 + pp / 2 - 0.01, 0, ht * 0.45),
                    material="metal")
    bulge_y = b.box((length * 0.75, pp, ht * 0.7), at=(0, wd / 2 + pp / 2 - 0.01, ht * 0.45),
                    material="metal")
    body = b.switch(
        b.ref("protrusion_axis"),
        [b.merge(body_main, bulge_x), b.merge(body_main, bulge_y)],
    )

    # column band left of the knob
    knob_x = -length / 2 + length * p["knob_horizontal_location"]
    knob_r = p["knob_size"]
    band_left = -length / 2 + 0.03
    band_right = knob_x - knob_r - 0.03
    pitch = (band_right - band_left) / s_count
    col0 = band_left + pitch / 2
    slot_w = min(p["slot_width"], pitch * 0.5)
    slot_len = min(p["slot_length"], wd - 0.03)

    # slot rims on the top face, one per slot
    rim = b.merge(
        b.box((0.008, slot_len + 0.016, 0.006), at=(col0 - slot_w / 2 - 0.004, 0, ht + 0.003),
              material="metal"),
        b.box((0.008, slot_len + 0.016, 0.006), at=(col0 + slot_w / 2 + 0.004, 0, ht + 0.003),
              material="metal"),
        b.box((slot_w + 0.016, 0.008, 0.006), at=(col0, -slot_len / 2 - 0.004, ht + 0.003),
              material="metal"),
        b.box((slot_w + 0.016, 0.008, 0.006), at=(col0, slot_len / 2 + 0.004, ht + 0.003),
              material="metal"),
    )
    slot_points = [(pitch * k, 0.0, 0.0) for k in range(s_count)]
    body = b.duplicate(body, rim, slot_points, count_param="slot_count")

    # per-column cell: an optional button gutter on the left absorbs the
    # per-lever copy shift; levers fill the remainder
    cell = pitch - 0.008
    if n_btn > 0:
        head_size = min(p["dimension_of_lever_handle"], max(0.004, (0.8 * cell - 0.012) / (lv + 1)))
    else:
        head_size = min(p["dimension_of_lever_handle"], max(0.004, cell / lv - 0.008))
    lever_dx = head_size + 0.006
    gutter = (0.2 * cell + lever_dx) if n_btn > 0 else 0.0
    cell_left = col0 - cell / 2
    lever0_x = cell_left + gutter + 0.004 + head_size / 2
    stem_y = front - 0.008
    lever_top = ht - 0.006
    stem = b.box((0.01, 0.008, 0.034), at=(lever0_x, stem_y, lever_top - 0.017),
                 material="metal")
    head = _lever_head(
        b, p, head_size, (lever0_x, stem_y - 0.006 - head_size * 0.25, lever_top - 0.01)
    )
    lever_geom = b.merge(stem, head)
    lever_j = b.prismatic(
        body, lever_geom,
        pivot=(lever0_x, stem_y, lever_top), axis=(0, 0, -1),
        lo=0.0, hi=b.ref("slot_depth"), default=0.0,
        labels=("press", "body", "lever"),
    )

    # buttons stack vertically at the gutter base; lever copies shift them right
    # but the gutter is sized so they never reach the lever zone
    sq = min(p["square_button_width"], 0.15 * cell)
    circ = min(p["circular_button_size"], 0.13 * cell)
    bho = max(-0.005 * cell, min(0.005 * cell, p["button_horizontal_offset"]))
    btn_x = cell_left + 0.015 * cell + sq / 2 + bho
    z_base = ht * 0.55 + max(-0.02, min(0.02, p["button_vertical_offset"]))
    btn_pitch = min(p["inter_button_distances"], max(0.01, (z_base - 0.012 - sq / 2) / 2))
    btn_geom = b.merge(
        b.box((sq, 0.01, sq), at=(btn_x, front - 0.008, z_base), material="plastic"),
        b.cylinder(circ / 2, 0.006, at=(btn_x, front - 0.016, z_base), segments=16,
                   rotate_axis=(1, 0, 0), rotate_angle=math.pi / 2, material="plastic"),
    )
    btn_j = b.prismatic(
        body, btn_geom,
        pivot=(btn_x, front - 0.008, z_base), axis=(0, 1, 0),
        lo=0.0, hi=0.005, default=0.0,
        labels=("push", None, "button"),
    )
    btn_points = [(0.0, 0.0, -btn_pitch * k) for k in range(n_btn)]
    lever_assembly = b.duplicate(lever_j, btn_j, btn_points, count_param="buttons_per_lever")

    lever_points = [(lever_dx * j, 0.0, 0.0) for j in range(lv)]
    levers = b.duplicate(body, lever_assembly, lever_points, count_param="levers_per_slot")

    slots = b.duplicate(body, levers, slot_points, count_param="slot_count")

    knob_z = ht * p["knob_vertical_location"]
    knob = b.merge(
        b.cylinder(knob_r * 1.2, 0.006, at=(knob_x, front - 0.003, knob_z), segments=20,
                   rotate_axis=(1, 0, 0), rotate_angle=math.pi / 2, material="plastic"),
        b.cylinder(knob_r, 0.018, at=(knob_x, front - 0.015, knob_z), segments=20,
                   rotate_axis=(1, 0, 0), rotate_angle=math.pi / 2, material="plastic"),
        b.box((knob_r * 0.3, 0.004, knob_r * 1.6), at=(knob_x, front - 0.026, knob_z),
              material="plastic"),
    )
    out = b.revolute(
        slots, knob,
        pivot=(knob_x, front - 0.015, knob_z), axis=(0, 1, 0),
        lo=-2.4, hi=2.4, default=0.0,
        labels=("browning", None, "knob"),
    )
    return out


def generator() -> CategoryGenerator:
    return CategoryGenerator("toaster", space(), build)
