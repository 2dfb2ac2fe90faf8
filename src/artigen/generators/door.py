"""Door generator: frame, one or two hinged panels, and five handle styles.

Panels hinge about pivots proud of the panel front so the swept panel never
crosses the jamb plane; double doors hinge on opposite outer edges and swing
apart. Articulated handles (lever, knob, crashbar) ride the panel as a second
joint level; the pull bar merges rigidly into the panel link.
"""

from __future__ import annotations

import math

from ..graph import NodeGraph
from ..params import Count, Discrete, ParameterSpace, ParamVector
from .common import CategoryGenerator, continuous_entries

HANDLE_TYPES = ("none", "lever", "knob", "pullbar", "crashbar")
DOOR_TYPES = ("louver", "glass", "panel")

HINGE_STANDOFF = 0.008
HANDLE_INSET = 0.09
MAX_SWING = 1.49  # just under a quarter turn
LOUVER_SLATS = 10


def space() -> ParameterSpace:
    s = ParameterSpace()
    s.add("door_count", Count(1, 2))
    s.add("handle_type", Discrete(HANDLE_TYPES))
    s.add("door_type", Discrete(DOOR_TYPES))
    s.add("hinge_side", Discrete(("left", "right")))
    for name, entry in continuous_entries("door"):
        s.add(name, entry)
    return s


def _panel_geometry(b: NodeGraph, p: ParamVector, wp: float, hp: float):
    """Door-type switch over louver, glass, and flat panel styles; single link."""
    d = p["depth"]
    shrink = p["shrink_width"]
    # louver: frame bands around ten angled slats
    lm = p["louver_margin"]
    wi = wp * p["louver_width"]
    hi = hp - 2 * lm
    band_w = (wp - wi) / 2
    slat_pitch = hi / LOUVER_SLATS
    slat_h = min(p["louver_size"], slat_pitch * 0.75)
    louver_parts = [
        b.box((wp, d, lm), at=(0, 0, (hp - lm) / 2), material="wood"),
        b.box((wp, d, lm), at=(0, 0, -(hp - lm) / 2), material="wood"),
        b.box((band_w, d, hi), at=(-(wp - band_w) / 2, 0, 0), material="wood"),
        b.box((band_w, d, hi), at=((wp - band_w) / 2, 0, 0), material="wood"),
    ]
    for i in range(LOUVER_SLATS):
        z = -hi / 2 + slat_pitch * (i + 0.5)
        louver_parts.append(
            b.box(
                (wi, d * 0.55, slat_h),
                at=(0, 0, z),
                rotate_axis=(1, 0, 0),
                rotate_angle=p["louver_angle"],
                material="wood",
            )
        )
    louver = b.merge(*louver_parts)
    # glass: wooden border with an inset pane
    bw = 0.09 * wp
    glass = b.merge(
        b.box((wp, d, bw), at=(0, 0, (hp - bw) / 2), material="wood"),
        b.box((wp, d, bw), at=(0, 0, -(hp - bw) / 2), material="wood"),
        b.box((bw, d, hp - 2 * bw), at=(-(wp - bw) / 2, 0, 0), material="wood"),
        b.box((bw, d, hp - 2 * bw), at=((wp - bw) / 2, 0, 0), material="wood"),
        b.box((wp - 2 * bw + 0.01, d * 0.35, hp - 2 * bw + 0.01), material="glass"),
    )
    # flat panel with chamfered edges
    bevel = min(p["bevel_width"], (d - 1e-4) / 2)
    plain = b.rounded_box((wp - 2 * shrink, d, hp - 2 * shrink), bevel, material="wood")
    return b.switch(b.ref("door_type"), [louver, glass, plain])


def _lever(b: NodeGraph, p: ParamVector, hx: float, hy: float, hz: float, toward: int):
    """Lever handle geometry; `toward` is the x direction pointing at the hinge."""
    boss = b.cylinder(
        p["lever_middle_radius"],
        p["lever_middle_depth"],
        at=(hx, hy + p["lever_middle_depth"] / 2, hz),
        segments=24,
        rotate_axis=(1, 0, 0),
        rotate_angle=math.pi / 2,
        material="metal",
    )
    lr = p["lever_radius"]
    arm_y = hy + p["lever_middle_depth"] + lr * 1.2
    arm_len = p["lever_length"]
    arm = b.box(
        (arm_len, lr * 2, lr * 2 * (0.7 + 0.6 * p["lever_type"])),
        at=(hx + toward * (arm_len / 2 - lr), arm_y, hz),
        material="metal",
    )
    return b.merge(boss, arm), arm_y


def _knob(b: NodeGraph, p: ParamVector, hx: float, hy: float, hz: float):
    y0 = hy
    parts = []
    for radius, depth in (
        (p["knob_base_radius"], 0.01),
        (p["knob_middle_radius"], p["knob_middle_depth"]),
        ((p["knob_radius"] + p["knob_central_radius"]) / 2, p["knob_depth"]),
    ):
        parts.append(
            b.cylinder(
                radius, depth,
                at=(hx, y0 + depth / 2, hz),
                segments=24,
                rotate_axis=(1, 0, 0),
                rotate_angle=math.pi / 2,
                material="metal",
            )
        )
        y0 += depth
    return b.merge(*parts)


def _pullbar(b: NodeGraph, p: ParamVector, hx: float, face_y: float, hz: float):
    size = p["pull_handle_size"]
    depth = p["pull_handle_depth"] + p["pull_handle_extension"]
    width = p["pull_handle_width"]
    bevel = min(p["pull_handle_bevel_width"], size / 2 - 1e-4)
    bar = b.rounded_box(
        (size, size, width), bevel, at=(hx, face_y + depth + size / 2, hz), material="metal"
    )
    support_z = width / 2 - p["pull_handle_bevel_side_length"] - size / 2
    r = p["pull_handle_pull_radius"]
    supports = [
        b.cylinder(
            r, depth,
            at=(hx, face_y + depth / 2, hz + dz),
            segments=16,
            rotate_axis=(1, 0, 0),
            rotate_angle=math.pi / 2,
            material="metal",
        )
        for dz in (-support_z, support_z)
    ]
    return b.merge(bar, *supports)


def _crashbar(b: NodeGraph, p: ParamVector, panel_cx: float, wp: float, face_y: float, h: float):
    bar_len = wp * p["push_bar_length"] * p["push_bar_length_ratio"]
    t = p["push_bar_thickness"]
    z = h * p["push_bar_height_ratio"] + p["push_bar_overall_z_offset"]
    bar_y = face_y + 0.05
    bar = b.box(
        (bar_len, t, t * p["push_bar_aspect_ratio"] * 0.5),
        at=(panel_cx, bar_y + t / 2, z),
        material="metal",
    )
    end_len = bar_len * p["push_bar_end_length_ratio"]
    end_h = t * p["push_bar_end_height_ratio"]
    ends = [
        b.box(
            (end_len, 0.05, end_h),
            at=(panel_cx + dx, face_y + 0.025, z),
            material="metal",
        )
        for dx in (-(bar_len - end_len) / 2, (bar_len - end_len) / 2)
    ]
    return b.merge(bar, *ends), bar_y, z


def _panel_assembly(b: NodeGraph, p: ParamVector, x_left: float, side: int):
    """One placed panel with its handle switch; side=+1 hinges left, -1 right."""
    wp, h, d, g = p["width"], p["height"], p["depth"], p["panel_margin"]
    hp = h - 2 * g
    cx = x_left + wp / 2
    panel = b._placed(_panel_geometry(b, p, wp, hp), (cx, 0, h / 2))

    face_y = d / 2
    hz = p["handle_height"]
    hx = cx + side * (wp / 2 - HANDLE_INSET)
    toward = -side  # the lever arm points back at the hinge

    lever_geom, lever_y = _lever(b, p, hx, face_y + 0.002, hz, toward)
    lever_j = b.revolute(
        panel, lever_geom,
        pivot=(hx, lever_y, hz), axis=(0, 1, 0),
        lo=-1.1 if side > 0 else 0.0, hi=0.0 if side > 0 else 1.1,
        default=0.0, labels=("handle_turn", None, "handle"),
    )
    knob_geom = _knob(b, p, hx, face_y + 0.002, hz)
    knob_j = b.revolute(
        panel, knob_geom,
        pivot=(hx, face_y + 0.03, hz), axis=(0, 1, 0),
        lo=-1.2, hi=1.2, default=0.0, labels=("handle_turn", None, "handle"),
    )
    pull_geom = _pullbar(b, p, hx, face_y, hz)
    pull_merge = b.merge(panel, pull_geom)
    crash_geom, crash_y, crash_z = _crashbar(b, p, cx, wp, face_y, h)
    crash_j = b.revolute(
        panel, crash_geom,
        pivot=(cx, crash_y, crash_z + p["push_bar_thickness"] * 0.4), axis=(1, 0, 0),
        lo=-0.3, hi=0.0, default=0.0, labels=("handle_push", None, "handle"),
    )
    return b.switch(b.ref("handle_type"), [panel, lever_j, knob_j, pull_merge, crash_j])


def build(b: NodeGraph, p: ParamVector) -> str:
    """Record the door graph for `p` on `b`; its output node."""
    dc = int(p["door_count"])
    wp, h, d, g = p["width"], p["height"], p["depth"], p["panel_margin"]
    fw = p["door_frame_width"]
    wo = dc * wp + (dc + 1) * g
    fd = d + 0.024

    frame = b.merge(
        b.box((fw, fd, h + fw), at=(-fw / 2, 0, (h + fw) / 2), material="wood"),
        b.box((fw, fd, h + fw), at=(wo + fw / 2, 0, (h + fw) / 2), material="wood"),
        b.box((wo, fd, fw), at=(wo / 2, 0, h + fw / 2), material="wood"),
    )

    # single door hinges per the sampled side; double doors mirror at the outer edges
    side0 = 1 if dc == 2 or p["hinge_side"] == 0 else -1
    pivot0_x = 0.0 if side0 > 0 else wo
    panel0 = _panel_assembly(b, p, g, side0)
    hinge0 = b.revolute(
        frame, panel0,
        pivot=(pivot0_x, d / 2 + HINGE_STANDOFF, h / 2), axis=(0, 0, 1),
        lo=0.0 if side0 > 0 else -MAX_SWING, hi=MAX_SWING if side0 > 0 else 0.0,
        default=0.0, labels=("hinge", "frame", "panel"),
    )

    panel1 = _panel_assembly(b, p, g + (wp + g), -1)
    hinge1 = b.revolute(
        hinge0, panel1,
        pivot=(wo, d / 2 + HINGE_STANDOFF, h / 2), axis=(0, 0, 1),
        lo=-MAX_SWING, hi=0.0, default=0.0, labels=("hinge", None, "panel"),
    )
    out = b.switch(b.math("sub", b.ref("door_count"), 1.0), [hinge0, hinge1])
    return out


def generator() -> CategoryGenerator:
    return CategoryGenerator("door", space(), build)
