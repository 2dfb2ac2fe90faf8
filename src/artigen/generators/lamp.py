"""Lamp generator: a base, zero to three arm segments each with a selectable
hinge or slide joint, a shade head, and a switch in one of four styles.

The segment chain is built inside-out (head first), with switch nodes
selecting, per slot, between "absent", a hinged bar, and a sliding bar; the
selector arithmetic runs on math nodes over the declared parameters so the
graph structure is identical for every sampled instance. The switch control
lives on the base or the head per the location parameter; pull strings always
hang from the head.
"""

from __future__ import annotations

import math

from ..errors import InvalidParameterError
from ..graph import GraphBuilder
from ..params import Count, Discrete, ParameterSpace, ParamVector
from .common import CategoryGenerator, continuous_entries

CONTINUOUS_NAMES = [
    "pull_string_radius", "pull_string_base_height", "pull_string_length",
    "button_base_size", "button_size", "button_height",
    "twist_button_base_size", "twist_button_size", "twist_button_height",
    "twist_button_twister_height", "switch_base_size", "switch_size",
    "switch_curvature", "button_x_location",
    "length_of_bar_1", "location_of_bar_2_joint_on_bar_1",
    "length_of_bar_2", "location_of_bar_3_joint_on_bar_2",
    "radius", "height", "radius_of_base", "base_height",
    "number_of_sides_on_base", "shade_height", "rack_height",
    "top_radius", "bottom_radius", "rack_thickness", "number_of_sides_on_shade",
]

SWITCH_TYPES = ("rocker", "twist", "push", "pull_string")
TILT = 0.15  # per-segment hinge range, radians
SLIDE = 0.04  # per-segment slide travel, meters
BAR_GAP = 0.008


def space() -> ParameterSpace:
    s = ParameterSpace()
    s.add("arm_segments", Count(0, 3))
    s.add("segment_1_joint_type", Discrete(("rotational", "translational")))
    s.add("segment_2_joint_type", Discrete(("rotational", "translational")))
    s.add("segment_3_joint_type", Discrete(("rotational", "translational")))
    s.add("switch_type", Discrete(SWITCH_TYPES))
    s.add("switch_location", Discrete(("base", "head")))
    for name, entry in continuous_entries("lamp", CONTINUOUS_NAMES):
        s.add(name, entry)
    return s


def _switch_bodies(b: GraphBuilder, p: ParamVector, host, mount, outward, selector, with_pull):
    """Attach one of the switch styles to `host` at `mount`, facing `outward`.

    Returns a switch node whose option 0 is the bare host (switch absent,
    i.e. mounted on the other end of the lamp).
    """
    mx, my, mz = mount
    options = [host]
    # rocker: tilting paddle proud of the mount point
    paddle = max(p["switch_size"], p["switch_base_size"] * 0.6)
    rocker_geom = b.box(
        (paddle, 0.008 + 0.006 * p["switch_curvature"], paddle * 1.6),
        at=(mx + outward[0] * 0.009, my + outward[1] * 0.009, mz),
        material="plastic",
    )
    rocker = b.revolute(
        host, rocker_geom,
        pivot=(mx + outward[0] * 0.009, my + outward[1] * 0.009, mz),
        axis=(1, 0, 0), lo=-0.25, hi=0.25, default=0.0,
        labels=("toggle", None, "switch"),
    )
    # twist: knurled stem rotating about its own axis
    th = p["twist_button_height"]
    twist_geom = b.merge(
        b.cylinder(p["twist_button_base_size"] / 2, 0.006,
                   at=(mx + outward[0] * 0.003, my + outward[1] * 0.003, mz),
                   segments=16, rotate_axis=(1, 0, 0) if outward[1] else (0, 1, 0),
                   rotate_angle=math.pi / 2, material="plastic"),
        b.box((p["twist_button_size"], p["twist_button_size"],
               p["twist_button_twister_height"]),
              at=(mx + outward[0] * (0.006 + th / 2), my + outward[1] * (0.006 + th / 2), mz),
              material="plastic"),
    )
    twist_axis = (outward[0], outward[1], 0)
    twist = b.revolute(
        host, twist_geom,
        pivot=(mx + outward[0] * 0.006, my + outward[1] * 0.006, mz),
        axis=twist_axis, lo=-1.5, hi=1.5, default=0.0,
        labels=("toggle", None, "switch"),
    )
    # push: button sliding along the outward normal
    push_geom = b.merge(
        b.cylinder(p["button_base_size"] / 2, 0.005,
                   at=(mx + outward[0] * 0.0025, my + outward[1] * 0.0025, mz),
                   segments=16, rotate_axis=(1, 0, 0) if outward[1] else (0, 1, 0),
                   rotate_angle=math.pi / 2, material="plastic"),
        b.cylinder(p["button_size"] / 2, p["button_height"],
                   at=(mx + outward[0] * (0.005 + p["button_height"] / 2),
                       my + outward[1] * (0.005 + p["button_height"] / 2), mz),
                   segments=16, rotate_axis=(1, 0, 0) if outward[1] else (0, 1, 0),
                   rotate_angle=math.pi / 2, material="plastic"),
    )
    push = b.prismatic(
        host, push_geom,
        pivot=(mx + outward[0] * 0.005, my + outward[1] * 0.005, mz),
        axis=(-outward[0], -outward[1], 0), lo=0.0, hi=0.004, default=0.0,
        labels=("toggle", None, "switch"),
    )
    options.extend([rocker, twist, push])
    if with_pull:
        psl = p["pull_string_length"]
        string = b.merge(
            b.cylinder(p["pull_string_radius"] * 2.5, p["pull_string_base_height"],
                       at=(mx, my, mz - p["pull_string_base_height"] / 2), segments=12,
                       material="metal"),
            b.cylinder(p["pull_string_radius"], psl,
                       at=(mx, my, mz - p["pull_string_base_height"] - psl / 2), segments=8,
                       material="plastic"),
        )
        pull = b.prismatic(
            host, string,
            pivot=(mx, my, mz - p["pull_string_base_height"]),
            axis=(0, 0, -1), lo=0.0, hi=psl * 0.4, default=0.0,
            labels=("toggle", None, "switch"),
        )
        options.append(pull)
    return b.switch(selector, options)


def _sides(p: ParamVector, name: str) -> int:
    sides = int(round(p[name]))
    if sides < 3:
        raise InvalidParameterError(f"{name} rounds to {sides}; a prism needs at least 3 sides")
    return sides


def build(b: GraphBuilder, p: ParamVector) -> str:
    """Record the lamp graph for `p` on `b`; its output node."""
    arm = int(p["arm_segments"])
    r_bar = p["radius"]
    base_r = p["radius_of_base"]
    base_h = p["base_height"]
    base_sides = _sides(p, "number_of_sides_on_base")
    l1 = p["length_of_bar_1"]
    l2 = p["length_of_bar_2"]
    l3 = l2 * 0.85
    lengths = [l1, l2, l3]

    # bar stack positions (head sits on top of the last present bar)
    z0 = base_h + 0.01 + r_bar  # pivot standoff keeps tilted bar rims clear
    bar_lo = []
    z = z0
    for i in range(3):
        bar_lo.append(z)
        z += lengths[i] + BAR_GAP
    head_z = bar_lo[arm - 1] + lengths[arm - 1] + BAR_GAP if arm > 0 else z0

    # head: tapered shade, harp post, bulb
    shade_h = p["shade_height"]
    bulb_h = p["height"]
    shade_sides = _sides(p, "number_of_sides_on_shade")
    post = b.cylinder(p["rack_thickness"], p["rack_height"] + bulb_h,
                      at=(0, 0, head_z + (p["rack_height"] + bulb_h) / 2), segments=12,
                      material="metal")
    bulb = b.sphere(max(0.02, bulb_h * 0.3),
                    at=(0, 0, head_z + p["rack_height"] + bulb_h * 0.6), segments=16,
                    material="glass")
    shade = b.prism(
        p["bottom_radius"], shade_h, shade_sides,
        at=(0, 0, head_z + p["rack_height"] + bulb_h * 0.55),
        top_radius=p["top_radius"], material="plastic",
    )
    head_geom = b.label(b.merge(post, bulb, shade), "head")
    shade_apothem = p["bottom_radius"] * math.cos(math.pi / shade_sides)
    head_mount_z = head_z + p["rack_height"] + bulb_h * 0.55 - shade_h / 2 + 0.02
    type_ref = b.ref("switch_type")
    is_pull = b.clamp01(b.math("sub", type_ref, 2.0))
    at_head = b.math("max", b.ref("switch_location"), is_pull)
    sel_head = b.math("mul", at_head, b.math("add", 1.0, type_ref))
    sel_base = b.math("mul", b.math("sub", 1.0, at_head), b.math("add", 1.0, type_ref))
    head_body = _switch_bodies(
        b, p,
        head_geom,
        (shade_apothem + 0.001, 0.0, head_mount_z),
        (1, 0),
        sel_head,
        with_pull=True,
    )

    # base with its own optional switch on the side face
    base_geom = b.label(
        b.prism(base_r, base_h, base_sides, at=(0, 0, base_h / 2), material="metal"),
        "base",
    )
    base_apothem = base_r * math.cos(math.pi / base_sides)
    base_mount_z = base_h * (0.3 + 0.4 * p["button_x_location"])
    base_body = _switch_bodies(
        b, p,
        base_geom,
        (base_apothem + 0.001, 0.0, base_mount_z),
        (1, 0),
        sel_base,
        with_pull=False,
    )

    # chain, built inside-out: C3 sits under bar 2, C1 under the base joint
    arm_ref = b.ref("arm_segments")
    bars = [
        b.label(
            b.cylinder(r_bar, lengths[i], at=(0, 0, bar_lo[i] + lengths[i] / 2), segments=16,
                       material="metal"),
            "bar",
        )
        for i in range(3)
    ]
    joint_fracs = [
        p["location_of_bar_2_joint_on_bar_1"],
        p["location_of_bar_3_joint_on_bar_2"],
        0.9,
    ]

    def seg_joint(kind_sel, parent_bar, child_body, pivot_z, label):
        """Variant joint: 0 fixed head attach, 1 hinge, 2 slide."""
        fixed = b.fixed(parent_bar, child_body, (0, 0, pivot_z), labels=("mount", None, None))
        hinge = b.revolute(
            parent_bar, child_body, pivot=(0, 0, pivot_z), axis=(0, 1, 0),
            lo=-TILT, hi=TILT, default=0.0, labels=(label, None, None),
        )
        slide = b.prismatic(
            parent_bar, child_body, pivot=(0, 0, pivot_z), axis=(0, 0, 1),
            lo=0.0, hi=SLIDE, default=0.0, labels=(label, None, None),
        )
        return b.switch(kind_sel, [fixed, hinge, slide])

    def presence(i):
        return b.clamp01(b.math("sub", arm_ref, float(i - 1)))

    def joint_sel(i):
        # 0 when segment i+1 is absent (fixed head mount), else 1 + type
        gate = b.clamp01(b.math("sub", arm_ref, float(i)))
        ty = b.ref(f"segment_{i + 1}_joint_type")
        return b.math("mul", gate, b.math("add", 1.0, ty))

    c_next = head_body
    for i in (3, 2, 1):
        bar = bars[i - 1]
        pivot_z = bar_lo[i - 1] + lengths[i - 1] * (joint_fracs[i - 1] if i < 3 else 0.9)
        if i == 3:
            d_i = b.fixed(bar, c_next, (0, 0, pivot_z), labels=("mount", None, f"bar_{i}"))
        else:
            d_i = seg_joint(joint_sel(i), bar, c_next, pivot_z, f"elbow_{i + 1}")
        # name the bar link through a semantic label on the bar geometry
        c_next = b.switch(presence(i), [c_next, d_i])

    base_sel = b.math("mul", b.clamp01(arm_ref), b.math("add", 1.0, b.ref("segment_1_joint_type")))
    fixed0 = b.fixed(base_body, c_next, (0, 0, base_h + 0.005), labels=("mount", "base", None))
    hinge0 = b.revolute(
        base_body, c_next, pivot=(0, 0, z0), axis=(0, 1, 0),
        lo=-TILT, hi=TILT, default=0.0, labels=("elbow_1", "base", None),
    )
    slide0 = b.prismatic(
        base_body, c_next, pivot=(0, 0, z0), axis=(0, 0, 1),
        lo=0.0, hi=SLIDE, default=0.0, labels=("elbow_1", "base", None),
    )
    out = b.switch(base_sel, [fixed0, hinge0, slide0])
    return out


def generator() -> CategoryGenerator:
    return CategoryGenerator("lamp", space(), build)
