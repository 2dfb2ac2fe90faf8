"""Refrigerator generator: hinged doors with door shelves, interior shelves,
interior drawers behind the doors, and external freezer drawers.

The front face is +y. All interior articulation stays behind the closed-door
plane across its whole range, so sweeps remain clean with doors shut; door
shelves swing with their door and never dip deeper into the cavity than the
closed pose (pivot proud of the door front).
"""

from __future__ import annotations

from ..graph import GraphBuilder
from ..params import Count, ParameterSpace, ParamVector
from .common import CategoryGenerator, continuous_entries

CONTINUOUS_NAMES = [
    "size", "wall_thickness", "body_outer_roundness", "body_inner_roundness",
    "door_handle_margin", "door_shelf_size", "door_shelf_thickness", "door_shelf_num",
    "door_shelf_margin", "door_handle_top_size", "door_handle_top_thickness",
    "door_handle_top_roundness", "door_handle_support_size", "door_handle_support_margin",
    "door_left_margin", "door_right_margin", "door_upper_margin", "door_lower_margin",
    "shelf_margin", "shelf_thickness", "shelf_board_margin",
    "drawer_height", "drawer_wall_thickness", "drawer_handle_margin",
    "drawer_handle_top_size", "drawer_handle_top_thickness", "drawer_handle_top_roundness",
    "drawer_handle_support_size", "drawer_handle_support_margin",
    "drawer_body_roundness", "drawer_slide_roundness", "drawer_inner_roundness",
]

MAX_SWING = 1.49
HINGE_STANDOFF = 0.006


def space() -> ParameterSpace:
    s = ParameterSpace()
    s.add("door_count", Count(1, 2))
    s.add("external_drawer_count", Count(0, 2))
    s.add("internal_shelf_count", Count(0, 3))
    s.add("internal_drawer_count", Count(0, 2))
    s.add("shelves_per_door", Count(0, 4))
    for name, entry in continuous_entries("fridge", CONTINUOUS_NAMES):
        s.add(name, entry)
    return s


def _bar_handle(b: GraphBuilder, p, prefix, x, y0, z_center, length, vertical=True):
    """Vertical or horizontal bar handle with two supports, proud of +y."""
    top = p[f"{prefix}_handle_top_size"]
    thick = p[f"{prefix}_handle_top_thickness"]
    supp = p[f"{prefix}_handle_support_size"]
    supp_margin = p[f"{prefix}_handle_support_margin"]
    bevel = min(p[f"{prefix}_handle_top_roundness"], min(top, thick) / 2 - 5e-4)
    depth = supp + thick
    if vertical:
        bar = b.rounded_box((top, thick, length), bevel,
                            at=(x, y0 + supp + thick / 2, z_center), material="metal")
        off = length / 2 - supp_margin
        supports = [
            b.box((top * 0.8, supp, top * 0.8), at=(x, y0 + supp / 2, z_center + dz),
                  material="metal")
            for dz in (-off, off)
        ]
    else:
        bar = b.rounded_box((length, thick, top), bevel,
                            at=(x, y0 + supp + thick / 2, z_center), material="metal")
        off = length / 2 - supp_margin
        supports = [
            b.box((top * 0.8, supp, top * 0.8), at=(x + dx, y0 + supp / 2, z_center),
                  material="metal")
            for dx in (-off, off)
        ]
    return b.merge(bar, *supports), depth


def build(b: GraphBuilder, p: ParamVector) -> str:
    """Record the fridge graph for `p` on `b`; its output node."""
    dc = int(p["door_count"])
    s = p["size"]
    w = p["wall_thickness"]
    width, depth, height = 0.62 * s, 0.6 * s, 1.42 * s
    y_front = depth / 2
    z_div = 0.38 * height  # freezer below, fridge above
    outer_bevel = min(p["body_outer_roundness"], w / 2 - 1e-4)
    inner_bevel = min(p["body_inner_roundness"], w / 2 - 1e-4)

    shell = b.merge(
        b.rounded_box((w, depth, height), outer_bevel,
                      at=(-(width - w) / 2, 0, height / 2), material="metal"),
        b.rounded_box((w, depth, height), outer_bevel,
                      at=((width - w) / 2, 0, height / 2), material="metal"),
        b.box((width - 2 * w, w, height), at=(0, -(depth - w) / 2, height / 2),
              material="metal"),
        b.box((width - 2 * w, depth - w, w), at=(0, -w / 2, w / 2), material="metal"),
        b.box((width - 2 * w, depth - w, w), at=(0, -w / 2, height - w / 2),
              material="metal"),
        b.rounded_box((width - 2 * w, depth - w, w), inner_bevel,
                      at=(0, -w / 2, z_div), material="metal"),
    )

    # interior bounds: everything static stays behind the door-shelf swing zone
    door_shelf_zone = p["door_shelf_size"] + 0.02
    y_interior = y_front - door_shelf_zone - 0.01
    cavity_back = -depth / 2 + w
    interior_depth = y_interior - cavity_back
    upper_lo, upper_hi = z_div + w / 2, height - w

    # interior shelves occupy the upper half of the fridge cavity
    shelf_t = p["shelf_thickness"]
    shelf_w = width - 2 * w - 2 * p["shelf_margin"]
    shelf_depth = interior_depth - p["shelf_board_margin"]
    shelf_zone_lo = upper_lo + 0.45 * (upper_hi - upper_lo)
    shelf_pitch = (upper_hi - shelf_zone_lo) / 4
    shelf = b.box((shelf_w, shelf_depth, shelf_t),
                  at=(0, cavity_back + shelf_depth / 2, shelf_zone_lo + shelf_pitch / 2),
                  material="glass")
    # `anchor` stays the parent of every jointed sub-body so duplication bodies
    # hold exactly one joint; `acc` accumulates the realized links.
    anchor = b.duplicate(
        shell, shelf,
        [(0.0, 0.0, shelf_pitch * k) for k in range(int(p["internal_shelf_count"]))],
        count_param="internal_shelf_count",
    )

    # interior drawers slide in the lower half of the fridge cavity; they may
    # extend only to the back plane of the door shelves (which never dip
    # deeper than their closed pose), minus a margin
    dwall = p["drawer_wall_thickness"]
    d_h = min(p["drawer_height"] * 0.55, (shelf_zone_lo - upper_lo - 0.02) / 2 - 0.008)
    d_w = width - 2 * w - 0.02
    d_depth = interior_depth - 0.015
    drawer_front_y = y_interior - 0.005
    door_shelf_back = y_front + 0.003 - p["door_shelf_size"]
    travel = door_shelf_back - 0.006 - drawer_front_y
    inner_bevel_d = min(p["drawer_inner_roundness"], dwall / 2 - 1e-4)

    def drawer_geom(dz, d_width, d_height, d_dep):
        """Interior bin with an integrated lip; nothing protrudes past its front."""
        back = drawer_front_y - d_dep
        lip = min(p["drawer_handle_top_size"], d_height * 0.4)
        parts = [
            b.box((d_width - 2 * dwall, d_dep - 2 * dwall, dwall),
                  at=(0, back + d_dep / 2, dz - d_height / 2 + dwall / 2), material="plastic"),
            b.rounded_box((dwall, d_dep, d_height), inner_bevel_d,
                          at=(-(d_width - dwall) / 2, back + d_dep / 2, dz), material="plastic"),
            b.rounded_box((dwall, d_dep, d_height), inner_bevel_d,
                          at=((d_width - dwall) / 2, back + d_dep / 2, dz), material="plastic"),
            b.box((d_width - 2 * dwall, dwall, d_height),
                  at=(0, back + dwall / 2, dz), material="plastic"),
            b.box((d_width, dwall, d_height), at=(0, drawer_front_y - dwall / 2, dz),
                  material="plastic"),
            b.box(
                (max(0.06, d_width - 2 * p["drawer_handle_margin"] - 0.02),
                 p["drawer_handle_top_thickness"], lip),
                at=(0, drawer_front_y - dwall - p["drawer_handle_top_thickness"] / 2,
                    dz + d_height / 2 - lip / 2),
                material="plastic",
            ),
        ]
        return b.merge(*parts)

    idrawer_z0 = upper_lo + 0.01 + d_h / 2
    idrawer = drawer_geom(idrawer_z0, d_w, d_h, d_depth)
    idrawer_j = b.prismatic(
        anchor, idrawer,
        pivot=(0, drawer_front_y, idrawer_z0), axis=(0, 1, 0),
        lo=0.0, hi=travel, default=0.0,
        labels=("slide", "body", "internal_drawer"),
    )
    acc = b.duplicate(
        anchor, idrawer_j,
        [(0.0, 0.0, (d_h + 0.012) * k) for k in range(int(p["internal_drawer_count"]))],
        count_param="internal_drawer_count",
    )

    # external freezer drawers slide out through the open lower front
    ed_count = int(p["external_drawer_count"])
    ed_slot_h = (z_div - w - 0.02) / 2
    ed_h = ed_slot_h - 0.012
    ed_front_y = y_front + 0.004
    ed_z0 = w + 0.01 + ed_slot_h / 2

    def ext_drawer(dz):
        face = b.rounded_box(
            (width - 0.012, 0.024, ed_slot_h - 0.006),
            min(p["drawer_body_roundness"], 0.011),
            at=(0, ed_front_y + 0.012, dz), material="metal",
        )
        bin_w = width - 2 * w - 0.02
        bin_depth = depth - 2 * w - 0.03
        back = ed_front_y - bin_depth
        bevel = min(p["drawer_slide_roundness"], dwall / 2 - 1e-4)
        parts = [
            face,
            b.box((bin_w - 2 * dwall, bin_depth - 2 * dwall, dwall),
                  at=(0, back + bin_depth / 2, dz - ed_h / 2 + dwall / 2), material="plastic"),
            b.rounded_box((dwall, bin_depth, ed_h * 0.8), bevel,
                          at=(-(bin_w - dwall) / 2, back + bin_depth / 2, dz - ed_h * 0.1),
                          material="plastic"),
            b.rounded_box((dwall, bin_depth, ed_h * 0.8), bevel,
                          at=((bin_w - dwall) / 2, back + bin_depth / 2, dz - ed_h * 0.1),
                          material="plastic"),
            b.box((bin_w - 2 * dwall, dwall, ed_h * 0.8),
                  at=(0, back + dwall / 2, dz - ed_h * 0.1), material="plastic"),
        ]
        handle, _ = _bar_handle(
            b, p, "drawer", 0.0, ed_front_y + 0.024, dz,
            max(0.1, width - 2 * p["drawer_handle_margin"] - 0.06), vertical=False,
        )
        parts.append(handle)
        return b.merge(*parts)

    edrawer = ext_drawer(ed_z0)
    edrawer_j = b.prismatic(
        anchor, edrawer,
        pivot=(0, ed_front_y, ed_z0), axis=(0, 1, 0),
        lo=0.0, hi=0.3 * s, default=0.0,
        labels=("slide", None, "external_drawer"),
    )
    acc = b.duplicate(
        acc, edrawer_j,
        [(0.0, 0.0, ed_slot_h * k) for k in range(ed_count)],
        count_param="external_drawer_count",
    )

    # doors with shelves on the inner face; second door present when door_count=2
    def door_assembly(k):
        gd_l, gd_r = p["door_left_margin"], p["door_right_margin"]
        gd_u, gd_b = p["door_upper_margin"], p["door_lower_margin"]
        door_w = (width - gd_l - gd_r - (dc - 1) * 0.004) / dc
        door_h = height - z_div - gd_u - gd_b
        door_t = 0.045 * s
        x_left = -width / 2 + gd_l + k * (door_w + 0.004)
        cx = x_left + door_w / 2
        cz = z_div + gd_b + door_h / 2
        door_y0 = y_front + 0.003
        side = 1 if k == 0 else -1  # left door hinges left, right door hinges right
        if dc == 1:
            side = 1
        panel = b.rounded_box((door_w, door_t, door_h), outer_bevel,
                              at=(cx, door_y0 + door_t / 2, cz), material="metal")
        handle_x = cx + side * (door_w / 2 - p["door_handle_margin"])
        handle, _ = _bar_handle(
            b, p, "door", handle_x, door_y0 + door_t, cz, door_h * 0.5, vertical=True,
        )
        # door shelves hang on the inner face, spaced by door_shelf_num skew
        shelf_count = int(p["shelves_per_door"])
        ds_t = p["door_shelf_thickness"]
        ds_w = door_w - 2 * p["door_shelf_margin"]
        skew = 0.8 + 0.1 * p["door_shelf_num"]  # spacing stretch, an extra fine control
        ds_pitch = (door_h - 0.1) / 4 * min(1.25, skew)
        ds_z0 = cz - door_h / 2 + 0.08
        ds = b.box((ds_w, p["door_shelf_size"], ds_t),
                   at=(cx, door_y0 - p["door_shelf_size"] / 2, ds_z0), material="plastic")
        door_geom = b.duplicate(
            b.merge(panel, handle), ds,
            [(0.0, 0.0, ds_pitch * i) for i in range(shelf_count)],
            count_param="shelves_per_door",
        )
        pivot_x = x_left - gd_l if side > 0 else x_left + door_w + gd_r
        return door_geom, pivot_x, side, door_y0 + door_t + HINGE_STANDOFF, cz

    door0, pivot0_x, side0, pivot0_y, cz0 = door_assembly(0)
    with_door0 = b.revolute(
        acc, door0,
        pivot=(pivot0_x, pivot0_y, cz0), axis=(0, 0, 1),
        lo=0.0 if side0 > 0 else -MAX_SWING, hi=MAX_SWING if side0 > 0 else 0.0,
        default=0.0, labels=("hinge", "body", "door"),
    )
    door1, pivot1_x, side1, pivot1_y, cz1 = door_assembly(1)
    with_door1 = b.revolute(
        with_door0, door1,
        pivot=(pivot1_x, pivot1_y, cz1), axis=(0, 0, 1),
        lo=-MAX_SWING, hi=0.0, default=0.0, labels=("hinge", None, "door"),
    )
    out = b.switch(b.math("sub", b.ref("door_count"), 1.0), [with_door0, with_door1])
    return out


def generator() -> CategoryGenerator:
    return CategoryGenerator("fridge", space(), build)
