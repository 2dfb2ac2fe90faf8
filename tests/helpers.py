"""Shared oracles for round-trip checks, link frames and blueprint trees,
per-link dynamics and ElementTree-written export documents, a duplication
fixture, a graph whose joints give one link two parents, document
edits, and a mesh-free reference of link identity decided on concrete link
sets."""

import itertools
import json
import math
from xml.etree import ElementTree as ET

import numpy as np

from artigen.evaluate import LINK_DENSITY, PASSTHROUGH_INERTIA, PASSTHROUGH_MASS
from artigen.export import (
    URDF_LIMIT_EFFORT,
    URDF_LIMIT_VELOCITY,
    _fmt_vec,
    _joint_frame,
    _names,
    _ordered_joints,
    _ordered_links,
    _rpy,
    _slug,
)
from artigen.geometry import RigidTransform, TriMesh, format_float
from artigen.graph import (
    DUPLICATE,
    JOINT_REVOLUTE,
    MERGE,
    PRIMITIVE,
    SEMANTIC_LABEL,
    STORE_ATTRIBUTE,
    SWITCH,
    TRANSFORM,
    NodeGraph,
    ParamRef,
    link_set_relation,
)
from artigen.patterns import build_pattern

# `format_float` writes every number within this much of its value.
FORMAT_ABS = 5e-10


def duplicated_revolute(points):
    """The `simple_revolute` pattern with its hinged rod copied onto its base at
    `points`: a duplicate-joints-on-points node whose parent is the base and
    whose body is the hinged pair."""
    g = build_pattern("simple_revolute")
    hinged = g.output_node
    dup = g.add_node(DUPLICATE, {"points": list(points)})
    g.connect(g.node(hinged).inputs["parent"], dup, "parent")
    g.connect(hinged, dup, "body")
    g.set_output(dup)
    return g


def two_parent_graph():
    """`chained_joints` with its upper rod also jointed to the whole body, so
    that the upper rod gets two distinct parents; returns the graph and the
    id of the added joint."""
    g = build_pattern("chained_joints")
    (upper_rod,) = [
        nid for nid, node in g.nodes.items()
        if node.kind == "transform" and node.params["translate_z"] == 0.5
    ]
    j = g.add_node(
        JOINT_REVOLUTE, {"pivot": (0, 0, 0), "axis": (0, 0, 1), "range_lo": 0, "range_hi": 1}
    )
    g.connect(g.output_node, j, "parent")
    g.connect(upper_rod, j, "child")
    g.set_output(j)
    return g, j


def edited(graph, node_id, kind=None, **params):
    """`graph` loaded back from its document with node `node_id`'s parameters
    updated by `params`, in document form (`{"$param": name}` for a
    reference), after setting its kind to `kind` with no parameters when
    given. A graph's nodes are read-only views, so edits go through its
    document."""
    doc = json.loads(graph.serialize())
    (node,) = [n for n in doc["nodes"] if n["id"] == node_id]
    if kind is not None:
        node["kind"], node["params"] = kind, {}
    node["params"].update(params)
    return NodeGraph.deserialize(json.dumps(doc))


def link_frame_vertices(link):
    """A link's mesh vertices moved into its link frame, by -origin."""
    return RigidTransform.from_translation(-np.asarray(link.origin)).apply(link.mesh.vertices)


def reference_link_dynamics(mesh):
    """(hull, mass, inertia_diag, inertia_origin) of one link-frame mesh,
    computed on its own: Qhull, then the hull's vertices, outward winding,
    canonical row order, checks and volume, and the mesh's bounding box. The
    stacked pass over many meshes (`evaluate._link_dynamics`) must give these
    bit for bit."""
    from scipy.spatial import ConvexHull, QhullError

    passthrough = (None, PASSTHROUGH_MASS, (PASSTHROUGH_INERTIA,) * 3, (0.0, 0.0, 0.0))
    if mesh.n_vertices < 4:
        return passthrough
    try:
        qhull = ConvexHull(mesh.vertices)
    except QhullError:
        return passthrough
    used, inverse = np.unique(qhull.simplices, return_inverse=True)
    verts = mesh.vertices[used]
    tris = inverse.reshape(-1, 3)
    corners = verts[tris]
    normals = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
    flip = np.einsum("ij,ij->i", normals, qhull.equations[:, :3]) < 0.0
    tris = np.where(flip[:, None], tris[:, [0, 2, 1]], tris)
    lead = tris.argmin(axis=1)
    tris = np.take_along_axis(tris, (lead[:, None] + np.arange(3)) % 3, axis=1)
    hull = TriMesh(verts, tris[np.lexsort(tris.T[::-1])])
    corners = hull.triangle_corners()
    volume = np.einsum("ij,ij->i", corners[:, 0], np.cross(corners[:, 1], corners[:, 2])).sum()
    mass = float(volume / 6.0) * LINK_DENSITY
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    e = hi - lo
    inertia = (
        mass / 12.0 * (e[1] ** 2 + e[2] ** 2),
        mass / 12.0 * (e[0] ** 2 + e[2] ** 2),
        mass / 12.0 * (e[0] ** 2 + e[1] ** 2),
    )
    return hull, mass, inertia, tuple(float(c) for c in 0.5 * (lo + hi))


def reference_document(instance, fmt, mesh_paths) -> bytes:
    """The URDF ("urdf") or MJCF ("mjcf") document of an exported instance,
    built as an ElementTree and written by `ET.indent` and `ET.tostring`,
    which the export's direct writer must match byte for byte."""
    link_names, joint_names = _names(instance)
    build = {"urdf": _reference_urdf, "mjcf": _reference_mjcf}[fmt]
    root = build(instance, mesh_paths, link_names, joint_names)
    ET.indent(root, space="  ")
    return b'<?xml version="1.0" encoding="utf-8"?>\n' + ET.tostring(root) + b"\n"


def _reference_urdf(instance, mesh_paths, link_names, joint_names) -> ET.Element:
    """URDF robot: links with inertial, visual and collision, then joints."""
    robot = ET.Element("robot", {"name": f"{instance.category}_{instance.seed:04d}"})
    for link in _ordered_links(instance):
        if link.label:
            robot.append(ET.Comment(f" label: {link.label} "))
        el = ET.SubElement(robot, "link", {"name": link_names[link.link_id]})
        inertial = ET.SubElement(el, "inertial")
        ET.SubElement(
            inertial, "origin", {"xyz": _fmt_vec(link.inertia_origin), "rpy": "0 0 0"}
        )
        ET.SubElement(inertial, "mass", {"value": format_float(link.mass)})
        ixx, iyy, izz = link.inertia_diag
        ET.SubElement(
            inertial,
            "inertia",
            {
                "ixx": format_float(ixx),
                "iyy": format_float(iyy),
                "izz": format_float(izz),
                "ixy": "0",
                "ixz": "0",
                "iyz": "0",
            },
        )
        visual_rel, hull_rel = mesh_paths[link.link_id]
        if visual_rel:
            visual = ET.SubElement(el, "visual")
            geo = ET.SubElement(visual, "geometry")
            ET.SubElement(geo, "mesh", {"filename": visual_rel})
            if link.material:
                ET.SubElement(visual, "material", {"name": link.material})
        if hull_rel:
            collision = ET.SubElement(el, "collision")
            geo = ET.SubElement(collision, "geometry")
            ET.SubElement(geo, "mesh", {"filename": hull_rel})

    for j in _ordered_joints(instance):
        if j.joint_label:
            robot.append(ET.Comment(f" joint label: {j.joint_label} "))
        jtype = "fixed" if j.is_fixed else j.joint_type
        el = ET.SubElement(robot, "joint", {"name": joint_names[j.joint_id], "type": jtype})
        position, rotation = _joint_frame(instance, j)
        rpy = "0 0 0" if rotation is None else _fmt_vec(_rpy(rotation))
        ET.SubElement(el, "origin", {"xyz": _fmt_vec(position), "rpy": rpy})
        ET.SubElement(el, "parent", {"link": link_names[j.parent]})
        ET.SubElement(el, "child", {"link": link_names[j.child]})
        if jtype != "fixed":
            ET.SubElement(el, "axis", {"xyz": _fmt_vec(j.axis)})
            ET.SubElement(
                el,
                "limit",
                {
                    "lower": format_float(j.lo),
                    "upper": format_float(j.hi),
                    "effort": format_float(URDF_LIMIT_EFFORT),
                    "velocity": format_float(URDF_LIMIT_VELOCITY),
                },
            )

    return robot


def _reference_mjcf(instance, mesh_paths, link_names, joint_names) -> ET.Element:
    """MuJoCo MJCF with a nested body tree mirroring the joints."""
    mujoco = ET.Element("mujoco", {"model": f"{instance.category}_{instance.seed:04d}"})
    ET.SubElement(mujoco, "compiler", {"angle": "radian", "meshdir": "meshes", "autolimits": "true"})
    asset = ET.SubElement(mujoco, "asset")
    for link in _ordered_links(instance):
        visual_rel, hull_rel = mesh_paths[link.link_id]
        if visual_rel:
            ET.SubElement(
                asset,
                "mesh",
                {"name": _slug(link.link_id), "file": visual_rel.removeprefix("meshes/")},
            )
        if hull_rel:
            ET.SubElement(
                asset,
                "mesh",
                {"name": _slug(link.link_id) + "_hull", "file": hull_rel.removeprefix("meshes/")},
            )
    worldbody = ET.SubElement(mujoco, "worldbody")

    def emit_body(link_id: str, parent_el: ET.Element, pos, rotation=None):
        link = instance.link(link_id)
        attrs = {"name": link_names[link_id], "pos": _fmt_vec(pos)}
        if rotation is not None:
            attrs["quat"] = _fmt_vec(rotation)
        body = ET.SubElement(parent_el, "body", attrs)
        if link.label:
            body.insert(0, ET.Comment(f" label: {link.label} "))
        ET.SubElement(
            body,
            "inertial",
            {
                "pos": _fmt_vec(link.inertia_origin),
                "mass": format_float(link.mass),
                "diaginertia": _fmt_vec(link.inertia_diag),
            },
        )
        k = instance.tree.parent_joint[instance.tree.link_index[link_id]]
        if k >= 0 and not instance.joints[k].is_fixed:
            j = instance.joints[k]
            ET.SubElement(
                body,
                "joint",
                {
                    "name": joint_names[j.joint_id],
                    "type": "hinge" if j.joint_type == "revolute" else "slide",
                    "pos": "0 0 0",
                    "axis": _fmt_vec(j.axis),
                    "range": f"{format_float(j.lo)} {format_float(j.hi)}",
                },
            )
        visual_rel, hull_rel = mesh_paths[link_id]
        if visual_rel:
            ET.SubElement(
                body,
                "geom",
                {
                    "name": _slug(link_id) + "_visual",
                    "type": "mesh",
                    "mesh": _slug(link_id),
                    "contype": "0",
                    "conaffinity": "0",
                },
            )
        if hull_rel:
            ET.SubElement(
                body,
                "geom",
                {
                    "name": _slug(link_id) + "_collision",
                    "type": "mesh",
                    "mesh": _slug(link_id) + "_hull",
                },
            )
        for j in instance.children_of(link_id):
            emit_body(j.child, body, *_joint_frame(instance, j))

    emit_body(instance.root_link, worldbody, (0.0, 0.0, 0.0))
    return mujoco


def assert_kinematic_isomorphism(instance, parsed, origin_tol=1e-6, axis_tol=1e-9, limit_tol=1e-9):
    """Parsed model must mirror the instance tree with types, axes, origins, limits."""
    link_names, joint_names = _names(instance)
    assert {l.name for l in parsed.links} == set(link_names.values())
    parsed_joints = {j.name: j for j in parsed.joints if j.joint_type != "fixed" or True}

    by_name = {j.name: j for j in parsed.joints}
    synthetic_fixed = [j for j in parsed.joints if j.name.endswith("__fixed")]
    for j in instance.joints:
        name = joint_names[j.joint_id]
        if name in by_name:
            pj = by_name[name]
        else:
            # MJCF welds fixed joints: find the synthetic edge by child body
            candidates = [s for s in synthetic_fixed if s.child == link_names[j.child]]
            assert candidates, f"no parsed joint for {name}"
            pj = candidates[0]
        expected_type = "fixed" if j.is_fixed else j.joint_type
        assert pj.joint_type == expected_type, (name, pj.joint_type, expected_type)
        assert pj.parent == link_names[j.parent]
        assert pj.child == link_names[j.child]
        np.testing.assert_allclose(pj.origin, _joint_frame(instance, j)[0], atol=origin_tol)
        if expected_type != "fixed":
            np.testing.assert_allclose(pj.axis, j.axis, atol=axis_tol)
            assert abs(pj.lo - j.lo) <= limit_tol
            assert abs(pj.hi - j.hi) <= limit_tol
    del parsed_joints
    assert len(parsed.joints) == len(instance.joints)


def pose_parsed_model(model, config):
    """Pose a parsed URDF or MJCF model: parsed link name -> (world transform
    of its frame, its depth in joints below the root, the summed lengths of
    the joint origins from the root, the number of rotated joint origins on
    that path).

    `config` maps parsed joint names to values, each clipped into the written
    range; fixed joints rest. A link's frame is its parent's, moved to the
    joint origin and turned by the origin's rotation, and then turned about
    the joint axis or slid along it by the joint value."""
    incoming = {j.child: j for j in model.joints}
    placed = {}

    def place(name):
        if name not in placed:
            j = incoming.get(name)
            if j is None:
                placed[name] = (RigidTransform.identity(), 0, 0.0, 0)
            else:
                frame, depth, length, turned = place(j.parent)
                frame = frame @ RigidTransform(np.asarray(j.rotation), j.origin)
                if j.joint_type != "fixed":
                    value = min(max(config[j.name], j.lo), j.hi)
                    if j.joint_type == "revolute":
                        frame = frame @ RigidTransform.from_axis_angle(j.axis, value)
                    else:
                        frame = frame @ RigidTransform.from_translation(value * np.asarray(j.axis))
                rotated = tuple(j.rotation) != (1.0, 0.0, 0.0, 0.0)
                length += np.linalg.norm(j.origin)
                placed[name] = (frame, depth + 1, length, turned + rotated)
        return placed[name]

    return {l.name: place(l.name) for l in model.links}


def pose_tolerance(depth: int, reach: float, turn: float, turned: int = 0) -> float:
    """How far a vertex placed from a parsed document may sit from its
    evaluated position, for a link `depth` joints below the root, when no
    point lies farther than `reach` from any pivot, no joint value exceeds
    `turn` in magnitude and `turned` joint origins on the path are rotated.

    Each written number is within FORMAT_ABS, so a written 3-vector is off by
    at most e = sqrt(3) * FORMAT_ABS and a renormalized unit axis by 2e. The
    vertex and the `depth` origins summed to its frame give (1 + depth) e.
    Per joint on the path: its pivot, a sum of at most `depth` origins, is
    off by depth e, which a rotation moves by at most twice that; its axis
    error turns the point by at most 2 * 2e * turn * reach, or slides it by
    2e * turn; its value, clipped into the written range, is off by
    FORMAT_ABS, which turns the point by FORMAT_ABS * reach or slides it by
    FORMAT_ABS. Adding the turning and sliding bounds covers either joint
    type. A rotated origin is written as three angles (URDF roll, pitch and
    yaw), each within FORMAT_ABS, or as a quaternion (MJCF) within
    2 FORMAT_ABS, which renormalizing at most doubles. Two unit quaternions'
    rotations differ by at most twice their distance in angle, so either
    form turns the point by at most 8 * FORMAT_ABS * reach."""
    e = math.sqrt(3) * FORMAT_ABS
    per_joint = 2 * depth * e + (4 * e * turn + FORMAT_ABS) * (reach + 1)
    per_rotation = 8 * FORMAT_ABS * (reach + 1)
    return (1 + depth) * e + depth * per_joint + turned * per_rotation


def parsed_inertials(model_path) -> dict:
    """Link name -> (mass, centre of mass, 3x3 inertia) of each inertial
    block of an exported URDF or MJCF document, in the link frame. A rotated
    link frame (a URDF joint origin's rpy, an MJCF body's quat) turns the
    block with it; asserts that no inertial frame is rotated within its
    link frame."""
    root = ET.parse(model_path).getroot()

    def floats(text):
        return np.array([float(v) for v in text.split()])

    out = {}
    if root.tag == "robot":
        for link in root.iter("link"):
            inertial = link.find("inertial")
            origin = inertial.find("origin")
            assert origin.get("rpy") == "0 0 0"
            i = {k: float(v) for k, v in inertial.find("inertia").attrib.items()}
            inertia = np.array(
                [
                    [i["ixx"], i["ixy"], i["ixz"]],
                    [i["ixy"], i["iyy"], i["iyz"]],
                    [i["ixz"], i["iyz"], i["izz"]],
                ]
            )
            mass = float(inertial.find("mass").get("value"))
            out[link.get("name")] = (mass, floats(origin.get("xyz")), inertia)
    else:
        rotations = {"quat", "axisangle", "euler", "xyaxes", "zaxis", "fullinertia"}
        for body in root.iter("body"):
            inertial = body.find("inertial")
            assert not rotations & set(inertial.attrib)
            inertia = np.diag(floats(inertial.get("diaginertia")))
            mass = float(inertial.get("mass"))
            out[body.get("name")] = (mass, floats(inertial.get("pos")), inertia)
    return out


def blueprint_parts(tree):
    """A blueprint tree's link nodes in depth-first order (the root first),
    its joints as (parent index, child index, joint dict) and its repeat nodes.
    A joint into a variant subtree counts once per branch."""
    links, edges, repeats = [], [], []

    def subtree(node, parent=None, joints=()):
        if node["kind"] == "variant":
            for branch in node["branches"]:
                subtree(branch, parent, joints)
            return
        index = len(links)
        links.append(node)
        edges.extend((parent, index, j) for j in joints)
        for att in node["children"]:
            attachment(att, index)

    def attachment(att, parent):
        if att["kind"] == "joint":
            subtree(att["child"], parent, att["joints"])
        elif att["kind"] == "repeat":
            repeats.append(att)
            for inner in att["attachments"]:
                attachment(inner, parent)
        else:  # a variant over optional joints
            for branch in att["branches"]:
                if branch is not None:
                    attachment(branch, parent)

    subtree(tree)
    return links, edges, repeats


class IdentityFault(Exception):
    """A joint that `concrete_identity` cannot place: `code` is the check's
    diagnostic code for that fault and `node_id` the joint's."""

    def __init__(self, code, node_id):
        super().__init__(f"{code} [{node_id}]")
        self.code, self.node_id = code, node_id


def concrete_identity(graph, values, output=None, decisions=None):
    """The (links, joints) counts of `graph`'s node `output` (the graph's
    output by default) under the parameter `values`, passthrough links of
    composite pairs included, by mesh-free link-identity rules that decide on
    one selection's concrete link sets, the reference for the check's
    decisions: a primitive is a new link, a
    transform copies every link, a switch is its selected option, a merge
    fuses its inputs' roots into a new link and copies an input that shares
    links with an earlier one, and a duplicate merges a jointless body's
    geometry into its parent and otherwise copies the body's links below its
    root per point. A joint compares its parent's and child's link sets: equal
    is a self-loop, overlapping is an overlap, a proper subset is a second
    joint into a child the parent already holds (a composite pair), which is a
    self-loop onto the parent's root or, when the parent holds no joint from
    its root into that child, a second parent; disjoint adds the child. Raises
    IdentityFault at the first joint that hits a fault. Each decision goes
    into `decisions` by node id when given, in the form the check gives it
    (`check_structure`): whether a joint pairs with an existing one, which
    inputs a merge copies, whether a duplicate merges static geometry."""
    decisions = {} if decisions is None else decisions
    fresh = itertools.count().__next__
    memo = {}

    def copy(body):
        root, links, joints = body
        new = {link: fresh() for link in links}
        return new[root], tuple(new[l] for l in links), tuple((new[p], new[c]) for p, c in joints)

    def value(node_id):
        if node_id not in memo:
            memo[node_id] = build(node_id, graph.node(node_id))
        return memo[node_id]

    def build(node_id, node):
        kind, inputs, params = node.kind, node.inputs, node.params
        if kind == PRIMITIVE:
            link = fresh()
            return link, (link,), ()
        if kind == TRANSFORM:
            return copy(value(inputs["geometry"]))
        if kind in (SEMANTIC_LABEL, STORE_ATTRIBUTE):
            return value(inputs["geometry"])
        if kind == SWITCH:
            select = params["select"]
            select = values[select.name] if isinstance(select, ParamRef) else select
            return value(inputs[f"option_{round(select)}"])
        if kind == MERGE:
            seen, bodies, copied = set(), [], []
            for k in range(len(inputs)):
                body = value(inputs[f"geometry_{k}"])
                copied.append(bool(seen & set(body[1])))
                if copied[-1]:
                    body = copy(body)
                seen |= set(body[1])
                bodies.append(body)
            decisions[node_id] = tuple(copied)
            root = fresh()
            links = (root,) + tuple(l for b in bodies for l in b[1][1:])
            joints = tuple((root if p == b[0] else p, c) for b in bodies for p, c in b[2])
            return root, links, joints
        if kind == DUPLICATE:
            parent, body = value(inputs["parent"]), value(inputs["body"])
            decisions[node_id] = not body[2]
            if not body[2]:
                return parent
            links, joints = list(parent[1]), list(parent[2])
            for _ in params["points"]:
                new = {l: fresh() for l in body[1][1:]}
                new[body[0]] = parent[0]
                links += [new[l] for l in body[1][1:]]
                joints += [(new[p], new[c]) for p, c in body[2]]
            return parent[0], tuple(links), tuple(joints)
        parent, child = value(inputs["parent"]), value(inputs["child"])  # a joint
        relation = link_set_relation(frozenset(parent[1]), frozenset(child[1]))
        edge = (parent[0], child[0])
        if relation == "equal" or relation == "nested" and child[0] == parent[0]:
            raise IdentityFault("joint-self-loop", node_id)
        if relation == "overlapping":
            raise IdentityFault("joint-link-overlap", node_id)
        decisions[node_id] = relation == "nested"
        if relation == "nested":
            if edge not in parent[2]:
                raise IdentityFault("joint-two-parents", node_id)
            return parent[0], parent[1], parent[2] + (edge,)
        return parent[0], parent[1] + child[1], parent[2] + child[2] + (edge,)

    _, links, joints = value(graph.output_node if output is None else output)
    # n joints on one link pair chain through n - 1 passthrough links.
    return len(links) + len(joints) - len(set(joints)), len(joints)


def narrowed_counts(tree, values):
    """The (links, joints) counts of a blueprint tree narrowed to one
    selection, passthrough links of composite pairs included: a variant takes
    the branch its selector's value picks, a repeat of jointed copies counts
    its attachments once per unit of its count parameter's value, and a
    repeat of static geometry adds no link."""

    def subtree(node):
        if node["kind"] == "variant":
            return subtree(node["branches"][values[node["selector"]]])
        counts = [attachment(att) for att in node["children"]]
        return 1 + sum(c[0] for c in counts), sum(c[1] for c in counts)

    def attachment(att):
        if att is None:
            return 0, 0
        if att["kind"] == "joint":
            links, joints = subtree(att["child"])
            n = len(att["joints"])  # chained through n - 1 passthrough links
            return links + n - 1, joints + n
        if att["kind"] == "repeat":
            counts = [attachment(a) for a in att["attachments"]]
            n = values[att["count_param"]]
            return n * sum(c[0] for c in counts), n * sum(c[1] for c in counts)
        return attachment(att["branches"][values[att["selector"]]])

    return subtree(tree)
