"""Lower an AssetInstance to URDF or MJCF documents plus OBJ meshes, and parse
emitted documents back for round-trip verification.

Output is byte-deterministic: fixed element order (depth-first over the
instance's tree), nine-significant-digit floats, and relative mesh paths so
bundles stay relocatable.

An instance keeps its meshes in the construction frame; export alone writes
link frames. Each link's frame sits at its `origin`, its incoming joint's
pivot, without rotation, and the OBJ files hold each link's `frame_mesh`, the
mesh moved there, which its hull and dynamics are also computed from. A
translation can round a triangle's area below DEGENERATE_AREA, so the first
export of an instance checks those moved meshes in one pass
(`AssetInstance.frame_meshes`) before it writes them.

Dynamics are computed per instance, once per distinct mesh: the first export
runs one pass over the instance's distinct link-frame meshes (Qhull once per
mesh, the rest stacked) and keeps their encoded OBJ records
(`AssetInstance.obj_records`), so a duplicate's copies are hulled and
formatted once, and a second export of the instance formats nothing. The
documents are written directly as text, in the bytes that ElementTree's
`indent` and `tostring` give (`_XmlWriter`); ElementTree only parses them
back.
"""

from __future__ import annotations

import json
import logging
import math
import re
from dataclasses import dataclass
from pathlib import Path
from xml.etree import ElementTree as ET

import numpy as np

from . import __version__
from .blueprint import AssetInstance
from .errors import (
    DocumentParseError,
    InvalidParameterError,
    MissingParameterError,
    StructuralError,
)
from .evaluate import EvaluatedJoint, EvaluatedLink
from .geometry import RigidTransform, format_float, quat_to_matrix
from .kinematics import KinematicTree
from .params import ParamVector, _is_whole, _read_json

log = logging.getLogger(__name__)

URDF_LIMIT_EFFORT = 100.0
URDF_LIMIT_VELOCITY = 1.0


@dataclass(frozen=True)
class ExportBundle:
    root: Path
    model_path: Path
    format: str
    mesh_paths: dict  # link_id -> (visual relative path, hull relative path | None)


@dataclass(frozen=True)
class ParsedLink:
    name: str
    visual_mesh: str | None
    collision_mesh: str | None
    mass: float | None


@dataclass(frozen=True)
class ParsedJoint:
    name: str
    joint_type: str
    parent: str
    child: str
    origin: tuple[float, float, float]
    axis: tuple[float, float, float] | None
    lo: float | None
    hi: float | None
    rotation: tuple[float, float, float, float] = (1.0, 0.0, 0.0, 0.0)  # of the origin, w first

    @property
    def joint_id(self) -> str:
        return self.name


@dataclass(frozen=True)
class ParsedModel:
    name: str
    links: tuple[ParsedLink, ...]
    joints: tuple[ParsedJoint, ...]

    def verify_tree(self) -> None:
        """Raise StructuralError unless the joints have names and form one tree
        over the links, as KinematicTree accepts it."""
        for j in self.joints:
            if j.name is None:
                raise StructuralError(f"joint into link {j.child} has no name")
        children = {j.child for j in self.joints}
        roots = [l.name for l in self.links if l.name not in children]
        if len(roots) != 1:
            raise StructuralError(f"model has {len(roots)} roots")
        KinematicTree(roots[0], [l.name for l in self.links], self.joints)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _fmt_vec(values) -> str:
    return " ".join(format_float(float(v)) for v in values)


def _slug(link_id: str) -> str:
    return link_id.replace("/", "_")


def _ordered_links(instance: AssetInstance) -> list[EvaluatedLink]:
    """Depth-first order over the instance's tree, children by joint id."""
    return [instance.links[i] for i in instance.tree.order]


def _ordered_joints(instance: AssetInstance) -> list[EvaluatedJoint]:
    """Each link's child joints by joint id, links in depth-first order."""
    tree = instance.tree
    return [instance.joints[k] for i in tree.order for k in tree.children[i]]


def _names(instance: AssetInstance):
    link_names = {
        l.link_id: f"{instance.category}/{l.label or 'link'}/{i}"
        for i, l in enumerate(_ordered_links(instance))
    }
    joint_names = {
        j.joint_id: f"{instance.category}/{j.joint_label or 'joint'}/{i}"
        for i, j in enumerate(_ordered_joints(instance))
    }
    return link_names, joint_names


def _joint_frame(instance: AssetInstance, j: EvaluatedJoint):
    """The child link frame of `j` in its parent's frame: a position, and a
    unit quaternion (w first) or None for no rotation.

    Link frames are unrotated and sit at their incoming joint's pivot, which a
    movable joint moves from its zero value. A fixed joint (lo == hi) does not
    move, so its frame carries its value's motion: a turn about its axis or a
    slide along it. At value 0 that is nothing."""
    pivot = instance.pivot_in_parent(j)
    value = j.default
    if not j.is_fixed or value == 0.0:
        return pivot, None
    if j.joint_type == "prismatic":
        return pivot + value * np.asarray(j.axis), None
    return pivot, RigidTransform.from_axis_angle(j.axis, value).rotation


def _rpy(rotation) -> tuple[float, float, float]:
    """URDF roll, pitch and yaw of a unit quaternion: its matrix is
    Rz(yaw) Ry(pitch) Rx(roll). At pitch +-pi/2 the yaw is taken as 0."""
    m = quat_to_matrix(np.asarray(rotation))
    cos_pitch = math.hypot(m[0, 0], m[1, 0])
    pitch = math.atan2(-m[2, 0], cos_pitch)
    if cos_pitch < 1e-12:
        return math.atan2(-m[1, 2], m[1, 1]), pitch, 0.0
    return math.atan2(m[2, 1], m[2, 2]), pitch, math.atan2(m[1, 0], m[0, 0])


def _rpy_rotation(rpy) -> tuple[float, float, float, float]:
    """The unit quaternion (w first) of URDF roll, pitch and yaw."""
    roll, pitch, yaw = rpy
    t = (
        RigidTransform.from_axis_angle((0, 0, 1), yaw)
        @ RigidTransform.from_axis_angle((0, 1, 0), pitch)
        @ RigidTransform.from_axis_angle((1, 0, 0), roll)
    )
    return tuple(t.rotation.tolist())


def _write_meshes(instance: AssetInstance, out_dir: Path) -> dict:
    mesh_dir = out_dir / "meshes"
    mesh_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    records = instance.obj_records  # formatted on the instance's first export
    for i in instance.tree.order:
        link_id = instance.links[i].link_id
        visual, hull = records[i]
        if visual is None:
            paths[link_id] = (None, None)
            continue
        slug = _slug(link_id)
        visual_rel = f"meshes/{slug}.obj"
        (out_dir / visual_rel).write_bytes(b"o %s\n%s" % (slug.encode(), visual))
        hull_rel = None
        if hull is not None:
            hull_rel = f"meshes/{slug}.hull.obj"
            (out_dir / hull_rel).write_bytes(b"o %s_hull\n%s" % (slug.encode(), hull))
        paths[link_id] = (visual_rel, hull_rel)
    return paths


# ElementTree's attribute escaping (`_escape_attrib`), for values holding any
# of these characters.
_ESCAPED = re.compile('[&<>"\r\n\t]')
_ESCAPES = str.maketrans(
    {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"}
    | {"\r": "&#13;", "\n": "&#10;", "\t": "&#09;"}
)


class _XmlWriter:
    """An XML document written line by line, in the bytes that
    `ET.indent(root, space="  ")` then `ET.tostring(root)` give for the same
    elements, after an XML declaration: each element and comment on a line
    of its own, two spaces deeper per level; an element without children
    closes itself (" />"); attributes in the order given, escaped as
    ElementTree escapes them; comments raw; and every character outside
    ASCII as a character reference."""

    def __init__(self):
        self.lines = ['<?xml version="1.0" encoding="utf-8"?>']
        self.open_elements: list[tuple[str, int]] = []  # (tag, line of its start tag)

    def _start(self, tag: str, attrs: dict | None) -> str:
        line = "  " * len(self.open_elements) + "<" + tag
        for key, value in (attrs or {}).items():
            if _ESCAPED.search(value):
                value = value.translate(_ESCAPES)
            line += f' {key}="{value}"'
        return line

    def comment(self, text: str) -> None:
        self.lines.append("  " * len(self.open_elements) + f"<!--{text}-->")

    def element(self, tag: str, attrs: dict | None = None) -> None:
        """An element without children."""
        self.lines.append(self._start(tag, attrs) + " />")

    def open(self, tag: str, attrs: dict | None = None) -> "_XmlWriter":
        """Start an element, which ends where the `with` block this starts ends."""
        self.lines.append(self._start(tag, attrs) + ">")
        self.open_elements.append((tag, len(self.lines) - 1))
        return self

    def __enter__(self) -> "_XmlWriter":
        return self

    def __exit__(self, *exc) -> None:
        tag, start = self.open_elements.pop()
        if start == len(self.lines) - 1:  # no children
            self.lines[start] = self.lines[start][:-1] + " />"
        else:
            self.lines.append("  " * len(self.open_elements) + f"</{tag}>")

    def document(self) -> bytes:
        return ("\n".join(self.lines) + "\n").encode("ascii", "xmlcharrefreplace")


# ---------------------------------------------------------------------------
# Bundles
# ---------------------------------------------------------------------------


def export_bundle(instance: AssetInstance, out_dir, formats) -> tuple[ExportBundle, ...]:
    """Write the visual and collision hull OBJ files once, then one model
    document per format ("urdf" -> model.urdf, "mjcf" -> model.xml), in the
    order given."""
    unknown = [fmt for fmt in formats if fmt not in _DOCUMENTS]
    if unknown:
        raise InvalidParameterError(f"unknown export formats {unknown}; known: {list(_DOCUMENTS)}")
    out_dir = Path(out_dir)
    mesh_paths = _write_meshes(instance, out_dir)
    link_names, joint_names = _names(instance)
    bundles = []
    for fmt in formats:
        filename, document = _DOCUMENTS[fmt]
        model_path = out_dir / filename
        model_path.write_bytes(document(instance, mesh_paths, link_names, joint_names))
        bundles.append(ExportBundle(out_dir, model_path, fmt, mesh_paths))
    return tuple(bundles)


def export_urdf(instance: AssetInstance, out_dir) -> ExportBundle:
    """Write model.urdf plus visual and collision hull OBJ files."""
    return export_bundle(instance, out_dir, ("urdf",))[0]


def export_mjcf(instance: AssetInstance, out_dir) -> ExportBundle:
    """Write model.xml (MuJoCo MJCF) plus visual and collision hull OBJ files."""
    return export_bundle(instance, out_dir, ("mjcf",))[0]


# ---------------------------------------------------------------------------
# URDF
# ---------------------------------------------------------------------------


def _urdf_document(instance: AssetInstance, mesh_paths, link_names, joint_names) -> bytes:
    """URDF robot: links with inertial, visual and collision, then joints."""
    doc = _XmlWriter()
    with doc.open("robot", {"name": f"{instance.category}_{instance.seed:04d}"}):
        for link in _ordered_links(instance):
            if link.label:
                doc.comment(f" label: {link.label} ")
            with doc.open("link", {"name": link_names[link.link_id]}):
                with doc.open("inertial"):
                    doc.element("origin", {"xyz": _fmt_vec(link.inertia_origin), "rpy": "0 0 0"})
                    doc.element("mass", {"value": format_float(link.mass)})
                    ixx, iyy, izz = link.inertia_diag
                    doc.element(
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
                    with doc.open("visual"):
                        with doc.open("geometry"):
                            doc.element("mesh", {"filename": visual_rel})
                        if link.material:
                            doc.element("material", {"name": link.material})
                if hull_rel:
                    with doc.open("collision"), doc.open("geometry"):
                        doc.element("mesh", {"filename": hull_rel})

        for j in _ordered_joints(instance):
            if j.joint_label:
                doc.comment(f" joint label: {j.joint_label} ")
            jtype = "fixed" if j.is_fixed else j.joint_type
            with doc.open("joint", {"name": joint_names[j.joint_id], "type": jtype}):
                position, rotation = _joint_frame(instance, j)
                rpy = "0 0 0" if rotation is None else _fmt_vec(_rpy(rotation))
                doc.element("origin", {"xyz": _fmt_vec(position), "rpy": rpy})
                doc.element("parent", {"link": link_names[j.parent]})
                doc.element("child", {"link": link_names[j.child]})
                if jtype != "fixed":
                    doc.element("axis", {"xyz": _fmt_vec(j.axis)})
                    doc.element(
                        "limit",
                        {
                            "lower": format_float(j.lo),
                            "upper": format_float(j.hi),
                            "effort": format_float(URDF_LIMIT_EFFORT),
                            "velocity": format_float(URDF_LIMIT_VELOCITY),
                        },
                    )
    return doc.document()


def parse_urdf(path) -> ParsedModel:
    """Extract links, joints, limits, and origins from a URDF file."""
    tree = _parse_xml(path)
    root = tree.getroot()
    if root.tag != "robot":
        raise DocumentParseError(f"expected <robot> root, found <{root.tag}>")
    links = []
    joints = []
    for el in root:
        if el.tag == "link":
            mass = None
            visual = collision = None
            inertial = el.find("inertial/mass")
            if inertial is not None:
                (mass,) = _numbers(inertial, "value", 1)
            mesh = el.find("visual/geometry/mesh")
            if mesh is not None:
                visual = mesh.get("filename")
            mesh = el.find("collision/geometry/mesh")
            if mesh is not None:
                collision = mesh.get("filename")
            links.append(ParsedLink(el.get("name"), visual, collision, mass))
        elif el.tag == "joint":
            origin_el = el.find("origin")
            origin, rpy = (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)
            if origin_el is not None:
                origin = _numbers(origin_el, "xyz", 3, "0 0 0")
                rpy = _numbers(origin_el, "rpy", 3, "0 0 0")
            axis_el = el.find("axis")
            axis = _numbers(axis_el, "xyz", 3) if axis_el is not None else None
            limit_el = el.find("limit")
            lo, hi = (
                _numbers(limit_el, "lower", 1) + _numbers(limit_el, "upper", 1)
                if limit_el is not None
                else (None, None)
            )
            parent = el.find("parent")
            child = el.find("child")
            if parent is None or child is None:
                raise StructuralError(f"joint {el.get('name')!r} missing parent or child")
            joints.append(
                ParsedJoint(
                    el.get("name"),
                    el.get("type"),
                    parent.get("link"),
                    child.get("link"),
                    origin,
                    axis,
                    lo,
                    hi,
                    _rpy_rotation(rpy),
                )
            )
        else:
            log.warning("ignoring unknown URDF element <%s>", el.tag)
    model = ParsedModel(root.get("name", ""), tuple(links), tuple(joints))
    model.verify_tree()
    return model


# ---------------------------------------------------------------------------
# MJCF
# ---------------------------------------------------------------------------


def _mjcf_document(instance: AssetInstance, mesh_paths, link_names, joint_names) -> bytes:
    """MuJoCo MJCF with a nested body tree mirroring the joints."""
    doc = _XmlWriter()

    def emit_body(link_id: str, pos, rotation=None):
        link = instance.link(link_id)
        attrs = {"name": link_names[link_id], "pos": _fmt_vec(pos)}
        if rotation is not None:
            attrs["quat"] = _fmt_vec(rotation)
        with doc.open("body", attrs):
            if link.label:
                doc.comment(f" label: {link.label} ")
            doc.element(
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
                doc.element(
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
                doc.element(
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
                doc.element(
                    "geom",
                    {
                        "name": _slug(link_id) + "_collision",
                        "type": "mesh",
                        "mesh": _slug(link_id) + "_hull",
                    },
                )
            for j in instance.children_of(link_id):
                emit_body(j.child, *_joint_frame(instance, j))

    with doc.open("mujoco", {"model": f"{instance.category}_{instance.seed:04d}"}):
        doc.element("compiler", {"angle": "radian", "meshdir": "meshes", "autolimits": "true"})
        with doc.open("asset"):
            for link in _ordered_links(instance):
                visual_rel, hull_rel = mesh_paths[link.link_id]
                if visual_rel:
                    name, file = _slug(link.link_id), visual_rel.removeprefix("meshes/")
                    doc.element("mesh", {"name": name, "file": file})
                if hull_rel:
                    name, file = _slug(link.link_id) + "_hull", hull_rel.removeprefix("meshes/")
                    doc.element("mesh", {"name": name, "file": file})
        with doc.open("worldbody"):
            emit_body(instance.root_link, (0.0, 0.0, 0.0))
    return doc.document()


# Export format -> (model file name, document writer).
_DOCUMENTS = {"urdf": ("model.urdf", _urdf_document), "mjcf": ("model.xml", _mjcf_document)}


def parse_mjcf(path) -> ParsedModel:
    """Extract the body tree, joints, ranges, and meshes from an MJCF file."""
    tree = _parse_xml(path)
    root = tree.getroot()
    if root.tag != "mujoco":
        raise DocumentParseError(f"expected <mujoco> root, found <{root.tag}>")
    meshes = {}
    asset = root.find("asset")
    if asset is not None:
        for mesh in asset.findall("mesh"):
            meshes[mesh.get("name")] = "meshes/" + mesh.get("file", "")
    worldbody = root.find("worldbody")
    if worldbody is None:
        raise DocumentParseError("MJCF document has no <worldbody>")
    links: list[ParsedLink] = []
    joints: list[ParsedJoint] = []

    def walk(body_el: ET.Element, parent_name: str | None):
        name = body_el.get("name")
        pos = _numbers(body_el, "pos", 3, "0 0 0")
        quat = np.array(_numbers(body_el, "quat", 4, "1 0 0 0"))
        norm = float(np.linalg.norm(quat))
        if not norm > 0.0:
            raise DocumentParseError(f"<body> {name!r} quat must be nonzero")
        rotation = tuple((quat / norm).tolist())
        mass = None
        inertial = body_el.find("inertial")
        if inertial is not None:
            (mass,) = _numbers(inertial, "mass", 1)
        visual = collision = None
        for geom in body_el.findall("geom"):
            ref = meshes.get(geom.get("mesh"))
            if geom.get("contype") == "0":
                visual = ref
            else:
                collision = ref
        links.append(ParsedLink(name, visual, collision, mass))
        joint_els = body_el.findall("joint")
        if parent_name is None and joint_els:
            raise StructuralError("root body must not carry a joint")
        for joint_el in joint_els:
            lo, hi = _numbers(joint_el, "range", 2) if joint_el.get("range") else (None, None)
            joints.append(
                ParsedJoint(
                    joint_el.get("name"),
                    {"hinge": "revolute", "slide": "prismatic"}.get(
                        joint_el.get("type"), joint_el.get("type")
                    ),
                    parent_name,
                    name,
                    pos,
                    _numbers(joint_el, "axis", 3, "0 0 1"),
                    lo,
                    hi,
                    rotation,
                )
            )
        if parent_name is not None and not joint_els:
            joints.append(
                ParsedJoint(
                    f"{name}__fixed", "fixed", parent_name, name, pos, None, None, None, rotation
                )
            )
        for child in body_el.findall("body"):
            walk(child, name)

    bodies = worldbody.findall("body")
    if len(bodies) != 1:
        raise StructuralError(f"expected one root body, found {len(bodies)}")
    walk(bodies[0], None)
    model = ParsedModel(root.get("model", ""), tuple(links), tuple(joints))
    model.verify_tree()
    return model


def _numbers(el: ET.Element, attr: str, count: int, default: str | None = None) -> tuple:
    """Attribute `attr` of `el` as exactly `count` whitespace-separated floats."""
    text = el.get(attr, default)
    try:
        values = tuple(float(v) for v in text.split()) if text is not None else ()
    except ValueError:
        values = ()
    if len(values) != count:
        raise DocumentParseError(f"<{el.tag}> {attr}={text!r} must be {count} numbers")
    return values


def _parse_xml(path) -> ET.ElementTree:
    try:
        return ET.parse(path)
    except ET.ParseError as exc:
        line, column = exc.position
        raise DocumentParseError(f"malformed XML: {exc}", line=line, column=column) from None


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------


def write_manifest(
    instance: AssetInstance, out_dir, formats=("urdf",), salt: str = "", overrides=None
) -> Path:
    """Record everything needed to rebuild this bundle bit-exactly. The
    overrides the instance was built with are recorded only when there are
    some; rebuilding passes them to `build_instance` with the recorded params."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = {
        "schema": 1,
        "version": __version__,
        "category": instance.category,
        "seed": instance.seed,
        "salt": salt,
        "formats": sorted(formats),
        "params": dict(sorted(instance.params.values.items())),
    }
    if overrides:
        doc["overrides"] = overrides
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return path


def read_manifest(path) -> dict:
    """The manifest document at `path`. A missing, unreadable or non-JSON file,
    or one that is not a JSON object, raises DocumentParseError naming it."""
    doc = _read_json(path, "manifest")
    if not isinstance(doc, dict):
        raise DocumentParseError(f"manifest {path} must hold a JSON object")
    for key in ("category", "seed", "params", "formats"):
        if key not in doc:
            raise MissingParameterError(f"manifest missing key {key!r}")
    return doc


def manifest_param_vector(doc: dict) -> ParamVector:
    """The parameter vector a manifest records; a seed that is not a whole
    number or params that are not an object raise DocumentParseError."""
    if not _is_whole(doc["seed"]):
        raise DocumentParseError(f"manifest seed must be a whole number, got {doc['seed']!r}")
    if not isinstance(doc["params"], dict):
        raise DocumentParseError(f"manifest params must be an object, got {doc['params']!r}")
    return ParamVector(doc["params"], seed=int(doc["seed"]))
