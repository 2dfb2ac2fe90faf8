"""Lower an AssetInstance to URDF or MJCF documents plus OBJ meshes, and parse
emitted documents back for round-trip verification.

Output is byte-deterministic: fixed element order (depth-first over the
realized tree), nine-significant-digit floats, and relative mesh paths so
bundles stay relocatable.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from xml.etree import ElementTree as ET

from . import __version__
from .blueprint import AssetInstance, InstanceJoint, InstanceLink
from .errors import (
    DocumentParseError,
    InvalidParameterError,
    MissingParameterError,
    StructuralError,
)
from .geometry import format_float, obj_text
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


def _ordered_links(instance: AssetInstance) -> list[InstanceLink]:
    """Depth-first order over the realized tree, children by joint id."""
    return [instance.links[i] for i in instance.tree.order]


def _ordered_joints(instance: AssetInstance) -> list[InstanceJoint]:
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


def _write_meshes(instance: AssetInstance, out_dir: Path) -> dict:
    mesh_dir = out_dir / "meshes"
    mesh_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for link in _ordered_links(instance):
        if link.mesh.is_empty:
            paths[link.link_id] = (None, None)
            continue
        visual_rel = f"meshes/{_slug(link.link_id)}.obj"
        (out_dir / visual_rel).write_text(obj_text(link.mesh, _slug(link.link_id)), encoding="utf-8")
        hull_rel = None
        if link.hull is not None:
            hull_rel = f"meshes/{_slug(link.link_id)}.hull.obj"
            (out_dir / hull_rel).write_text(
                obj_text(link.hull, _slug(link.link_id) + "_hull"), encoding="utf-8"
            )
        paths[link.link_id] = (visual_rel, hull_rel)
    return paths


def _xml_bytes(root: ET.Element) -> bytes:
    ET.indent(root, space="  ")
    return b'<?xml version="1.0" encoding="utf-8"?>\n' + ET.tostring(root) + b"\n"


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
        model_path.write_bytes(_xml_bytes(document(instance, mesh_paths, link_names, joint_names)))
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


def _urdf_document(instance: AssetInstance, mesh_paths, link_names, joint_names) -> ET.Element:
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
        ET.SubElement(el, "origin", {"xyz": _fmt_vec(j.pivot_in_parent), "rpy": "0 0 0"})
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
            origin = (
                _numbers(origin_el, "xyz", 3, "0 0 0") if origin_el is not None else (0.0, 0.0, 0.0)
            )
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


def _mjcf_document(instance: AssetInstance, mesh_paths, link_names, joint_names) -> ET.Element:
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

    def emit_body(link_id: str, parent_el: ET.Element, pos):
        link = instance.link(link_id)
        body = ET.SubElement(
            parent_el, "body", {"name": link_names[link_id], "pos": _fmt_vec(pos)}
        )
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
        incoming = instance.tree.incoming[instance.tree.link_index[link_id]]
        if incoming and not instance.joints[incoming[0]].is_fixed:
            j = instance.joints[incoming[0]]
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
            emit_body(j.child, body, j.pivot_in_parent)

    emit_body(instance.root_link, worldbody, (0.0, 0.0, 0.0))
    return mujoco


# Export format -> (model file name, document builder).
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
        joint_el = body_el.find("joint")
        if parent_name is not None:
            if joint_el is not None:
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
                    )
                )
            else:
                joints.append(
                    ParsedJoint(f"{name}__fixed", "fixed", parent_name, name, pos, None, None, None)
                )
        elif joint_el is not None:
            raise StructuralError("root body must not carry a joint")
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
