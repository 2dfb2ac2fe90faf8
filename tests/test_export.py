import copy
import math
import random
import re
from dataclasses import replace
from pathlib import Path
from xml.etree import ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artigen.blueprint import extract_blueprint, instantiate, posed_meshes
from artigen.errors import (
    DocumentParseError,
    InvalidParameterError,
    MissingParameterError,
    StructuralError,
)
from artigen.evaluate import evaluate
from artigen.export import (
    _DOCUMENTS,
    _XmlWriter,
    _names,
    export_bundle,
    export_mjcf,
    export_urdf,
    manifest_param_vector,
    parse_mjcf,
    parse_urdf,
    read_manifest,
    write_manifest,
)
from artigen.generators import CATEGORY_NAMES, get_generator
from artigen.geometry import mesh_volume, parse_obj
from artigen.graph import NodeGraph
from artigen.params import ParamVector, sample_parameters
from artigen.patterns import PATTERN_NAMES, build_pattern

from helpers import (
    FORMAT_ABS,
    assert_kinematic_isomorphism,
    link_frame_vertices,
    parsed_inertials,
    pose_parsed_model,
    pose_tolerance,
    reference_document,
)


_BASE = "chained_joints/base/0"
_UPPER = "chained_joints/rod_upper/2"


def make_instance(name):
    g = build_pattern(name)
    return instantiate(extract_blueprint(g), g, ParamVector({}), category=name)


class TestUrdf:
    def test_simple_revolute_document(self, tmp_path):
        inst = make_instance("simple_revolute")
        bundle = export_urdf(inst, tmp_path / "rev")
        model = parse_urdf(bundle.model_path)
        assert len(model.links) == 2
        assert len(model.joints) == 1
        j = model.joints[0]
        assert j.joint_type == "revolute"
        assert j.lo == pytest.approx(-math.pi / 4, abs=1e-9)
        assert j.hi == pytest.approx(math.pi / 4, abs=1e-9)

    def test_zero_range_joint_exports_fixed(self, tmp_path):
        """A joint with lo == hi exports as fixed, posed at its value: the
        cap and the hinged rod below it sit where evaluation puts them. Only
        a turn writes a rotation, so value 0 writes none."""
        cases = [
            ("revolute", (0, 0, 1), 0.4),
            ("revolute", (1, 0.5, 0.2), -2.0),
            ("revolute", (1, 0, -1), math.pi),  # pitch pi/2: roll and yaw turn about one axis
            ("prismatic", (0, 0.6, 0.8), 0.05),
            ("revolute", (0, 0, 1), 0.0),
            ("prismatic", (0, 0, 1), 0.0),
        ]
        for k, (kind, axis, value) in enumerate(cases):
            g = NodeGraph()
            a = g.box((0.2, 0.2, 0.2))
            b = g.box((0.1, 0.1, 0.1), at=(0, 0, 0.2))
            rod = g.box((0.02, 0.02, 0.3), at=(0.05, 0, 0.4))
            joint = g.revolute if kind == "revolute" else g.prismatic
            cap = joint(a, b, (0, 0, 0.15), axis, value, value, value, labels=(None, None, "cap"))
            hinge = g.revolute(
                cap, rod, (0.05, 0, 0.25), (1, 0, 0), -1.0, 1.0, labels=(None, None, "rod")
            )
            g.set_output(hinge)
            inst = instantiate(extract_blueprint(g), g, ParamVector({}), category="fixture")
            configs = [
                {j.joint_id: v for j in inst.joints if not j.is_fixed} for v in (-0.7, 0.0, 0.9)
            ]
            (urdf, _, _), (mjcf, _, _) = assert_documents_pose_like_evaluation(
                inst, g, ParamVector({}), tmp_path / str(k), configs
            )
            model = parse_urdf(urdf.model_path)
            assert sorted(j.joint_type for j in model.joints) == ["fixed", "revolute"]
            assert_kinematic_isomorphism(inst, model)
            assert_kinematic_isomorphism(inst, parse_mjcf(mjcf.model_path))
            joints = ET.parse(urdf.model_path).iter("joint")
            rotated = [j.find("origin").get("rpy") != "0 0 0" for j in joints]
            turns = kind == "revolute" and value != 0.0
            assert rotated.count(True) == turns, cases[k]
            assert ("quat=" in mjcf.model_path.read_text()) == turns, cases[k]

    def test_screw_two_chained_joints_same_axis(self, tmp_path):
        inst = make_instance("multi_joint_screw")
        bundle = export_urdf(inst, tmp_path / "screw")
        model = parse_urdf(bundle.model_path)
        assert len(model.links) == 3  # passthrough included
        moving = [j for j in model.joints if j.joint_type != "fixed"]
        assert sorted(j.joint_type for j in moving) == ["prismatic", "revolute"]
        np.testing.assert_allclose(moving[0].axis, moving[1].axis, atol=1e-9)

    def test_mesh_files_exist_and_match(self, tmp_path):
        """The OBJ files hold each link's mesh in its link frame."""
        inst = make_instance("simple_prismatic")
        bundle = export_urdf(inst, tmp_path / "btn")
        for link_id, (visual, hull) in bundle.mesh_paths.items():
            if visual is None:
                continue
            link = inst.link(link_id)
            local = link_frame_vertices(link)
            assert np.array_equal(link.frame_mesh.vertices, local)
            mesh = parse_obj((bundle.root / visual).read_text())
            assert np.abs(mesh.vertices - local).max() < 1e-8
            assert (bundle.root / hull).exists()

    def test_round_trip_isomorphism_all_patterns(self, tmp_path):
        for name in PATTERN_NAMES:
            inst = make_instance(name)
            bundle = export_urdf(inst, tmp_path / name)
            assert_kinematic_isomorphism(inst, parse_urdf(bundle.model_path))

    def test_limits_survive_round_trip(self, tmp_path):
        g = NodeGraph()
        a = g.box((0.2, 0.2, 0.2))
        b = g.box((0.1, 0.1, 0.1), at=(0, 0, 0.2))
        g.set_output(g.prismatic(a, b, (0, 0, 0.15), (0, 0, 1), -1.2, 0.0))
        inst = instantiate(extract_blueprint(g), g, ParamVector({}), category="fixture")
        model = parse_urdf(export_urdf(inst, tmp_path / "lim").model_path)
        assert model.joints[0].lo == pytest.approx(-1.2, abs=1e-9)
        assert model.joints[0].hi == pytest.approx(0.0, abs=1e-9)

    def test_corrupted_cycle_detected(self, tmp_path):
        inst = make_instance("chained_joints")
        bundle = export_urdf(inst, tmp_path / "cyc")
        text = bundle.model_path.read_text()
        # retarget the shoulder joint's child to the root link: root gains a parent
        root_name = f"{inst.category}/base/0"
        upper_name = f"{inst.category}/rod_upper/2"
        corrupted = text.replace(
            f'<child link="{upper_name}" />', f'<child link="{root_name}" />'
        )
        assert corrupted != text
        bad = tmp_path / "cyc" / "bad.urdf"
        bad.write_text(corrupted)
        with pytest.raises(StructuralError):
            parse_urdf(bad)

    @pytest.mark.parametrize(
        "old,new",
        [
            # an extra joint gives the root a parent
            ("</robot>", f'<joint name="extra" type="fixed"><parent link="{_UPPER}" />'
                         f'<child link="{_BASE}" /></joint></robot>'),
            # a link becomes the child of two joints
            ("</robot>", f'<joint name="extra" type="fixed"><parent link="{_BASE}" />'
                         f'<child link="{_UPPER}" /></joint></robot>'),
            # a joint names a link the model does not hold
            (f'<child link="{_UPPER}" />', '<child link="chained_joints/ghost/9" />'),
            # two links share a name
            ("</robot>", f'<link name="{_UPPER}" /></robot>'),
            # two joints share a name
            ('name="chained_joints/elbow/1"', 'name="chained_joints/shoulder/0"'),
            # a joint has no name
            ('<joint name="chained_joints/elbow/1"', "<joint"),
        ],
        ids=["root-gains-parent", "two-parent-joints", "unknown-link", "duplicate-link",
             "duplicate-joint", "nameless-joint"],
    )
    def test_corrupted_tree_rejected(self, tmp_path, old, new):
        inst = make_instance("chained_joints")
        text = export_urdf(inst, tmp_path / "tree").model_path.read_text()
        assert old in text
        bad = tmp_path / "tree" / "bad.urdf"
        bad.write_text(text.replace(old, new))
        with pytest.raises(StructuralError):
            parse_urdf(bad)

    @pytest.mark.parametrize("fmt", ["urdf", "mjcf"])
    def test_second_joint_into_a_link_rejected(self, tmp_path, fmt):
        """A copy of a link's joint from the same parent is a second joint
        into that link, which the tree refuses in either document."""
        inst = make_instance("chained_joints")
        (bundle,) = export_bundle(inst, tmp_path / "pair", (fmt,))
        doc = ET.parse(bundle.model_path)
        if fmt == "urdf":
            holder = doc.getroot()
            (joint,) = [j for j in holder.iter("joint") if j.find("child").get("link") == _UPPER]
        else:
            (holder,) = [b for b in doc.getroot().iter("body") if b.get("name") == _UPPER]
            joint = holder.find("joint")
        extra = copy.deepcopy(joint)
        extra.set("name", "extra")
        holder.insert(list(holder).index(joint) + 1, extra)
        bad = tmp_path / f"bad.{fmt}"
        doc.write(bad)
        parse = parse_urdf if fmt == "urdf" else parse_mjcf
        with pytest.raises(StructuralError, match=re.escape(repr(_UPPER))):
            parse(bad)

    def test_malformed_xml_parse_error(self, tmp_path):
        bad = tmp_path / "bad.urdf"
        bad.write_text("<robot name='x'><link name='a'>")
        with pytest.raises(DocumentParseError) as err:
            parse_urdf(bad)
        assert err.value.line is not None

    def test_byte_determinism(self, tmp_path):
        inst = make_instance("duplicated_bodies")
        a = export_urdf(inst, tmp_path / "a").model_path.read_bytes()
        b = export_urdf(inst, tmp_path / "b").model_path.read_bytes()
        assert a == b


class TestMjcf:
    def test_prismatic_slide_range(self, tmp_path):
        inst = make_instance("simple_prismatic")
        bundle = export_mjcf(inst, tmp_path / "btn")
        text = bundle.model_path.read_text()
        assert 'type="slide"' in text
        assert 'range="0 0.015"' in text

    def test_nesting_depth_matches_chain(self, tmp_path):
        inst = make_instance("chained_joints")
        bundle = export_mjcf(inst, tmp_path / "chain")
        from xml.etree import ElementTree as ET

        root = ET.parse(bundle.model_path).getroot()

        def depth(el):
            kids = el.findall("body")
            return 1 + max((depth(k) for k in kids), default=0)

        assert depth(root.find("worldbody")) - 1 == 3  # base, rod_lower, rod_upper

    def test_round_trip_isomorphism_all_patterns(self, tmp_path):
        for name in PATTERN_NAMES:
            inst = make_instance(name)
            bundle = export_mjcf(inst, tmp_path / name)
            assert_kinematic_isomorphism(inst, parse_mjcf(bundle.model_path))

    def test_byte_determinism(self, tmp_path):
        inst = make_instance("shared_parent")
        a = export_mjcf(inst, tmp_path / "a").model_path.read_bytes()
        b = export_mjcf(inst, tmp_path / "b").model_path.read_bytes()
        assert a == b

    def test_meshes_registered_in_asset(self, tmp_path):
        inst = make_instance("simple_revolute")
        bundle = export_mjcf(inst, tmp_path / "rev")
        model = parse_mjcf(bundle.model_path)
        for link in model.links:
            assert link.visual_mesh and link.visual_mesh.startswith("meshes/")
            assert link.collision_mesh and link.collision_mesh.endswith(".hull.obj")


class TestBundle:
    def test_same_bytes_as_one_format_exports(self, tmp_path):
        inst = make_instance("chained_joints")
        bundles = export_bundle(inst, tmp_path / "both", ("mjcf", "urdf"))
        assert [b.format for b in bundles] == ["mjcf", "urdf"]
        assert [b.model_path.name for b in bundles] == ["model.xml", "model.urdf"]
        export_urdf(inst, tmp_path / "one")
        export_mjcf(inst, tmp_path / "one")
        for path in (tmp_path / "one").rglob("*"):
            if path.is_file():
                rel = path.relative_to(tmp_path / "one")
                assert (tmp_path / "both" / rel).read_bytes() == path.read_bytes(), rel
        assert len(list((tmp_path / "both").rglob("*"))) == len(list((tmp_path / "one").rglob("*")))

    def test_one_format_exports_format_each_mesh_once(self, tmp_path, monkeypatch):
        import artigen.evaluate
        from artigen.generators import build_instance

        calls = []
        real = artigen.evaluate._format_floats
        monkeypatch.setattr(artigen.evaluate, "_format_floats", lambda v: calls.append(v) or real(v))
        inst = build_instance("toaster", 3)
        frames = [l.frame_mesh for l in inst.links if not l.mesh.is_empty]
        distinct = {(m.vertices.tobytes(), m.triangles.tobytes()) for m in frames}
        assert len(distinct) < len(frames)  # a duplicate's copies are bit-equal
        export_urdf(inst, tmp_path / "one")
        # Once per distinct frame mesh, and never for a hull.
        assert len(calls) == len(distinct)
        assert {id(v) for v in calls} <= {id(m.vertices) for m in inst.frame_meshes}
        export_mjcf(inst, tmp_path / "one")
        assert len(calls) == len(distinct)
        export_bundle(build_instance("toaster", 3), tmp_path / "both", ("urdf", "mjcf"))
        assert len(calls) == 2 * len(distinct)

        def files(root):
            return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

        assert files(tmp_path / "one") == files(tmp_path / "both")

    def test_unknown_format_rejected_before_writing(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="obj"):
            export_bundle(make_instance("simple_revolute"), tmp_path / "x", ("urdf", "obj"))
        assert not (tmp_path / "x").exists()

    def test_generate_both_formats_writes_each_mesh_once(self, tmp_path, monkeypatch, capsys):
        from artigen.cli import main

        calls = []
        real = Path.write_bytes

        def counting(path, data):
            if path.suffix == ".obj":
                calls.append(path)
            return real(path, data)

        monkeypatch.setattr(Path, "write_bytes", counting)
        code = main(["generate", "--category", "door", "--seed", "3", "--format", "both",
                     "--out", str(tmp_path)])
        capsys.readouterr()
        assert code == 0
        meshes = list((tmp_path / "door_0003" / "meshes").glob("*.obj"))
        assert meshes and len(calls) == len(meshes)


# Text with the characters that XML escapes in attributes, and any other.
_XML_TEXT = st.text(
    st.one_of(st.sampled_from('&<>"\'\n\r\t-'), st.characters(blacklist_categories=("Cs",))),
    min_size=1,
    max_size=12,
)


class TestDirectWriter:
    @pytest.mark.parametrize("category", CATEGORY_NAMES)
    def test_documents_match_elementtree(self, category, tmp_path):
        from artigen.generators import build_instance

        for seed in range(200):
            inst = build_instance(category, seed)
            for bundle in export_bundle(inst, tmp_path / "bundle", ("urdf", "mjcf")):
                expected = reference_document(inst, bundle.format, bundle.mesh_paths)
                assert bundle.model_path.read_bytes() == expected, (seed, bundle.format)

    def test_element_without_children_closes_itself(self):
        doc = _XmlWriter()
        with doc.open("a", {"k": "v"}):
            with doc.open("b"):
                pass
            doc.comment(" c ")
        root = ET.Element("a", {"k": "v"})
        ET.SubElement(root, "b")
        root.append(ET.Comment(" c "))
        ET.indent(root, space="  ")
        assert doc.document() == b'<?xml version="1.0" encoding="utf-8"?>\n' + ET.tostring(root) + b"\n"

    @pytest.fixture(scope="class")
    def exported(self, tmp_path_factory):
        base = make_instance("multi_joint_screw")
        return base, export_urdf(base, tmp_path_factory.mktemp("escape"))

    @settings(deadline=None, max_examples=40)
    @given(category=_XML_TEXT, labels=st.lists(st.one_of(st.none(), _XML_TEXT), min_size=9, max_size=9))
    def test_escaping_matches_elementtree(self, exported, category, labels):
        base, bundle = exported
        links = tuple(
            replace(l, label=labels[i % 9], material=labels[(i + 1) % 9])
            for i, l in enumerate(base.links)
        )
        joints = tuple(replace(j, joint_label=labels[(i + 2) % 9]) for i, j in enumerate(base.joints))
        inst = replace(base, category=category, links=links, joints=joints)
        names = _names(inst)
        for fmt, (_, document) in _DOCUMENTS.items():
            written = document(inst, bundle.mesh_paths, *names)
            assert written == reference_document(inst, fmt, bundle.mesh_paths)


class TestDynamics:
    def test_hull_contains_visual_vertices(self, tmp_path):
        inst = make_instance("duplicated_bodies")
        for link in inst.links:
            if link.hull is None:
                continue
            corners = link.hull.triangle_corners()
            normals = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
            normals /= np.linalg.norm(normals, axis=1, keepdims=True)
            offsets = np.einsum("ij,ij->i", normals, corners[:, 0])
            dists = link_frame_vertices(link) @ normals.T - offsets
            assert dists.max() <= 1e-9

    def test_mass_is_hull_volume_times_density(self):
        inst = make_instance("simple_revolute")
        for link in inst.links:
            if link.hull is None:
                continue
            assert link.mass == pytest.approx(mesh_volume(link.hull) * 500.0, rel=1e-6)


def assert_documents_pose_like_evaluation(instance, graph, params, out_dir, configs):
    """Export both documents of `instance`, parse them back, pose them at each
    of `configs` (joint id -> value) and check that every visual mesh sits
    where `evaluate` puts it. Returns, per document, its bundle, the link ids
    by document name and the parsed visual vertices by document name."""
    link_names, joint_names = _names(instance)
    link_ids = {name: link_id for link_id, name in link_names.items()}
    evaluated = evaluate(graph, params)
    posed = [posed_meshes(evaluated, c) for c in configs]
    out = []
    for bundle, parse in zip(export_bundle(instance, out_dir, ("urdf", "mjcf")), (parse_urdf, parse_mjcf)):
        model = parse(bundle.model_path)
        visuals = {
            l.name: parse_obj((bundle.root / l.visual_mesh).read_text()).vertices
            for l in model.links
            if l.visual_mesh
        }
        for config, meshes in zip(configs, posed):
            placed = pose_parsed_model(model, {joint_names[k]: v for k, v in config.items()})
            expected = {n: meshes[link_ids[n]].vertices for n in visuals}
            reach = max(np.linalg.norm(v, axis=1).max() for v in expected.values())
            reach += max(length for _, _, length, _ in placed.values())
            turn = max(map(abs, config.values()), default=0.0)
            for name, local in visuals.items():
                frame, depth, _, turned = placed[name]
                np.testing.assert_allclose(
                    frame.apply(local),
                    expected[name],
                    rtol=0,
                    atol=pose_tolerance(depth, reach, turn, turned),
                    err_msg=f"{bundle.format} {name}",
                )
        out.append((bundle, link_ids, visuals))
    return out


class TestPosedRoundTrip:
    """Both documents, parsed back and posed at random in-range configurations,
    place every visual mesh where evaluation puts it, and carry each link's
    mass, centre of mass and inertia."""

    @pytest.mark.parametrize("category", CATEGORY_NAMES)
    def test_parsed_documents_pose_and_weigh_like_evaluation(self, category, tmp_path):
        gen = get_generator(category)
        for seed in (0, 1):
            params = sample_parameters(gen.space, seed, salt="")
            graph = gen.build(params)
            instance = instantiate(gen.blueprint, graph, params, category=category)
            rng = random.Random(seed)
            configs = [
                {j.joint_id: rng.uniform(j.lo, j.hi) for j in instance.joints} for _ in range(3)
            ]
            documents = assert_documents_pose_like_evaluation(
                instance, graph, params, tmp_path / str(seed), configs
            )
            for bundle, link_ids, visuals in documents:
                self.check_inertials(instance, link_ids, visuals, bundle.model_path)

    @staticmethod
    def check_inertials(instance, link_ids, visuals, model_path):
        for name, (mass, com, inertia) in parsed_inertials(model_path).items():
            link = instance.link(link_ids[name])
            assert mass > 0 and abs(mass - link.mass) <= FORMAT_ABS, name
            np.testing.assert_allclose(com, link.inertia_origin, rtol=0, atol=FORMAT_ABS)
            np.testing.assert_allclose(inertia, np.diag(link.inertia_diag), rtol=0, atol=FORMAT_ABS)
            a, b, c = np.linalg.eigvalsh(inertia)
            assert a > 0 and a + b >= c - 3 * FORMAT_ABS, name
            if link.hull is None:
                continue
            # Box inertia about the visual mesh's bounding-box centre: its
            # corners are written within FORMAT_ABS, so extents within twice that.
            lo, hi = visuals[name].min(axis=0), visuals[name].max(axis=0)
            ext = hi - lo
            box = mass / 12.0 * (np.sum(ext**2) - ext**2)
            box_tol = FORMAT_ABS * (1.0 + np.sum(ext**2) / 12.0 + mass * np.sum(ext) / 3.0)
            np.testing.assert_allclose(com, (lo + hi) / 2.0, rtol=0, atol=2 * FORMAT_ABS)
            np.testing.assert_allclose(np.diag(inertia), box, rtol=0, atol=box_tol)


class TestManifest:
    def _param_instance(self, seed=3):
        from artigen.graph import NodeGraph, PRIMITIVE, ParamRef
        from artigen.params import Continuous, ParameterSpace

        space = ParameterSpace({"w": Continuous(0.1, 2.0)})
        g = NodeGraph(space)
        b = g.add_node(PRIMITIVE, {"shape": "box", "size_x": ParamRef("w")})
        g.set_output(b)
        params = ParamVector({"w": 0.7}, seed=seed)
        return g, instantiate(extract_blueprint(g), g, params, category="fixture")

    def test_manifest_round_trip(self, tmp_path):
        g, inst = self._param_instance()
        path = write_manifest(inst, tmp_path, formats=("urdf", "mjcf"))
        doc = read_manifest(path)
        assert doc["category"] == "fixture"
        assert doc["seed"] == 3
        pv = manifest_param_vector(doc)
        inst2 = instantiate(extract_blueprint(g), g, pv, category="fixture")
        a = export_urdf(inst, tmp_path / "a").model_path.read_bytes()
        b = export_urdf(inst2, tmp_path / "b").model_path.read_bytes()
        assert a == b

    def test_missing_parameter_fails_regeneration(self, tmp_path):
        g, inst = self._param_instance()
        path = write_manifest(inst, tmp_path)
        doc = read_manifest(path)
        doc["params"].pop("w")
        with pytest.raises(MissingParameterError):
            instantiate(extract_blueprint(g), g, manifest_param_vector(doc))

    @pytest.mark.parametrize(
        "write",
        [
            None,  # missing file
            lambda path: path.mkdir(),  # unreadable: a directory
            lambda path: path.write_text("{ not json"),
            lambda path: path.write_bytes(b"\xff\xfe"),
            lambda path: path.write_text("[1, 2]"),
        ],
        ids=["missing", "directory", "not-json", "not-utf8", "not-object"],
    )
    def test_bad_manifest_file_names_it(self, tmp_path, write):
        path = tmp_path / "odd_manifest.json"
        if write:
            write(path)
        with pytest.raises(DocumentParseError, match="odd_manifest.json"):
            read_manifest(path)

    @pytest.mark.parametrize(
        "key, value", [("seed", "x"), ("seed", 1.5), ("seed", True), ("params", [1, 2])]
    )
    def test_malformed_seed_or_params_rejected(self, tmp_path, key, value):
        _, inst = self._param_instance()
        doc = read_manifest(write_manifest(inst, tmp_path))
        doc[key] = value
        with pytest.raises(DocumentParseError, match=key):
            manifest_param_vector(doc)

    def test_bundle_made_with_overrides_rebuilds(self, tmp_path):
        from artigen.generators import build_instance

        overrides = {"width": {"fixed": 1.12}}  # outside the shipped width range
        inst = build_instance("door", 3, overrides=overrides, salt="")
        export_bundle(inst, tmp_path / "a", ("urdf", "mjcf"))
        doc = read_manifest(write_manifest(inst, tmp_path / "a", overrides=overrides))
        assert doc["overrides"] == overrides
        rebuilt = build_instance(
            doc["category"], doc["seed"], params=manifest_param_vector(doc),
            overrides=doc["overrides"],
        )
        export_bundle(rebuilt, tmp_path / "b", ("urdf", "mjcf"))
        files = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*.*"))
        assert len(files) > 2
        for name in files:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        # a manifest without overrides records none
        plain = read_manifest(write_manifest(build_instance("door", 3, salt=""), tmp_path / "c"))
        assert "overrides" not in plain

    @pytest.mark.parametrize(
        "overrides, error, name",
        [
            ({"no_such_parameter": {"fixed": 1}}, MissingParameterError, "no_such_parameter"),
            ({"width": {"lo": "wide"}}, InvalidParameterError, "width"),
            ([["width", 1.0]], InvalidParameterError, "overrides"),
        ],
        ids=["unknown", "malformed", "not-an-object"],
    )
    def test_bad_recorded_overrides_named(self, tmp_path, overrides, error, name):
        from artigen.generators import build_instance

        inst = build_instance("door", 3, salt="")
        doc = read_manifest(write_manifest(inst, tmp_path, overrides=overrides))
        with pytest.raises(error, match=name):
            build_instance(
                doc["category"], doc["seed"], params=manifest_param_vector(doc),
                overrides=doc["overrides"],
            )

    def test_two_seeds_two_manifests(self, tmp_path):
        _, a = self._param_instance(seed=1)
        _, b = self._param_instance(seed=2)
        pa = write_manifest(a, tmp_path / "a")
        pb = write_manifest(b, tmp_path / "b")
        assert pa.read_text() != pb.read_text()


_URDF = (
    '<robot name="r"><link name="a"><inertial><mass value="1"/></inertial></link>'
    '<link name="b"/><joint name="j" type="revolute"><origin xyz="0 0 0"/>'
    '<parent link="a"/><child link="b"/><axis xyz="0 0 1"/>'
    '<limit lower="0" upper="1"/></joint></robot>'
)
_MJCF = (
    '<mujoco model="m"><worldbody><body name="a"><inertial mass="1"/>'
    '<body name="b" pos="0 0 0"><joint name="j" type="hinge" axis="0 0 1" range="0 1"/>'
    "</body></body></worldbody></mujoco>"
)


class TestMalformedDocuments:
    @pytest.mark.parametrize(
        "fmt,old,new",
        [
            ("urdf", '<mass value="1"/>', "<mass/>"),
            ("urdf", '<axis xyz="0 0 1"/>', "<axis/>"),
            ("urdf", '<limit lower="0" upper="1"/>', '<limit lower="0"/>'),
            ("urdf", '<origin xyz="0 0 0"/>', '<origin xyz="0 0"/>'),
            ("urdf", '<origin xyz="0 0 0"/>', '<origin xyz="0 0 0" rpy="0 0"/>'),
            ("mjcf", 'pos="0 0 0"', 'pos="0 0 x"'),
            ("mjcf", 'pos="0 0 0"', 'pos="0 0 0" quat="0 0 0 0"'),
            ("mjcf", 'pos="0 0 0"', 'pos="0 0 0" quat="1 0 0"'),
            ("mjcf", '<inertial mass="1"/>', '<inertial mass="heavy"/>'),
            ("mjcf", 'range="0 1"', 'range="0"'),
        ],
    )
    def test_bad_attribute_raises_parse_error(self, tmp_path, fmt, old, new):
        template, parse = (_URDF, parse_urdf) if fmt == "urdf" else (_MJCF, parse_mjcf)
        good, bad = tmp_path / "good.xml", tmp_path / "bad.xml"
        good.write_text(template)
        assert len(parse(good).joints) == 1
        assert old in template
        bad.write_text(template.replace(old, new))
        with pytest.raises(DocumentParseError):
            parse(bad)
