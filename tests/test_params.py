import json

import pytest

import artigen.params
from artigen.errors import InvalidParameterError, MissingParameterError, RangeError
from artigen.graph import NodeGraph
from artigen.generators import CATEGORY_NAMES, CategoryGenerator, build_instance, get_generator
from artigen.params import (
    Continuous,
    Count,
    Discrete,
    ParameterSpace,
    ParamVector,
    load_overrides,
    merge_overrides,
    sample_parameters,
)


class TestEntries:
    def test_continuous_needs_lo_lt_hi(self):
        with pytest.raises(InvalidParameterError):
            Continuous(1.0, 1.0)

    def test_discrete_needs_two_unique_labels(self):
        with pytest.raises(InvalidParameterError):
            Discrete(("only",))
        with pytest.raises(InvalidParameterError):
            Discrete(("a", "a"))

    def test_count_bounds(self):
        with pytest.raises(InvalidParameterError):
            Count(3, 1)

    def test_duplicate_names_rejected(self):
        space = ParameterSpace({"x": Continuous(0, 1)})
        with pytest.raises(InvalidParameterError):
            space.add("x", Count(0, 1))


class TestSpaceSerde:
    def test_round_trip(self):
        space = get_generator("dishwasher").space
        back = ParameterSpace.from_json_list(space.to_json_list())
        assert back == space

    def test_unknown_keys_rejected(self):
        doc = [{"name": "x", "kind": "continuous", "lo": 0, "hi": 1, "units": "", "zzz": 2}]
        with pytest.raises(InvalidParameterError):
            ParameterSpace.from_json_list(doc)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidParameterError):
            ParameterSpace.from_json_list([{"name": "x", "kind": "fuzzy"}])

    @pytest.mark.parametrize(
        "entry",
        [
            {"name": "w", "kind": "continuous", "hi": 1},
            {"name": "w", "kind": "continuous", "lo": 0, "hi": "1"},
            {"name": "w", "kind": "continuous", "lo": "a", "hi": "b"},
            {"name": "w", "kind": "continuous", "lo": True, "hi": 2},
            {"name": "w", "kind": "continuous", "lo": 0, "hi": float("inf")},
            {"name": "w", "kind": "count", "min": "z", "max": 3},
            {"name": "w", "kind": "count", "min": 0.5, "max": 3},
            {"name": "w", "kind": "count", "min": 0},
            {"name": "w", "kind": "discrete", "labels": "ab"},
            {"name": "w", "kind": "discrete", "labels": ["a", 2]},
            {"name": "w", "kind": "discrete"},
        ],
    )
    def test_malformed_entry_names_parameter(self, entry):
        with pytest.raises(InvalidParameterError, match="'w'"):
            ParameterSpace.from_json_list([entry])

    @pytest.mark.parametrize(
        "entry",
        [
            {"name": "w", "kind": "continuous", "lo": 1, "hi": 0},
            {"name": "w", "kind": "discrete", "labels": ["only"]},
            {"name": "w", "kind": "discrete", "labels": ["a", "a"]},
            {"name": "w", "kind": "count", "min": 3, "max": 1},
        ],
    )
    def test_rejected_range_names_parameter(self, entry):
        with pytest.raises(InvalidParameterError, match="'w'"):
            ParameterSpace.from_json_list([entry])

    def test_whole_float_count_bounds_accepted(self):
        space = ParameterSpace.from_json_list([{"name": "n", "kind": "count", "min": 1.0, "max": 3}])
        assert space["n"] == Count(1, 3)

    def test_parameters_must_be_a_list(self):
        with pytest.raises(InvalidParameterError, match="list"):
            ParameterSpace.from_json_list(5)
        doc = json.loads(NodeGraph().serialize())
        doc["parameters"] = {"w": 1}
        with pytest.raises(InvalidParameterError, match="list"):
            NodeGraph.deserialize(json.dumps(doc))

    def test_generator_graph_serde_round_trip(self):
        for category in CATEGORY_NAMES:
            gen = get_generator(category)
            pv = sample_parameters(gen.space, 0, salt="")
            graph = gen.build(pv)
            text = graph.serialize()
            back = NodeGraph.deserialize(text)
            assert back == graph, category
            assert back.serialize() == text, category


class TestVectors:
    def test_missing_and_bounds(self):
        space = ParameterSpace({"x": Continuous(0, 1), "n": Count(1, 3)})
        with pytest.raises(MissingParameterError):
            space.validate_vector(ParamVector({"x": 0.5}))
        with pytest.raises(RangeError):
            space.validate_vector(ParamVector({"x": 2.0, "n": 2}))
        space.validate_vector(ParamVector({"x": 0.5, "n": 3}))

    def test_a_bool_is_no_entry_value(self):
        space = ParameterSpace({"x": Continuous(0, 2), "style": Discrete(("a", "b")), "n": Count(0, 2)})
        for name, entry in space.entries.items():
            assert entry.contains(1) and not entry.contains(True)
            with pytest.raises(RangeError, match=repr(name)):
                space.check_value(name, True)

    def test_discrete_indices(self):
        space = ParameterSpace({"style": Discrete(("a", "b", "c"))})
        assert space["style"].labels[1] == "b"
        assert space["style"].labels.index("c") == 2
        with pytest.raises(RangeError):
            space.check_value("style", 3)


class TestOverrides:
    def test_load_rejects_non_object(self, tmp_path):
        path = tmp_path / "ov.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(InvalidParameterError):
            load_overrides(path)

    def test_unknown_override_name(self):
        space = ParameterSpace({"x": Continuous(0, 1)})
        with pytest.raises(MissingParameterError, match="'y'"):
            sample_parameters(space, 0, overrides={"y": {"fixed": 1}})
        with pytest.raises(MissingParameterError, match="'y'"):
            merge_overrides(space, {"y": {"fixed": 1}})

    @pytest.mark.parametrize(
        "category, overrides",
        [
            ("door", {"handle_type": 5}),
            ("door", {"width": {"lo": "wide"}}),
            ("door", {"width": {"low": 0.5}}),
            ("toaster", {"levers_per_slot": {"fixed": -1}}),
            ("lamp", {"arm_segments": {"fixed": 99}}),
            ("door", {"handle_type": {"choices": [0, 7]}}),
        ],
        ids=[
            "not-an-object", "not-a-number", "unknown-key",
            "count-below-min", "count-above-max", "choice-outside-labels",
        ],
    )
    def test_malformed_override_names_parameter(self, category, overrides):
        space = get_generator(category).space
        (name,) = overrides
        with pytest.raises(InvalidParameterError, match=repr(name)):
            sample_parameters(space, 0, overrides=overrides)
        with pytest.raises(InvalidParameterError, match=repr(name)):
            merge_overrides(space, overrides)

    @pytest.mark.parametrize("category", CATEGORY_NAMES)
    def test_whole_overrides_outside_range_rejected(self, category):
        space = get_generator(category).space
        for name, entry in space.entries.items():
            if isinstance(entry, Continuous):
                continue
            if isinstance(entry, Discrete):
                lo, hi = 0, len(entry.labels) - 1
            else:
                lo, hi = entry.min, entry.max
            for bad in (lo - 1, hi + 1):
                for override in ({"fixed": bad}, {"choices": [lo, bad]}):
                    with pytest.raises(InvalidParameterError, match=repr(name)):
                        sample_parameters(space, 0, overrides={name: override})
            pv = sample_parameters(space, 0, overrides={name: {"choices": [lo, hi]}})
            assert pv[name] in (lo, hi)

    def test_merge_widens_continuous(self):
        space = ParameterSpace({"x": Continuous(0.2, 0.4)})
        merged = merge_overrides(space, {"x": {"lo": 0.0, "hi": 1.0}})
        entry = merged["x"]
        assert entry.lo == 0.0 and entry.hi == 1.0
        fixed = merge_overrides(space, {"x": {"fixed": 0.9}})
        assert fixed["x"].hi == 0.9

    def test_normal_clamped(self):
        space = ParameterSpace({"x": Continuous(0.0, 1.0)})
        values = [
            sample_parameters(space, s, overrides={"x": {"mean": 0.9, "std": 0.3}})["x"]
            for s in range(300)
        ]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert sum(values) / len(values) > 0.6

    def test_fixed_discrete_and_count(self):
        gen = get_generator("toaster")
        pv = sample_parameters(
            gen.space, 4, overrides={"slot_count": {"fixed": 3}, "lever_type": {"fixed": 2}}
        )
        assert pv["slot_count"] == 3
        assert pv["lever_type"] == 2


    def test_build_checks_overrides_once_before_building(self, monkeypatch):
        calls = {"check": 0, "build": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            artigen.params, "_check_overrides", counted("check", artigen.params._check_overrides)
        )
        # a build records the category's graph once
        monkeypatch.setattr(CategoryGenerator, "build", counted("build", CategoryGenerator.build))
        door = get_generator("door")
        _ = door.blueprint  # built outside the counts below
        params = sample_parameters(door.space, 3)
        calls.update(check=0, build=0)
        with pytest.raises(MissingParameterError, match="no_such_parameter"):
            build_instance("door", 3, params=params, overrides={"no_such_parameter": {"fixed": 1}})
        assert calls == {"check": 1, "build": 0}
        for given in (None, params):
            build_instance("door", 3, params=given, overrides={"handle_type": {"fixed": 1}})
        assert calls == {"check": 3, "build": 2}

class TestCategoryFkConsistency:
    @pytest.mark.parametrize("category", ("door", "lamp"))
    def test_fk_defaults_match_evaluate(self, category):
        import numpy as np

        from artigen.blueprint import extract_blueprint, instantiate, posed_meshes
        from artigen.evaluate import evaluate

        gen = get_generator(category)
        pv = sample_parameters(gen.space, 6, salt="")
        graph = gen.build(pv)
        body = evaluate(graph, pv)
        inst = instantiate(extract_blueprint(graph), graph, pv, category=category)
        meshes = posed_meshes(inst, {})
        for link in inst.links:
            if link.mesh.is_empty:
                continue
            expected = body.posed_mesh(link.link_id).vertices
            got = meshes[link.link_id].vertices
            assert np.abs(got - expected).max() < 1e-9, link.link_id
