import json
from importlib import resources
from pathlib import Path

import pytest

from artigen.cli import main
from artigen.graph import NodeGraph
from artigen.patterns import PATTERN_NAMES, build_pattern

from helpers import two_parent_graph


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_single_seed_layout(self, tmp_path, capsys):
        code, out, _ = run(
            ["generate", "--category", "door", "--seed", "7", "--format", "urdf",
             "--out", str(tmp_path)], capsys,
        )
        assert code == 0
        bundle = tmp_path / "door_0007"
        assert (bundle / "model.urdf").exists()
        assert (bundle / "manifest.json").exists()
        assert list((bundle / "meshes").glob("*.obj"))
        assert "seed 7" in out

    def test_both_formats_batch(self, tmp_path, capsys):
        code, out, _ = run(
            ["generate", "--category", "toaster", "--seeds", "0..3", "--format", "both",
             "--out", str(tmp_path)], capsys,
        )
        assert code == 0
        for seed in range(4):
            bundle = tmp_path / f"toaster_{seed:04d}"
            assert (bundle / "model.urdf").exists()
            assert (bundle / "model.xml").exists()

    def test_deterministic_across_runs(self, tmp_path, capsys):
        for sub in ("a", "b"):
            code, _, _ = run(
                ["generate", "--category", "lamp", "--seed", "3", "--format", "both",
                 "--out", str(tmp_path / sub)], capsys,
            )
            assert code == 0
        a = (tmp_path / "a" / "lamp_0003" / "model.urdf").read_bytes()
        b = (tmp_path / "b" / "lamp_0003" / "model.urdf").read_bytes()
        assert a == b
        a = (tmp_path / "a" / "lamp_0003" / "model.xml").read_bytes()
        b = (tmp_path / "b" / "lamp_0003" / "model.xml").read_bytes()
        assert a == b

    def test_unknown_category(self, tmp_path, capsys):
        code, _, err = run(
            ["generate", "--category", "spaceship", "--out", str(tmp_path)], capsys
        )
        assert code == 2
        assert "unknown category" in err

    @pytest.mark.parametrize(
        "argv", [["info", "spaceship"], ["blueprint", "spaceship"], ["check", "--category", "spaceship"]]
    )
    def test_unknown_category_in_every_command(self, tmp_path, capsys, argv):
        code, out, err = run(argv + (["--out", str(tmp_path)] if argv[0] == "check" else []), capsys)
        assert code == 2
        assert out == ""
        assert err == "unknown category 'spaceship'\n"

    @pytest.mark.parametrize("jobs", ["-3", "0", "two"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, jobs):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--category", "door", "--jobs", jobs, "--out", str(out)])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_parallel_jobs_match_serial(self, tmp_path, capsys):
        code, _, _ = run(
            ["generate", "--category", "door", "--seeds", "0..3", "--format", "urdf",
             "--out", str(tmp_path / "par"), "--jobs", "2"], capsys,
        )
        assert code == 0
        code, _, _ = run(
            ["generate", "--category", "door", "--seeds", "0..3", "--format", "urdf",
             "--out", str(tmp_path / "ser")], capsys,
        )
        assert code == 0
        for seed in range(4):
            a = (tmp_path / "par" / f"door_{seed:04d}" / "model.urdf").read_bytes()
            b = (tmp_path / "ser" / f"door_{seed:04d}" / "model.urdf").read_bytes()
            assert a == b

    def test_per_seed_failures_do_not_abort_batch(self, tmp_path, capsys):
        overrides = tmp_path / "bad.json"
        overrides.write_text(json.dumps({"no_such_parameter": {"fixed": 1}}))
        for jobs in ("1", "2"):
            code, _, err = run(
                ["generate", "--category", "door", "--seeds", "0..2", "--out", str(tmp_path),
                 "--overrides", str(overrides), "--jobs", jobs], capsys,
            )
            assert code == 1
            assert err.count("FAILED") == 3
            assert "door seed 0: FAILED: MissingParameterError: " in err

    def test_check_reports_each_failed_seed_and_exits_1(self, tmp_path, capsys):
        # A build that raises is one seed's failure, as in generate: the range
        # goes on, each failure gets its line and the exit code is 1, not
        # the 2 of collision findings.
        overrides = tmp_path / "bad.json"
        overrides.write_text(json.dumps({"width": {"fixed": 0.0}}))
        code, out, err = run(
            ["check", "--category", "door", "--seeds", "0..2", "--out", str(tmp_path / "out"),
             "--overrides", str(overrides)], capsys,
        )
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 3
        for seed, line in enumerate(lines):
            assert line.startswith(f"door seed {seed}: FAILED: InvalidParameterError: ")

    def test_rate_counts_generated_assets(self, tmp_path, capsys):
        overrides = tmp_path / "bad.json"
        overrides.write_text(json.dumps({"width": {"fixed": 0.0}}))
        code, out, _ = run(
            ["generate", "--category", "door", "--seeds", "0..2", "--out", str(tmp_path / "out"),
             "--overrides", str(overrides)], capsys,
        )
        assert code == 1
        assert out.startswith("generated 0/3 assets in ") and out.endswith(" (0.0/s)\n")

    def test_override_file(self, tmp_path, capsys):
        overrides = tmp_path / "ov.json"
        overrides.write_text(json.dumps({"handle_type": {"fixed": 0}, "door_count": {"fixed": 1}}))
        code, _, _ = run(
            ["generate", "--category", "door", "--seed", "1", "--out", str(tmp_path),
             "--overrides", str(overrides)], capsys,
        )
        assert code == 0
        manifest = json.loads((tmp_path / "door_0001" / "manifest.json").read_text())
        assert manifest["params"]["handle_type"] == 0
        assert manifest["overrides"] == json.loads(overrides.read_text())


class TestOverrideFiles:
    @pytest.mark.parametrize("command", ["generate", "check"])
    @pytest.mark.parametrize("content", [None, '{"handle_type": '])
    def test_unreadable_override_file_exits_2(self, tmp_path, capsys, command, content):
        overrides = tmp_path / "ov.json"
        if content is not None:
            overrides.write_text(content)
        code, _, err = run(
            [command, "--category", "door", "--seed", "0", "--out", str(tmp_path / "out"),
             "--overrides", str(overrides)], capsys,
        )
        assert code == 2
        assert err.count("\n") == 1 and str(overrides) in err
        assert "Traceback" not in err
        if content is not None:
            assert "line 1 column 17" in err


    def test_malformed_override_entry_names_type_and_parameter(self, tmp_path, capsys):
        overrides = tmp_path / "ov.json"
        overrides.write_text(json.dumps({"width": {"lo": "wide"}}))
        code, _, err = run(
            ["generate", "--category", "door", "--seed", "0", "--out", str(tmp_path / "out"),
             "--overrides", str(overrides)], capsys,
        )
        assert code == 1
        assert "door seed 0: FAILED: InvalidParameterError: " in err
        assert "'width'" in err


class TestInfo:
    @pytest.mark.parametrize(
        "category,dims",
        [("door", 39), ("fridge", 32), ("dishwasher", 13), ("lamp", 29), ("toaster", 14)],
    )
    def test_dims_line(self, category, dims, capsys):
        code, out, _ = run(["info", category], capsys)
        assert code == 0
        assert f"continuous dims: {dims}" in out

    def test_fridge_magnitude_digits(self, capsys):
        code, out, _ = run(["info", "fridge"], capsys)
        assert code == 0
        line = next(l for l in out.splitlines() if "assets at 3 values" in l)
        number = line.split(":")[1].strip()
        assert 16 <= len(number) <= 18

    def test_unknown(self, capsys):
        code, _, _ = run(["info", "blimp"], capsys)
        assert code == 2


class TestCheck:
    def test_clean_door_seed(self, tmp_path, capsys):
        code, out, _ = run(
            ["check", "--category", "door", "--seed", "5", "--out", str(tmp_path)], capsys
        )
        assert code == 0
        report = json.loads((tmp_path / "door_0005" / "report.json").read_text())
        assert report["clean"] is True
        assert report["configs_tested"] >= 1

    def test_cap_exceeded_exit_3(self, tmp_path, capsys):
        # a toaster with many joints at a fine grid blows the configuration cap
        overrides = tmp_path / "ov.json"
        overrides.write_text(json.dumps({
            "slot_count": {"fixed": 3}, "levers_per_slot": {"fixed": 2},
            "buttons_per_lever": {"fixed": 3},
        }))
        code, _, err = run(
            ["check", "--category", "toaster", "--seed", "0", "--grid", "10",
             "--out", str(tmp_path), "--overrides", str(overrides)], capsys,
        )
        assert code == 3
        assert "random" in err

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf"])
    def test_non_finite_tolerance_exit_2(self, tmp_path, capsys, tolerance):
        code, out, err = run(
            ["check", "--category", "fridge", "--seed", "28986", "--random", "256",
             f"--tolerance={tolerance}", "--out", str(tmp_path)], capsys,
        )
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and "tolerance" in err

    def test_random_strategy(self, tmp_path, capsys):
        code, out, _ = run(
            ["check", "--category", "toaster", "--seed", "0", "--random", "64",
             "--out", str(tmp_path)], capsys,
        )
        assert code == 0
        assert "64 configs" in out


class TestValidate:
    def test_shipped_patterns_all_pass(self, capsys):
        for name in PATTERN_NAMES:
            path = resources.files("artigen.data").joinpath(f"patterns/{name}.json")
            with resources.as_file(path) as p:
                code, out, _ = run(["validate", str(p)], capsys)
            assert code == 0, name
            assert "ok" in out

    def test_shipped_patterns_in_sync_with_builders(self):
        for name in PATTERN_NAMES:
            shipped = (
                resources.files("artigen.data").joinpath(f"patterns/{name}.json").read_text("utf-8")
            )
            assert shipped == build_pattern(name).serialize(), name

    def test_cyclic_fixture_exit_1(self, tmp_path, capsys):
        text = build_pattern("simple_revolute").serialize()
        g = build_pattern("simple_revolute")
        bad = text.replace('"geometry": "n1"', f'"geometry": "{g.output_node}"')
        path = tmp_path / "cyclic.json"
        path.write_text(bad)
        code, out, _ = run(["validate", str(path)], capsys)
        assert code == 1
        assert "graph-cycle" in out

    @pytest.mark.parametrize(
        "corrupt, code",
        [
            (lambda doc, joint: doc.update(output=None), "no-output"),
            (lambda doc, joint: doc.update(output="zz"), "missing-node"),
            (lambda doc, joint: doc["nodes"][joint]["inputs"].update(child="zz"), "missing-node"),
        ],
        ids=["no-output", "missing-output-node", "wire-from-missing-node"],
    )
    def test_missing_output_or_source_exit_1(self, tmp_path, capsys, corrupt, code):
        doc = json.loads(build_pattern("simple_revolute").serialize())
        (joint,) = [i for i, n in enumerate(doc["nodes"]) if n["kind"] == "joint_revolute"]
        corrupt(doc, joint)
        text = json.dumps(doc)
        assert [d.code for d in NodeGraph.deserialize(text).validate()] == [code]
        path = tmp_path / "broken.json"
        path.write_text(text)
        exit_code, out, _ = run(["validate", str(path)], capsys)
        assert exit_code == 1
        assert out.startswith(code)

    def test_zero_joint_axis_exit_2(self, tmp_path, capsys):
        doc = json.loads(build_pattern("simple_revolute").serialize())
        for node in doc["nodes"]:
            if "axis" in node["params"]:
                node["params"]["axis"] = [0, 0, 0]
        path = tmp_path / "zero_axis.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(["validate", str(path)], capsys)
        assert code == 2
        assert "ok" not in out
        assert "axis" in err

    def test_zero_rotate_axis_exit_2(self, tmp_path, capsys):
        doc = json.loads(build_pattern("simple_revolute").serialize())
        for node in doc["nodes"]:
            if node["kind"] == "transform":
                node["params"].update(rotate_axis=[0, 0, 0], rotate_angle=0.5)
        path = tmp_path / "zero_rotate_axis.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(["validate", str(path)], capsys)
        assert code == 2
        assert "ok" not in out
        assert "rotate_axis" in err

    @pytest.mark.parametrize(
        "parameters",
        [
            [{"name": "w", "kind": "continuous", "hi": 1}],
            [{"name": "w", "kind": "continuous", "lo": 0, "hi": float("inf")}],
            [{"name": "w", "kind": "count", "min": "z", "max": 3}],
            [{"name": "w", "kind": "discrete", "labels": "ab"}],
            5,
            [{"name": "w", "kind": "continuous", "lo": 1, "hi": 0}],
        ],
    )
    def test_malformed_parameter_entry_exit_2(self, tmp_path, capsys, parameters):
        doc = json.loads(build_pattern("simple_revolute").serialize())
        doc["parameters"] = parameters
        path = tmp_path / "bad_parameters.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(["validate", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert ("'w'" if isinstance(parameters, list) else "list") in err

    @pytest.mark.parametrize("output", [["n0"], {"a": 1}])
    def test_output_that_is_not_a_node_id_exit_2(self, tmp_path, capsys, output):
        doc = json.loads(build_pattern("simple_revolute").serialize())
        doc["output"] = output
        path = tmp_path / "bad_output.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(["validate", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("parse error: output must be a node id or null")
        assert len(err.splitlines()) == 1

    def test_scalar_output_exit_1(self, tmp_path, capsys):
        doc = json.loads(build_pattern("simple_revolute").serialize())
        doc["nodes"].append({"id": "sum", "kind": "scalar_math", "params": {"op": "add"}})
        doc["output"] = "sum"
        path = tmp_path / "scalar_output.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(["validate", str(path)], capsys)
        assert code == 1
        assert out.splitlines() == ["output-not-geometry [sum]: output is a scalar_math node"]

    def test_two_parents_exit_1(self, tmp_path, capsys):
        graph, joint = two_parent_graph()
        path = tmp_path / "two_parents.json"
        path.write_text(graph.serialize())
        code, out, _ = run(["validate", str(path)], capsys)
        assert code == 1
        message = "joint would give a link a second parent"
        assert out.splitlines() == [f"joint-two-parents [{joint}]: {message}"]

    def test_truncated_exit_2(self, tmp_path, capsys):
        text = build_pattern("simple_revolute").serialize()
        path = tmp_path / "broken.json"
        path.write_text(text[: len(text) // 2])
        code, _, err = run(["validate", str(path)], capsys)
        assert code == 2
        assert "line" in err


class TestBlueprintCmd:
    def test_door_tree_shows_chain(self, capsys):
        code, out, _ = run(["blueprint", "door"], capsys)
        assert code == 0
        assert "frame" in out
        assert "panel" in out
        assert "signature:" in out

    def test_signature_stable(self, capsys):
        _, out_a, _ = run(["blueprint", "lamp"], capsys)
        _, out_b, _ = run(["blueprint", "lamp"], capsys)
        assert out_a == out_b

    def test_lamp_shows_variants(self, capsys):
        code, out, _ = run(["blueprint", "lamp"], capsys)
        assert code == 0
        assert "variant on" in out

    def test_dishwasher_shows_repeat(self, capsys):
        code, out, _ = run(["blueprint", "dishwasher"], capsys)
        assert code == 0
        assert "repeat" in out
        assert "rack_count" in out

    def test_unknown_exit_2(self, capsys):
        code, _, _ = run(["blueprint", "hovercraft"], capsys)
        assert code == 2
