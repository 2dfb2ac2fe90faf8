"""README's Library snippet runs as written, its list of diagnostic codes is
the checker's, and every package name it cites exists."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import artigen
import artigen.graph

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_snippet_runs(tmp_path, monkeypatch):
    (snippet,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ARTIGEN_SEED_SALT", raising=False)
    exec(compile(snippet, str(README), "exec"), {})


def test_diagnostic_codes_are_the_checkers():
    """README lists exactly the codes that `artigen.graph` gives a Diagnostic
    or a walk rejection."""
    tree = ast.parse(Path(artigen.graph.__file__).read_text(encoding="utf-8"))
    emitted = {
        call.args[0].value
        for call in ast.walk(tree)
        if isinstance(call, ast.Call)
        and getattr(call.func, "id", None) in ("Diagnostic", "_Rejected")
        and isinstance(call.args[0], ast.Constant)
    }
    text = README.read_text(encoding="utf-8")
    (listed,) = re.findall(r"The diagnostic codes are (.*?)\.\s", text, re.DOTALL)
    assert set(re.findall(r"`([a-z-]+)`", listed)) == emitted


def _artigen_classes() -> dict:
    classes = {}
    for info in pkgutil.walk_packages(artigen.__path__, "artigen."):
        for obj in vars(importlib.import_module(info.name)).values():
            if isinstance(obj, type) and obj.__module__.startswith("artigen."):
                classes[obj.__name__] = obj
    return classes


def test_cited_names_exist():
    """Each `artigen.<module>.<name>` README cites imports, and each
    `Class.attr` names an artigen class and one of its attributes, dataclass
    fields or attributes its `__init__` sets, so that a deleted name cannot
    linger in the docs."""
    text = README.read_text(encoding="utf-8")
    dotted = re.findall(r"`artigen\.(\w+)\.(\w+)`", text)
    assert dotted
    for module, name in dotted:
        assert hasattr(importlib.import_module(f"artigen.{module}"), name), f"artigen.{module}.{name}"
    classes = _artigen_classes()
    cited = re.findall(r"`([A-Z]\w*)\.(\w+)[`(]", text)
    assert cited
    for class_name, attr in cited:
        assert class_name in classes, f"{class_name} is not an artigen class"
        cls = classes[class_name]
        init = getattr(cls.__init__, "__code__", None)
        known = (
            hasattr(cls, attr)
            or attr in getattr(cls, "__dataclass_fields__", {})
            or (init is not None and attr in init.co_names)
        )
        assert known, f"{class_name}.{attr}"
