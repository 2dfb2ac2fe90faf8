"""README's Library snippet runs as written, and its list of diagnostic codes
is the checker's."""

import ast
import re
from pathlib import Path

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
