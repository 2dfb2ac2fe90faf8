"""README's Library snippet runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_snippet_runs(tmp_path, monkeypatch):
    (snippet,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ARTIGEN_SEED_SALT", raising=False)
    exec(compile(snippet, str(README), "exec"), {})
