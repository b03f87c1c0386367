"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.S | re.M)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    names = {}
    exec(compile(blocks[0], str(README), "exec"), names)
    assert names["anchor_ids"].size > 0
