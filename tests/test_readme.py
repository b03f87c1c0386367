"""The README's library example runs as written, and its key table is the config's."""

import json
import re
from pathlib import Path

from momine.config import DEFAULTS
from momine.errors import rule_text

from helpers import declared_rule

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.S | re.M)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    names = {}
    exec(compile(blocks[0], str(README), "exec"), names)
    assert names["anchor_ids"].size > 0


def test_readme_key_table_holds_each_key_with_its_default_and_declared_rule():
    rows = re.findall(r"^\| `([^`]+)` \| `([^`]+)` \| (.+) \|$", README.read_text(), flags=re.M)
    assert sorted(key for key, _, _ in rows) == sorted(DEFAULTS)
    for key, default, rule_cell in rows:
        value = json.loads(default)
        assert (value, type(value)) == (DEFAULTS[key], type(DEFAULTS[key])), key
        rule = declared_rule(key)
        if rule is not None:
            assert rule_cell.split("; ")[0] == f"`{rule_text(rule)}`", key
