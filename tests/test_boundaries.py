"""Boundary suite: config values and file tokens at the edges of their types.

Every case runs the command that reads the input in process and requires
exit 0 or 2, every stderr line in the form `mom <cmd>: error|warning: ...`,
and no --out after an exit 2, except when a pipeline round raised
AllPoolsEmpty or Diverged after the first artifacts were written. The
values are those a number token can take at its boundaries: -1, 0, 2^63,
1e308, nan, inf, -0.0, 1e-320 and a word.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momine.cli import DEFAULTS, main

VALUES = ["-1", "0", str(2**63), "1e308", "nan", "inf", "-0.0", "1e-320", "word"]
# the pipeline loops over these without an upper bound, so at 2^63 a run
# would not end
UNBOUNDED = ("train.epochs", "rounds")
PIPELINE = ["--seed", "3", "--set", "gen.per_class", "60", "--set", "graph.k", "8",
            "--set", "anchors.count", "16", "--set", "train.epochs", "3"]
ROUND_ERRORS = re.compile(r"every anchor produced empty pools|mean loss became non-finite")
# a number, word or JSON key: what a single-token replacement swaps out
TOKEN = re.compile(r'[^\s\[\],:{}"]+')
SETTINGS = settings(max_examples=120, derandomize=True, database=None, deadline=None)


def run_checked(command, args):
    """Run `mom command --out <fresh dir> args` and check exit code, stderr
    lines and --out."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--out", str(out), *args])
        lines = err.getvalue().splitlines()
        assert code in (0, 2), (args, lines)
        for line in lines:
            assert re.fullmatch(rf"mom {command}: (error|warning): .+", line), (args, line)
        if code == 2:
            assert lines and lines[-1].startswith(f"mom {command}: error: "), (args, lines)
            kept = command == "pipeline" and ROUND_ERRORS.search(lines[-1])
            assert kept or not out.exists(), (args, lines)


@settings(SETTINGS, max_examples=300)
@given(st.sampled_from(sorted(DEFAULTS)), st.sampled_from(VALUES))
def test_a_config_value_at_a_boundary_exits_zero_or_two(key, value):
    if key in UNBOUNDED and value == str(2**63):
        return
    run_checked("pipeline", PIPELINE + ["--set", key, value])


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """The artifacts of one 120-item pipeline with labels."""
    run = tmp_path_factory.mktemp("boundaries") / "run"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["pipeline", "--out", str(run)] + PIPELINE) == 0
    return run


def readers(run):
    """For each artifact, the command and arguments that read a copy of it."""
    features, graph = str(run / "features.bin"), str(run / "graph.txt")
    return {
        "graph.txt": lambda path: ("anchors", ["--graph", path]),
        "anchors.txt": lambda path: ("mine", ["--features", features, "--graph", graph,
                                              "--anchors", path]),
        "pools.jsonl": lambda path: ("train", ["--features", features, "--pools", path,
                                               "--set", "train.epochs", "2"]),
        "labels.txt": lambda path: ("eval", ["--features", features, "--labels", path]),
    }


@pytest.mark.parametrize("name", ["graph.txt", "anchors.txt", "pools.jsonl", "labels.txt"])
@SETTINGS
@given(data=st.data())
def test_a_truncated_or_mutated_file_exits_zero_or_two(small_run, name, data):
    text = (small_run / name).read_text()
    spans = [m.span() for m in TOKEN.finditer(text)]
    truncated = st.integers(0, len(text) - 1).map(lambda cut: text[:cut])
    replaced = st.tuples(st.sampled_from(spans), st.sampled_from(VALUES)).map(
        lambda pick: text[: pick[0][0]] + pick[1] + text[pick[0][1]:])
    body = data.draw(st.one_of(truncated, replaced))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(body)
        run_checked(*readers(small_run)[name](str(path)))
