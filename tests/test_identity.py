"""tools/identity.py: two runs of a case write the same bytes, diff names a changed file,
and run exits 1 when a step breaks its declared exit code."""

import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "identity.py"
CASE = "clusters-literal-positive"  # the smallest case that writes artifacts


def identity(*argv):
    return subprocess.run([sys.executable, str(TOOL), *argv], capture_output=True, text=True)


def test_two_runs_of_a_case_are_identical_and_diff_names_a_changed_file(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert identity("run", str(out), "--case", CASE).returncode == 0
    manifest = (a / "MANIFEST").read_text().splitlines()
    assert f"{CASE}/run/model.bin" in {line.split("  ")[1] for line in manifest}
    assert "exit 0\n" in (a / CASE / "log.txt").read_text()
    same = identity("diff", str(a), str(b))
    assert same.returncode == 0, same.stdout
    assert same.stdout == f"identity: 0 of {len(manifest)} files differ\n"

    report = b / CASE / "run" / "report.json"
    report.write_bytes(report.read_bytes() + b" ")
    (b / CASE / "extra.txt").write_text("")
    changed = identity("diff", str(a), str(b))
    assert changed.returncode == 1
    assert changed.stdout.splitlines() == [
        f"{CASE}/extra.txt: only in {b}",
        f"{CASE}/run/report.json: differs",
        f"identity: 2 of {len(manifest) + 1} files differ",
    ]
    assert identity("diff", str(a), str(tmp_path / "unfinished")).returncode == 1


@pytest.mark.parametrize("cli,broken", [
    ("import sys\nsys.exit(3)\n", "exit 3, declared 2"),
    ("import os, sys\nos.mkdir(sys.argv[sys.argv.index('--out') + 1])\nsys.exit(2)\n",
     "exit 2, but its --out exists"),
], ids=["exits-3", "makes-its-out"])
def test_run_exits_1_on_a_step_that_breaks_its_declared_exit_code(tmp_path, cli, broken):
    # a stand-in momine whose mom either exits 3 or makes its --out before exiting 2
    package = tmp_path / "src" / "momine"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(cli)
    case = "error-bad-config-value"
    result = identity("run", str(tmp_path / "out"), "--src", str(package.parent), "--case", case)
    assert result.returncode == 1
    assert result.stdout.splitlines()[-1] == (
        f"identity: broken: {case}: mom gen --out bad --set graph.k abc: {broken}")
    assert (tmp_path / "out" / "MANIFEST").is_file()
