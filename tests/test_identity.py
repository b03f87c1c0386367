"""tools/identity.py: two runs of a case write the same bytes, and diff names a changed file."""

import subprocess
import sys
from pathlib import Path

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
