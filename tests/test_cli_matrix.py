"""The CLI's artifacts, pinned: ``tools/cli_matrix.py`` run afresh against its checked-in record.

The tool runs a fixed matrix of ``koopmankit`` invocations and records each one's exit code,
stdout, stderr and the SHA-256 of every file it wrote. ``tools/cli_matrix.json`` is that record
for this tree. A change that moves an artifact re-records the file, so the move shows in the
diff; this test names every record that moved without it.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
RECORD = ROOT / "tools" / "cli_matrix.json"
FIELDS = (("exit", "exit"), ("stdout", "stdout"), ("stderr", "stderr"), ("artifacts", "artifact hash"))


def _label(run):
    return " ".join(run["argv"]) + "".join(f" [{key}={value}]" for key, value in run["env"].items())


def _moves(recorded, fresh):
    """One line per input file and per record whose bytes moved, naming what moved."""
    lines = [f"input {name}: artifact hash moved"
             for name in sorted(set(recorded["inputs"]) | set(fresh["inputs"]))
             if recorded["inputs"].get(name) != fresh["inputs"].get(name)]
    old = {_label(run): run for run in recorded["runs"]}
    new = {_label(run): run for run in fresh["runs"]}
    for label in old.keys() | new.keys():
        if label not in new:
            lines.append(f"{label}: recorded, but no longer in the matrix")
        elif label not in old:
            lines.append(f"{label}: in the matrix, but not recorded")
        elif moved := [name for key, name in FIELDS if old[label][key] != new[label][key]]:
            lines.append(f"{label}: {', '.join(moved)} moved")
    return sorted(lines)


def test_the_cli_matrix_matches_its_checked_in_record(tmp_path):
    out = tmp_path / "cli_matrix.json"
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "cli_matrix.py"), str(ROOT), str(out)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    recorded, fresh = json.loads(RECORD.read_text()), json.loads(out.read_text())
    assert fresh["config"] == recorded["config"], (
        f"tools/cli_matrix.json was recorded on {recorded['config']}, and this run has "
        f"{fresh['config']}: its hashes rest on libm, numpy and the BLAS kernels, so they do not "
        "hold on another configuration; re-record the file on this one, from a commit whose "
        "artifacts are known to be right, with `python3 tools/cli_matrix.py . tools/cli_matrix.json`")
    moves = _moves(recorded, fresh)
    assert not moves, ("CLI output moved from tools/cli_matrix.json; re-record it with "
                       "`python3 tools/cli_matrix.py . tools/cli_matrix.json` and list each move:\n"
                       + "\n".join(moves))
