"""SHA-256 fingerprint of the artifacts the four default CLI subcommands write.

The subcommands run in-process through ``koopmankit.cli.main`` into a
temporary directory. ``cli_artifacts.json`` next to this file holds the
hashes recorded at the commit that defined the benchmark; a difference is
reported, not counted as a failure, since a change may alter an artifact if
it says why.

Record fresh hashes with::

    python3 perfbench/cli_fingerprint.py --record
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile
from time import perf_counter

HERE = pathlib.Path(__file__).resolve().parent
RECORD = HERE / "cli_artifacts.json"

SUBCOMMANDS = (
    ("simulate", ["simulate", "--system", "quad-manifold"]),
    ("identify", ["identify", "--system", "quad-manifold", "--generate"]),
    ("spectral", ["spectral", "--system", "quad-manifold"]),
    ("control", ["control"]),
)


def fingerprint(scratch_root):
    """Run each subcommand; return ({artifact: sha256}, {subcommand: wall seconds})."""
    from koopmankit import cli

    os.environ.pop("KOOPMANKIT_OUT", None)
    hashes, walls = {}, {}
    pathlib.Path(scratch_root).mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch_root) as tmp:
        for name, argv in SUBCOMMANDS:
            out = pathlib.Path(tmp) / name
            start = perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([*argv, "--out", str(out)])
            walls[name] = perf_counter() - start
            if code != 0:
                raise RuntimeError(f"koopmankit {' '.join(argv)} exited with {code}")
            for path in sorted(out.iterdir()):
                hashes[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes, walls


def recorded():
    return json.loads(RECORD.read_text())


def changed(hashes, reference):
    """Artifact names whose hash differs from, or is missing in, ``reference``."""
    return sorted(name for name in set(hashes) | set(reference)
                  if hashes.get(name) != reference.get(name))


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 perfbench/cli_fingerprint.py --record")
    sys.path.insert(0, str(HERE.parent / "src"))
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    found, _ = fingerprint(HERE / "out")
    RECORD.write_text(json.dumps(found, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(found)} artifact hashes in {RECORD}")
