"""Solve a fixed, seeded set of Riccati problems and record what each solve did.

Usage::

    python3 tools/oracles.py TREE OUTPUT.json

TREE is a checkout of this repository; its ``src/`` is imported, so the sweep
can be run against any two trees (say a change and its parent) and the two
OUTPUT files compared with ``diff``. BLAS is pinned to one thread, and the
JSON is written with sorted keys, so two runs on one host write the same
bytes. This is the Riccati slice of the oracle sweep in ROADMAP direction 4.

The cases, each a call of ``koopmankit.solve_care(a, b, q, r)``:

- ``fuzz/NNNN``: 3,000 seeded problems drawn in turn by
  ``random_scaled_problem`` (n = 1-11 states and 1-3 inputs, A Gaussian,
  Q = G'G, R = H'H + k I, each of A, B, Q and R scaled by 10^u with u
  uniform in [-3, 3]). One in six has B = 0, one in six Q = 0 and one in
  six a skew-symmetric A.
- ``riccati/s<seed>/m<m>/<j>/<layout>``: the pairs of the ``riccati``
  benchmark workload (``perfbench/workloads.py``) for seeds 0-5, A =
  randn/sqrt(m), B = randn (m x 2), Q = I, R = I: the first timed pass at
  m = 3, 9 and 20, and the once-per-run probes at m = 35 and 50. Each is
  solved three times, with ``a`` C-ordered, Fortran-ordered
  (``np.asfortranarray``) and as the transposed view of a C-ordered A', so
  the record shows whether a solve depends on the memory order of ``a``.
- ``named/...``: inputs that earlier findings name (CHANGES.md).

Each record holds, for a solve, the SHA-256 of P's bytes, P's relative
backward error |Res| / (|Q| + 2|A||P| + |G||P|^2) with G = B R^-1 B', and
the largest real part of the closed loop A - B R^-1 B' P; for a refusal,
the exception's type and message. Beside either, when scipy imports, it
holds ``scipy.linalg.solve_continuous_are``'s verdict on the same problem:
the same backward error and whether that closed loop is Hurwitz, or the
exception it raised. Both verdicts are ``care_verdict``, and the fuzz
problems ``random_scaled_problem``, from the ``tests/_reference.py`` beside
this tool, not from TREE, so two trees are judged on one set of problems by
one rule. The verdict is computed on C-ordered copies, so the three layouts
of one problem share it whenever they share P. ``input`` records whether
Q = 0 and the largest real part of A's eigenvalues. ``summary`` counts
solves and refusals per group and size.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import sys

FUZZ_COUNT = 3000
FUZZ_SEED = 20151009
WORKLOAD_SEEDS = range(6)
WORKLOAD_IDENT = 4  # RiccatiWorkload.ident: the workload's generator is rng([seed, 4, pass])
WORKLOAD_SIZES = (3, 9, 20)
WORKLOAD_PER_SIZE = 24
WORKLOAD_PROBE = ((35, 2), (50, 3))
WORKLOAD_INPUTS = 2


def _fuzz(np, problem):
    rng = np.random.default_rng(FUZZ_SEED)
    for i in range(FUZZ_COUNT):
        a, b, q, r = problem(rng)
        variant = i % 6
        if variant == 3:
            b = np.zeros_like(b)
        elif variant == 4:
            q = np.zeros_like(q)
        elif variant == 5:
            a = 0.5 * (a - a.T)
        yield f"fuzz/{i:04d}", (a, b, q, r)


def _workload_pairs(np, rng, sizes):
    for m, count in sizes:
        for j in range(count):
            a = rng.standard_normal((m, m)) / np.sqrt(m)
            b = rng.standard_normal((m, WORKLOAD_INPUTS))
            yield m, j, a, b


def _workload(np):
    for seed in WORKLOAD_SEEDS:
        timed = np.random.default_rng([seed, WORKLOAD_IDENT, 0])
        probe = np.random.default_rng([seed, WORKLOAD_IDENT, -1 % 2**32])
        pairs = [*_workload_pairs(np, timed, [(m, WORKLOAD_PER_SIZE) for m in WORKLOAD_SIZES]),
                 *_workload_pairs(np, probe, WORKLOAD_PROBE)]
        for m, j, a, b in pairs:
            q, r = np.eye(m), np.eye(WORKLOAD_INPUTS)
            layouts = {"c": a, "fortran": np.asfortranarray(a),
                       "transposed": np.ascontiguousarray(a.T).T}
            for layout, a_in in layouts.items():
                yield f"riccati/s{seed}/m{m}/{j:02d}/{layout}", (a_in, b, q, r)


def _named(np, kk):
    hurwitz_lift = kk.slow_manifold_lift_ct(-0.05, -1.0, {2: 1.0}).K
    kooc_lift = kk.slow_manifold_lift_ct(-0.1, 1.0, {2: 1.0}).K  # the kooc-demo lift
    e1 = [[0.0], [1.0], [0.0]]
    return {
        # Q = 0 on a Hurwitz lift: P at the rounding floor (CHANGES.md line 29)
        "named/q0_hurwitz_lift": (hurwitz_lift, e1, np.zeros((3, 3)), [[1.0]]),
        # Q = 0 on an unstable scalar: 2p - p^2 = 0, stabilizing root p = 2
        "named/q0_unstable_scalar": ([[1.0]], [[1.0]], [[0.0]], [[1.0]]),
        # |P| ~ 5e155, whose Frobenius norm overflows (CHANGES.md line 48)
        "named/p_norm_overflow": (np.diag([-0.1, 1.0]), [[0.0], [1.0]], 1e155 * np.eye(2),
                                  [[1.0]]),
        # the two designs of `koopmankit control --r 1e-160`: |G| = 1e160
        "named/r_1e-160_lqr": (kooc_lift[:2, :2], [[0.0], [1.0]], np.eye(2), [[1e-160]]),
        "named/r_1e-160_kooc": (kooc_lift, e1, np.diag([1.0, 1.0, 0.0]), [[1e-160]]),
    }.items()


def _number(x):
    x = float(x)
    return x if x == x and abs(x) != float("inf") else repr(x)


def _refusal(exc):
    return {"refused": type(exc).__name__, "message": str(exc)}


def _record(np, kk, verdict, care_ref, problem):
    a, b, q, r = problem
    a_eigs = np.linalg.eigvals(np.asarray(a, dtype=float))
    record = {"input": {"q_zero": not np.asarray(q).any(),
                        "a_max_real": _number(a_eigs.real.max())}}
    try:
        p = kk.solve_care(a, b, q, r)
    except Exception as exc:  # every refusal is recorded, typed or not
        record["koopmankit"] = _refusal(exc)
    else:
        judged = verdict(a, b, q, r, p)
        record["koopmankit"] = {"p_sha256": hashlib.sha256(p.tobytes()).hexdigest(),
                                "backward_error": _number(judged.backward_error),
                                "closed_loop_max_real": _number(judged.growth)}
    if care_ref is not None:
        try:
            with np.errstate(all="ignore"):
                p_ref = care_ref(a, b, q, r)
        except Exception as exc:
            record["scipy"] = _refusal(exc)
        else:
            judged = verdict(a, b, q, r, p_ref)
            record["scipy"] = {"backward_error": _number(judged.backward_error),
                               "hurwitz": bool(judged.growth < 0.0)}
    return record


def _summary(cases):
    counts = {}
    for name, record in cases.items():
        parts = name.split("/")
        group = parts[0] if parts[0] != "riccati" else f"riccati/{parts[2]}/{parts[4]}"
        tally = counts.setdefault(group, {"solved": 0, "refused": 0})
        tally["refused" if "refused" in record["koopmankit"] else "solved"] += 1
    return counts


def run(tree):
    sys.path.insert(0, str(pathlib.Path(tree).resolve() / "src"))
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
    import numpy as np

    import koopmankit as kk
    from _reference import care_verdict, random_scaled_problem
    try:
        from scipy.linalg import solve_continuous_are as care_ref
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        care_ref, scipy_version = None, None

    problems = [*_fuzz(np, random_scaled_problem), *_workload(np), *_named(np, kk)]
    cases = {name: _record(np, kk, care_verdict, care_ref, problem) for name, problem in problems}
    return {"numpy": np.__version__, "scipy": scipy_version, "cases": cases,
            "summary": _summary(cases)}


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python3 tools/oracles.py TREE OUTPUT.json")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    result = run(sys.argv[1])
    pathlib.Path(sys.argv[2]).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    for group, tally in sorted(result["summary"].items()):
        print(f"{group}: {tally['solved']} solved, {tally['refused']} refused")
    print(f"{len(result['cases'])} cases -> {sys.argv[2]}")
