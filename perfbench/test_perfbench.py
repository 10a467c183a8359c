"""Tests of the benchmark itself: checks, seeding, metric names, workload list.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import copy
import json
import pathlib
import re
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import koopmankit as kk  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, Job, Workload  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _solved(workload_name, job):
    workload = WORKLOADS[workload_name]
    state = workload.setup(kk)
    out = workload.run(kk, state, job)
    assert workload.check(state, job, out) is None
    return workload, state, out


@pytest.fixture(scope="module")
def paper_control():
    return _solved("control", WORKLOADS["control"].probe_jobs(0)[0])


def test_control_check_rejects_perturbed_kooc_gain(paper_control):
    workload, state, out = paper_control
    bad = copy.deepcopy(out)
    bad.kooc_controller.gain = bad.kooc_controller.gain * (1.0 + 1e-3)
    assert workload.check(state, Job("paper"), bad) is not None


def test_control_check_rejects_wrong_cost_ratio(paper_control):
    workload, state, out = paper_control
    bad = copy.deepcopy(out)
    bad.ratio += 3e-3
    assert workload.check(state, Job("paper"), bad) is not None


def test_riccati_check_rejects_p_off_by_1e_3():
    rng = np.random.default_rng(5)
    job = Job("m3", {"a": rng.standard_normal((3, 3)) / np.sqrt(3),
                     "b": rng.standard_normal((3, 2))})
    workload, state, p = _solved("riccati", job)
    assert workload.check(state, job, p + 1e-3) is not None


def test_lift_check_rejects_inexact_closure_and_drifted_states():
    job = WORKLOADS["lift"].jobs(3, 0)[0]
    workload, state, out = _solved("lift", job)
    result = out[0]
    assert workload.check(state, job, [{**result, "residual": 1e-300}]) is not None
    drifted = result["states"] + 1e-5
    assert workload.check(state, job, [{**result, "states": drifted}]) is not None


def test_identify_check_rejects_wrong_support():
    job = WORKLOADS["identify"].jobs(3, 0)[2]  # tu_map: the cheapest job
    workload, state, out = _solved("identify", job)
    bad = copy.deepcopy(out)
    bad["sparse"].coefficients[0, -1] = 1e-3
    assert workload.check(state, job, bad) is not None
    assert workload.check(state, job, {**out, "residuals": [2e-5]}) is not None


def _inputs(jobs):
    """Exact, comparable form of a pass's inputs."""
    return [(job.kind, sorted((k, np.asarray(v, dtype=float).tolist())
                              for k, v in job.params.items())) for job in jobs]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    workload = WORKLOADS[name]
    inputs = _inputs(workload.jobs(11, 0))
    assert inputs == _inputs(workload.jobs(11, 0))
    assert inputs != _inputs(workload.jobs(12, 0))
    assert inputs != _inputs(workload.jobs(11, 1))
    assert _inputs(workload.probe_jobs(11)) == _inputs(workload.probe_jobs(11))
    if name == "riccati":
        assert _inputs(workload.probe_jobs(11)) != _inputs(workload.probe_jobs(12))


def test_metric_names_and_units_are_well_formed():
    for name, (unit, better) in {**run.END_TO_END, **run.PER_LAYER}.items():
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit
        assert better in ("lower", "higher")


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in SPEC[key]}
        assert listed == table


def test_tail_keeps_ten_jobs_beyond_it_and_never_drops_below_the_median():
    assert run.tail(list(range(100))) == (89, 90.0, 10)
    value, _, beyond = run.tail(list(range(12)))
    assert (value, beyond) == (6, 5)
    value, _, beyond = run.tail(list(range(6)))
    assert (value, beyond) == (3, 2)



class _Instant(Workload):
    """Two jobs per pass that return at once, the second one refused."""

    refusals = ("NumericsError",)
    pass_s = 0.5

    def jobs(self, seed, pass_index):
        return [Job("ok"), Job("refused")]

    def run(self, kk_, state, job):
        if job.kind == "refused":
            raise kk_.NumericsError("refused")
        return None

    def check(self, state, job, out):
        return None


def test_run_makes_a_fixed_number_of_passes_however_fast_the_jobs_are():
    # a fixed count, not a deadline, makes the same seed attempt (and fail)
    # the same jobs in every run, on a quiet host or a busy one
    tally = run.Tally()
    passes, next_pass = tally.run_passes(kk, _Instant(), {}, 1, run.pass_count(_Instant(), 4), 0)
    assert len(passes) == next_pass == 8
    assert (tally.attempted, tally.failed, tally.wrong) == (16, 8, [])
    assert run.pass_count(_Instant(), 0.1) == run.MIN_PASSES
