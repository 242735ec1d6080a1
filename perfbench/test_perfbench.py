"""Tests of the benchmark's ground truth, checks, timing, tracing and
comparison.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from checks import (
    guardband_signoff,
    identical_records,
    records_digest,
    steered_avf,
    uniform_avf,
)
from compare import verdict
from run import REFERENCE_PROBE_S, SETUP_PROBES, _reference_times
from tracing import SpanRecorder, layer_metrics, self_times, unattributed_share
from truth import HANG_FACTOR, exhaustive_truth, load_truth, program_by_name

HERE = Path(__file__).resolve().parent


def _injector(name):
    from repro.arch.fault_injection import FaultInjector

    return FaultInjector(program_by_name(name), max_cycles_factor=HANG_FACTOR)


def test_checksum_truth_recomputes_exactly():
    stored = load_truth()["checksum"]
    assert stored["coordinates"] == 72_576
    assert stored["avf"] == pytest.approx(0.2552, abs=5e-5)
    assert exhaustive_truth("checksum") == stored


def test_uniform_check_rejects_a_wrong_estimate():
    truth = load_truth()
    result = _injector("matmul").run_campaign(n_trials=2048, seed=3)
    avf = result.failure_rate()
    assert uniform_avf("matmul", avf, 2048, truth["matmul"]["avf"])["ok"]
    # The same records judged against another program's AVF.
    assert not uniform_avf("matmul", avf, 2048, truth["checksum"]["avf"])["ok"]


def test_identity_check_rejects_records_of_another_seed():
    injector = _injector("checksum")
    inline = records_digest(injector.run_campaign(n_trials=300, seed=5).records)
    chunked = injector.run_campaign(n_trials=300, seed=5, chunk_size=7).records
    other = injector.run_campaign(n_trials=300, seed=6).records
    assert identical_records("x", records_digest(chunked), inline)["ok"]
    assert not identical_records("x", records_digest(other), inline)["ok"]


def test_steered_check_rejects_a_wrong_estimate():
    from repro.arch.steering import SteeringConfig

    truth = load_truth()
    result = _injector("checksum").run_steered_campaign(
        budget=8192, seed=1, config=SteeringConfig(target_ci=0.02, surrogate="gbdt"),
    )
    s = result.steering
    args = (s["avf_estimate"], s["ci_halfwidth"])
    assert steered_avf("checksum", *args, truth["checksum"]["avf"], s["stop_reason"])["ok"]
    assert not steered_avf("checksum", *args, truth["matmul"]["avf"],
                           s["stop_reason"])["ok"]
    assert not steered_avf("checksum", *args, truth["checksum"]["avf"], "budget")["ok"]


def test_guardband_check_rejects_too_few_training_samples():
    import repro.circuit as circuit

    library = circuit.build_default_library()
    circuit.SpiceLikeCharacterizer().characterize_library(library)
    netlist = circuit.synthesize_core(library, n_instances=300, seed=1)
    result = circuit.guardband_comparison(
        netlist, circuit.build_default_library, ml_training_samples=1000, seed=0,
    )
    check = guardband_signoff(
        result.nominal_period, result.she_aware_period,
        result.worst_case_period, result.ml_validation_mape,
    )
    assert not check["ok"], check["detail"]
    assert guardband_signoff(228.7, 233.2, 237.2, 0.0062)["ok"]
    assert not guardband_signoff(228.7, 238.0, 237.2, 0.0062)["ok"]


def test_self_time_and_unattributed_share():
    # bench.op [0, 10] > arch.campaign [1, 9] > ml.tree.fit [2, 5]
    spans = [
        [0, None, "bench.op", 0.0, 10.0],
        [1, 0, "arch.campaign", 1.0, 9.0],
        [2, 1, "ml.tree.fit", 2.0, 5.0],
    ]
    assert self_times(spans) == {0: 2.0, 1: 5.0, 2: 3.0}
    assert unattributed_share(spans) == pytest.approx(0.2)
    metrics = layer_metrics(spans, {}, [])
    assert metrics["ml.tree.fit_s"] == 3.0
    assert metrics["arch.self_s"] == 5.0


def test_recorder_nests_wrapped_calls_and_restores_them():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = Layer.__dict__["inner"]
    recorder = SpanRecorder("t")
    recorder.wrap(Layer, "outer", "arch.outer")
    recorder.wrap(Layer, "inner", "ml.inner")
    assert Layer().outer() == 2
    (outer_id, outer_parent, *_), (_, inner_parent, *_) = recorder.spans
    assert outer_parent is None and inner_parent == outer_id
    recorder.uninstall()
    assert Layer.__dict__["inner"] is original


def test_compare_verdicts():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98]
    faster = [0.80, 0.81, 0.79, 0.82, 0.78]
    pairs = list(zip(parent, faster))
    assert verdict(parent, faster, pairs, "lower", 0.1) == (1.0, "better")
    assert verdict(faster, parent, list(zip(faster, parent)), "lower", 0.1)[1] == "worse"
    assert verdict(parent, parent, list(zip(parent, parent)), "lower", 0.1)[1] == "unchanged"
    noisy = [0.6, 1.4, 0.7, 1.3, 1.0]
    assert verdict(noisy, noisy[::-1], list(zip(noisy, noisy[::-1])),
                   "lower", 0.1)[1] == "unresolved"


def test_reference_times_scale_each_call_by_its_probes():
    ref, n = REFERENCE_PROBE_S, SETUP_PROBES
    # Set-up, then one operation of two calls, with probes after set-up,
    # during the second call and after each call: the host ran at half
    # speed, then full speed, then half speed, then a third of it.
    session = {
        "setup_s": 0.3, "calibration": [2 * ref] * n + [ref, 2 * ref],
        "inside": [[], [3 * ref]],
        "ops": [{"seconds": 3.0, "campaigns": [{"seconds": 1.0}, {"seconds": 2.0}]}],
        "wall_s": 0.3 + (2 * n + 6) * ref + 3.0 + 0.1,  # probes and 0.1 s of checks
    }
    setup, ops, wall, speeds = _reference_times(session)
    assert setup == pytest.approx(0.15)
    assert ops == pytest.approx([1.0 / 1.5 + 2.0 / 2])
    assert wall == pytest.approx(0.15 + ops[0] + 0.1)
    assert speeds == pytest.approx([0.5] * n + [1.0, 0.5, 1 / 3])
    # An operation without campaigns is one call; a set-up-only session
    # has no operations and no wall time.
    signoff = {"setup_s": 0.3, "calibration": [2 * ref] * (n + 1), "inside": [[]],
               "ops": [{"seconds": 5.0}], "wall_s": 0.3 + (2 * n + 2) * ref + 5.0 + 0.1}
    setup, ops, wall, _ = _reference_times(signoff)
    assert (setup, ops, wall) == pytest.approx((0.15, [2.5], 0.15 + 2.5 + 0.1))
    assert _reference_times({**signoff, "ops": []})[1:3] == ([], None)


def test_probes_inside_a_call_are_left_out_of_its_time():
    from workloads import PROBE_PERIOD_S, Workload

    def probe():
        time.sleep(0.05)
        return 0.05

    workload = Workload(0, 0, ".", probe=probe)
    start = time.perf_counter()
    _, seconds = workload.timed(time.sleep, 2.2 * PROBE_PERIOD_S)
    total = time.perf_counter() - start
    assert len(workload.inside) == 1 and len(workload.inside[0]) == 2
    assert len(workload.probes) == 1
    assert seconds == pytest.approx(total - 3 * 0.05, abs=0.01)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fi-uniform",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
