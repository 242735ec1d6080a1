"""The benchmark's workloads, driven through the public ``repro`` API.

A workload runs inside one fresh interpreter (a *session*): ``setup()``
brings the program to work-ready, each ``op(i)`` is one closed-loop
operation (the next starts only after the previous one finished), and
``finish()`` runs the checks that need the whole session's output and
releases what ``setup()`` started.  This module imports no ``repro`` code
at import time, so a session times its own imports.

The fault-injection inputs derive from the workload seed through
:func:`derive`, so a seed fixes the campaigns of every session and
operation of a run; ``guardband`` runs fixed inputs (see its class).
"""

from __future__ import annotations

import hashlib
import shutil
import signal
import time
from contextlib import nullcontext
from pathlib import Path

from checks import (
    guardband_signoff,
    identical_records,
    records_digest,
    steered_avf,
    uniform_avf,
)
from truth import HANG_FACTOR, load_truth, program_by_name


#: Seconds between host-speed probes during a program call.
PROBE_PERIOD_S = 0.5
#: Host-speed probes taken right after set-up; their mean scales it.
SETUP_PROBES = 3


def derive(*parts):
    """A 32-bit seed that is a pure function of ``parts``."""
    digest = hashlib.blake2b(repr(parts).encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big")


def _campaign_row(program, seconds, result, stats, **extra):
    row = {
        "program": program,
        "seconds": seconds,
        "trials": len(result.records),
        "executed": stats.executed_trials,
        "cached": stats.cached_trials,
        "retries": stats.retries,
        "cache_hits": stats.cache_hits,
        "cache_misses": stats.cache_misses,
    }
    row.update(extra)
    return row


def _op_result(i, campaigns, checks):
    # An operation's time is its campaigns' time: the checks and record
    # digests between campaigns are the benchmark's work, not the user's.
    # Check k belongs to campaign k, which is unit "i.k" of the session.
    return {
        "seconds": sum(c["seconds"] for c in campaigns),
        "campaigns": campaigns,
        "checks": [dict(c, unit=f"{i}.{k}") for k, c in enumerate(checks)],
    }


class Workload:
    """One workload's session; ``span(name)`` opens a trace span (a no-op
    when the session is untraced).

    ``session_s`` is the target length of one untraced session: a run of
    ``--seconds`` starts ``seconds / session_s`` of them (at least two), so
    short operations get many fresh-interpreter samples spread over the
    run.  ``nominal_op_s`` sizes the traced run.

    ``probe`` is the session's host-speed probe, or None.  When it is set,
    ``probe_setup`` appends ``SETUP_PROBES`` probe times to ``probes``
    right after set-up, and ``timed`` appends one after each program call,
    so call ``k`` of the session lies between ``probes[n - 1 + k]`` and
    ``probes[n + k]``, with ``n = SETUP_PROBES``; the probes taken during
    call ``k`` go to ``inside[k]``, unless ``probe_during_calls`` is false.
    """

    probe_during_calls = True

    def __init__(self, seed, session, work_dir, span=nullcontext, probe=None):
        self.seed = seed
        self.session = session
        self.work_dir = Path(work_dir)
        self.span = span
        self.probe = probe
        self.probes = []
        self.inside = []
        self._call_probes = None  # the running call's probes, if probed
        if probe is not None:
            signal.signal(signal.SIGALRM, self._on_alarm)

    def probe_setup(self):
        if self.probe is not None:
            self.probes += [self.probe() for _ in range(SETUP_PROBES)]

    def _on_alarm(self, signum, frame):
        if self._call_probes is not None:
            self._call_probes.append(self.probe())

    def timed(self, fn, *args, **kwargs):
        """``(fn(...), seconds)``: one call of program work, timed.

        Only these calls count as an operation's time and make up the
        traced frame; the checks around them are the benchmark's work.
        With a probe, a timer signal also probes the host's speed every
        ``PROBE_PERIOD_S`` during the call, and ``seconds`` leaves those
        probes out.
        """
        if self.probe is None:
            with self.span("bench.work"):
                start = time.perf_counter()
                result = fn(*args, **kwargs)
                return result, time.perf_counter() - start
        self._call_probes = call_probes = []
        if self.probe_during_calls:
            signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = time.perf_counter() - start - sum(call_probes)
            self._call_probes = None
        self.inside.append(call_probes)
        self.probes.append(self.probe())
        return result, seconds

    def finish(self):
        return {"checks": [], "worker_pids": []}

    def close(self):
        pass


class _FiWorkload(Workload):
    """Shared set-up of the fault-injection workloads: one injector per
    program, with the benchmark's hang budget."""

    modules = ("repro", "repro.arch.fault_injection")
    programs = ()

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.truth = load_truth()

    def setup(self):
        from repro.arch.fault_injection import FaultInjector

        self.injectors = {
            name: FaultInjector(program_by_name(name), max_cycles_factor=HANG_FACTOR)
            for name in self.programs
        }


class FiUniform(_FiWorkload):
    """Fixed-budget uniform campaigns, inline, no cache."""

    name = "fi-uniform"
    programs = ("checksum", "matmul", "fir_filter", "bubble_sort")
    trials = 4096
    session_s = 2.5
    nominal_op_s = 1.3

    def op(self, i):
        campaigns, checks = [], []
        for name, injector in self.injectors.items():
            result, seconds = self.timed(
                injector.run_campaign,
                n_trials=self.trials, seed=derive(self.seed, self.session, i, name),
            )
            avf = result.failure_rate()
            campaigns.append(_campaign_row(
                name, seconds, result, injector.last_run_stats, avf=avf,
            ))
            checks.append(uniform_avf(
                name, avf, self.trials, self.truth[name]["avf"],
            ))
        return _op_result(i, campaigns, checks)


class FiSteered(_FiWorkload):
    """Surrogate-steered campaigns that stop at a +/-0.02 AVF half-width."""

    name = "fi-steered"
    modules = _FiWorkload.modules + ("repro.arch.steering",)
    programs = ("checksum", "matmul", "fir_filter")
    budget = 8192
    session_s = 15.0
    nominal_op_s = 12.5

    def op(self, i):
        from repro.arch.steering import SteeringConfig

        campaigns, checks = [], []
        for name, injector in self.injectors.items():
            config = SteeringConfig(target_ci=0.02, surrogate="gbdt")
            result, seconds = self.timed(
                injector.run_steered_campaign,
                budget=self.budget, seed=derive(self.seed, self.session, i, name),
                config=config,
            )
            steering = result.steering
            campaigns.append(_campaign_row(
                name, seconds, result, injector.last_run_stats,
                avf=steering["avf_estimate"], halfwidth=steering["ci_halfwidth"],
                stop_reason=steering["stop_reason"],
            ))
            checks.append(steered_avf(
                name, steering["avf_estimate"], steering["ci_halfwidth"],
                self.truth[name]["avf"], steering["stop_reason"],
            ))
        return _op_result(i, campaigns, checks)


class FiFabric(_FiWorkload):
    """The uniform matmul campaign on two local tcp workers with a cache.

    One operation runs ``trials`` on a fresh cache and then extends the
    same campaign to twice as many, so half of the second campaign's
    chunks replay from the cache and half execute and are stored.  All
    operations of a session share one seed, so one inline campaign at
    the end of the session is the reference for every record.
    """

    name = "fi-fabric"
    modules = _FiWorkload.modules + (
        "repro.runtime.cache", "repro.runtime.transports.tcp",
    )
    programs = ("matmul",)
    trials = 8192
    workers = 2
    session_s = 6.0
    # During a call the workers keep both CPUs busy, so a probe then would
    # time the workers, not the machine: probe only between calls.
    probe_during_calls = False
    nominal_op_s = 1.0
    connect_timeout_s = 60.0

    def setup(self):
        from repro.runtime.transports.tcp import TcpTransport

        super().setup()
        self.injector = self.injectors["matmul"]
        self.campaign_seed = derive(self.seed, self.session)
        self.transport = TcpTransport(workers=self.workers)
        self.digests = []  # (unit, trials, records digest) per campaign
        # Work-ready means every worker has connected and answered the
        # handshake.  The first two-trial campaign spawns the workers; the
        # scheduler answers handshakes only while a campaign runs, so keep
        # running them until every worker is in.
        deadline = time.monotonic() + self.connect_timeout_s
        while True:
            self.injector.run_campaign(
                n_trials=2, seed=0, chunk_size=1, transport=self.transport,
            )
            if len(self.transport.connected_pids()) >= self.workers:
                break
            if time.monotonic() > deadline:
                raise RuntimeError("tcp workers did not connect")

    def op(self, i):
        from repro.runtime.cache import ResultCache

        cache_dir = self.work_dir / f"cache-{self.session}-{i}"
        cache = ResultCache(cache_dir)
        campaigns, checks = [], []
        truth = self.truth["matmul"]["avf"]
        try:
            for n_trials in (self.trials, 2 * self.trials):
                result, seconds = self.timed(
                    self.injector.run_campaign,
                    n_trials=n_trials, seed=self.campaign_seed,
                    transport=self.transport, cache=cache,
                )
                avf = result.failure_rate()
                campaigns.append(_campaign_row(
                    "matmul", seconds, result, self.injector.last_run_stats, avf=avf,
                ))
                checks.append(uniform_avf("matmul", avf, n_trials, truth))
                self.digests.append((
                    f"{i}.{len(campaigns) - 1}", n_trials,
                    records_digest(result.records),
                ))
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return _op_result(i, campaigns, checks)

    def finish(self):
        pids = self.transport.worker_pids()
        if not self.digests:
            return {"checks": [], "worker_pids": pids}
        reference = self.injector.run_campaign(
            n_trials=2 * self.trials, seed=self.campaign_seed,
        ).records
        expected = {
            n: records_digest(reference[:n])
            for n in (self.trials, 2 * self.trials)
        }
        checks = [
            dict(identical_records(f"matmul-{n}", digest, expected[n]), unit=unit)
            for unit, n, digest in self.digests
        ]
        return {"checks": checks, "worker_pids": pids}

    def close(self):
        transport = getattr(self, "transport", None)
        if transport is not None:
            transport.shutdown()


class Guardband(Workload):
    """Fig. 3 sign-off: worst-case versus SHE-aware ML corner.

    Runs the inputs of ``python -m repro fig3`` (netlist seed 1, ML seed 0)
    whatever the workload seed: with other netlist or ML seeds the ML
    corner can put the SHE-aware period below the nominal one, which the
    sign-off check rejects.
    """

    name = "guardband"
    modules = ("repro", "repro.circuit")
    session_s = 15.0
    nominal_op_s = 12.5
    instances = 300
    netlist_seed = 1
    ml_seed = 0
    training_samples = 3000

    def setup(self):
        import repro.circuit as circuit

        library = circuit.build_default_library()
        circuit.SpiceLikeCharacterizer().characterize_library(library)
        self.netlist = circuit.synthesize_core(
            library, n_instances=self.instances, seed=self.netlist_seed,
        )

    def op(self, i):
        import repro.circuit as circuit

        result, seconds = self.timed(
            circuit.guardband_comparison,
            self.netlist, circuit.build_default_library,
            ml_training_samples=self.training_samples, seed=self.ml_seed,
        )
        row = {
            "nominal_period": result.nominal_period,
            "she_aware_period": result.she_aware_period,
            "worst_case_period": result.worst_case_period,
            "ml_validation_mape": result.ml_validation_mape,
        }
        check = guardband_signoff(
            result.nominal_period, result.she_aware_period,
            result.worst_case_period, result.ml_validation_mape,
        )
        return {"seconds": seconds, "signoff": row,
                "checks": [dict(check, unit=f"{i}.0")]}


WORKLOADS = {w.name: w for w in (FiUniform, FiSteered, FiFabric, Guardband)}
