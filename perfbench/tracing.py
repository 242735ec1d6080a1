"""Span tracing from outside the program, and the per-layer metrics.

The traced session wraps public functions of each layer (``TARGETS``)
with a recorder that keeps one span per call -- id, parent, name, start,
end -- in memory, nesting spans by call stack.  Spans are written out when
the session ends; :func:`layer_metrics` derives self times and the
per-layer metrics from them.  A span's layer is the first segment of its
name; ``bench.*`` spans frame the traced work and belong to no layer.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from contextlib import contextmanager

LAYERS = ("cli", "arch", "runtime", "ml", "circuit", "transistor")

#: (module, attribute path, span name).  Module-level functions that other
#: modules import by name are wrapped in each importing module as well.
TARGETS = (
    ("repro.arch.fault_injection", "FaultInjector.__init__", "arch.golden"),
    ("repro.arch.fault_injection", "FaultInjector.run_campaign", "arch.campaign"),
    ("repro.arch.fault_injection", "FaultInjector.inject_many", "arch.inject_many"),
    ("repro.arch.fault_injection", "_random_chunk", "arch.chunk"),
    ("repro.arch.steering", "run_steered_campaign", "arch.steering.campaign"),
    ("repro.arch.steering", "_steered_chunk", "arch.chunk"),
    ("repro.arch.steering", "SteeredUnitSource.on_result", "arch.steering.on_result"),
    ("repro.arch.steering", "SteeredUnitSource.estimate", "arch.steering.estimate"),
    ("repro.runtime.scheduler", "TrialChunk.rngs", "runtime.coordgen"),
    ("repro.runtime.runner", "CampaignRunner.run_trials", "runtime.campaign"),
    ("repro.runtime.runner", "CampaignRunner.run_units", "runtime.campaign"),
    ("repro.runtime.transports.tcp", "TcpTransport.poll", "runtime.wait"),
    ("repro.runtime.cache", "ResultCache.get", "runtime.cache.get"),
    ("repro.runtime.cache", "ResultCache.put", "runtime.cache.put"),
    ("repro.runtime.stats", "stratified_estimate", "runtime.stats"),
    ("repro.runtime.stats", "wilson_halfwidth", "runtime.stats"),
    ("repro.runtime.stats", "wilson_interval", "runtime.stats"),
    ("repro.runtime.stats", "hoeffding_halfwidth", "runtime.stats"),
    ("repro.arch.steering", "stratified_estimate", "runtime.stats"),
    ("repro.arch.steering", "wilson_halfwidth", "runtime.stats"),
    ("repro.arch.steering", "wilson_interval", "runtime.stats"),
    ("repro.arch.steering", "hoeffding_halfwidth", "runtime.stats"),
    ("repro.ml.ensemble", "GradientBoostingClassifier.fit", "ml.tree.fit"),
    ("repro.ml.ensemble", "GradientBoostingClassifier.predict_proba", "ml.tree.predict"),
    ("repro.ml.mlp", "MLPRegressor.fit", "ml.mlp.fit"),
    ("repro.ml.mlp", "MLPRegressor.predict", "ml.mlp.predict"),
    ("repro.circuit", "build_default_library", "circuit.library"),
    ("repro.circuit", "synthesize_core", "circuit.netlist"),
    ("repro.circuit", "guardband_comparison", "circuit.guardband"),
    ("repro.circuit.characterization", "SpiceLikeCharacterizer.characterize_library",
     "circuit.characterize"),
    ("repro.circuit.characterization", "SpiceLikeCharacterizer.characterize_library_she",
     "circuit.characterize"),
    ("repro.circuit.ml_characterization", "MLCharacterizer.fit", "circuit.ml_fit"),
    ("repro.circuit.she_flow", "SheFlow.run", "circuit.she_flow"),
    ("repro.circuit.sta", "StaticTimingAnalysis.run", "circuit.sta"),
    ("repro.transistor.self_heating", "SelfHeatingModel.cell_delta_t", "transistor.she"),
)

#: Per-layer metric names and units, in report order.
PER_LAYER = (
    ("cli.import_s", "s"),
    ("arch.golden_s", "s"),
    ("arch.inject_many_s", "s"),
    ("arch.inject_many_calls", "count"),
    ("arch.trials", "count"),
    ("arch.engine.early_exit_share", "ratio"),
    ("arch.engine.offtrace_share", "ratio"),
    ("arch.steering.on_result_s", "s"),
    ("arch.steering.estimate_s", "s"),
    ("runtime.coordgen_s", "s"),
    ("runtime.sched_overhead_s", "s"),
    ("runtime.wait_s", "s"),
    ("runtime.cache.get_s", "s"),
    ("runtime.cache.put_s", "s"),
    ("runtime.cache.hit_share", "ratio"),
    ("runtime.retries", "count"),
    ("runtime.stats_s", "s"),
    ("ml.tree.fit_s", "s"),
    ("ml.tree.fit_calls", "count"),
    ("ml.tree.predict_s", "s"),
    ("ml.mlp.fit_s", "s"),
    ("ml.mlp.predict_s", "s"),
    ("circuit.characterize_s", "s"),
    ("circuit.ml_label_s", "s"),
    ("circuit.she_flow_s", "s"),
    ("circuit.sta_s", "s"),
    ("circuit.sta_runs", "count"),
    ("transistor.she_calls", "count"),
    ("transistor.she_s", "s"),
) + tuple((f"{layer}.self_s", "s") for layer in LAYERS) + (
    ("obs.trace_overhead_share", "ratio"),
    ("unattributed_share", "ratio"),
)


class SpanRecorder:
    """In-memory spans ``[id, parent, name, start, end]`` of one session.

    Only the thread that created the recorder is traced; calls from other
    threads run unwrapped, so the call stack is never shared.
    """

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._thread = threading.get_ident()
        self._undo = []

    def _open(self, name):
        span = [len(self.spans), self._stack[-1] if self._stack else None,
                name, time.perf_counter(), None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span):
        span[4] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """Record the ``with`` block as one span."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, owner, attr, name):
        """Replace ``owner.attr`` with a function that records a span."""
        original = owner.__dict__[attr]
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if threading.get_ident() != recorder._thread:
                return original(*args, **kwargs)
            span = recorder._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                recorder._close(span)

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def install(self):
        """Wrap every target whose module the session already imported."""
        for module_name, path, name in TARGETS:
            owner = sys.modules.get(module_name)
            if owner is None:
                continue
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            self.wrap(owner, attr, name)

    def uninstall(self):
        """Restore every wrapped function."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self):
        """JSON-ready record of the session's spans."""
        return {"run_id": self.run_id, "spans": self.spans}


def self_times(spans):
    """Span id -> duration minus the time its direct children cover."""
    out = {s[0]: s[4] - s[3] for s in spans}
    for span_id, parent, _, start, end in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def _layer(name):
    return name.split(".", 1)[0]


def _outermost(spans):
    """Spans with no ancestor of the same name (recursion counted once)."""
    by_id = {s[0]: s for s in spans}
    out = []
    for span in spans:
        ancestor = by_id.get(span[1])
        while ancestor is not None and ancestor[2] != span[2]:
            ancestor = by_id.get(ancestor[1])
        if ancestor is None:
            out.append(span)
    return out


def unattributed_share(spans):
    """Share of the benchmark frame's time that no layer span covers.

    The frame is the union of the top-level spans: the session's import,
    its set-up, and each timed call of program work (``bench.work``).  A
    layer span covers its whole interval, so what stays unattributed is
    program time outside every wrapped function.
    """
    by_id = {s[0]: s for s in spans}
    frame = sum(s[4] - s[3] for s in spans if s[1] is None)
    covered = 0.0
    for span_id, parent, name, start, end in spans:
        if _layer(name) not in LAYERS:
            continue
        ancestor = by_id.get(parent)
        while ancestor is not None and _layer(ancestor[2]) not in LAYERS:
            ancestor = by_id.get(ancestor[1])
        if ancestor is None:
            covered += end - start
    return max(frame - covered, 0.0) / frame if frame > 0 else 0.0


def layer_metrics(spans, counters, campaigns):
    """The per-layer metrics of one traced session.

    ``counters`` is the ``repro.obs`` counter snapshot of the session and
    ``campaigns`` the ``RunStats``-derived rows of its campaigns.
    """
    selfs = self_times(spans)
    total, self_total, calls = {}, {}, {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for _, _, name, start, end in _outermost(spans):
        total[name] = total.get(name, 0.0) + end - start
    for span_id, _, name, start, end in spans:
        self_total[name] = self_total.get(name, 0.0) + selfs[span_id]
        calls[name] = calls.get(name, 0) + 1
        if _layer(name) in layer_self:
            layer_self[_layer(name)] += selfs[span_id]
    trials = counters.get("arch.fault_injection.trials", 0)
    hits = sum(c["cache_hits"] for c in campaigns)
    lookups = hits + sum(c["cache_misses"] for c in campaigns)
    values = {
        "cli.import_s": total.get("cli.import", 0.0),
        "arch.golden_s": total.get("arch.golden", 0.0),
        "arch.inject_many_s": total.get("arch.inject_many", 0.0),
        "arch.inject_many_calls": calls.get("arch.inject_many", 0),
        "arch.trials": trials,
        "arch.engine.early_exit_share":
            counters.get("arch.fi.engine.early_exits", 0) / trials if trials else 0.0,
        "arch.engine.offtrace_share":
            counters.get("arch.fi.engine.batch.offtrace_trials", 0) / trials
            if trials else 0.0,
        "arch.steering.on_result_s": self_total.get("arch.steering.on_result", 0.0),
        "arch.steering.estimate_s": self_total.get("arch.steering.estimate", 0.0),
        "runtime.coordgen_s": total.get("runtime.coordgen", 0.0),
        "runtime.sched_overhead_s": self_total.get("runtime.campaign", 0.0),
        "runtime.wait_s": total.get("runtime.wait", 0.0),
        "runtime.cache.get_s": total.get("runtime.cache.get", 0.0),
        "runtime.cache.put_s": total.get("runtime.cache.put", 0.0),
        "runtime.cache.hit_share": hits / lookups if lookups else 0.0,
        "runtime.retries": sum(c["retries"] for c in campaigns),
        "runtime.stats_s": total.get("runtime.stats", 0.0),
        "ml.tree.fit_s": total.get("ml.tree.fit", 0.0),
        "ml.tree.fit_calls": calls.get("ml.tree.fit", 0),
        "ml.tree.predict_s": total.get("ml.tree.predict", 0.0),
        "ml.mlp.fit_s": total.get("ml.mlp.fit", 0.0),
        "ml.mlp.predict_s": total.get("ml.mlp.predict", 0.0),
        "circuit.characterize_s": total.get("circuit.characterize", 0.0),
        "circuit.ml_label_s": self_total.get("circuit.ml_fit", 0.0),
        "circuit.she_flow_s": total.get("circuit.she_flow", 0.0),
        "circuit.sta_s": total.get("circuit.sta", 0.0),
        "circuit.sta_runs": calls.get("circuit.sta", 0),
        "transistor.she_calls": calls.get("transistor.she", 0),
        "transistor.she_s": total.get("transistor.she", 0.0),
        "unattributed_share": unattributed_share(spans),
    }
    for layer, seconds in layer_self.items():
        values[f"{layer}.self_s"] = seconds
    return values
