"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fi-uniform --seed 1 --seconds 30 --trace 0

With ``--trace 0`` a run starts several fresh-interpreter sessions
(:mod:`session`), each of which imports ``repro``, sets the workload up
and runs closed-loop operations for its share of ``--seconds``; further
set-up-only sessions bring the set-up samples to ``SETUP_SAMPLES``.  It
prints the end-to-end metrics (see ``end_to_end_metrics``), timed at
the reference machine's speed (``REFERENCE_PROBE_S``).

With ``--trace 1`` a run makes two sessions with the same seed and the
same number of operations, the first untraced and the second traced, and
prints the per-layer metrics of the traced one plus the tracing overhead.

Every operation's output is checked (:mod:`checks`).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Each run is also saved, with its environment,
under ``.perfbench/results/<workload>/`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER, layer_metrics  # noqa: E402
from workloads import SETUP_PROBES, WORKLOADS  # noqa: E402

#: Set-up time is the median of at least this many fresh-interpreter set-ups.
SETUP_SAMPLES = 6
#: Seconds of ``session.calibrate`` on an unloaded core of the reference
#: machine (2-vCPU Xeon virtual machine, Python 3.11, numpy 2.4).  Each
#: untraced timing is scaled by this over the probe times measured next to
#: it, so it reads as seconds on that core, whatever other tenants of a
#: shared machine are doing meanwhile.
REFERENCE_PROBE_S = 0.010
#: BLAS threads per process.  The benchmark's processes each run one
#: thread of numerical work; one BLAS thread keeps threads plus processes
#: within the two-CPU budget the workloads are sized for.
BLAS_THREADS = 1
#: A run is abandoned (and fails) after this long.
RUN_LIMIT_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_s", "s"),
    ("peak_rss_mb", "MB"),
)


def scaled(seconds, probes):
    """``seconds`` as they read on the reference machine: scaled by the
    reference probe time over the mean of ``probes``, the host-speed
    probes taken right before and after them."""
    return seconds * REFERENCE_PROBE_S / statistics.fmean(probes)


class SessionError(RuntimeError):
    """A session crashed or overran the run's time limit."""


def _session_env(root):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _pump(stream, lines):
    for line in stream:
        lines.put((time.perf_counter(), line))
    lines.put((time.perf_counter(), None))


def run_session(root, work_dir, deadline, workload, seed, session, slice_s,
                min_ops=1, max_ops=None, trace=0, spans_out=None, calibrate=False):
    """Start one session and collect its events, stamped on arrival.

    Returns a dict with the seconds from process start to ``imported``,
    ``ready``, the first ``op`` and ``ops_done``, plus the events.
    """
    cmd = [
        sys.executable, str(HERE / "session.py"), "--workload", workload,
        "--seed", str(seed), "--session", str(session), "--slice-s", str(slice_s),
        "--min-ops", str(min_ops), "--trace", str(trace),
        "--work-dir", str(work_dir),
    ]
    if max_ops is not None:
        cmd += ["--max-ops", str(max_ops)]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    if calibrate:
        cmd.append("--calibrate")
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=root, env=_session_env(root), stdout=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    lines = queue.Queue()
    reader = threading.Thread(target=_pump, args=(proc.stdout, lines), daemon=True)
    reader.start()
    stamps, ops, done = {}, [], None
    try:
        while True:
            try:
                stamp, line = lines.get(timeout=max(deadline - time.perf_counter(), 0.0))
            except queue.Empty:
                raise SessionError(f"{workload} session {session} overran the run limit")
            if line is None:
                break
            event = json.loads(line)
            kind = event.pop("ev")
            stamps.setdefault(kind, stamp - start)
            if kind == "op":
                ops.append(event)
            elif kind == "done":
                done = event
        code = proc.wait(timeout=max(deadline - time.perf_counter(), 1.0))
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise
    finally:
        reader.join(timeout=5.0)
        proc.stdout.close()
    if code != 0 or done is None:
        raise SessionError(f"{workload} session {session} exited with code {code}")
    return {
        "session": session,
        "trace": trace,
        "import_s": stamps["imported"],
        "setup_s": stamps["ready"],
        "wall_s": stamps.get("op"),
        "ops_done_s": stamps["ops_done"],
        "ops": ops,
        **done,
    }


def _checks(session):
    return [c for op in session["ops"] for c in op["checks"]] + session["checks"]


def _units(sessions):
    """(attempted, failed): campaigns and sign-offs, and those whose
    checks failed."""
    attempted, failed = 0, set()
    for s in sessions:
        for op in s["ops"]:
            attempted += len(op["campaigns"]) if "campaigns" in op else 1
        failed |= {(s["trace"], s["session"], c["unit"]) for c in _checks(s) if not c["ok"]}
    return attempted, len(failed)


def _reference_times(s):
    """One session's set-up time, operation times and time to the first
    verified operation, at the reference machine's speed, plus the host
    speeds its probes read.

    The set-up is scaled by the probes after it, and each program call by
    the probes before, during and after it (``scaled``).  The first
    operation's stamp also holds its probes, which are left out, and its
    checks, which are kept as measured.
    """
    probes, inside = s["calibration"], s["inside"]
    setup = scaled(s["setup_s"], probes[:SETUP_PROBES])
    bounds = probes[SETUP_PROBES - 1:]  # call k lies between bounds[k], bounds[k + 1]
    ops, k = [], 0
    for op in s["ops"]:
        calls = op.get("campaigns", [op])
        ops.append(sum(
            scaled(c["seconds"], [bounds[k + j], *inside[k + j], bounds[k + j + 1]])
            for j, c in enumerate(calls)
        ))
        k += len(calls)
    wall = None
    if s["ops"]:
        first = len(s["ops"][0].get("campaigns", [None]))
        probe_s = sum(probes[:SETUP_PROBES + first]) + sum(map(sum, inside[:first]))
        checks = s["wall_s"] - s["setup_s"] - probe_s - s["ops"][0]["seconds"]
        wall = setup + ops[0] + checks
    speeds = [REFERENCE_PROBE_S / p for p in [*probes, *(p for c in inside for p in c)]]
    return setup, ops, wall, speeds


def end_to_end_metrics(workload, sessions):
    """The end-to-end metrics (``END_TO_END``) and the workload's named
    metrics of an untraced run."""
    op_sessions = [s for s in sessions if s["ops"]]
    ops = [op for s in op_sessions for op in s["ops"]]
    campaigns = [c for op in ops for c in op.get("campaigns", ())]
    times = [_reference_times(s) for s in sessions]
    setups = [t[0] for t in times]
    op_times = [x for t in times for x in t[1]]
    walls = [t[2] for t in times if t[2] is not None]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "op_s": statistics.median(op_times),
        "peak_rss_mb": statistics.median([
            (s["peak_rss_kb"] + s["worker_rss_kb"]) / 1024.0 for s in op_sessions
        ]),
    }
    attempted, failed = _units(sessions)
    named = {
        "fail_share": (failed / attempted if attempted else 1.0, "ratio"),
        "host_speed": (statistics.median([x for t in times for x in t[3]]), "ratio"),
        "setup_raw_s": (statistics.median([s["setup_s"] for s in sessions]), "s"),
        "op_raw_s": (statistics.median([op["seconds"] for op in ops]), "s"),
    }
    if workload in ("fi-uniform", "fi-fabric"):
        named["trials_per_s"] = (statistics.median([
            sum(c["trials"] for c in op["campaigns"]) / t for op, t in zip(ops, op_times)
        ]), "trials/s")
    if workload == "fi-steered":
        named["time_to_ci_s"] = (statistics.median([c["seconds"] for c in campaigns]), "s")
        # The first operation of each session: a fixed set of campaigns per
        # seed, so the count repeats exactly whatever the machine's speed.
        named["trials_to_ci"] = (sum(
            c["executed"] for s in op_sessions for c in s["ops"][0]["campaigns"]
        ), "trials")
    if workload == "guardband":
        named["signoff_s"] = (metrics["op_s"], "s")
    return metrics, named, attempted, failed


def environment(sessions):
    """Machine, interpreter, numerical library and process-count facts."""
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    nproc = os.cpu_count() or 1
    workers = max((s["workers"] for s in sessions), default=0)
    processes = 1 + workers
    return {
        "nproc": nproc,
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "worker_processes": workers,
        "processes": processes,
        "oversubscribed": processes * BLAS_THREADS > nproc,
    }


def untraced_run(root, work_dir, deadline, workload, seed, seconds):
    n_sessions = max(2, round(seconds / WORKLOADS[workload].session_s))
    slice_s = seconds / n_sessions
    sessions = [
        run_session(root, work_dir, deadline, workload, seed, k, slice_s, calibrate=True)
        for k in range(n_sessions)
    ]
    for k in range(len(sessions), SETUP_SAMPLES):
        sessions.append(run_session(
            root, work_dir, deadline, workload, seed, k, 0.0, min_ops=0, max_ops=0,
            calibrate=True,
        ))
    return sessions


def traced_run(root, work_dir, deadline, workload, seed, seconds, results_dir, stem):
    """An untraced and a traced session of the same seed and operations."""
    cls = WORKLOADS[workload]
    n_ops = max(1, int(seconds / 2 / cls.nominal_op_s))
    spans_out = results_dir / f"{stem}-spans.json"
    sessions = [
        run_session(root, work_dir, deadline, workload, seed, 0, 0.0,
                    min_ops=n_ops, max_ops=n_ops, trace=trace,
                    spans_out=spans_out if trace else None)
        for trace in (0, 1)
    ]
    untraced, traced = sessions
    with open(spans_out) as fh:
        trace = json.load(fh)
    campaigns = [c for op in traced["ops"] for c in op.get("campaigns", ())]
    metrics = layer_metrics(trace["spans"], trace["counters"], campaigns)
    metrics["obs.trace_overhead_share"] = (
        (traced["ops_done_s"] - untraced["ops_done_s"]) / untraced["ops_done_s"]
    )
    return sessions, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no repro sources under ./src; run from a checkout root",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    stem = f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}-seed{args.seed}-trace{args.trace}"
    results_dir = root / ".perfbench" / "results" / args.workload
    work_dir = root / ".perfbench" / f"work-{os.getpid()}"
    results_dir.mkdir(parents=True, exist_ok=True)
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            sessions, metrics = traced_run(
                root, work_dir, deadline, args.workload, args.seed, args.seconds,
                results_dir, stem,
            )
            units = dict(PER_LAYER)
            named = {}
            attempted, failed = _units(sessions)
        else:
            sessions = untraced_run(
                root, work_dir, deadline, args.workload, args.seed, args.seconds,
            )
            metrics, named, attempted, failed = end_to_end_metrics(
                args.workload, sessions,
            )
            units = dict(END_TO_END)
    except SessionError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    env = environment(sessions)
    failures = [c for s in sessions for c in _checks(s) if not c["ok"]]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "elapsed_s": time.perf_counter() - started,
        "env": env, "metrics": metrics, "named": named,
        "attempted": attempted, "failed": failed, "sessions": sessions,
    }
    with open(results_dir / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    for check in failures:
        print(f"FAILED {check['check']}: {check['detail']}")
    print(f"# {args.workload} seed {args.seed}: {len(sessions)} sessions, "
          f"{attempted} operations, {failed} failed; env {json.dumps(env)}")
    for name, (value, unit) in [*((n, (metrics[n], u)) for n, u in units.items()),
                                *named.items()]:
        print(f"{args.workload:11s} {name:30s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
