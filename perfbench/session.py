"""One benchmark session: a fresh interpreter that imports ``repro``, sets
a workload up and runs its operations.

``run.py`` starts sessions and reads their progress, one JSON object per
line, from this process's standard output; anything the program prints
goes to standard error instead.  Lines, in order: ``imported``, ``ready``,
one ``op`` per operation, ``ops_done``, ``done``.  The parent stamps each
line on arrival, which times interpreter start-up, imports and set-up
from outside.

Operations run closed-loop until ``--slice-s`` seconds after the session
started, and another starts only if the median operation so far still
fits; ``--min-ops``/``--max-ops`` bound their number.  With ``--trace 1``
the session wraps the layers' public functions (:mod:`tracing`), enables
the ``repro.obs`` counters, and writes its spans to ``--spans-out``.

With ``--calibrate`` the session also times a fixed probe of the host's
speed (:func:`calibrate`) right after ``ready``, during each program call
and after it (see ``workloads.Workload``), and reports the probe times in
``done``; the first operation's stamp holds the probes up to its last call.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402


def _vm_hwm_kb(pid):
    """Peak resident set of process ``pid`` in KiB (0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def calibrate():
    """Seconds for a fixed mix of interpreter and small-array numpy work,
    about 10 ms on an unloaded core: the host-speed probe."""
    import numpy as np

    lanes = np.arange(2048, dtype=np.int64)
    start = time.perf_counter()
    acc = 0
    for i in range(50_000):
        acc = (acc + i * i) % 65521
    for _ in range(500):
        lanes = (lanes * 5 + 3) & 0xFFFF
        acc += int(lanes[lanes > 30000].size)
    return time.perf_counter() - start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--session", type=int, required=True)
    parser.add_argument("--slice-s", type=float, required=True)
    parser.add_argument("--min-ops", type=int, default=1)
    parser.add_argument("--max-ops", type=int, default=10**6)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--calibrate", action="store_true")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    # Keep the original stdout for progress lines and point file
    # descriptor 1 at stderr, for this process and any it starts.
    channel = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    def send(event, **fields):
        channel.write(json.dumps({"ev": event, **fields}) + "\n")
        channel.flush()

    from workloads import WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    recorder = None
    if args.trace:
        from tracing import SpanRecorder

        recorder = SpanRecorder(f"{args.workload}-{args.seed}-{args.session}")

    def span(name):
        return recorder.span(name) if recorder else nullcontext()

    with span("cli.import"):
        for module in workload_cls.modules:
            importlib.import_module(module)
    send("imported")

    if recorder:
        from repro import obs

        recorder.install()
        obs.enable()
    probe = calibrate if args.calibrate else None
    workload = workload_cls(args.seed, args.session, args.work_dir, span=span, probe=probe)
    try:
        with span("bench.setup"):
            workload.setup()
        send("ready")
        workload.probe_setup()

        durations = []
        while len(durations) < args.max_ops:
            if len(durations) >= args.min_ops:
                elapsed = time.perf_counter() - T0
                if elapsed + statistics.median(durations) > args.slice_s:
                    break
            result = workload.op(len(durations))
            durations.append(result["seconds"])
            send("op", i=len(durations) - 1, **result)
        send("ops_done")

        if recorder:
            # The checks in finish() are the benchmark's work: stop here.
            recorder.uninstall()
            with open(args.spans_out, "w") as fh:
                json.dump({
                    **recorder.dump(),
                    "counters": obs.metrics_snapshot()["counters"],
                }, fh)
        finished = workload.finish()
        worker_rss_kb = sum(_vm_hwm_kb(pid) for pid in finished["worker_pids"])
    finally:
        workload.close()
    send(
        "done",
        checks=finished["checks"],
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        worker_rss_kb=worker_rss_kb,
        workers=len(finished["worker_pids"]),
        calibration=workload.probes,
        inside=workload.inside,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
