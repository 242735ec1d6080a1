"""Exhaustive AVF ground truth for the fault-injection corpus programs.

Every ``(cycle, element, bit)`` coordinate a uniform campaign can draw is
executed once through :meth:`FaultInjector.inject_many`, and a trial counts
as failed exactly when :meth:`CampaignResult.failure_rate` would count it
(SDC, crash or hang).  Uniform campaigns draw from the same coordinate
space, so the exhaustive failure fraction is the AVF that every campaign
estimate in the benchmark is checked against.

Regenerate the stored table (about half a minute on one core)::

    PYTHONPATH=src python3 perfbench/truth.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: Programs whose AVF the benchmark checks, and the hang budget every
#: campaign of the benchmark uses (a multiple of the golden cycle count).
PROGRAMS = ("checksum", "matmul", "fir_filter", "bubble_sort")
HANG_FACTOR = 1.5
TRUTH_PATH = Path(__file__).with_name("truth.json")
_BLOCK = 16384


def program_by_name(name):
    """The corpus program called ``name``."""
    from repro.arch import programs

    for program in programs.all_programs():
        if program.name == name:
            return program
    raise ValueError(f"no corpus program named {name!r}")


def exhaustive_truth(name):
    """Outcome counts over every injectable coordinate of program ``name``."""
    from repro.arch.cpu import CPU
    from repro.arch.fault_injection import CampaignResult, FaultInjector

    program = program_by_name(name)
    injector = FaultInjector(program, max_cycles_factor=HANG_FACTOR)
    elements = CPU(program).state_elements()
    coords = [
        (cycle, element, bit)
        for cycle in range(injector.golden_cycles)
        for element in elements
        for bit in range(32)
    ]
    outcomes = {}
    failures = 0
    for start in range(0, len(coords), _BLOCK):
        block = CampaignResult(
            program=name,
            golden_output=injector.golden_output,
            golden_cycles=injector.golden_cycles,
            records=injector.inject_many(coords[start:start + _BLOCK]),
        )
        for outcome, count in block.counts().items():
            outcomes[outcome.value] = outcomes.get(outcome.value, 0) + count
        failures += round(block.failure_rate() * len(block.records))
    return {
        "golden_cycles": injector.golden_cycles,
        "elements": len(elements),
        "coordinates": len(coords),
        "failures": failures,
        "avf": failures / len(coords),
        "outcomes": outcomes,
    }


def load_truth():
    """The stored table: program name -> :func:`exhaustive_truth` dict."""
    with open(TRUTH_PATH) as fh:
        return json.load(fh)["programs"]


def main():
    table = {name: exhaustive_truth(name) for name in PROGRAMS}
    with open(TRUTH_PATH, "w") as fh:
        json.dump(
            {"hang_factor": HANG_FACTOR, "programs": table},
            fh, indent=1, sort_keys=True,
        )
        fh.write("\n")
    for name, row in table.items():
        print(f"{name:12s} {row['coordinates']:8d} coords  AVF {row['avf']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
