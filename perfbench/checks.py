"""Correctness checks on the outputs of every benchmark operation.

Each check returns ``{"check": name, "ok": bool, "detail": text}``.  An
operation whose check fails counts as failed in the run's ``failed``
total and makes the run report ``"correct": false``.
"""

from __future__ import annotations

import hashlib
import math

#: A uniform campaign's AVF estimate must lie within this many binomial
#: standard errors of the exhaustive truth.
UNIFORM_SIGMAS = 5.0
#: A steered campaign's estimate must lie within this many reported CI
#: half-widths of the exhaustive truth.
STEERED_HALFWIDTHS = 2.0
#: Upper bound on the SHE-aware flow's ML characterization error.
MAX_MAPE = 0.02


def _result(check, ok, detail):
    return {"check": check, "ok": bool(ok), "detail": detail}


def uniform_avf(program, estimate, n_trials, truth):
    """A fixed-budget campaign's AVF is within 5 binomial SE of the truth."""
    se = math.sqrt(truth * (1.0 - truth) / n_trials)
    deviation = abs(estimate - truth)
    return _result(
        f"uniform_avf:{program}", deviation <= UNIFORM_SIGMAS * se,
        f"AVF {estimate:.4f} vs truth {truth:.4f}: "
        f"{deviation / se:.2f} SE of {n_trials} trials",
    )


def steered_avf(program, estimate, halfwidth, truth, stop_reason):
    """A steered campaign reached its CI target and its estimate is within
    twice the reported half-width of the truth."""
    deviation = abs(estimate - truth)
    ok = stop_reason == "target" and deviation <= STEERED_HALFWIDTHS * halfwidth
    return _result(
        f"steered_avf:{program}", ok,
        f"AVF {estimate:.4f} +/- {halfwidth:.4f} vs truth {truth:.4f}, "
        f"stopped on {stop_reason}",
    )


def records_digest(records):
    """SHA-256 over every field of every record, in trial order."""
    return hashlib.sha256(repr(list(records)).encode()).hexdigest()


def identical_records(label, digest, reference_digest):
    """Distributed records equal the inline records of the same seed.

    Both sides are :func:`records_digest` values, so a session keeps one
    digest per campaign instead of its records.
    """
    return _result(
        f"identical_records:{label}", digest == reference_digest,
        f"records digest {digest[:12]} vs inline {reference_digest[:12]}",
    )


def guardband_signoff(nominal, she_aware, worst_case, mape):
    """nominal <= SHE-aware <= worst-case period, and ML MAPE <= 2%."""
    ok = nominal <= she_aware <= worst_case and mape <= MAX_MAPE
    return _result(
        "guardband_signoff", ok,
        f"periods nominal {nominal:.2f} / SHE-aware {she_aware:.2f} / "
        f"worst-case {worst_case:.2f} ps, ML MAPE {mape:.2%}",
    )
