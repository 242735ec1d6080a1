"""Counter-based per-trial random streams for parallel campaigns.

Parallel execution must not change results: a campaign chunked over N
worker processes has to produce bit-identical outcomes to the same
campaign run serially.  The classic bug is threading one RNG through the
trial loop — any re-chunking then reorders the stream and changes every
trial after the first chunk boundary.

The streams here come from numpy's counter-based
:class:`numpy.random.Philox` (Philox4x64, Salmon et al., SC'11,
"Parallel Random Numbers: As Easy as 1, 2, 3").  Philox is a keyed
bijection of a 256-bit counter: the 128-bit key picks a stream and each
counter value yields one *block* of four 64-bit words, computable for
any counter without producing the ones before it.  Two key families
share one seed:

* **Block stream** — key ``seed`` (high 64 key bits 0).  Trial ``i``
  owns block ``i``: :func:`trial_words` advances one Philox to block
  ``start`` and reads a whole chunk ``[start, stop)`` in one
  ``random_raw`` call.  Workers that need a few bounded integers per
  trial (the fault-injection coordinates) map the words with
  :func:`bounded` — no per-trial Python objects.
* **Generator stream** — key ``seed | ((i + 1) << 64)``.
  :func:`trial_rng` gives trial ``i`` its own
  :class:`numpy.random.Generator` for arbitrary distributions (generic
  ``run_trials`` workers).  Different keys are different permutations,
  so no generator stream overlaps the block stream or another trial's.

Either way a trial's draws are a pure function of ``(seed, i)`` —
never of the chunk, process, transport, or campaign size it ran under.
The seed is the low 64 key bits, so campaign seeds must lie in
``[0, 2**64)``: :func:`check_seed` rejects anything else rather than
truncating it, which would silently alias two seeds onto one stream.
:data:`TRIAL_STREAM` names this mechanism; the runner folds it into
every trial-chunk cache key, so results drawn from another stream are
never replayed.
"""

from __future__ import annotations

import operator

import numpy as np

#: Name and version of the per-trial stream mechanism.  Folded into every
#: trial-chunk cache key and recorded in ``fi`` run records; change it
#: whenever a trial's draws for a given ``(seed, i)`` change.
TRIAL_STREAM = "philox4x64/1"

#: Campaign seeds are the low 64 bits of the Philox key.
SEED_LIMIT = 1 << 64

#: 64-bit words in one Philox4x64 counter block (one block per trial).
WORDS_PER_TRIAL = 4

_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def check_seed(seed):
    """``seed`` as an ``int``; ``ValueError`` outside ``[0, 2**64)``."""
    seed = operator.index(seed)
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(
            f"campaign seed {seed} is outside [0, 2**64): trial streams key "
            "Philox with the seed's 64 bits, and truncating it would alias "
            "two seeds onto one stream"
        )
    return seed


def trial_words(seed, start, stop):
    """Counter blocks of trials ``start..stop-1``: ``(n, 4)`` uint64 words.

    Row ``r`` is block ``start + r`` of the block stream keyed by
    ``seed``, so every trial's words are independent of how the
    campaign is chunked.
    """
    seed = check_seed(seed)
    if not 0 <= start <= stop:
        raise ValueError("trial range must satisfy 0 <= start <= stop")
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(start)
    words = bitgen.random_raw(WORDS_PER_TRIAL * (stop - start))
    return words.reshape(-1, WORDS_PER_TRIAL)


def trial_rng(seed, index):
    """A fresh :class:`numpy.random.Generator` for trial ``index``."""
    seed = check_seed(seed)
    index = operator.index(index)
    if not 0 <= index < SEED_LIMIT - 1:
        raise ValueError("trial index must lie in [0, 2**64 - 1)")
    return np.random.Generator(np.random.Philox(key=seed | ((index + 1) << 64)))


def bounded(words, m):
    """Map uniform 64-bit ``words`` onto ``[0, m)``: ``floor(u * m / 2**64)``.

    The multiply-shift (Lemire) map without rejection, computed exactly
    from 32-bit halves so no product overflows 64 bits (hence
    ``1 <= m <= 2**32``).  Each output value has either
    ``floor(2**64 / m)`` or ``ceil(2**64 / m)`` preimages, so its
    probability differs from ``1/m`` by less than ``2**-64`` — a
    relative bias below ``m / 2**64`` (about ``5e-14`` for a million
    cycles), far under any campaign's sampling error.  Powers of two
    are exact.  Skipping rejection keeps one word per draw, which is
    what lets a trial own a fixed block.
    """
    m = operator.index(m)
    if not 1 <= m <= 1 << 32:
        raise ValueError("bounded range m must satisfy 1 <= m <= 2**32")
    words = np.asarray(words, dtype=np.uint64)
    m = np.uint64(m)
    hi = words >> _SHIFT32
    lo = words & _LOW32
    return (hi * m + ((lo * m) >> _SHIFT32)) >> _SHIFT32
