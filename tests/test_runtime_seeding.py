"""The per-trial stream contract (repro.runtime.seeding): chunk and
transport independence of fault-injection coordinates, the exact bounded
map, coordinate uniformity, the seed domain, and stream-tagged cache
keys."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from repro.arch import FaultInjector
from repro.arch import programs as P
from repro.arch.fault_injection import _element_chunk, _random_chunk
from repro.runtime import (
    TRIAL_STREAM,
    CampaignRunner,
    ResultCache,
    TrialChunk,
    bounded,
    trial_words,
)
from repro.runtime import scheduler
from repro.runtime.seeding import check_seed

from tests.test_runtime import _draw_chunk

ELEMENTS = tuple(f"r{i}" for i in range(18))


class _EchoInjector:
    """Stands in for a FaultInjector: returns the coordinates it is fed."""

    golden_cycles = 126

    def inject_many(self, coords):
        return list(coords)


def _coords(seed, start, stop):
    chunk = TrialChunk(seed, start, stop)
    return _random_chunk(_EchoInjector(), ELEMENTS, chunk)


@pytest.fixture(scope="module")
def injector():
    return FaultInjector(P.checksum(6))


@st.composite
def _split_campaigns(draw):
    seed = draw(st.integers(0, 2**64 - 1))
    n_trials = draw(st.integers(1, 300))
    cuts = draw(st.lists(st.integers(0, n_trials), max_size=6))
    return seed, n_trials, sorted(set(cuts) | {0, n_trials})


class TestChunkIndependence:
    @settings(max_examples=60, deadline=None)
    @given(_split_campaigns())
    def test_coordinates_ignore_split_points(self, campaign):
        seed, n_trials, bounds = campaign
        spans = list(zip(bounds, bounds[1:]))
        pieces = [c for a, b in spans for c in _coords(seed, a, b)]
        assert pieces == _coords(seed, 0, n_trials)
        assert np.array_equal(
            np.concatenate([trial_words(seed, a, b) for a, b in spans]),
            trial_words(seed, 0, n_trials),
        )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(1, 300), st.integers(1, 64))
    def test_scheduler_chunking_never_changes_coordinates(self, seed, n_trials,
                                                          chunk_size):
        worker = functools.partial(_random_chunk, _EchoInjector(), ELEMENTS)
        runner = CampaignRunner(jobs=1, chunk_size=chunk_size)
        assert runner.run_trials(worker, n_trials, seed=seed) == _coords(
            seed, 0, n_trials
        )

    @settings(max_examples=5, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(2, 120), st.integers(1, 40))
    def test_records_identical_inline_and_pool(self, injector, seed, n_trials,
                                               chunk_size):
        inline = injector.run_campaign(n_trials=n_trials, seed=seed,
                                       chunk_size=chunk_size, transport="inline")
        pool = injector.run_campaign(n_trials=n_trials, seed=seed, jobs=2,
                                     chunk_size=chunk_size, transport="pool")
        assert pool.records == inline.records


class TestBoundedMap:
    EDGE_WORDS = (0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 1, 2**63,
                  2**64 - 2**32, 2**64 - 2, 2**64 - 1)
    EDGE_RANGES = (1, 2, 3, 18, 32, 126, 1629, 999_983, 2**31 - 1, 2**31,
                   2**32 - 1, 2**32)

    def test_exact_against_big_int_on_edges(self):
        words = np.array(self.EDGE_WORDS, dtype=np.uint64)
        for m in self.EDGE_RANGES:
            got = bounded(words, m).tolist()
            assert got == [(u * m) >> 64 for u in self.EDGE_WORDS], m

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=32),
           st.integers(1, 2**32))
    def test_exact_against_big_int(self, words, m):
        got = bounded(np.array(words, dtype=np.uint64), m).tolist()
        assert got == [(u * m) >> 64 for u in words]

    def test_range_outside_domain_rejected(self):
        for m in (0, -1, 2**32 + 1):
            with pytest.raises(ValueError):
                bounded(np.zeros(1, np.uint64), m)


def _chi_square_sf(values, m):
    """Upper-tail p-value of Pearson's chi-square for uniform ``[0, m)``."""
    observed = np.bincount(values, minlength=m)
    expected = len(values) / m
    statistic = float(((observed - expected) ** 2 / expected).sum())
    return chi2.sf(statistic, m - 1)


class TestUniformity:
    # One fixed seed, so each assertion is deterministic.  The threshold
    # is an upper-tail p-value of 1e-4 per axis: an unbiased stream fails
    # one of the three axes on a given seed with probability ~3e-4, while
    # a map that reaches only half its range (the control below) scores
    # p ~ 0 at this sample size.
    N_TRIALS = 1 << 16
    P_FLOOR = 1e-4

    def test_cycle_element_bit_are_uniform(self):
        coords = _coords(2024, 0, self.N_TRIALS)
        cycles = [c for c, _, _ in coords]
        elements = [ELEMENTS.index(e) for _, e, _ in coords]
        bits = [b for _, _, b in coords]
        assert _chi_square_sf(cycles, _EchoInjector.golden_cycles) > self.P_FLOOR
        assert _chi_square_sf(elements, len(ELEMENTS)) > self.P_FLOOR
        assert _chi_square_sf(bits, 32) > self.P_FLOOR

    def test_element_campaign_cycle_and_bit_are_uniform(self):
        coords = _element_chunk(_EchoInjector(), "r0",
                                TrialChunk(2024, 0, self.N_TRIALS))
        assert _chi_square_sf([c for c, _, _ in coords],
                              _EchoInjector.golden_cycles) > self.P_FLOOR
        assert _chi_square_sf([b for _, _, b in coords], 32) > self.P_FLOOR

    def test_check_detects_a_half_range_map(self):
        words = trial_words(2024, 0, self.N_TRIALS)[:, 2] >> np.uint64(1)
        assert _chi_square_sf(bounded(words, 32).tolist(), 32) < 1e-12


class TestSeedDomain:
    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
    def test_out_of_domain_seed_rejected_at_campaign_start(self, injector, seed):
        calls = []

        def worker(chunk):
            calls.append(chunk)
            return [0] * len(chunk)

        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            CampaignRunner(jobs=1).run_trials(worker, 8, seed=seed)
        assert calls == []
        with pytest.raises(ValueError):
            injector.run_campaign(n_trials=4, seed=seed)

    def test_domain_edges_accepted(self, injector):
        assert check_seed(np.uint64(2**64 - 1)) == 2**64 - 1
        assert check_seed(0) == 0
        records = injector.run_campaign(n_trials=4, seed=2**64 - 1).records
        assert len(records) == 4

    def test_seeds_differing_above_bit_63_are_not_aliased(self):
        assert not np.array_equal(trial_words(1, 0, 4),
                                  trial_words(1 + 2**63, 0, 4))


class TestStreamTaggedCache:
    def test_cache_filled_under_another_stream_misses(self, tmp_path,
                                                      monkeypatch):
        cache = ResultCache(tmp_path)
        monkeypatch.setattr(scheduler, "TRIAL_STREAM", "philox4x64/0")
        old = CampaignRunner(jobs=1, chunk_size=8, cache=cache)
        old.run_trials(_draw_chunk, 40, seed=2, key=("toy",))
        assert old.stats.executed_trials == 40
        monkeypatch.setattr(scheduler, "TRIAL_STREAM", TRIAL_STREAM)

        fresh = CampaignRunner(jobs=1, chunk_size=8, cache=cache)
        fresh.run_trials(_draw_chunk, 40, seed=2, key=("toy",))
        assert fresh.stats.cached_trials == 0
        assert fresh.stats.executed_trials == 40

        again = CampaignRunner(jobs=1, chunk_size=8, cache=cache)
        again.run_trials(_draw_chunk, 40, seed=2, key=("toy",))
        assert again.stats.cached_trials == 40

    def test_fi_campaign_does_not_replay_another_stream(self, injector, tmp_path,
                                                        monkeypatch):
        cache = ResultCache(tmp_path)
        monkeypatch.setattr(scheduler, "TRIAL_STREAM", "philox4x64/0")
        injector.run_campaign(n_trials=64, seed=9, chunk_size=16, cache=cache)
        monkeypatch.setattr(scheduler, "TRIAL_STREAM", TRIAL_STREAM)
        injector.run_campaign(n_trials=64, seed=9, chunk_size=16, cache=cache)
        assert injector.last_run_stats.cached_trials == 0
        assert injector.last_run_stats.executed_trials == 64
