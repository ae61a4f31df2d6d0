"""Tests for the sampling primitives."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.engine.reservoir as reservoir_module
from repro.engine.reservoir import (
    ReservoirSampler,
    as_generator,
    bernoulli_sample_indices,
    uniform_sample_indices,
    weighted_sample_indices,
)
from repro.errors import SamplingError


class TestReservoir:
    def test_fills_to_capacity(self):
        sampler = ReservoirSampler(5, rng=0)
        sampler.offer_many(range(100))
        assert len(sampler.sample()) == 5
        assert sampler.seen == 100

    def test_short_stream_keeps_everything(self):
        sampler = ReservoirSampler(10, rng=0)
        sampler.offer_many(range(4))
        assert sampler.sample().tolist() == [0, 1, 2, 3]

    def test_zero_capacity(self):
        sampler = ReservoirSampler(0, rng=0)
        sampler.offer_many(range(10))
        assert len(sampler.sample()) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(SamplingError):
            ReservoirSampler(-1)

    def test_sample_is_sorted_and_distinct(self):
        sampler = ReservoirSampler(20, rng=3)
        sampler.offer_many(range(200))
        sample = sampler.sample()
        assert (np.diff(sample) > 0).all()

    def test_uniform_inclusion_probability(self):
        # Every item should be included ~k/n of the time across trials.
        n, k, trials = 20, 5, 3000
        counts = np.zeros(n)
        rng = np.random.default_rng(42)
        for _ in range(trials):
            sampler = ReservoirSampler(k, rng)
            sampler.offer_many(range(n))
            counts[sampler.sample()] += 1
        freq = counts / trials
        expected = k / n
        assert abs(freq.mean() - expected) < 1e-9
        # Each item within 4 standard errors of k/n.
        se = np.sqrt(expected * (1 - expected) / trials)
        assert (np.abs(freq - expected) < 4.5 * se).all()

    def test_deterministic_with_seed(self):
        def run():
            s = ReservoirSampler(5, rng=7)
            s.offer_many(range(50))
            return s.sample().tolist()

        assert run() == run()


class ReferenceReservoir:
    """Item-at-a-time Algorithm R: the loop the batch kernel replaced.

    One scalar ``integers(0, seen)`` draw per item past capacity; the
    kernel must select the same slots and leave the generator in the
    same state.
    """

    def __init__(self, capacity, rng):
        self.capacity = capacity
        self.rng = np.random.default_rng(rng)
        self.reservoir = []
        self.seen = 0

    def offer(self, item):
        self.seen += 1
        if self.capacity == 0:
            return
        if len(self.reservoir) < self.capacity:
            self.reservoir.append(item)
            return
        j = int(self.rng.integers(0, self.seen))
        if j < self.capacity:
            self.reservoir[j] = item


def assert_same_stream(sampler, reference):
    """Equal slot order, ``seen``, ``sample()`` and generator state."""
    held = min(sampler.seen, sampler.capacity)
    assert sampler.seen == reference.seen
    assert sampler._reservoir[:held].tolist() == reference.reservoir
    assert sampler.sample().tolist() == sorted(reference.reservoir)
    assert sampler._rng.random() == reference.rng.random()


def assert_batch_matches_loop(capacity, seed, items):
    """One ``offer_many(items)`` against the reference fed item by item."""
    sampler = ReservoirSampler(capacity, rng=seed)
    sampler.offer_many(items)
    reference = ReferenceReservoir(capacity, seed)
    for item in list(items):
        reference.offer(int(item))
    assert_same_stream(sampler, reference)


_AS_BATCH = {
    "range": lambda lo, hi: range(lo, hi),
    "list": lambda lo, hi: list(range(lo, hi)),
    "ndarray": lambda lo, hi: np.arange(lo, hi),
    "generator": lambda lo, hi: (i for i in range(lo, hi)),
}


class TestBatchKernelMatchesReference:
    @given(
        capacity=st.integers(min_value=0, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        calls=st.lists(
            st.tuples(
                st.sampled_from(["offer", *_AS_BATCH]),
                st.integers(min_value=0, max_value=120),
            ),
            max_size=8,
        ),
        chunk=st.sampled_from([1, 7, 64, 65_536]),
    )
    @settings(max_examples=150, deadline=None)
    def test_any_split_of_the_stream(self, capacity, seed, calls, chunk):
        sampler = ReservoirSampler(capacity, rng=seed)
        reference = ReferenceReservoir(capacity, seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reservoir_module, "_DRAW_CHUNK", chunk)
            position = 0
            for kind, length in calls:
                if kind == "offer":
                    sampler.offer(position)
                    stop = position + 1
                else:
                    stop = position + length
                    sampler.offer_many(_AS_BATCH[kind](position, stop))
                for item in range(position, stop):
                    reference.offer(item)
                position = stop
        assert_same_stream(sampler, reference)

    @pytest.mark.parametrize("capacity", [0, 1, 5, 300, 400])
    def test_stream_crossing_chunk_boundaries(self, capacity, monkeypatch):
        monkeypatch.setattr(reservoir_module, "_DRAW_CHUNK", 64)
        # capacity 300 / 400: the stream never leaves the fill phase
        assert_batch_matches_loop(capacity, 9, range(300))

    def test_default_chunk_boundary(self):
        assert_batch_matches_loop(50, 2, range(reservoir_module._DRAW_CHUNK + 50))

    def test_repeated_slot_in_one_chunk_last_write_wins(self):
        # Capacity 1: every accepted item of the chunk lands on slot 0.
        reference = ReferenceReservoir(1, 4)
        writes = 0
        for item in range(200):
            before = list(reference.reservoir)
            reference.offer(item)
            writes += reference.reservoir != before
        assert writes >= 3  # the single chunk does repeat the slot
        assert_batch_matches_loop(1, 4, range(200))

    def test_non_index_items_keep_their_values(self):
        items = np.array([70, -3, 12, 12, 900, 5, 41, 8], dtype=np.int64)
        assert_batch_matches_loop(3, 1, items)


class TestUniformSample:
    def test_size_and_bounds(self):
        idx = uniform_sample_indices(100, 10, rng=0)
        assert len(idx) == 10
        assert idx.min() >= 0 and idx.max() < 100
        assert (np.diff(idx) > 0).all()

    def test_oversized_request_clamped(self):
        assert len(uniform_sample_indices(5, 10, rng=0)) == 5

    def test_zero(self):
        assert len(uniform_sample_indices(5, 0, rng=0)) == 0
        assert len(uniform_sample_indices(0, 5, rng=0)) == 0

    def test_negative_rejected(self):
        with pytest.raises(SamplingError):
            uniform_sample_indices(-1, 3)
        with pytest.raises(SamplingError):
            uniform_sample_indices(3, -1)


class TestBernoulli:
    def test_rate_zero_and_one(self):
        assert len(bernoulli_sample_indices(50, 0.0, rng=0)) == 0
        assert len(bernoulli_sample_indices(50, 1.0, rng=0)) == 50

    def test_rate_bounds(self):
        with pytest.raises(SamplingError):
            bernoulli_sample_indices(10, 1.5)

    def test_expected_size(self):
        rng = np.random.default_rng(1)
        sizes = [
            len(bernoulli_sample_indices(1000, 0.1, rng)) for _ in range(50)
        ]
        assert 80 < np.mean(sizes) < 120


class TestWeighted:
    def test_probability_bounds(self):
        with pytest.raises(SamplingError):
            weighted_sample_indices(np.array([0.5, 1.2]))

    def test_certain_and_impossible(self):
        idx = weighted_sample_indices(np.array([1.0, 0.0, 1.0]), rng=0)
        assert idx.tolist() == [0, 2]

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_indices_within_range(self, seed):
        probs = np.full(30, 0.3)
        idx = weighted_sample_indices(probs, rng=seed)
        assert ((idx >= 0) & (idx < 30)).all()


def test_as_generator_passthrough():
    gen = np.random.default_rng(0)
    assert as_generator(gen) is gen
    assert isinstance(as_generator(5), np.random.Generator)
    assert isinstance(as_generator(None), np.random.Generator)
