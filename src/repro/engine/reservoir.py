"""Random sampling primitives.

The paper's pre-processing builds its overall sample with reservoir
sampling [Vitter 85] during the second scan of the database.
:class:`ReservoirSampler` implements the classic Algorithm R over a stream
of row indices (the streaming discipline matters: the small group sampling
build consumes rows once, in a single pass, populating the reservoir and
the small group tables simultaneously).

The sampler is a batch kernel: :meth:`ReservoirSampler.offer_many` draws
the replacement slot of every item of a chunk in one ``Generator.integers``
call with a per-item upper bound, so the Python call count of a scan
depends on the chunk count, not the row count.  The broadcast draw
consumes the bit generator exactly as successive scalar
``integers(0, seen)`` calls do (numpy bounds each element with the same
routine on the same buffered 32-bit stream), so a seed selects the same
rows — and leaves the generator in the same state — as the per-item loop,
which survives as the reference in ``tests/test_reservoir.py``.

For non-streaming callers, :func:`uniform_sample_indices` draws a fixed-size
uniform sample of row indices directly.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.errors import SamplingError

#: Items whose replacement slots are drawn per ``Generator.integers`` call;
#: bounds the draw's temporaries (a few int64 arrays of this length).
_DRAW_CHUNK = 65_536


def as_generator(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Coerce a seed or generator into a :class:`numpy.random.Generator`."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _as_item_array(items: Iterable[int]) -> np.ndarray:
    """Materialise a batch of stream items as an ``int64`` array."""
    if isinstance(items, range):
        return np.arange(items.start, items.stop, items.step, dtype=np.int64)
    if isinstance(items, np.ndarray):
        return items.astype(np.int64, copy=False)
    return np.fromiter(items, dtype=np.int64)


class ReservoirSampler:
    """Streaming fixed-size uniform sample of item indices (Algorithm R).

    After observing a stream of ``n`` items, every item has inclusion
    probability ``min(1, k/n)``.

    The first ``k`` items fill the reservoir; item number ``t > k`` draws
    a slot uniformly from ``[0, t)`` and replaces that slot if it is
    below ``k``.  Batches apply the accepted slots of a chunk at once with
    the *last* write to a slot winning, which is what the item-at-a-time
    order produces.

    Parameters
    ----------
    capacity:
        Reservoir size ``k``.
    rng:
        Seed or generator for reproducibility.
    """

    def __init__(self, capacity: int, rng: int | np.random.Generator | None = None):
        if capacity < 0:
            raise SamplingError(f"reservoir capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._rng = as_generator(rng)
        self._reservoir = np.empty(capacity, dtype=np.int64)
        self._seen = 0

    @property
    def seen(self) -> int:
        """Number of stream items observed so far."""
        return self._seen

    def offer(self, item: int) -> None:
        """Observe one stream item."""
        self.offer_many((item,))

    def offer_many(self, items: Iterable[int]) -> None:
        """Observe a batch of stream items in order.

        The batch is materialised once as ``int64`` (8 bytes per item);
        everything after that works a ``_DRAW_CHUNK`` at a time.
        """
        batch = _as_item_array(items)
        capacity = self.capacity
        if capacity == 0:
            self._seen += batch.size
            return
        filled = min(self._seen, capacity)
        fill = min(batch.size, capacity - filled)
        self._reservoir[filled : filled + fill] = batch[:fill]
        self._seen += fill
        for start in range(fill, batch.size, _DRAW_CHUNK):
            chunk = batch[start : start + _DRAW_CHUNK]
            first = self._seen + 1
            slots = self._rng.integers(0, np.arange(first, first + chunk.size))
            self._seen += chunk.size
            accepted = np.flatnonzero(slots < capacity)[::-1]
            # Reversed, so np.unique's first index per slot is its last
            # write; a fancy assignment with repeated slots has no
            # guaranteed order.
            winners, last = np.unique(slots[accepted], return_index=True)
            self._reservoir[winners] = chunk[accepted[last]]

    def sample(self) -> np.ndarray:
        """Return the sampled item values, sorted ascending."""
        return np.sort(self._reservoir[: min(self._seen, self.capacity)])


def reservoir_replacements(
    capacity: int,
    total_before: int,
    n_new: int,
    rng: int | np.random.Generator | None = None,
) -> dict[int, int]:
    """Algorithm R replacement decisions for a batch of new stream items.

    Extends a full reservoir of size ``capacity`` that has already
    observed ``total_before`` items with ``n_new`` more: item ``offset``
    (0-based within the batch) is accepted with probability
    ``capacity / (total_before + offset + 1)`` and evicts a uniform slot
    — exactly the per-item discipline of :meth:`ReservoirSampler.offer`,
    so inclusion probabilities stay ``capacity / total`` throughout.
    Returns ``{reservoir_slot: batch_offset}`` with later acceptances
    overwriting earlier ones on the same slot (last write wins, as in
    the streaming formulation).  The RNG draw sequence is a pure
    function of ``(capacity, total_before, n_new)``, which is what lets
    the incremental-append path derive a deterministic per-append stream
    and stay byte-identical to a fresh build replaying the same appends.

    The acceptance tests are drawn in bulk, on the same stream: a window
    of ``gen.random(m)`` is compared against the window's thresholds;
    without an acceptance the window's draws are exactly the per-item
    draws, and at the first one the generator is rewound to the window's
    start and advanced by that many draws before the slot's
    ``integers`` draw.  So the draws, their order and the generator's
    final state are those of one ``random()`` per item.
    """
    if capacity < 0:
        raise SamplingError(
            f"reservoir capacity must be >= 0, got {capacity}"
        )
    gen = as_generator(rng)
    replacements: dict[int, int] = {}
    offset = 0
    while offset < n_new:
        seen = total_before + offset
        # About four expected gaps between acceptances per window.
        window = min(n_new - offset, 16 + 4 * seen // max(capacity, 1))
        state = gen.bit_generator.state
        accepted = gen.random(window) < capacity / np.arange(
            seen + 1, seen + window + 1
        )
        step = int(accepted.argmax()) + 1
        if not accepted[step - 1]:
            offset += window
            continue
        gen.bit_generator.state = state
        gen.random(step)
        offset += step
        replacements[int(gen.integers(0, capacity))] = offset - 1
    return replacements


def uniform_sample_indices(
    n: int, k: int, rng: int | np.random.Generator | None = None
) -> np.ndarray:
    """Draw ``min(k, n)`` distinct row indices uniformly, sorted ascending."""
    if n < 0 or k < 0:
        raise SamplingError("population and sample sizes must be non-negative")
    gen = as_generator(rng)
    k = min(k, n)
    if k == 0:
        return np.empty(0, dtype=np.int64)
    return np.sort(gen.choice(n, size=k, replace=False)).astype(np.int64)


def weighted_sample_indices(
    probabilities: np.ndarray, rng: int | np.random.Generator | None = None
) -> np.ndarray:
    """Poisson sampling: include row ``i`` with probability ``p[i]``.

    Used by the congressional-sampling baseline, where each tuple's
    inclusion probability is the (rescaled) max of its house and senate
    allocations.
    """
    probabilities = np.asarray(probabilities, dtype=np.float64)
    if probabilities.size and (
        probabilities.min() < 0.0 or probabilities.max() > 1.0
    ):
        raise SamplingError("inclusion probabilities must lie in [0, 1]")
    gen = as_generator(rng)
    keep = gen.random(probabilities.shape[0]) < probabilities
    return np.flatnonzero(keep).astype(np.int64)
