"""Hard-negative mining over modular region embeddings.

Region scorers in this setting decompose an embedding into three modules
(subject appearance, location, relationship context).  Training alternates
between a plain ranking objective over in-batch negatives and a mined
objective that, for each module, draws a same-category region whose module
embedding is close to the target's.  Closeness is turned into a sampling
distribution with a softmax over cosine similarities, recomputed on a fixed
refresh schedule as the embeddings drift during training.

Everything here is pure numeric bookkeeping on numpy arrays and float
scores; no model or autograd framework is involved.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, DimensionMismatch, EmptyInput, KeyMismatch, NoPeers

MODULE_NAMES = ("subject", "location", "relation")
DEFAULT_MARGIN = 0.1
DEFAULT_MINE_WEIGHT = 1.0
DEFAULT_REFRESH_INTERVAL = 50


@dataclass
class ModularEmbedding:
    """One region's embedding, split into named module vectors."""

    region_id: str
    category: str
    modules: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        if not self.modules:
            raise DataError(f"region {self.region_id} has no module vectors")
        converted = {}
        for name, vector in self.modules.items():
            arr = np.asarray(vector, dtype=float)
            if arr.ndim != 1 or arr.size == 0:
                raise DimensionMismatch(
                    f"module {name!r} of region {self.region_id} must be a non-empty vector"
                )
            converted[name] = arr
        self.modules = converted

    def __eq__(self, other: object) -> bool:
        """Exact equality, with module vectors compared element by element."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            (self.region_id, self.category) == (other.region_id, other.category)
            and self.modules.keys() == other.modules.keys()
            and all(np.array_equal(vector, other.modules[name]) for name, vector in self.modules.items())
        )


@dataclass
class ProbabilityBlock:
    """Sampling rows for one (category, module) group of regions.

    Row i of ``cumulative`` holds the running totals of region i's sampling
    row, so that a draw is one binary search; it is the only n-by-n array a
    block keeps.
    """

    region_ids: tuple[str, ...]
    cumulative: np.ndarray

    def __eq__(self, other: object) -> bool:
        """Exact equality, with the running totals compared element by element."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.region_ids == other.region_ids and np.array_equal(self.cumulative, other.cumulative)

    @property
    def rows(self) -> np.ndarray:
        """The probabilities themselves, recovered from the running totals."""
        return np.diff(self.cumulative, axis=1, prepend=0.0)


@dataclass
class SamplingTable:
    """Softmax-over-cosine sampling distributions, per category and module.

    Row i of a block holds, for region i, the probability of drawing each
    same-category peer as its hard negative for that module; the self entry
    is zero.  The epoch counter records which refresh produced the table.

    Draws go through one entry per category: its region ids and, in
    ``module_names`` order, a flat ``memoryview`` of each module block's
    running totals.  The views share the blocks' memory, so they add no
    array; they cannot be pickled, so a pickled or copied table leaves them
    out and makes them anew.  Tables compare equal when their fields do, so
    the views take no part in ``==``.
    """

    blocks: dict[tuple[str, str], ProbabilityBlock]
    index: dict[str, tuple[str, int]]
    module_names: tuple[str, ...]
    epoch: int = 0

    def __post_init__(self) -> None:
        self._draws = self._draw_entries()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_draws"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._draws = self._draw_entries()

    def _draw_entries(self) -> dict[str, tuple[tuple[str, ...], tuple[tuple[str, memoryview], ...]]]:
        """Category -> (region ids, (module, flat view of its running totals)
        for each module in order)."""
        entries = {}
        for category, _ in self.blocks:
            if category not in entries:
                blocks = [self.blocks[(category, module)] for module in self.module_names]
                entries[category] = (
                    blocks[0].region_ids,
                    tuple(
                        (module, memoryview(block.cumulative).cast("B").cast("d"))
                        for module, block in zip(self.module_names, blocks)
                    ),
                )
        return entries

    def sample(self, rng: random.Random, region_id: str, module: str) -> str:
        """Draw one hard-negative peer for a region under one module."""
        return self._draw(rng, region_id, module)[module]

    def _draw(self, rng: random.Random, region_id: str, module: str | None = None) -> dict[str, str]:
        """One hard-negative peer for ``module``, or for every module in order.

        Each draw takes one ``rng.random()`` value r and returns the first peer
        whose running total exceeds r: a row's totals never decrease, so that
        is where ``bisect_right`` over the region's slice of the view lands.
        The zeroed self entry never raises the total, so it is never that
        peer; r at or above the row's total draws the last peer.  Errors are
        raised before the rng is consumed.
        """
        try:
            category, position = self.index[region_id]
        except KeyError:
            raise KeyMismatch(f"region {region_id!r} is not in the sampling table") from None
        region_ids, views = self._draws[category]
        if module is not None:
            try:
                views = (views[self.module_names.index(module)],)
            except ValueError:
                raise KeyMismatch(f"unknown module {module!r}") from None
        n = len(region_ids)
        if n < 2:
            raise NoPeers(f"region {region_id!r} has no same-category peers")
        lo = position * n
        hi = lo + n
        peers = {}
        for name, view in views:
            i = bisect_right(view, rng.random(), lo, hi) - lo
            if i == n:
                i = n - 2 if position == n - 1 else n - 1
            peers[name] = region_ids[i]
        return peers


def _stack_module(group: Sequence[ModularEmbedding], category: str, name: str) -> np.ndarray:
    """One row per region of one module's vectors, all finite and of one length."""
    try:
        stacked = np.array([e.modules[name] for e in group])
        if stacked.ndim != 2:
            raise ValueError("ragged module vectors")
    except ValueError:
        dims = {e.modules[name].shape[0] for e in group}
        raise DimensionMismatch(
            f"module {name!r} of category {category!r} mixes dimensions {sorted(dims)}"
        ) from None
    if not np.isfinite(stacked).all():
        bad = int(np.flatnonzero(~np.isfinite(stacked).all(axis=1))[0])
        raise DataError(f"module {name!r} of region {group[bad].region_id} has a non-finite value")
    return stacked


def build_sampling_table(
    embeddings: Sequence[ModularEmbedding],
    module_names: Sequence[str] = MODULE_NAMES,
    epoch: int = 0,
) -> SamplingTable:
    """Compute every category's sampling rows from scratch.

    Within a category, module vectors are stacked and length-normalized;
    regions whose module vector has zero norm contribute zero similarity
    instead of blowing up, so one degenerate embedding cannot poison its
    whole category.  A non-finite module value would, so it is rejected.
    Each row is the softmax of the similarities to all peers, with the self
    entry forced to zero and the rest renormalized; the block stores the
    row's running totals, computed in place in the similarity array.
    """
    if not embeddings:
        raise EmptyInput("no embeddings to build a sampling table from")
    module_names = tuple(module_names)
    if not module_names or len(set(module_names)) != len(module_names):
        raise DataError(f"module names must be distinct and at least one, got {list(module_names)}")
    by_category: dict[str, list[ModularEmbedding]] = {}
    for emb in embeddings:
        for name in module_names:
            if name not in emb.modules:
                raise KeyMismatch(f"region {emb.region_id} lacks module {name!r}")
        by_category.setdefault(emb.category, []).append(emb)

    blocks: dict[tuple[str, str], ProbabilityBlock] = {}
    index: dict[str, tuple[str, int]] = {}
    for category in sorted(by_category):
        group = sorted(by_category[category], key=lambda e: e.region_id)
        ids = tuple(e.region_id for e in group)
        for position, emb in enumerate(group):
            if emb.region_id in index:
                raise DataError(f"duplicate region id {emb.region_id!r}")
            index[emb.region_id] = (category, position)
        n = len(group)
        for name in module_names:
            stacked = _stack_module(group, category, name)
            norms = np.linalg.norm(stacked, axis=1, keepdims=True)
            safe = np.where(norms == 0.0, 1.0, norms)
            stacked /= safe
            # The similarities become the rows' running totals in place, so
            # the block's one n-by-n array is the only one ever allocated.
            sums = stacked @ stacked.T
            if n == 1:
                sums[:] = 0.0
            else:
                sums -= sums.max(axis=1, keepdims=True)
                np.exp(sums, out=sums)
                np.fill_diagonal(sums, 0.0)
                sums /= sums.sum(axis=1, keepdims=True)
                np.cumsum(sums, axis=1, out=sums)
            blocks[(category, name)] = ProbabilityBlock(region_ids=ids, cumulative=sums)
    return SamplingTable(blocks=blocks, index=index, module_names=module_names, epoch=epoch)


def sample_negatives(
    table: SamplingTable,
    rng: random.Random,
    region_id: str,
) -> dict[str, str]:
    """One hard-negative region per module for the given target region."""
    return table._draw(rng, region_id)


def should_refresh(iteration: int, interval: int = DEFAULT_REFRESH_INTERVAL) -> bool:
    """Tables are rebuilt on every interval-th iteration, but not at start."""
    if interval <= 0:
        raise DataError(f"refresh interval must be positive, got {interval}")
    return iteration > 0 and iteration % interval == 0


def hinge(value: float) -> float:
    return value if value > 0.0 else 0.0


def rank_loss(
    positive: float,
    negative_region: float,
    negative_expression: float,
    margin: float = DEFAULT_MARGIN,
) -> float:
    """Two-sided margin ranking loss over in-batch negatives.

    One hinge pushes the true pair above the same expression scored against
    another region, the other pushes it above another expression scored
    against the true region.  With all three scores equal the loss is exactly
    twice the margin.
    """
    return hinge(margin + negative_region - positive) + hinge(
        margin + negative_expression - positive
    )


def mine_loss(
    positive: float,
    mined_region_scores: Mapping[str, float],
    mined_expression_scores: Mapping[str, float],
    margin: float = DEFAULT_MARGIN,
    module_names: Sequence[str] = MODULE_NAMES,
) -> float:
    """Margin loss against per-module mined negatives, two hinges per module.

    Each module contributes one hinge for its mined negative region and one
    for that region's own expression scored against the true region.  Three
    modules make six hinges, so all-equal scores give six times the margin.
    """
    expected = set(module_names)
    if set(mined_region_scores) != expected or set(mined_expression_scores) != expected:
        raise KeyMismatch(
            f"mined scores must cover exactly the modules {sorted(expected)}, got "
            f"{sorted(mined_region_scores)} and {sorted(mined_expression_scores)}"
        )
    total = 0.0
    for name in module_names:
        total += hinge(margin + mined_region_scores[name] - positive)
        total += hinge(margin + mined_expression_scores[name] - positive)
    return total


def total_loss(
    rank: float,
    mined: float,
    mine_weight: float = DEFAULT_MINE_WEIGHT,
) -> float:
    """Combined training objective: ranking term plus weighted mined term."""
    return rank + mine_weight * mined
