"""Embedding geometry, the softmax sampler, and the two-part objective."""

from __future__ import annotations

import copy
import json
import math
import pickle
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from refsynth import mining
from refsynth.errors import (
    DataError,
    DimensionMismatch,
    EmptyInput,
    KeyMismatch,
    NoPeers,
)
from refsynth.mining import (
    DEFAULT_MARGIN,
    MODULE_NAMES,
    ModularEmbedding,
    SamplingTable,
    build_sampling_table,
    mine_loss,
    rank_loss,
    sample_negatives,
    should_refresh,
    total_loss,
)
from refsynth.synthgen import make_embeddings

from .oracles import cosine, hand_softmax, literal_mine_loss, literal_rank_loss, walk_sample


def embedding(region_id, category, vectors) -> ModularEmbedding:
    return ModularEmbedding(
        region_id=region_id,
        category=category,
        modules={name: np.asarray(v, dtype=float) for name, v in zip(MODULE_NAMES, vectors)},
    )


def trio():
    """Three same-category regions whose first region sees sims 0.6 and 1.0."""
    base = [
        ("r0", [1.0, 0.0]),
        ("r1", [0.6, 0.8]),
        ("r2", [2.0, 0.0]),
    ]
    return [embedding(rid, "cup", [v, v, v]) for rid, v in base]


def subject_rows(vectors) -> np.ndarray:
    """The "subject" rows of a table over one category, region ``r{i}`` holding ``vectors[i]``."""
    data = [embedding(f"r{i}", "cup", [v] * len(MODULE_NAMES)) for i, v in enumerate(vectors)]
    return build_sampling_table(data).blocks[("cup", "subject")].rows


class TestCosine:
    def test_known_values(self):
        # Region r0's peers lie at cosines 0.6, 1.0 and 0.0 from it.
        vectors = [[1.0, 0.0], [0.6, 0.8], [3.0, 0.0], [0.0, 1.0]]
        assert [cosine(vectors[0], v) for v in vectors[1:]] == pytest.approx([0.6, 1.0, 0.0])
        row = subject_rows(vectors)[0]
        assert row[0] == 0.0
        assert np.allclose(row[1:], hand_softmax([0.6, 1.0, 0.0]), rtol=0.0, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        # Only the relation vectors differ in length, and the error names that module.
        data = [
            embedding("r0", "cup", [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]),
            embedding("r1", "cup", [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0, 0.0]]),
        ]
        with pytest.raises(DimensionMismatch, match=r"^module 'relation' of category 'cup' mixes dimensions \[2, 3\]"):
            build_sampling_table(data)


class TestSoftmax:
    def test_frozen_two_similarity_example(self):
        row = subject_rows([[1.0, 0.0], [0.6, 0.8], [2.0, 0.0]])[0]
        assert row[0] == 0.0
        assert row[1] == pytest.approx(0.401312339887548, abs=1e-6)
        assert row[2] == pytest.approx(0.598687660112452, abs=1e-6)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=2, max_size=8))
    def test_agrees_with_plain_math(self, vectors):
        for i, row in enumerate(subject_rows(vectors)):
            sims = [cosine(vectors[i], v) for j, v in enumerate(vectors) if j != i]
            assert row[i] == 0.0
            assert np.allclose(np.delete(row, i), hand_softmax(sims), rtol=0.0, atol=1e-12)
            assert abs(float(row.sum()) - 1.0) < 1e-9


class StubRandom:
    """An rng whose every draw is one fixed value."""

    def __init__(self, value: float) -> None:
        self.value = value

    def random(self) -> float:
        return self.value


class TestSamplingTable:
    def test_rows_are_distributions_with_zero_self_mass(self):
        table = build_sampling_table(trio())
        block = table.blocks[("cup", MODULE_NAMES[0])]
        assert block.region_ids == ("r0", "r1", "r2")
        assert np.allclose(block.rows.sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(np.diag(block.rows), 0.0)

    def test_first_region_row_matches_the_frozen_softmax(self):
        table = build_sampling_table(trio())
        row = table.blocks[("cup", MODULE_NAMES[0])].rows[0]
        assert row[1] == pytest.approx(0.401312339887548, abs=1e-6)
        assert row[2] == pytest.approx(0.598687660112452, abs=1e-6)

    def test_zero_norm_embedding_contributes_zero_similarity(self):
        table = build_sampling_table(
            [
                embedding("r0", "cup", [[0.0, 0.0]] * 3),
                embedding("r1", "cup", [[1.0, 0.0]] * 3),
                embedding("r2", "cup", [[0.0, 1.0]] * 3),
            ]
        )
        rows = table.blocks[("cup", MODULE_NAMES[0])].rows
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-9)
        # Both peers look equally (un)similar to the zero-norm region.
        assert rows[0][1] == pytest.approx(rows[0][2])

    def test_sampling_respects_category_and_module_boundaries(self):
        data = trio() + [embedding("q0", "dog", [[1.0, 1.0]] * 3)]
        table = build_sampling_table(data)
        rng = random.Random(0)
        for _ in range(40):
            peer = table.sample(rng, "r0", MODULE_NAMES[0])
            assert peer in {"r1", "r2"}
        with pytest.raises(NoPeers):
            table.sample(rng, "q0", MODULE_NAMES[0])
        with pytest.raises(KeyMismatch):
            table.sample(rng, "ghost", MODULE_NAMES[0])
        with pytest.raises(KeyMismatch):
            table.sample(rng, "r0", "appearance")

    def test_draws_equal_the_running_sum_walk(self):
        table = build_sampling_table(make_embeddings(3, count=60, dim=8, category_count=5) + trio())
        for seed in (0, 1):
            rng, reference = random.Random(seed), random.Random(seed)
            for region_id, (category, position) in table.index.items():
                for module in MODULE_NAMES:
                    block = table.blocks[(category, module)]
                    row = block.rows[position]
                    expected = walk_sample(row, position, block.region_ids, reference.random())
                    assert table.sample(rng, region_id, module) == expected
                    # Stub draws at both ends and on every running total: a tie
                    # moves on to the next peer, and r >= total gives the last.
                    for r in (0.0, 1.0, *np.cumsum(row)):
                        stub = StubRandom(float(r))
                        expected = walk_sample(row, position, block.region_ids, float(r))
                        assert table.sample(stub, region_id, module) == expected

    def test_sample_negatives_covers_every_module(self):
        table = build_sampling_table(trio())
        negatives = sample_negatives(table, random.Random(1), "r1")
        assert set(negatives) == set(MODULE_NAMES)
        assert all(peer in {"r0", "r2"} for peer in negatives.values())

    def test_missing_module_rejected(self):
        bad = ModularEmbedding(
            region_id="r0", category="cup", modules={"subject": np.ones(2)}
        )
        with pytest.raises(KeyMismatch):
            build_sampling_table([bad])

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInput):
            build_sampling_table([])

    def test_mixed_dimensions_rejected(self):
        data = [
            embedding("r0", "cup", [[1.0, 0.0]] * 3),
            embedding("r1", "cup", [[1.0, 0.0, 0.0]] * 3),
        ]
        with pytest.raises(DimensionMismatch):
            build_sampling_table(data)


def mixed_table():
    """Five synthetic categories, the trio, and one region alone in its category."""
    alone = embedding("s0", "plate", [[1.0, 2.0]] * 3)
    return build_sampling_table(make_embeddings(3, 60, dim=8, category_count=5) + trio() + [alone])


class TestSharedDrawPath:
    def test_sample_negatives_equals_one_sample_per_module_in_order(self):
        table = mixed_table()
        for seed in (0, 1):
            rng, reference = random.Random(seed), random.Random(seed)
            for region_id in sorted(table.index):
                if region_id == "s0":
                    continue
                expected = {m: table.sample(reference, region_id, m) for m in table.module_names}
                negatives = sample_negatives(table, rng, region_id)
                assert list(negatives) == list(table.module_names)
                assert negatives == expected
            assert rng.getstate() == reference.getstate()

    @pytest.mark.parametrize(
        "region_id, error", [("ghost", KeyMismatch), ("s0", NoPeers)], ids=["unknown", "alone"]
    )
    def test_a_refused_draw_leaves_the_rng_untouched(self, region_id, error):
        table = mixed_table()
        rng = random.Random(5)
        state = rng.getstate()
        with pytest.raises(error):
            sample_negatives(table, rng, region_id)
        with pytest.raises(error):
            table.sample(rng, region_id, MODULE_NAMES[1])
        assert rng.getstate() == state

    def test_rows_view_is_the_softmax_over_peers(self):
        embeddings = make_embeddings(3, 60, dim=8, category_count=5) + trio()
        table = build_sampling_table(embeddings)
        by_id = {e.region_id: e for e in embeddings}
        for (category, module), block in table.blocks.items():
            rows = block.rows
            assert rows.shape == block.cumulative.shape
            if len(block.region_ids) < 2:
                continue
            assert np.all(np.diag(rows) == 0.0)
            vectors = [by_id[r].modules[module] for r in block.region_ids]
            for i, row in enumerate(rows):
                sims = [cosine(vectors[i], v) for j, v in enumerate(vectors) if j != i]
                peers = [p for j, p in enumerate(row) if j != i]
                assert np.allclose(peers, hand_softmax(sims), rtol=0.0, atol=1e-12)


class TestNonFiniteEmbedding:
    """One non-finite module value would turn its whole category's rows into NaN."""

    def test_a_1e999_line_is_refused_naming_region_and_module(self):
        data = trio()
        data[1].modules["location"][0] = json.loads("1e999")  # JSON, read as infinity
        with pytest.raises(DataError, match=r"'location' of region r1 "):
            build_sampling_table(data)

    def test_an_in_process_nan_is_refused_naming_the_first_bad_region(self):
        data = trio()
        data[2].modules["subject"][1] = np.nan
        data[1].modules["subject"][0] = np.nan
        with pytest.raises(DataError, match=r"'subject' of region r1 "):
            build_sampling_table(data)


class TestDrawMemory:
    def test_a_draw_allocates_less_than_one_row(self):
        size = 3000
        embeddings = make_embeddings(11, size, dim=8, category_count=1)
        table = build_sampling_table(embeddings, module_names=MODULE_NAMES[:1])
        ids = sorted(table.index)
        rng = random.Random(0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for i in range(1000):
                sample_negatives(table, rng, ids[(i * 7) % size])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < size * 8, peak


def sized_categories(seed, sizes, dim):
    """One category per size, ``k{j}`` of ``sizes[j]`` regions, plus a zero-norm
    region added to the first category."""
    embeddings = []
    for j, size in enumerate(sizes):
        embeddings.extend(
            ModularEmbedding(region_id=f"k{j}-{e.region_id}", category=f"k{j}", modules=e.modules)
            for e in make_embeddings(seed + j, size, dim=dim, category_count=1)
        )
    embeddings.append(embedding("k0-zero", "k0", [[0.0] * dim] * len(MODULE_NAMES)))
    return embeddings


def stub_values(totals):
    """0, every running total, its neighbours toward 0 and 1, and values at or
    above the row's total."""
    values = [0.0]
    for total in map(float, totals):
        values += [total, math.nextafter(total, 0.0), math.nextafter(total, 1.0)]
    last = float(totals[-1])
    return values + [last, math.nextafter(last, math.inf), 1.0, 2.0]


class TestDrawEqualsTheWalk:
    # An example of a few hundred regions takes up to a second, so shrinking
    # a failure would take minutes; it is reported as drawn.
    @settings(max_examples=20, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(
        seed=st.integers(0, 2**16),
        sizes=st.lists(st.integers(1, 300), min_size=1, max_size=3),
        dim=st.integers(1, 6),
        picks=st.lists(st.integers(0, 10**6), max_size=1),
    )
    def test_every_boundary_draw_equals_the_running_sum_walk(self, seed, sizes, dim, picks):
        table = build_sampling_table(sized_categories(seed, sizes, dim))
        regions = {"k0-zero"}
        for (_, module), block in table.blocks.items():
            if module == MODULE_NAMES[0]:
                ids = block.region_ids
                regions.update([ids[0], ids[-1], *(ids[pick % len(ids)] for pick in picks)])
        for region_id in sorted(regions):
            category, position = table.index[region_id]
            block = table.blocks[(category, MODULE_NAMES[0])]
            if len(block.region_ids) < 2:
                with pytest.raises(NoPeers):
                    sample_negatives(table, StubRandom(0.0), region_id)
                continue
            rows = {m: table.blocks[(category, m)].rows[position] for m in MODULE_NAMES}
            values = {
                r for m in MODULE_NAMES
                for r in stub_values(table.blocks[(category, m)].cumulative[position])
            }
            for r in sorted(values):
                expected = {m: walk_sample(rows[m], position, block.region_ids, r) for m in MODULE_NAMES}
                assert sample_negatives(table, StubRandom(r), region_id) == expected
                for m in MODULE_NAMES:
                    assert table.sample(StubRandom(r), region_id, m) == expected[m]


def draws(table, seed):
    """Every region's negatives, then one single-module draw each, from one seeded rng."""
    rng = random.Random(seed)
    ids = [r for r in sorted(table.index) if r != "s0"]
    out = [sample_negatives(table, rng, r) for r in ids]
    return out + [table.sample(rng, r, MODULE_NAMES[i % 3]) for i, r in enumerate(ids)]


class TestSerialization:
    def test_a_pickled_or_copied_table_draws_the_same_peers(self):
        table = mixed_table()
        expected = draws(table, 7)
        assert draws(pickle.loads(pickle.dumps(table)), 7) == expected
        assert draws(copy.deepcopy(table), 7) == expected
        assert draws(table, 7) == expected


class TestEquality:
    def test_a_pickled_or_copied_table_compares_equal(self):
        table = build_sampling_table(make_embeddings(1, 200, 8, 5))
        assert pickle.loads(pickle.dumps(table)) == table
        assert copy.deepcopy(table) == table

    def test_one_changed_running_total_compares_unequal(self):
        table = build_sampling_table(make_embeddings(1, 200, 8, 5))
        changed = copy.deepcopy(table)
        block = next(iter(changed.blocks.values()))
        block.cumulative[0, -1] = np.nextafter(block.cumulative[0, -1], 0.0)
        assert changed != table
        assert block != table.blocks[next(iter(table.blocks))]

    def test_a_copied_embedding_compares_equal_and_a_changed_one_unequal(self):
        original = make_embeddings(1, 4, 8, 2)[0]
        assert copy.deepcopy(original) == original
        assert pickle.loads(pickle.dumps(original)) == original
        changed = copy.deepcopy(original)
        changed.modules["subject"][0] += 1.0
        assert changed != original
        assert ModularEmbedding(original.region_id, "other", original.modules) != original


class TestNoSecondBuffer:
    def test_a_block_holds_only_its_running_totals(self):
        for block in mixed_table().blocks.values():
            held = sum(v.nbytes for v in vars(block).values() if hasattr(v, "nbytes"))
            assert held == block.cumulative.nbytes

    def test_the_draw_entries_of_a_3000_region_category_take_under_10_kb(self):
        embeddings = make_embeddings(11, 3000, dim=8, category_count=1)
        table = build_sampling_table(embeddings, module_names=MODULE_NAMES[:1])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rebuilt = SamplingTable(table.blocks, table.index, table.module_names)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert sample_negatives(rebuilt, random.Random(0), "r0001") == sample_negatives(
            table, random.Random(0), "r0001"
        )
        assert peak < 10_000, peak


class TestModuleNames:
    @pytest.mark.parametrize("names", [(), ("subject", "subject")], ids=["none", "repeated"])
    def test_are_refused_before_any_block_is_built(self, monkeypatch, names):
        def no_block(*args):
            raise AssertionError("a block was built")

        monkeypatch.setattr(mining, "_stack_module", no_block)
        with pytest.raises(DataError, match=re.escape(str(list(names)))):
            build_sampling_table(make_embeddings(1, 20, 4, 2), module_names=names)


class TestLosses:
    def test_equal_scores_cost_twice_the_margin(self):
        assert rank_loss(0.5, 0.5, 0.5) == pytest.approx(2 * DEFAULT_MARGIN)

    def test_equal_scores_cost_six_margins_when_mined(self):
        flat = {name: 0.5 for name in MODULE_NAMES}
        assert mine_loss(0.5, flat, dict(flat)) == pytest.approx(6 * DEFAULT_MARGIN)

    def test_well_separated_scores_cost_nothing(self):
        assert rank_loss(1.0, 0.2, 0.1) == 0.0
        low = {name: 0.0 for name in MODULE_NAMES}
        assert mine_loss(1.0, low, dict(low)) == 0.0

    def test_module_keys_are_a_closed_set(self):
        flat = {name: 0.5 for name in MODULE_NAMES}
        wrong = {"subject": 0.5, "location": 0.5, "context": 0.5}
        with pytest.raises(KeyMismatch):
            mine_loss(0.5, wrong, flat)
        with pytest.raises(KeyMismatch):
            mine_loss(0.5, flat, dict(list(flat.items())[:2]))

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2),
        st.floats(0.01, 1.0),
    )
    def test_rank_loss_matches_the_literal_formula(self, pos, nr, ne, margin):
        assert abs(rank_loss(pos, nr, ne, margin) - literal_rank_loss(pos, nr, ne, margin)) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(-2, 2),
        st.lists(st.floats(-2, 2), min_size=6, max_size=6),
        st.floats(0.01, 1.0),
    )
    def test_mine_loss_matches_the_literal_formula(self, pos, scores, margin):
        regions = dict(zip(MODULE_NAMES, scores[:3]))
        expressions = dict(zip(MODULE_NAMES, scores[3:]))
        ours = mine_loss(pos, regions, expressions, margin)
        reference = literal_mine_loss(pos, regions, expressions, margin)
        assert abs(ours - reference) <= 1e-12

    def test_total_loss_weighting(self):
        assert total_loss(1.0, 2.0) == 3.0
        assert total_loss(1.0, 2.0, mine_weight=0.5) == 2.0


class TestRefreshPolicy:
    def test_fires_every_interval_but_not_at_start(self):
        fired = [i for i in range(201) if should_refresh(i, 50)]
        assert fired == [50, 100, 150, 200]

    def test_interval_must_be_positive(self):
        with pytest.raises(DataError):
            should_refresh(10, 0)


class TestEmbeddingIO:
    def test_vector_shape_enforced(self):
        with pytest.raises(DimensionMismatch):
            ModularEmbedding(
                region_id="r0", category="cup", modules={"subject": np.ones((2, 2))}
            )
        with pytest.raises(DataError):
            ModularEmbedding(region_id="r0", category="cup", modules={})
