"""Tests for the data substrate: interactions, synthetic generation, splits, batching."""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataloader import (
    SequenceDataLoader,
    evaluation_batches,
    make_batch,
    pad_sequences,
)
from repro.data.interactions import Interaction, InteractionTable
from repro.data.splits import (
    cold_start_split,
    leave_one_out_split,
    training_examples,
)
from repro.data.statistics import compute_statistics, dataset_statistics
from repro.data.synthetic import (
    ITEM_MATRIX_BLOCK_ROWS,
    available_presets,
    dataset_config,
    generate_dataset,
    load_dataset,
    synthetic_item_matrix,
    synthetic_item_matrix_layout,
    synthetic_item_matrix_memmap,
)


def small_table() -> InteractionTable:
    return InteractionTable(
        user_sequences={
            1: [1, 2, 3, 4, 5],
            2: [2, 3, 4, 5, 6, 7],
            3: [5, 1, 2, 6, 3],
        },
        num_items=7,
    )


class TestInteractionTable:
    def test_basic_statistics(self):
        table = small_table()
        assert table.num_users == 3
        assert table.num_interactions == 16
        assert table.average_sequence_length() == pytest.approx(16 / 3)

    def test_item_counts(self):
        counts = small_table().item_counts()
        assert counts[0] == 0
        assert counts[2] == 3
        assert counts[7] == 1

    def test_active_items(self):
        table = InteractionTable(user_sequences={1: [1, 3]}, num_items=5)
        assert table.active_items() == [1, 3]

    def test_from_interactions_orders_by_timestamp(self):
        interactions = [
            Interaction(user_id=1, item_id=5, timestamp=3.0),
            Interaction(user_id=1, item_id=2, timestamp=1.0),
            Interaction(user_id=1, item_id=9, timestamp=2.0),
        ]
        table = InteractionTable.from_interactions(interactions, num_items=10)
        assert table.user_sequences[1] == [2, 9, 5]

    def test_k_core_filter_removes_rare_items_and_short_users(self):
        table = InteractionTable(
            user_sequences={
                1: [1, 2, 1, 2, 1],
                2: [2, 1, 2, 1, 2],
                3: [3, 1, 2, 1, 2],   # item 3 appears once
                4: [4, 4],            # too short after filtering
            },
            num_items=4,
        )
        filtered = table.k_core_filter(k=5)
        for sequence in filtered.user_sequences.values():
            assert 3 not in sequence
            assert 4 not in sequence
            assert len(sequence) >= 5
        assert 4 not in filtered.user_sequences

    def test_k_core_filter_idempotent(self):
        table = small_table().k_core_filter(k=2)
        again = table.k_core_filter(k=2)
        assert table.user_sequences == again.user_sequences

    def test_remove_items(self):
        table = small_table()
        reduced = table.remove_items({2, 3}, min_length=3)
        for sequence in reduced.user_sequences.values():
            assert 2 not in sequence and 3 not in sequence
            assert len(sequence) >= 3

    def test_subset_users(self):
        subset = small_table().subset_users([1, 3])
        assert set(subset.user_sequences) == {1, 3}

    def test_average_item_actions_empty(self):
        empty = InteractionTable(user_sequences={}, num_items=3)
        assert empty.average_item_actions() == 0.0
        assert empty.average_sequence_length() == 0.0


class TestSyntheticGeneration:
    def test_available_presets(self):
        assert set(available_presets()) == {"arts", "toys", "tools", "food"}

    def test_dataset_config_validation(self):
        with pytest.raises(ValueError):
            dataset_config("movies")
        with pytest.raises(ValueError):
            dataset_config("arts", scale="huge")
        with pytest.raises(AttributeError):
            dataset_config("arts", scale="tiny", not_a_field=3)

    def test_generate_dataset_determinism(self):
        config = dataset_config("arts", scale="tiny", seed=11,
                                num_users=120, num_items=80)
        a = generate_dataset(config)
        b = generate_dataset(config)
        assert a.interactions.user_sequences == b.interactions.user_sequences

    def test_generate_dataset_seed_sensitivity(self):
        a = generate_dataset(dataset_config("arts", scale="tiny", seed=1,
                                            num_users=120, num_items=80))
        b = generate_dataset(dataset_config("arts", scale="tiny", seed=2,
                                            num_users=120, num_items=80))
        assert a.interactions.user_sequences != b.interactions.user_sequences

    def test_item_ids_in_range(self, tiny_dataset):
        for sequence in tiny_dataset.interactions.user_sequences.values():
            for item in sequence:
                assert 1 <= item <= tiny_dataset.num_items

    def test_sequence_lengths_respect_minimum(self, tiny_dataset):
        min_len = tiny_dataset.config.min_sequence_length
        for sequence in tiny_dataset.interactions.user_sequences.values():
            assert len(sequence) >= min(min_len, 5)

    def test_item_texts_align_with_catalogue(self, tiny_dataset):
        texts = tiny_dataset.item_texts()
        assert len(texts) == len(tiny_dataset.items)

    def test_load_dataset_shortcut(self):
        dataset = load_dataset("food", scale="tiny", seed=5,
                               num_users=100, num_items=70)
        assert dataset.name == "food"
        assert dataset.interactions.num_users > 0

    def test_category_of_item_mapping(self, tiny_dataset):
        assert set(tiny_dataset.category_of_item) >= set(
            item for seq in tiny_dataset.interactions.user_sequences.values() for item in seq
        )

    def test_style_preference_shapes_interactions(self):
        """With strong style preference, users' items share style tokens more
        often than random item pairs do."""
        config = dataset_config("arts", scale="tiny", seed=13,
                                num_users=150, num_items=120, style_strength=5.0)
        dataset = generate_dataset(config)
        styles = {record.item_id + 1: set(record.style_tokens) for record in dataset.items}

        within_user, random_pairs = [], []
        rng = np.random.default_rng(0)
        items_flat = [i for seq in dataset.interactions.user_sequences.values() for i in seq]
        for sequence in dataset.interactions.user_sequences.values():
            for a, b in zip(sequence, sequence[1:]):
                within_user.append(len(styles[a] & styles[b]) > 0)
        for _ in range(2000):
            a, b = rng.choice(items_flat, size=2)
            random_pairs.append(len(styles[a] & styles[b]) > 0)
        assert np.mean(within_user) > np.mean(random_pairs)

    def test_generated_sequences_match_the_golden_digest(self):
        """Every table is computed on these datasets, so a change to the
        generator's code must leave its output bit-identical.  The digest is
        sha256 over ``json.dumps(sorted(user_sequences.items()))`` of each
        (domain, scale, seed) below, in this order."""
        digest = hashlib.sha256()
        for domain in ("arts", "toys", "tools", "food"):
            for scale in ("tiny", "small"):
                for seed in (0, 2, 3, 7, 42):
                    sequences = generate_dataset(dataset_config(
                        domain, scale=scale, seed=seed)).interactions.user_sequences
                    digest.update(json.dumps(sorted(sequences.items())).encode())
        assert digest.hexdigest() == GOLDEN_SEQUENCES_SHA256


#: see ``test_generated_sequences_match_the_golden_digest``
GOLDEN_SEQUENCES_SHA256 = (
    "bc80ac1e19cbe5bf4a52608b81c070ec761ef7705e8731410f852d6957acb0f0")


class TestStatistics:
    def test_compute_statistics(self):
        stats = compute_statistics(small_table(), name="unit")
        assert stats.num_users == 3
        assert stats.num_interactions == 16
        record = stats.as_dict()
        assert record["dataset"] == "unit"
        assert record["#Inter."] == 16

    def test_dataset_statistics(self, tiny_dataset):
        stats = dataset_statistics(tiny_dataset)
        assert stats.name == tiny_dataset.name
        assert stats.num_users == tiny_dataset.interactions.num_users
        assert stats.avg_sequence_length > 0
        assert stats.avg_item_actions > 0


class TestSplits:
    def test_leave_one_out_structure(self, tiny_split, tiny_dataset):
        table = tiny_dataset.interactions
        assert tiny_split.num_items == table.num_items
        assert len(tiny_split.test) == len(tiny_split.validation)
        for case in tiny_split.test:
            original = table.user_sequences[case.user_id]
            assert case.target == original[-1]
            assert case.history == original[:-1]
        for case in tiny_split.validation:
            original = table.user_sequences[case.user_id]
            assert case.target == original[-2]
            assert case.history == original[:-2]

    def test_leave_one_out_train_excludes_targets(self, tiny_split, tiny_dataset):
        for user, train_sequence in tiny_split.train_sequences.items():
            original = tiny_dataset.interactions.user_sequences[user]
            assert train_sequence == original[:-2]

    def test_leave_one_out_skips_short_sequences(self):
        table = InteractionTable(user_sequences={1: [1, 2], 2: [1, 2, 3, 4]}, num_items=4)
        split = leave_one_out_split(table, min_sequence_length=3)
        assert 1 not in split.train_sequences
        assert 2 in split.train_sequences

    def test_cold_start_targets_are_cold(self, tiny_dataset):
        split = cold_start_split(tiny_dataset.interactions, cold_fraction=0.2, seed=0)
        assert split.cold_items
        for case in split.test:
            assert case.target in split.cold_items
            assert all(item not in split.cold_items for item in case.history)
        train_items = split.train_items()
        assert not (train_items & split.cold_items)

    def test_cold_start_fraction_validation(self, tiny_dataset):
        with pytest.raises(ValueError):
            cold_start_split(tiny_dataset.interactions, cold_fraction=0.0)
        with pytest.raises(ValueError):
            cold_start_split(tiny_dataset.interactions, cold_fraction=1.0)

    def test_cold_start_deterministic(self, tiny_dataset):
        a = cold_start_split(tiny_dataset.interactions, seed=3)
        b = cold_start_split(tiny_dataset.interactions, seed=3)
        assert a.cold_items == b.cold_items

    def test_training_examples_prefix_augmentation(self):
        table = InteractionTable(user_sequences={1: [1, 2, 3, 4, 5]}, num_items=5)
        split = leave_one_out_split(table)
        examples = training_examples(split, max_sequence_length=10, augment_prefixes=True)
        # Train sequence is [1, 2, 3]; prefixes produce 2 examples.
        assert len(examples) == 2
        assert examples[0] == (1, [1], 2)
        assert examples[1] == (1, [1, 2], 3)

    def test_training_examples_without_augmentation(self):
        table = InteractionTable(user_sequences={1: [1, 2, 3, 4, 5]}, num_items=5)
        split = leave_one_out_split(table)
        examples = training_examples(split, augment_prefixes=False)
        assert len(examples) == 1
        assert examples[0] == (1, [1, 2], 3)

    def test_training_examples_respect_max_length(self):
        table = InteractionTable(user_sequences={1: list(range(1, 12))}, num_items=12)
        split = leave_one_out_split(table)
        examples = training_examples(split, max_sequence_length=4)
        assert all(len(history) <= 4 for _, history, _ in examples)


class TestDataloader:
    def test_pad_sequences_left_padding(self):
        item_ids, lengths = pad_sequences([[1, 2], [3, 4, 5, 6]], max_length=4)
        np.testing.assert_array_equal(item_ids[0], [0, 0, 1, 2])
        np.testing.assert_array_equal(item_ids[1], [3, 4, 5, 6])
        np.testing.assert_array_equal(lengths, [2, 4])

    def test_pad_sequences_truncates_from_left(self):
        item_ids, lengths = pad_sequences([[1, 2, 3, 4, 5]], max_length=3)
        np.testing.assert_array_equal(item_ids[0], [3, 4, 5])
        assert lengths[0] == 3

    def test_make_batch(self):
        batch = make_batch([(7, [1, 2], 3), (8, [4], 5)], max_length=3)
        assert len(batch) == 2
        np.testing.assert_array_equal(batch.targets, [3, 5])
        np.testing.assert_array_equal(batch.users, [7, 8])

    def test_dataloader_covers_all_examples(self):
        examples = [(u, [1, 2], 3) for u in range(10)]
        loader = SequenceDataLoader(examples, batch_size=3, max_length=4, seed=0)
        seen = sum(len(batch) for batch in loader)
        assert seen == 10
        assert len(loader) == 4

    def test_dataloader_drop_last(self):
        examples = [(u, [1], 2) for u in range(10)]
        loader = SequenceDataLoader(examples, batch_size=3, max_length=4,
                                    drop_last=True, seed=0)
        assert len(loader) == 3
        assert sum(len(batch) for batch in loader) == 9

    def test_dataloader_shuffles(self):
        examples = [(u, [u + 1], u + 1) for u in range(50)]
        loader = SequenceDataLoader(examples, batch_size=50, max_length=2,
                                    shuffle=True, seed=1)
        batch = next(iter(loader))
        assert not np.array_equal(batch.users, np.arange(50))

    def test_dataloader_rejects_bad_batch_size(self):
        with pytest.raises(ValueError):
            SequenceDataLoader([], batch_size=0)

    def test_dataloader_batches_match_make_batch(self):
        """The pre-padded fast path serves the exact arrays make_batch built."""
        examples = [(u, list(range(1, u + 2)), u + 1) for u in range(7)]
        loader = SequenceDataLoader(examples, batch_size=3, max_length=4,
                                    shuffle=False)
        for start, batch in zip(range(0, 7, 3), loader):
            reference = make_batch(examples[start: start + 3], max_length=4)
            np.testing.assert_array_equal(batch.item_ids, reference.item_ids)
            np.testing.assert_array_equal(batch.lengths, reference.lengths)
            np.testing.assert_array_equal(batch.targets, reference.targets)
            np.testing.assert_array_equal(batch.users, reference.users)

    def test_dataloader_reuses_permutation_buffer(self):
        examples = [(u, [1], 2) for u in range(10)]
        loader = SequenceDataLoader(examples, batch_size=4, max_length=2, seed=3)
        buffer = loader._order
        first = [batch.users.copy() for batch in loader]
        assert loader._order is buffer  # shuffled in place, not re-allocated
        second = [batch.users.copy() for batch in loader]
        # Different epoch order, same example set.
        assert not all(np.array_equal(a, b) for a, b in zip(first, second))
        assert sorted(np.concatenate(first)) == sorted(np.concatenate(second))

    def test_dataloader_drop_last_empty_tail(self):
        """drop_last with an exact multiple must not drop (or add) a batch."""
        examples = [(u, [1], 2) for u in range(9)]
        loader = SequenceDataLoader(examples, batch_size=3, max_length=2,
                                    drop_last=True, seed=0)
        batches = list(loader)
        assert len(batches) == len(loader) == 3
        assert all(len(batch) == 3 for batch in batches)

    def test_dataloader_empty_examples(self):
        loader = SequenceDataLoader([], batch_size=4, max_length=3)
        assert len(loader) == 0
        assert list(loader) == []

    def test_dataloader_concurrent_iterators_see_complete_epochs(self):
        """A second iterator's reshuffle must not corrupt one in flight."""
        examples = [(u, [1], 2) for u in range(10)]
        loader = SequenceDataLoader(examples, batch_size=2, max_length=2, seed=0)
        first = iter(loader)
        seen = [next(first).users]
        second = list(loader)  # reshuffles the persistent buffer mid-epoch
        seen.extend(batch.users for batch in first)
        assert sorted(np.concatenate(seen)) == list(range(10))
        assert sorted(np.concatenate([b.users for b in second])) == list(range(10))

    def test_evaluation_batches(self, tiny_split):
        total = 0
        for batch in evaluation_batches(tiny_split.test, batch_size=32, max_length=10):
            assert batch.item_ids.shape[1] == 10
            total += len(batch)
        assert total == len(tiny_split.test)


class TestSyntheticItemMatrix:
    """The out-of-core item-matrix writer vs the in-RAM reference."""

    def test_memmap_is_bit_identical_to_in_ram(self, tmp_path):
        """Chunked streaming must be invisible: same (seed, shape) in →
        bit-identical bytes out, for any chunk size and for row counts on,
        under, and over the generation-block boundary."""
        dim = 12
        for num_items in (0, 1, 5, ITEM_MATRIX_BLOCK_ROWS,
                          ITEM_MATRIX_BLOCK_ROWS + 1, 20_000):
            reference = synthetic_item_matrix(num_items, dim, seed=9)
            for chunk_rows in (ITEM_MATRIX_BLOCK_ROWS,
                               2 * ITEM_MATRIX_BLOCK_ROWS):
                path = tmp_path / f"m{num_items}_{chunk_rows}.npy"
                synthetic_item_matrix_memmap(path, num_items, dim, seed=9,
                                             chunk_rows=chunk_rows)
                written = np.load(path)
                assert written.dtype == reference.dtype
                assert np.array_equal(written, reference), (
                    f"num_items={num_items} chunk_rows={chunk_rows}")

    def test_row_zero_is_the_padding_item(self):
        matrix = synthetic_item_matrix(50, 8, seed=1)
        assert not matrix[0].any()
        assert matrix[1:].any(axis=1).all()

    def test_deterministic_and_seed_sensitive(self):
        assert np.array_equal(synthetic_item_matrix(40, 6, seed=2),
                              synthetic_item_matrix(40, 6, seed=2))
        assert not np.array_equal(synthetic_item_matrix(40, 6, seed=2),
                                  synthetic_item_matrix(40, 6, seed=3))

    def test_rejects_misaligned_chunk_rows(self, tmp_path):
        with pytest.raises(ValueError):
            synthetic_item_matrix_memmap(tmp_path / "m.npy", 10, 4,
                                         chunk_rows=1000)

    def test_layout_generation_is_shard_servable(self, tmp_path):
        layout = synthetic_item_matrix_layout(tmp_path / "cat", 500, 6, seed=4)
        assert layout.num_rows == 500 and layout.dim == 6
        mapped = layout.matrix()
        assert np.array_equal(np.asarray(mapped),
                              synthetic_item_matrix(500, 6, seed=4))

    @pytest.mark.slow
    @pytest.mark.timeout(600)
    @pytest.mark.skipif(os.environ.get("REPRO_SLOW_TESTS") != "1",
                        reason="heavyweight 1M-item run; set REPRO_SLOW_TESTS=1")
    def test_million_item_run_has_bounded_rss(self, tmp_path):
        """Streaming 1M x 64 float32 (244 MiB on disk) must not pull the
        matrix into RAM: peak RSS stays far below what materialising it
        (blocks + concatenate output, ~500 MiB) would need."""
        import subprocess
        import sys

        script = (
            "import resource, sys\n"
            "from repro.data.synthetic import synthetic_item_matrix_memmap\n"
            "synthetic_item_matrix_memmap(sys.argv[1], 1_000_000, 64)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "million.npy")],
            capture_output=True, text=True, check=True)
        peak_kib = int(completed.stdout.strip().splitlines()[-1])
        mapped = np.load(tmp_path / "million.npy", mmap_mode="r")
        assert mapped.shape == (1_000_000, 64)
        assert peak_kib * 1024 < 400 * 1024 ** 2, (
            f"peak RSS {peak_kib} KiB — the writer is materialising the "
            f"matrix instead of streaming it")


@settings(max_examples=25, deadline=None)
@given(
    lengths=st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=8),
    max_length=st.integers(min_value=1, max_value=10),
)
def test_property_padding_preserves_suffix(lengths, max_length):
    """Left padding always preserves the most recent items of each history."""
    histories = [list(range(1, n + 1)) for n in lengths]
    item_ids, out_lengths = pad_sequences(histories, max_length)
    for row, history in enumerate(histories):
        expected = history[-max_length:]
        assert out_lengths[row] == len(expected)
        if expected:
            np.testing.assert_array_equal(item_ids[row, max_length - len(expected):], expected)
        np.testing.assert_array_equal(
            item_ids[row, : max_length - len(expected)],
            np.zeros(max_length - len(expected), dtype=np.int64),
        )
