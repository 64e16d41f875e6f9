"""Batching utilities: left-padded sequence batches for the Transformer models."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from .interactions import PADDING_ITEM
from .splits import EvaluationCase


@dataclass
class SequenceBatch:
    """A padded batch of user histories.

    Attributes
    ----------
    item_ids:
        ``(batch, max_len)`` int array of item ids, left-padded with 0.
    lengths:
        True history length of each row.
    targets:
        Ground-truth next item of each row (0 when unknown).
    users:
        User ids (informational; models do not use them).
    """

    item_ids: np.ndarray
    lengths: np.ndarray
    targets: np.ndarray
    users: np.ndarray

    def __len__(self) -> int:
        return self.item_ids.shape[0]


def pad_sequences(histories: Sequence[Sequence[int]], max_length: int) -> Tuple[np.ndarray, np.ndarray]:
    """Left-pad histories to ``max_length`` (truncating from the left)."""
    batch = len(histories)
    item_ids = np.full((batch, max_length), PADDING_ITEM, dtype=np.int64)
    lengths = np.zeros(batch, dtype=np.int64)
    for row, history in enumerate(histories):
        trimmed = list(history)[-max_length:]
        lengths[row] = len(trimmed)
        if trimmed:
            item_ids[row, max_length - len(trimmed):] = trimmed
    return item_ids, lengths


def make_batch(examples: Sequence[Tuple[int, List[int], int]],
               max_length: int) -> SequenceBatch:
    """Build a :class:`SequenceBatch` from (user, history, target) triples."""
    users = np.asarray([user for user, _, _ in examples], dtype=np.int64)
    targets = np.asarray([target for _, _, target in examples], dtype=np.int64)
    item_ids, lengths = pad_sequences([history for _, history, _ in examples], max_length)
    return SequenceBatch(item_ids=item_ids, lengths=lengths, targets=targets, users=users)


class SequenceDataLoader:
    """Iterates over training examples in shuffled mini-batches.

    The loader is fully pre-tensorised: every example is left-padded into one
    ``(n, max_length)`` int64 matrix (plus aligned ``lengths`` / ``targets`` /
    ``users`` vectors) **once at construction**, and each epoch serves batches
    by fancy-indexing a shuffled permutation.  The per-epoch python loop over
    examples (``make_batch`` / ``pad_sequences`` per batch) that the seed
    implementation paid is gone, and the permutation buffer is allocated once
    and shuffled in place, so iterating allocates only the batch views.
    """

    def __init__(self, examples: Sequence[Tuple[int, List[int], int]],
                 batch_size: int = 256, max_length: int = 50,
                 shuffle: bool = True, seed: int = 0,
                 drop_last: bool = False):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.examples = list(examples)
        self.batch_size = batch_size
        self.max_length = max_length
        self.shuffle = shuffle
        self.drop_last = drop_last
        self._rng = np.random.default_rng(seed)
        self._users = np.asarray([user for user, _, _ in self.examples],
                                 dtype=np.int64)
        self._targets = np.asarray([target for _, _, target in self.examples],
                                   dtype=np.int64)
        self._item_ids, self._lengths = pad_sequences(
            [history for _, history, _ in self.examples], max_length
        )
        self._order = np.arange(len(self.examples))

    def __len__(self) -> int:
        full, remainder = divmod(len(self.examples), self.batch_size)
        if remainder and not self.drop_last:
            return full + 1
        return full

    def __iter__(self) -> Iterator[SequenceBatch]:
        if self.shuffle:
            self._rng.shuffle(self._order)
        # Iterate over a snapshot so a second iterator (which reshuffles the
        # persistent buffer) cannot corrupt an epoch already in flight.
        order = self._order.copy()
        for start in range(0, len(order), self.batch_size):
            index = order[start: start + self.batch_size]
            if self.drop_last and len(index) < self.batch_size:
                break
            yield SequenceBatch(
                item_ids=self._item_ids[index],
                lengths=self._lengths[index],
                targets=self._targets[index],
                users=self._users[index],
            )


def evaluation_batches(cases: Sequence[EvaluationCase], batch_size: int,
                       max_length: int) -> Iterator[SequenceBatch]:
    """Yield padded batches over evaluation cases (no shuffling)."""
    for start in range(0, len(cases), batch_size):
        chunk = cases[start: start + batch_size]
        examples = [(case.user_id, case.history, case.target) for case in chunk]
        yield make_batch(examples, max_length)
