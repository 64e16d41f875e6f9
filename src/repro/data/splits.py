"""Train/validation/test splitting: leave-one-out and cold-start protocols.

Warm-start (Sec. V-A3): for each user the last item is the test target, the
second-to-last is the validation target and the rest form the training
sequence — the standard leave-one-out protocol.

Cold-start (Sec. V-A3, following [54]): 15% of items are selected at random,
all their interactions are removed from the *training* data, and sequences
whose held-out target is one of those cold items form the validation and test
sets.  Models therefore have to generalise to items never seen in training,
which is only possible for text-based item representations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

import numpy as np

from .interactions import InteractionTable


@dataclass
class EvaluationCase:
    """One ranking-evaluation case: a history and the ground-truth next item."""

    user_id: int
    history: List[int]
    target: int


@dataclass
class DatasetSplit:
    """A complete split of an interaction table.

    Attributes
    ----------
    train_sequences:
        Per-user training sequences (targets removed).
    validation / test:
        Evaluation cases.
    num_items:
        Catalogue size (shared with the source table).
    cold_items:
        Items held out of training in the cold-start protocol (empty for the
        warm-start split).
    """

    train_sequences: Dict[int, List[int]]
    validation: List[EvaluationCase]
    test: List[EvaluationCase]
    num_items: int
    cold_items: Set[int] = field(default_factory=set)

    @property
    def num_users(self) -> int:
        return len(self.train_sequences)

    def train_items(self) -> Set[int]:
        """Items that occur in at least one training sequence."""
        items: Set[int] = set()
        for sequence in self.train_sequences.values():
            items.update(sequence)
        return items


def leave_one_out_split(table: InteractionTable,
                        min_sequence_length: int = 3) -> DatasetSplit:
    """Standard leave-one-out split (warm-start setting)."""
    train: Dict[int, List[int]] = {}
    validation: List[EvaluationCase] = []
    test: List[EvaluationCase] = []
    for user, sequence in table.user_sequences.items():
        if len(sequence) < min_sequence_length:
            continue
        train_part = sequence[:-2]
        valid_target = sequence[-2]
        test_target = sequence[-1]
        train[user] = list(train_part)
        validation.append(EvaluationCase(user, list(train_part), valid_target))
        test.append(EvaluationCase(user, list(sequence[:-1]), test_target))
    return DatasetSplit(
        train_sequences=train,
        validation=validation,
        test=test,
        num_items=table.num_items,
    )


def cold_start_split(table: InteractionTable, cold_fraction: float = 0.15,
                     seed: int = 0, min_sequence_length: int = 3) -> DatasetSplit:
    """Cold-start split: hold out ``cold_fraction`` of items from training.

    Following the paper (and [54]): a random subset of items is selected and
    every interaction with those items is removed from the training data.
    Users whose *last* (or second-to-last) interaction is a cold item become
    test (validation) cases; their histories are pruned of other cold items
    so the model never conditions on them either.
    """
    if not 0.0 < cold_fraction < 1.0:
        raise ValueError("cold_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    active_items = table.active_items()
    num_cold = max(1, int(round(cold_fraction * len(active_items))))
    cold_items = set(
        int(item) for item in rng.choice(active_items, size=num_cold, replace=False)
    )

    train: Dict[int, List[int]] = {}
    validation: List[EvaluationCase] = []
    test: List[EvaluationCase] = []

    for user, sequence in table.user_sequences.items():
        if len(sequence) < min_sequence_length:
            continue
        warm_prefix = [item for item in sequence[:-2] if item not in cold_items]
        valid_target = sequence[-2]
        test_target = sequence[-1]

        if warm_prefix:
            train[user] = warm_prefix

        # Only sequences that target a cold item are evaluation cases, since
        # the split is designed to probe generalisation to unseen items.
        if valid_target in cold_items and warm_prefix:
            validation.append(EvaluationCase(user, list(warm_prefix), valid_target))
        if test_target in cold_items:
            history = [item for item in sequence[:-1] if item not in cold_items]
            if history:
                test.append(EvaluationCase(user, history, test_target))

    return DatasetSplit(
        train_sequences=train,
        validation=validation,
        test=test,
        num_items=table.num_items,
        cold_items=cold_items,
    )


def training_examples(split: DatasetSplit, max_sequence_length: int = 50,
                      augment_prefixes: bool = True
                      ) -> List[Tuple[int, List[int], int]]:
    """Expand training sequences into (user, history, target) training examples.

    With ``augment_prefixes`` (the RecBole/SASRec convention) every prefix of
    each training sequence becomes one example, which substantially increases
    the number of gradient signals for short-sequence datasets.
    """
    examples: List[Tuple[int, List[int], int]] = []
    for user, sequence in split.train_sequences.items():
        if len(sequence) < 2:
            continue
        if augment_prefixes:
            positions = range(1, len(sequence))
        else:
            positions = [len(sequence) - 1]
        for cut in positions:
            history = sequence[max(0, cut - max_sequence_length): cut]
            examples.append((user, history, sequence[cut]))
    return examples
