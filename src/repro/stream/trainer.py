"""Background incremental fine-tuning against the interaction log.

:class:`IncrementalTrainer` closes the gap between the batch
:class:`repro.training.Trainer` and the serving loop: it consumes *new*
events from an :class:`~repro.stream.log.InteractionLog` in micro-epochs,
updating a **private deep-copied working model** with
:class:`repro.nn.optim.Adam`, which steps in place.

The deep copy is load-bearing, not defensive style: Adam mutates
``param.data`` through ``out=`` ufuncs, so a parameter array keeps its
identity across every step.  If the trainer shared arrays with the
serving model, every micro-epoch would mutate live deployments mid-request
— the torn-serving hazard.  The working model is therefore rebuilt from a
:meth:`Checkpoint.snapshot <repro.models.checkpoint.Checkpoint.snapshot>`
(detached C-contiguous copies) at construction, and every published
snapshot is detached again on the way out; ``save_checkpoint`` asserts both.

Offset discipline gives at-least-once semantics: a micro-epoch reads from
the last *committed* offset, applies its events, and only then commits the
new offset (fsync'd).  A crash between applying and committing replays the
tail — idempotent enough for SGD, and never silently skipped.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..data.dataloader import make_batch
from ..models.checkpoint import Checkpoint, load_model
from ..nn.optim import Adam, clip_grad_norm
from .log import InteractionLog, StreamEvent

__all__ = ["IncrementalTrainer", "MicroEpochReport", "clone_model"]


def clone_model(model, feature_table: Optional[np.ndarray] = None,
                train_sequences: Optional[Dict[int, List[int]]] = None):
    """An independent working copy of ``model`` sharing no parameter memory.

    Round-trips through :meth:`Checkpoint.snapshot` + :func:`load_model`
    rather than ``copy.deepcopy``: the snapshot path guarantees detached
    arrays *and* rebuilds under the model's recorded substrate dtype, while
    a deepcopy of live autograd tensors could drag closure-held graph state
    (and its aliases) along.  Text models need their ``feature_table``.
    """
    checkpoint = Checkpoint.snapshot(model, feature_table=feature_table)
    return load_model(checkpoint, feature_table=feature_table,
                      train_sequences=train_sequences)


@dataclass
class MicroEpochReport:
    """What one micro-epoch consumed and did."""

    start_offset: int
    end_offset: int
    events: int
    examples: int
    passes: int
    loss: float
    seconds: float
    #: seconds between the newest applied event's timestamp and apply time
    ingest_lag_s: Optional[float] = None
    users_touched: List[int] = field(default_factory=list)


class IncrementalTrainer:
    """Consume log events in micro-epochs against a private working model.

    Parameters
    ----------
    model:
        The source model to fine-tune (typically the currently served one).
        The trainer *never* trains this object: it works on a deep-copied
        clone (see :func:`clone_model`).
    log:
        The interaction log to consume.
    feature_table:
        Required for text-feature models (clone reconstruction).
    train_sequences:
        Seed user histories: each user's logged events extend the history
        they ended training with, so micro-epoch examples carry real
        context instead of starting cold.
    consumer:
        The log commit-offset name this trainer advances.
    learning_rate / weight_decay / batch_size / max_sequence_length /
    grad_clip_norm:
        The in-place Adam configuration for micro-epochs;
        ``max_sequence_length`` defaults to the model's own
        ``max_seq_length`` limit.
    metrics:
        Optional :class:`repro.observability.MetricsRegistry`; exports
        ``repro_stream_events_behind``, ``repro_stream_ingest_lag_seconds``
        and ``repro_stream_events_applied_total``.
    """

    def __init__(self, model, log: InteractionLog, *,
                 feature_table: Optional[np.ndarray] = None,
                 train_sequences: Optional[Dict[int, List[int]]] = None,
                 consumer: str = "trainer",
                 learning_rate: float = 1e-3,
                 weight_decay: float = 0.0,
                 batch_size: int = 64,
                 max_sequence_length: Optional[int] = None,
                 grad_clip_norm: Optional[float] = 5.0,
                 seed: int = 0,
                 metrics=None):
        self.log = log
        self.consumer = consumer
        self.feature_table = feature_table
        self.model = clone_model(model, feature_table=feature_table,
                                 train_sequences=train_sequences)
        self.optimizer = Adam(self.model.parameters(), lr=learning_rate,
                              weight_decay=weight_decay)
        self.batch_size = int(batch_size)
        if max_sequence_length is None:
            # Histories longer than the model's positional range would be
            # rejected at encode time; inherit its limit by default.
            max_sequence_length = getattr(self.model, "max_seq_length", 20)
        self.max_sequence_length = int(max_sequence_length)
        self.grad_clip_norm = grad_clip_norm
        self.histories: Dict[int, List[int]] = {
            int(user): list(sequence)
            for user, sequence in (train_sequences or {}).items()
        }
        self._rng = random.Random(seed)
        self._offset = log.committed(consumer)
        self.micro_epochs = 0
        self.events_applied = 0
        self.metrics = metrics
        self._gauge_behind = None
        self._gauge_lag = None
        self._counter_applied = None
        if metrics is not None:
            self._gauge_behind = metrics.gauge(
                "repro_stream_events_behind",
                "Events appended to the interaction log but not yet "
                "applied by this trainer.",
                labelnames=("consumer",)).labels(consumer=consumer)
            self._gauge_lag = metrics.gauge(
                "repro_stream_ingest_lag_seconds",
                "Age of the newest event applied by the last micro-epoch "
                "at the moment it was applied.",
                labelnames=("consumer",)).labels(consumer=consumer)
            self._counter_applied = metrics.counter(
                "repro_stream_events_applied_total",
                "Events consumed from the interaction log by micro-epochs.",
                labelnames=("consumer",)).labels(consumer=consumer)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def offset(self) -> int:
        """The next log offset this trainer will consume."""
        return self._offset

    @property
    def events_behind(self) -> int:
        """How far the working model trails the log head."""
        behind = self.log.end_offset - self._offset
        if self._gauge_behind is not None:
            self._gauge_behind.set(behind)
        return behind

    # ------------------------------------------------------------------ #
    # Micro-epochs
    # ------------------------------------------------------------------ #
    def _examples_from(self, events: List[StreamEvent]
                       ) -> List[Tuple[int, List[int], int]]:
        """(user, history, target) triples: each event is the next-item
        target of the history accumulated *before* it, then extends it."""
        examples: List[Tuple[int, List[int], int]] = []
        num_items = self.model.num_items
        for event in events:
            if not 1 <= event.item_id <= num_items:
                continue  # an item the current model cannot score yet
            history = self.histories.setdefault(int(event.user_id), [])
            if history:
                examples.append((int(event.user_id),
                                 list(history[-self.max_sequence_length:]),
                                 int(event.item_id)))
            history.append(int(event.item_id))
        return examples

    def micro_epoch(self, max_events: Optional[int] = None,
                    passes: int = 1) -> MicroEpochReport:
        """Consume pending events, take optimiser steps, commit the offset.

        ``passes`` repeats the freshly formed examples (a hot item observed
        once per pass) — the micro-scale analogue of epochs, useful when a
        publish cycle must absorb a small burst decisively.  Returns a
        report even when there was nothing to consume.
        """
        if passes < 1:
            raise ValueError(f"passes must be >= 1, got {passes}")
        started = time.perf_counter()
        start_offset = self._offset
        events = list(self.log.read(start_offset, max_events=max_events))
        examples = self._examples_from(events)
        total_loss = 0.0
        total_rows = 0
        if examples:
            self.model.train()
            for _ in range(passes):
                order = list(examples)
                self._rng.shuffle(order)
                for begin in range(0, len(order), self.batch_size):
                    chunk = order[begin:begin + self.batch_size]
                    batch = make_batch(chunk, self.max_sequence_length)
                    self.optimizer.zero_grad()
                    loss = self.model.loss(batch)
                    loss.backward()
                    if self.grad_clip_norm is not None:
                        clip_grad_norm(self.model.parameters(),
                                       self.grad_clip_norm)
                    self.optimizer.step()
                    total_loss += float(loss.item()) * len(chunk)
                    total_rows += len(chunk)
            self.model.eval()
        new_offset = events[-1].offset + 1 if events else start_offset
        if new_offset != start_offset:
            # Commit strictly after the updates applied: a crash inside the
            # loop replays this tail (at-least-once), never skips it.
            self.log.commit(self.consumer, new_offset)
            self._offset = new_offset
        self.micro_epochs += 1
        self.events_applied += len(events)
        lag = (time.time() - events[-1].timestamp) if events else None
        if self._counter_applied is not None and events:
            self._counter_applied.inc(len(events))
        if self._gauge_lag is not None and lag is not None:
            self._gauge_lag.set(max(lag, 0.0))
        self.events_behind  # refresh the gauge
        return MicroEpochReport(
            start_offset=start_offset,
            end_offset=new_offset,
            events=len(events),
            examples=len(examples),
            passes=passes if examples else 0,
            loss=(total_loss / total_rows) if total_rows else 0.0,
            seconds=time.perf_counter() - started,
            ingest_lag_s=lag,
            users_touched=sorted({event.user_id for event in events}),
        )

    def run_until_caught_up(self, max_events_per_epoch: int = 4096,
                            passes: int = 1) -> List[MicroEpochReport]:
        """Micro-epochs until the log head is reached (the daemon's loop
        body between publishes)."""
        reports: List[MicroEpochReport] = []
        while self.events_behind > 0:
            reports.append(self.micro_epoch(max_events=max_events_per_epoch,
                                            passes=passes))
        return reports

    # ------------------------------------------------------------------ #
    # Snapshots for publishing
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Checkpoint:
        """A detached checkpoint of the working model (see
        :meth:`Checkpoint.snapshot`): safe to serve or write while this
        trainer keeps stepping in place."""
        return Checkpoint.snapshot(self.model,
                                   feature_table=self.feature_table)
