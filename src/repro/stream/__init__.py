"""Online learning: streaming ingestion → incremental training → publish.

The closed loop that keeps served recommendations fresh (ROADMAP item 3):

* :class:`InteractionLog` — crash-safe, seekable, append-only event log
  with fsync'd per-consumer commit offsets (ingest);
* :class:`IncrementalTrainer` — micro-epochs over new events with the
  in-place fused optimisers, against a deep-copied working model that
  never aliases serving tensors (train);
* :class:`OnlineWhitener` — the paper's whitening statistics maintained by
  batched rank-k updates, with a drift threshold for exact refits (a
  stand-alone tool: the loop below does not call it);
* :class:`Publisher` — detached checkpoint, atomic
  :meth:`ModelRegistry.reload` hot-swap, warm-up of the new deployment,
  and cache coherence through the single generation-stamp mechanism of
  :mod:`repro.serving.generations` (publish).

Driven by ``repro stream`` on the CLI and measured by the ``swap_bulk``
workload of ``e2e_bench`` (event→visible freshness, swap pause, serving
parity beside a concurrent writer).
"""

from .log import InteractionLog, StreamEvent
from .publish import Publisher, PublishReport
from .trainer import IncrementalTrainer, MicroEpochReport, clone_model
from .whitening_online import OnlineWhitener

__all__ = [
    "IncrementalTrainer",
    "InteractionLog",
    "MicroEpochReport",
    "OnlineWhitener",
    "Publisher",
    "PublishReport",
    "StreamEvent",
    "clone_model",
]
