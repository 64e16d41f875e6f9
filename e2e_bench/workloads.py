"""The four workloads and the scenarios (catalogue + model) they run on.

Each workload is one process pair and one seed.  Why each was chosen is
recorded in the comment next to its definition and in ``BENCHMARK.json``
(:attr:`Workload.why` reads it from there).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Tuple

from .inputs import RequestStream, sub_rng
from .metrics import RUN_SECONDS, WHY

#: Every serving run is an open-loop fixed-rate phase (the latency metrics)
#: followed by a closed-loop capacity phase (the throughput metric); the
#: two add up to the run length ``BENCHMARK.json`` fixes.
CAPACITY_S = 4.0
FIXED_S = RUN_SECONDS - CAPACITY_S


@dataclass(frozen=True)
class Workload:
    name: str
    #: which catalogue + model the server (or trainer) builds
    scenario: str
    #: single-history requests or 16-history bulk envelopes
    envelope: int = 1
    #: arrivals per second of the fixed-rate phase (requests or envelopes)
    rate: float = 15.0
    #: run the ingest -> train -> publish writer beside the reads
    writer: bool = False
    #: offline training job instead of a server
    offline: bool = False
    #: what the traced run must find for the workloads to separate the
    #: layers (it flags a run outside these ranges): the score stage's
    #: share of ``stages_ms.total``, and rows per batch
    score_share: Tuple[float, float] = (0.0, 1.0)
    batch_rows: Tuple[float, float] = (1.0, float("inf"))

    @property
    def why(self) -> str:
        return WHY[self.name]


WORKLOADS: Dict[str, Workload] = {workload.name: workload for workload in (
    # The scan is ~0.3 of ~3.5 ms service time at 400 items, so the HTTP
    # edge, the batcher's wait window and encode do nearly all the work:
    # an edge fix, idle-aware flush or encode-plan change must show here.
    Workload("http_small", scenario="small",
             score_share=(0.0, 0.15), batch_rows=(1.0, 2.0)),
    # Score + merge is most of the service time at 100 000 items, so a
    # retrieval-pipeline, codec or scan-kernel change must show here — and
    # is predicted not to move http_small.
    Workload("http_large", scenario="large",
             score_share=(0.40, 1.0), batch_rows=(1.0, 2.0)),
    # Same layers used differently: bursts of 16 must coalesce in the
    # batcher (the only workload where batches > 2 form), and the writer
    # shares the server's GIL and lapses its caches through the generation
    # clock while reads are in flight.
    Workload("swap_bulk", scenario="small", envelope=16, rate=11.0,
             writer=True, batch_rows=(8.0, float("inf"))),
    # Offline users reproduce tables: nn, models, data, training and
    # whitening do all the work here and none of it on the serving
    # workloads.
    Workload("train_eval", scenario="train", offline=True),
)}

#: events appended per writer cycle, and the cycle period
WRITER_EVENTS = 64
WRITER_PERIOD_S = 0.25
#: users of the synthetic interaction table behind the large catalogue
LARGE_TRAIN_USERS = 128
LARGE_ITEMS = 100_000


@dataclass
class Scenario:
    """What a launcher or training job works on, built from the seed with
    the program's public API only."""

    name: str
    num_items: int
    features: Any
    model: Any
    split: Any
    #: wall-clock of the build steps, for the per-layer setup metrics
    timings: Dict[str, float]


def build_scenario(name: str, seed: int) -> Scenario:
    """Build catalogue, features, split and an untrained WhitenRec (d=32,
    2 layers, 2 heads, window 20).  Untrained on purpose for serving: the
    scoring work does not depend on the weights' values."""
    from repro import nn
    from repro.data import InteractionTable, leave_one_out_split, load_dataset
    from repro.data.synthetic import synthetic_item_matrix
    from repro.models import ModelConfig, build_model
    from repro.text import encode_items

    timings: Dict[str, float] = {}
    started = time.perf_counter()
    if name == "large":
        features = synthetic_item_matrix(LARGE_ITEMS + 1, 32, seed)
        num_items = LARGE_ITEMS
        stream = RequestStream(num_items, sub_rng(seed, "large-interactions"),
                               users=LARGE_TRAIN_USERS)
        table = InteractionTable(
            user_sequences={user + 1: history for user, history
                            in enumerate(stream.slots)},
            num_items=num_items)
        timings["data.generate_s"] = time.perf_counter() - started
    else:
        dataset = load_dataset("arts", scale="tiny" if name == "small"
                               else "small", seed=seed)
        timings["data.generate_s"] = time.perf_counter() - started
        started = time.perf_counter()
        features = encode_items(dataset.items, embedding_dim=32, seed=seed)
        timings["text.encode_items_per_s"] = (
            dataset.num_items / (time.perf_counter() - started))
        num_items = dataset.num_items
        table = dataset.interactions
    split = leave_one_out_split(table)
    config = ModelConfig(hidden_dim=32, num_layers=2, num_heads=2,
                         dropout=0.1, max_seq_length=20, seed=seed)
    started = time.perf_counter()
    if name == "train":
        with nn.autocast("float32"):
            model = build_model("whitenrec", num_items,
                                feature_table=features, config=config)
    else:
        model = build_model("whitenrec", num_items, feature_table=features,
                            config=config)
    timings["models.build_ms"] = (time.perf_counter() - started) * 1000.0
    return Scenario(name=name, num_items=num_items, features=features,
                    model=model, split=split, timings=timings)
