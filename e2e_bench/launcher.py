"""The server process: builds the deployment from the seed, serves it over
HTTP and takes harness commands as JSON lines on stdin.

Everything is constructed with constructor defaults (no tuned knobs,
``shards=1``): ``RecommenderService()``, ``ServiceHTTPServer``,
``InteractionLog``, ``IncrementalTrainer`` and ``Publisher``.  The first
stdout line is ``{"port": ..., "num_items": ..., "timings": ...}``; every
command is answered by exactly one JSON line.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from . import K
from .inputs import sub_rng
from .stats import now, rss_peak_mb
from .workloads import WRITER_EVENTS, Scenario, build_scenario

DEPLOYMENT = "bench"
#: the writer gives up waiting for a published version after this long
VISIBLE_TIMEOUT_S = 60.0


class Writer:
    """Ingest -> train -> publish cycles on a fixed schedule, beside reads.

    Each cycle appends ``WRITER_EVENTS`` events, runs the incremental
    trainer until caught up, publishes, then polls ``service.recommend``
    until a response carries the new version.  A cycle that overruns its
    period starts the next one late (counted), it never skips one.
    """

    def __init__(self, scenario: Scenario, service, workdir: Path, seed: int):
        from repro.stream import IncrementalTrainer, InteractionLog, Publisher

        self.service = service
        self.scenario = scenario
        self.rng = sub_rng(seed, "writer-events")
        self.users = sorted(scenario.split.train_sequences)
        self.log = InteractionLog(workdir / "log")
        self.trainer = IncrementalTrainer(
            scenario.model, self.log, feature_table=scenario.features,
            train_sequences=scenario.split.train_sequences)
        self.publisher = Publisher(service.registry, workdir / "checkpoints",
                                   service=service)
        self.cycles: List[Dict[str, Any]] = []
        self.last_checkpoint: Optional[str] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self, period_s: float) -> None:
        self._stop.clear()
        self.cycles = []
        self._thread = threading.Thread(
            target=self._run, args=(period_s,), daemon=True)
        self._thread.start()

    def stop(self) -> List[Dict[str, Any]]:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        return self.cycles

    def _run(self, period_s: float) -> None:
        start = now()
        probe = {"history": [1, 2, 3], "k": K}
        for cycle in itertools.count():
            due = start + cycle * period_s
            wait = due - now()
            if wait > 0 and self._stop.wait(wait):
                return
            if self._stop.is_set():
                return
            record: Dict[str, Any] = {"due": due, "late_s": max(0.0, -wait)}
            events = [(self.rng.choice(self.users),
                       self.rng.randint(1, self.scenario.num_items),
                       time.time()) for _ in range(WRITER_EVENTS)]
            begin = now()
            self.log.append_many(events)
            record["append_s"] = now() - begin
            begin = now()
            self.trainer.run_until_caught_up()
            record["train_s"] = now() - begin
            record["publish_begin"] = now()
            report = self.publisher.publish(self.trainer, DEPLOYMENT)
            record["publish_end"] = now()
            record.update(version=report.version, save_ms=report.save_ms,
                          reload_ms=report.reload_ms, warm_ms=report.warm_ms)
            self.last_checkpoint = report.checkpoint_path
            deadline = now() + VISIBLE_TIMEOUT_S
            while True:
                response = self.service.recommend(probe)
                if response.deployment_version >= report.version:
                    break
                if now() > deadline:
                    record["error"] = "published version never became visible"
                    self.cycles.append(record)
                    return
            record["visible"] = now()
            self.cycles.append(record)

    def close(self) -> None:
        self.stop()
        self.log.close()


def reference_mismatches(scenario: Scenario, histories: List[List[int]],
                         items: List[List[int]], scores: List[List[float]],
                         tolerance: float = 1e-5) -> int:
    """Rows of a served sample that disagree with the brute-force reference
    (``model.encode_sequences`` -> dense matmul -> ``full_sort_topk``).

    A row agrees when its scores match the reference's rank by rank within
    ``tolerance`` and every served id is either the reference's id at that
    rank or an item whose reference score ties with it within ``tolerance``
    (one dense GEMM and the blocked serving GEMMs may order such a pair
    differently; anything else is a wrong answer).
    """
    import numpy as np

    from repro.data import pad_sequences
    from repro.serving import full_sort_topk

    model = scenario.model
    matrix = model.inference_item_matrix()
    window = model.max_seq_length
    item_ids, lengths = pad_sequences(
        [history[-window:] for history in histories], window)
    users = model.encode_sequences(item_ids, lengths, item_matrix=matrix)
    dense = users.astype(np.float32) @ matrix.astype(np.float32).T
    dense[:, 0] = -np.inf
    for row, history in enumerate(histories):
        dense[row, history] = -np.inf
    expected_ids, expected = full_sort_topk(dense, K)
    mismatches = 0
    for row in range(len(histories)):
        served_ids = np.asarray(items[row], dtype=np.int64)
        served = np.asarray(scores[row], dtype=np.float32)
        bound = tolerance * np.maximum(1.0, np.abs(expected[row]))
        agree = (served_ids.shape == expected_ids[row].shape
                 and np.all(np.abs(served - expected[row]) <= bound)
                 and np.all((served_ids == expected_ids[row])
                            | (np.abs(dense[row, served_ids] - expected[row])
                               <= bound)))
        mismatches += 0 if agree else 1
    return mismatches


def swap_parity(service, checkpoint: str, histories: List[List[int]]) -> bool:
    """After the last swap the served top-k must be bit-identical to a
    fresh ``Deployment.from_checkpoint`` of what was published."""
    import numpy as np

    from repro.service import Deployment

    served = service.registry.get(DEPLOYMENT).recommender.topk(histories, k=K)
    reference = Deployment.from_checkpoint("reference", checkpoint)
    try:
        expected = reference.recommender.topk(histories, k=K)
    finally:
        reference.close()
    return bool(np.array_equal(served.items, expected.items)
                and np.array_equal(served.scores, expected.scores))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--writer", action="store_true",
                        help="build the stream stack at boot (swap_bulk)")
    args = parser.parse_args(argv)

    from repro.service import (Deployment, RecommenderService,
                               ServiceHTTPServer)
    from repro.serving import EmbeddingStore, Recommender, ServingConfig

    scenario = build_scenario(args.scenario, args.seed)
    recommender = Recommender(
        scenario.model, store=EmbeddingStore(scenario.features),
        train_sequences=scenario.split.train_sequences)
    service = RecommenderService()
    service.deploy(Deployment(DEPLOYMENT, recommender,
                              config=ServingConfig(k=K)))
    writer = (Writer(scenario, service, args.workdir, args.seed)
              if args.writer else None)
    server = ServiceHTTPServer(service, port=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()

    def reply(payload: Dict[str, Any]) -> None:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()

    reply({"port": server.port, "num_items": scenario.num_items,
           "timings": scenario.timings})
    try:
        for line in sys.stdin:
            command = json.loads(line)
            verb = command["cmd"]
            if verb == "shutdown":
                break
            if verb == "writer_start":
                if writer is None:
                    writer = Writer(scenario, service, args.workdir,
                                    args.seed)
                writer.start(command["period_s"])
                reply({"ok": True})
            elif verb == "writer_stop":
                reply({"cycles": writer.stop()})
            elif verb == "reference":
                reply({"mismatches": reference_mismatches(
                    scenario, command["histories"], command["items"],
                    command["scores"])})
            elif verb == "parity":
                reply({"identical": swap_parity(
                    service, writer.last_checkpoint, command["histories"])})
            elif verb == "stats":
                reply({"rss_peak_mb": rss_peak_mb(os.getpid())})
            elif verb == "ladder":
                from .ladder import run_ladder

                reply(run_ladder(scenario, service, command["histories"],
                                 args.workdir, args.seed,
                                 command["training"]))
            else:
                reply({"error": f"unknown command {verb!r}"})
    finally:
        if writer is not None:
            writer.close()
        server.shutdown()
        server.server_close()
        service.close()
        service.registry.close_all()
    return 0


if __name__ == "__main__":
    sys.exit(main())
