"""Command-line interface for the reproduction.

Examples
--------
List every reproducible experiment (paper table/figure)::

    python -m repro list

Regenerate one experiment and save its result as JSON::

    python -m repro run tab1 --scale bench --output results/

Show the statistics of a synthetic dataset (Table II row)::

    python -m repro stats arts --scale tiny

Inspect the anisotropy of the pre-trained text embeddings (Fig. 2 summary)::

    python -m repro anisotropy arts

Train (or load) a model and serve batched top-K recommendations (one-shot
demo)::

    python -m repro serve arts --epochs 2 --k 10 --save-checkpoint runs/arts.npz
    python -m repro serve arts --checkpoint runs/arts.npz --backend ivf

Run the persistent multi-model server — named deployments, dynamic
micro-batching, JSONL-over-stdio or HTTP::

    python -m repro serve --deployment arts=runs/arts.npz \
                          --deployment food=runs/food.npz --loop
    python -m repro serve --deployment arts=runs/arts.npz --http 8765 --verbose

Build an ANN index over the whitened item embeddings (or over a checkpoint's
candidate item matrix) and save it for a retrieval process::

    python -m repro index build arts --kind ivf --output runs/arts_index.npz
    python -m repro index build arts --checkpoint runs/arts.npz --kind ivf
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from .analysis.anisotropy import analyze_embeddings
from .analysis.plots import sparkline
from .analysis.reporting import format_table
from .data.statistics import dataset_statistics
from .data.synthetic import available_presets, load_dataset
from .experiments.persistence import save_result
from .experiments.registry import get_experiment, list_experiments
from .text.features import encode_items, strip_padding_row


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Are ID Embeddings Necessary?' (ICDE 2024)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list all reproducible tables/figures")

    run_parser = subparsers.add_parser("run", help="run one experiment by id")
    run_parser.add_argument("experiment_id", help="e.g. tab1, fig5, tab6")
    run_parser.add_argument("--scale", default="bench", choices=["bench", "full"],
                            help="experiment scale (default: bench)")
    run_parser.add_argument("--output", default=None,
                            help="directory to write <experiment_id>.json into")

    stats_parser = subparsers.add_parser("stats", help="show synthetic dataset statistics")
    stats_parser.add_argument("dataset", choices=available_presets())
    stats_parser.add_argument("--scale", default="tiny",
                              choices=["tiny", "small", "paper"])
    stats_parser.add_argument("--seed", type=int, default=42)

    aniso_parser = subparsers.add_parser(
        "anisotropy", help="summarise the anisotropy of the pre-trained embeddings"
    )
    aniso_parser.add_argument("dataset", choices=available_presets())
    aniso_parser.add_argument("--dim", type=int, default=32)
    aniso_parser.add_argument("--seed", type=int, default=7)

    serve_parser = subparsers.add_parser(
        "serve",
        help="serve top-K recommendations: a one-shot demo (with a dataset "
             "argument) or the persistent multi-model server (--loop / --http)"
    )
    serve_parser.add_argument("dataset", nargs="?", choices=available_presets(),
                              help="dataset for the one-shot demo (or to train "
                                   "a deployment from); optional when every "
                                   "model comes from --deployment")
    serve_parser.add_argument("--scale", default="tiny",
                              choices=["tiny", "small", "paper"])
    serve_parser.add_argument("--model", default="whitenrec",
                              help="model alias (see repro.models.available_models)")
    serve_parser.add_argument("--epochs", type=int, default=2,
                              help="training epochs when no checkpoint is loaded")
    serve_parser.add_argument("--k", type=int, default=10,
                              help="top-K cut-off (number of items per request)")
    serve_parser.add_argument("--backend", default="exact",
                              metavar="{exact,ivf}",
                              help="retrieval backend: exact dense scan or "
                                   "the IVF ANN index (default: exact)")
    serve_parser.add_argument("--shards", type=int, default=1, metavar="N",
                              help="partition the item matrix over N shards "
                                   "(1 keeps the single-scorer paths; results "
                                   "are bit-identical for every N)")
    serve_parser.add_argument("--shard-backend", default="process",
                              metavar="{process,local}",
                              help="where shard searches run when --shards > "
                                   "1: a spawned worker pool (process, "
                                   "default) or sequentially in-process "
                                   "(local)")
    serve_parser.add_argument("--catalogue-codec", default="fp32",
                              metavar="{fp32,int8}",
                              help="catalogue storage for exact retrieval: "
                                   "dense fp32 (default) or int8 codes with "
                                   "exact fp32 block re-rank — bit-identical "
                                   "top-K at ~0.28x the bytes per item "
                                   "(requires float32 scoring)")
    serve_parser.add_argument("--requests", type=int, default=8,
                              help="number of test histories to serve "
                                   "(one-shot demo)")
    serve_parser.add_argument("--repeats", type=int, default=3,
                              help="timed repetitions for the throughput report "
                                   "(one-shot demo)")
    serve_parser.add_argument("--dim", type=int, default=32,
                              help="pre-trained text embedding dimension")
    serve_parser.add_argument("--seed", type=int, default=7)
    serve_parser.add_argument("--checkpoint", default=None,
                              help="load a checkpoint instead of training")
    serve_parser.add_argument("--save-checkpoint", default=None,
                              help="save the trained model to this path")
    serve_parser.add_argument("--deployment", action="append", default=None,
                              metavar="NAME=CHECKPOINT",
                              help="register a named deployment from a "
                                   "checkpoint (repeatable; the first one is "
                                   "the default)")
    serve_parser.add_argument("--loop", action="store_true",
                              help="run the persistent JSONL-over-stdio "
                                   "request loop instead of the one-shot demo")
    serve_parser.add_argument("--http", type=int, default=None, metavar="PORT",
                              help="run the persistent HTTP server on PORT")
    serve_parser.add_argument("--max-batch-size", type=int, default=64,
                              help="dynamic batcher: max coalesced requests "
                                   "per scoring call (default: 64)")
    serve_parser.add_argument("--max-wait-ms", type=float, default=0.0,
                              help="dynamic batcher: how long the first "
                                   "request waits for company; 0 dispatches "
                                   "as soon as the worker is free "
                                   "(default: 0)")
    serve_parser.add_argument("--no-batching", action="store_true",
                              help="disable dynamic batching (score each "
                                   "request individually)")
    serve_parser.add_argument("--max-queue", type=int, default=None,
                              metavar="N",
                              help="admission control: bound each batcher "
                                   "queue at N waiting requests (default: "
                                   "unbounded)")
    serve_parser.add_argument("--overload-policy", default="reject",
                              choices=["reject", "shed-oldest", "block"],
                              help="what a full --max-queue does with the "
                                   "next arrival: refuse it (HTTP 429 + "
                                   "Retry-After), evict the oldest queued "
                                   "request, or block the caller until "
                                   "space / its deadline (default: reject)")
    serve_parser.add_argument("--max-inflight", type=int, default=None,
                              metavar="N",
                              help="shed requests beyond N concurrently "
                                   "admitted ones at the service edge "
                                   "(default: unlimited)")
    serve_parser.add_argument("--verbose", action="store_true",
                              help="with --http: structured access log to "
                                   "stderr (one JSON object per request: "
                                   "method, path, status, duration_ms)")

    stream_parser = subparsers.add_parser(
        "stream",
        help="online learning: interaction log, incremental training, "
             "hot-swap publishing",
    )
    stream_commands = stream_parser.add_subparsers(dest="stream_command",
                                                   required=True)
    append_parser = stream_commands.add_parser(
        "append", help="append USER:ITEM interaction events to a log"
    )
    append_parser.add_argument("log", help="interaction log directory")
    append_parser.add_argument("events", nargs="+", metavar="USER:ITEM",
                               help="events to append, e.g. 3:17 3:42")
    append_parser.add_argument("--no-fsync", action="store_true",
                               help="skip fsync per batch (tests/demos)")
    status_parser = stream_commands.add_parser(
        "status", help="show a log's extent, segments and consumer offsets"
    )
    status_parser.add_argument("log", help="interaction log directory")
    status_parser.add_argument("--json", action="store_true")
    stream_run_parser = stream_commands.add_parser(
        "run",
        help="closed-loop demo: ingest -> micro-epochs -> publish cycles "
             "against an in-process service",
    )
    stream_run_parser.add_argument("dataset", choices=available_presets())
    stream_run_parser.add_argument("--scale", default="tiny",
                                   choices=["tiny", "small", "paper"])
    stream_run_parser.add_argument("--model", default="whitenrec",
                                   help="model family (default: whitenrec)")
    stream_run_parser.add_argument("--dim", type=int, default=32,
                                   help="pre-trained text embedding dimension")
    stream_run_parser.add_argument("--seed", type=int, default=7)
    stream_run_parser.add_argument("--log", default=None, metavar="PATH",
                                   help="interaction log directory (default: "
                                        "a temporary one seeded with "
                                        "synthetic events)")
    stream_run_parser.add_argument("--events", type=int, default=256,
                                   help="synthetic events to ingest when no "
                                        "--log is given (default: 256)")
    stream_run_parser.add_argument("--cycles", type=int, default=3,
                                   help="train->publish cycles to run "
                                        "(default: 3)")
    stream_run_parser.add_argument("--lr", type=float, default=0.01,
                                   help="micro-epoch learning rate")
    stream_run_parser.add_argument("--checkpoints", default=None,
                                   metavar="DIR",
                                   help="where versioned checkpoints go "
                                        "(default: alongside the log)")
    stream_run_parser.add_argument("--json", action="store_true",
                                   help="emit one JSON object per publish "
                                        "cycle instead of tables")

    index_parser = subparsers.add_parser(
        "index", help="build and inspect ANN item-retrieval indexes"
    )
    index_commands = index_parser.add_subparsers(dest="index_command", required=True)
    build_parser = index_commands.add_parser(
        "build", help="build an IVF/flat index and save it as .npz"
    )
    build_parser.add_argument("dataset", choices=available_presets())
    build_parser.add_argument("--scale", default="tiny",
                              choices=["tiny", "small", "paper"])
    build_parser.add_argument("--kind", default="ivf",
                              choices=["flat", "ivf"],
                              help="index family (default: ivf)")
    build_parser.add_argument("--checkpoint", default=None,
                              help="index the checkpointed model's candidate "
                                   "item matrix instead of whitened text embeddings")
    build_parser.add_argument("--whitening", default="zca",
                              help="whitening method for the indexed space "
                                   "(ignored with --checkpoint)")
    build_parser.add_argument("--groups", type=int, default=1,
                              help="whitening group count (ignored with --checkpoint)")
    build_parser.add_argument("--lists", type=int, default=None,
                              help="number of inverted lists (default: sqrt(n))")
    build_parser.add_argument("--nprobe", type=int, default=None,
                              help="default lists scanned per query "
                                   "(default: n_lists/8)")
    build_parser.add_argument("--dim", type=int, default=32,
                              help="pre-trained text embedding dimension")
    build_parser.add_argument("--seed", type=int, default=7)
    build_parser.add_argument("--queries", type=int, default=64,
                              help="sampled queries for the recall self-check")
    build_parser.add_argument("--output", default=None,
                              help="write the index to this .npz path")

    return parser


def _command_list() -> int:
    rows = [
        [spec.experiment_id, spec.artefact, spec.kind, spec.description]
        for spec in list_experiments()
    ]
    print(format_table(["id", "artefact", "kind", "description"], rows,
                       title="Reproducible experiments"))
    return 0


def _command_run(experiment_id: str, scale: str, output: Optional[str]) -> int:
    spec = get_experiment(experiment_id)
    print(f"running {spec.artefact} ({spec.experiment_id}) at scale={scale!r} ...")
    result = spec.runner(scale=scale)
    if isinstance(result, dict):
        if "table" in result:
            print(result["table"])
        for table in result.get("tables", {}).values():
            print(table)
            print()
    if output:
        path = save_result(result, f"{output.rstrip('/')}/{experiment_id}.json",
                           experiment_id=experiment_id)
        print(f"saved result to {path}")
    return 0


def _command_stats(dataset_name: str, scale: str, seed: int) -> int:
    dataset = load_dataset(dataset_name, scale=scale, seed=seed)
    stats = dataset_statistics(dataset).as_dict()
    print(format_table(list(stats.keys()), [list(stats.values())], precision=2,
                       title=f"Dataset statistics — {dataset_name} ({scale})"))
    return 0


def _command_anisotropy(dataset_name: str, dim: int, seed: int) -> int:
    dataset = load_dataset(dataset_name, scale="tiny", seed=seed)
    embeddings = strip_padding_row(encode_items(dataset.items, embedding_dim=dim, seed=seed))
    report = analyze_embeddings(embeddings)
    print(f"dataset: {dataset_name}   items: {embeddings.shape[0]}   dim: {dim}")
    print(f"mean pairwise cosine similarity : {report.mean_cosine:.3f}")
    print(f"top-1 spectral energy fraction  : {report.top1_spectral_energy:.3f}")
    print(f"singular value spectrum         : {sparkline(report.singular_values)}")
    return 0


def _fail(message: str) -> int:
    """Print a clear one-line error (no traceback) and return exit code 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


class _UsageError(Exception):
    """Raised by the helpers the commands share; ``main`` reports it through
    :func:`_fail`."""


def _deploy_checkpoints(specs, registry, serving_config, log=None) -> None:
    """Register one deployment per ``--deployment NAME=CHECKPOINT`` spec,
    announcing each on ``log`` when one is given."""
    from .models import display_label
    from .service import Deployment

    for spec in specs or []:
        name, separator, checkpoint_path = spec.partition("=")
        if not separator or not name or not checkpoint_path:
            raise _UsageError(
                f"--deployment expects NAME=CHECKPOINT, got {spec!r}")
        if name in registry:
            raise _UsageError(f"duplicate deployment name {name!r}")
        try:
            deployment = Deployment.from_checkpoint(name, checkpoint_path,
                                                    config=serving_config)
        except FileNotFoundError:
            raise _UsageError(
                f"checkpoint not found: {checkpoint_path}") from None
        except (ValueError, KeyError, OSError) as error:
            raise _UsageError(f"cannot load deployment {name!r} from "
                              f"{checkpoint_path}: {error}") from error
        registry.register(deployment)
        if log is not None:
            print(f"deployed {name!r}: "
                  f"{display_label(deployment.model_name)} "
                  f"({deployment.num_items} items) from {checkpoint_path}",
                  file=log)


def _dataset_model(args, dropout: float = 0.1, checkpoint=None):
    """``args.dataset`` → leave-one-out split → text features → model, loaded
    from ``checkpoint`` when given and otherwise built untrained at the
    CLI's one model shape.  Returns ``(dataset, split, features, model)``."""
    from .data.splits import leave_one_out_split
    from .experiments.persistence import load_checkpoint, load_model
    from .models import ModelConfig, build_model

    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    split = leave_one_out_split(dataset.interactions)
    features = encode_items(dataset.items, embedding_dim=args.dim,
                            seed=args.seed)
    if checkpoint:
        try:
            loaded = load_checkpoint(checkpoint)
        except FileNotFoundError:
            raise _UsageError(f"checkpoint not found: {checkpoint}") from None
        except (ValueError, OSError) as error:
            raise _UsageError(
                f"cannot load checkpoint {checkpoint}: {error}") from error
        if loaded.feature_table is not None:
            features = loaded.feature_table
        return dataset, split, features, load_model(loaded,
                                                    feature_table=features)
    config = ModelConfig(hidden_dim=32, num_layers=2, num_heads=2,
                         dropout=dropout, max_seq_length=20, seed=args.seed)
    try:
        model = build_model(args.model, dataset.num_items,
                            feature_table=features, config=config)
    except (KeyError, ValueError) as error:
        raise _UsageError(f"unknown model {args.model!r}: {error}") from error
    return dataset, split, features, model


def _command_serve(args) -> int:
    from .experiments.persistence import save_checkpoint
    from .models import display_label
    from .serving import (CATALOGUE_CODECS, SERVING_BACKENDS, SHARD_BACKENDS,
                          EmbeddingStore, Recommender, ServingConfig)
    from .service import Deployment, ModelRegistry, RecommenderService, serve_http, serve_jsonl
    from .training import quick_train

    if args.loop and args.http is not None:
        return _fail("--loop and --http are mutually exclusive; run one "
                     "front-end per process")
    if args.backend not in SERVING_BACKENDS:
        return _fail(f"unknown backend {args.backend!r} "
                     f"(expected one of {', '.join(SERVING_BACKENDS)})")
    if args.shards < 1:
        return _fail(f"--shards must be >= 1, got {args.shards}")
    if args.shard_backend not in SHARD_BACKENDS:
        return _fail(f"unknown shard backend {args.shard_backend!r} "
                     f"(expected one of {', '.join(SHARD_BACKENDS)})")
    if args.catalogue_codec not in CATALOGUE_CODECS:
        return _fail(f"unknown catalogue codec {args.catalogue_codec!r} "
                     f"(expected one of {', '.join(CATALOGUE_CODECS)})")
    try:
        serving_config = ServingConfig(k=args.k, backend=args.backend,
                                       shards=args.shards,
                                       shard_backend=args.shard_backend,
                                       catalogue_codec=args.catalogue_codec)
    except ValueError as error:
        return _fail(str(error))

    registry = ModelRegistry()
    # In --loop mode stdout is the JSONL protocol channel; progress goes to
    # stderr.
    log = sys.stderr if args.loop else sys.stdout

    # Named deployments from checkpoints (the multi-model path).
    _deploy_checkpoints(args.deployment, registry, serving_config, log=log)

    # Dataset-backed deployment: load a checkpoint or train one on the spot.
    split = None
    if args.dataset:
        if args.dataset in registry:
            return _fail(f"--deployment name {args.dataset!r} collides with "
                         f"the dataset deployment")
        _, split, features, model = _dataset_model(
            args, dropout=0.2, checkpoint=args.checkpoint)
        if args.checkpoint:
            print(f"loaded {display_label(model.model_name)} from {args.checkpoint}",
                  file=log)
        else:
            print(f"training {display_label(args.model)} for {args.epochs} epoch(s) ...",
                  file=log)
            outcome = quick_train(model, split, num_epochs=args.epochs,
                                  max_sequence_length=20, seed=args.seed)
            print(f"best epoch {outcome.best_epoch}, "
                  f"test NDCG@20 = {outcome.test_metrics.get('ndcg@20', 0.0):.4f}",
                  file=log)
            if args.save_checkpoint:
                path = save_checkpoint(model, args.save_checkpoint,
                                       feature_table=features)
                print(f"saved checkpoint to {path}", file=log)

        recommender = Recommender(model, store=EmbeddingStore(features),
                                  train_sequences=split.train_sequences,
                                  config=serving_config)
        registry.register(Deployment(name=args.dataset, recommender=recommender,
                                     config=serving_config,
                                     source=args.checkpoint))

    if len(registry) == 0:
        return _fail("nothing to serve: pass a dataset and/or at least one "
                     "--deployment NAME=CHECKPOINT")

    service = RecommenderService(registry, batching=not args.no_batching,
                                 max_batch_size=args.max_batch_size,
                                 max_wait_ms=args.max_wait_ms,
                                 max_queue=args.max_queue,
                                 overload_policy=args.overload_policy,
                                 max_inflight=args.max_inflight)

    # Persistent front-ends.  Whatever way they exit (EOF, shutdown command,
    # Ctrl-C, a fatal error), the shard worker pools must come down with the
    # process — close_all() is idempotent and a no-op for --shards 1.
    if args.loop:
        print("serving JSONL on stdin/stdout "
              "(send {\"cmd\": \"shutdown\"} or EOF to stop)", file=sys.stderr)
        try:
            return serve_jsonl(service)
        finally:
            registry.close_all()
    if args.http is not None:
        print(f"serving HTTP on port {args.http} "
              f"(POST /recommend, GET /stats, GET /deployments, "
              f"GET /metrics, GET /healthz)")
        try:
            return serve_http(service, args.http, verbose=args.verbose)
        except OSError as error:
            return _fail(f"cannot serve HTTP on port {args.http}: {error}")
        finally:
            registry.close_all()

    # One-shot demo (the original `repro serve` behaviour), routed through
    # the typed service API.
    if split is None:
        return _fail("the one-shot demo needs a dataset argument; use --loop "
                     "or --http to run the persistent server from "
                     "--deployment checkpoints alone")
    try:
        return _serve_demo(args, registry, service, split)
    finally:
        registry.close_all()


def _serve_demo(args, registry, service, split) -> int:
    from .serving import measure_throughput

    with service:
        cases = split.test[: max(1, args.requests)]
        requests = [{"history": list(case.history), "deployment": args.dataset}
                    for case in cases]
        responses = service.recommend_many(requests)

        rows = []
        for case, response in zip(cases, responses):
            path = "cold" if response.cold else "warm"
            rows.append([case.user_id, path,
                         " ".join(str(item) for item in response.items)])
        print(format_table(["user", "path", f"top-{args.k} items"], rows,
                           title=f"Batched recommendations — {args.dataset} "
                                 f"({args.scale}, backend={args.backend})"))

        report = measure_throughput(lambda: service.recommend_many(requests),
                                    num_sequences=len(requests),
                                    repeats=max(1, args.repeats))
        print(f"throughput: {report.sequences_per_second:,.0f} sequences/second "
              f"({report.num_sequences} requests x {report.repeats} repeats "
              f"in {report.seconds:.3f}s)")
        print(f"engine: {registry.get(args.dataset).recommender.engine_name}")
    return 0


def _command_stream(args) -> int:
    import json as json_module

    from .stream import InteractionLog

    if args.stream_command == "append":
        events = []
        for spec in args.events:
            user_text, separator, item_text = spec.partition(":")
            try:
                if not separator:
                    raise ValueError
                events.append((int(user_text), int(item_text), time.time()))
            except ValueError:
                return _fail(f"events are USER:ITEM pairs, got {spec!r}")
        with InteractionLog(args.log, durable=not args.no_fsync) as log:
            offsets = log.append_many(events)
            print(f"appended {len(offsets)} events at offsets "
                  f"[{offsets[0]}..{offsets[-1]}]; log extent is now "
                  f"{log.end_offset}")
        return 0

    if args.stream_command == "status":
        with InteractionLog(args.log, durable=False) as log:
            status = log.describe()
            status["lag"] = {consumer: log.lag(consumer)
                             for consumer in status["committed"]}
        if args.json:
            print(json_module.dumps(status, sort_keys=True))
        else:
            print(f"log       : {status['directory']}")
            print(f"extent    : {status['end_offset']} events in "
                  f"{status['num_segments']} segment(s)")
            for consumer, offset in sorted(status["committed"].items()):
                print(f"consumer  : {consumer} committed={offset} "
                      f"lag={status['lag'][consumer]}")
        return 0

    if args.stream_command == "run":
        return _command_stream_run(args)
    raise AssertionError(
        f"unhandled stream command {args.stream_command!r}")  # pragma: no cover


def _command_stream_run(args) -> int:
    import json as json_module
    import random as random_module
    import tempfile

    from .service import ModelRegistry, RecommenderService
    from .stream import IncrementalTrainer, InteractionLog, Publisher

    if args.cycles < 1:
        return _fail(f"--cycles must be >= 1, got {args.cycles}")

    dataset, split, features, model = _dataset_model(args)

    log_dir = args.log or tempfile.mkdtemp(prefix="repro-stream-")
    checkpoint_dir = args.checkpoints or str(Path(log_dir) / "checkpoints")
    synthesize = args.log is None
    rng = random_module.Random(args.seed)

    registry = ModelRegistry()
    service = RecommenderService(registry)
    log = InteractionLog(log_dir, durable=False)
    trainer = IncrementalTrainer(model, log, feature_table=features,
                                 train_sequences=split.train_sequences,
                                 learning_rate=args.lr, seed=args.seed)
    publisher = Publisher(registry, checkpoint_dir, service=service)
    users = sorted(split.train_sequences)
    try:
        report = publisher.publish(trainer, args.dataset)
        if not args.json:
            print(f"published {args.dataset} v{report.version} "
                  f"({report.total_ms:.1f} ms)")
        per_cycle = max(1, args.events // args.cycles)
        for cycle in range(args.cycles):
            if synthesize:
                log.append_many(
                    (rng.choice(users), rng.randint(1, dataset.num_items),
                     time.time())
                    for _ in range(per_cycle))
            epochs = trainer.run_until_caught_up()
            report = publisher.publish(trainer, args.dataset)
            applied = sum(epoch.events for epoch in epochs)
            loss = epochs[-1].loss if epochs else 0.0
            summary = {
                "cycle": cycle + 1,
                "events_applied": applied,
                "events_behind": trainer.events_behind,
                "loss": round(loss, 4),
                **report.to_dict(),
            }
            if args.json:
                print(json_module.dumps(summary, sort_keys=True))
            else:
                print(f"cycle {cycle + 1}: applied {applied} events "
                      f"(loss {loss:.3f}) -> v{report.version} in "
                      f"{report.total_ms:.1f} ms "
                      f"(save {report.save_ms:.1f} / swap "
                      f"{report.reload_ms:.1f} / warm {report.warm_ms:.1f})")
        if not args.json:
            print(f"log extent {log.end_offset}, trainer committed "
                  f"{trainer.offset}, served version "
                  f"{registry.get(args.dataset).version}")
    finally:
        service.close()
        registry.close_all()
        log.close()
    return 0


def _command_index_build(args) -> int:
    import numpy as np

    from .index import FlatIndex, build_index
    from .serving import EmbeddingStore

    index_params = {}
    if args.kind == "ivf":
        index_params = {"n_lists": args.lists, "nprobe": args.nprobe,
                        "seed": args.seed}

    if args.checkpoint:
        from .experiments.persistence import load_checkpoint, load_model

        checkpoint = load_checkpoint(args.checkpoint)
        features = checkpoint.feature_table
        if features is None:
            dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
            features = encode_items(dataset.items, embedding_dim=args.dim,
                                    seed=args.seed)
        model = load_model(checkpoint, feature_table=features)
        table = model.inference_item_matrix()
        space = f"item matrix of {args.checkpoint}"
        index = build_index(args.kind, **index_params)
        index.build(table[1:], ids=np.arange(1, table.shape[0], dtype=np.int64))
    else:
        dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
        features = encode_items(dataset.items, embedding_dim=args.dim,
                                seed=args.seed)
        store = EmbeddingStore(features)
        table = store.whitened(args.whitening, args.groups)
        space = f"{args.whitening} whitened text embeddings (groups={args.groups})"
        index = store.index(args.whitening, args.groups, kind=args.kind,
                            **index_params)

    # Recall self-check: indexed vectors perturbed into nearby queries must
    # retrieve their own neighbourhood like the exact scan does.  Sizes come
    # from the indexed table, which with --checkpoint may differ from the
    # dataset the CLI flags describe.
    num_indexed = table.shape[0] - 1
    rng = np.random.default_rng(args.seed)
    num_queries = max(1, min(args.queries, num_indexed))
    picks = rng.choice(num_indexed, size=num_queries, replace=False) + 1
    queries = table[picks] + 0.1 * rng.standard_normal((num_queries, table.shape[1]))
    k = min(10, num_indexed)
    exact = FlatIndex().build(table[1:], ids=np.arange(1, table.shape[0],
                                                       dtype=np.int64))
    exact_ids, _ = exact.search(queries, k)
    approx_ids, _ = index.search(queries, k)
    recall = float(np.mean([
        len(set(row) & set(reference)) / k
        for row, reference in zip(approx_ids.tolist(), exact_ids.tolist())
    ]))
    scanned = index.last_scan_counts
    scan_fraction = float(scanned.mean()) / max(1, len(index))

    rows = [
        ["space", space],
        ["kind", index.kind],
        ["vectors", len(index)],
        ["dim", index.dim],
    ]
    if hasattr(index, "num_lists"):
        rows.append(["lists", index.num_lists])
        rows.append(["nprobe", index.nprobe])
    rows.append([f"recall@{k} vs exact", f"{recall:.3f}"])
    rows.append(["scan fraction", f"{scan_fraction:.3f}"])
    print(format_table(["property", "value"], rows,
                       title=f"ANN index — {args.dataset} ({args.scale})"))
    if args.output:
        path = index.save(args.output)
        print(f"saved index to {path}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point used by ``python -m repro`` and the console script."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _command_list()
    if args.command == "run":
        return _command_run(args.experiment_id, args.scale, args.output)
    if args.command == "stats":
        return _command_stats(args.dataset, args.scale, args.seed)
    if args.command == "anisotropy":
        return _command_anisotropy(args.dataset, args.dim, args.seed)
    try:
        if args.command == "serve":
            return _command_serve(args)
        if args.command == "stream":
            return _command_stream(args)
    except _UsageError as error:
        return _fail(str(error))
    if args.command == "index":
        return _command_index_build(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
