"""Scatter-gather worker pool: the multi-process :class:`ShardClient`.

``ShardPool`` spawns one process per shard, each attached zero-copy to the
item matrix (memmap over an :class:`~repro.shard.layout.ItemMatrixLayout`),
scatters each request's query batch to every worker over a duplex pipe, gathers the per-shard
top-K blocks, and merges them with the exact-merge contract
(:func:`~repro.shard.merge.merge_topk`).

Failure semantics are typed, never hangs:

* a worker dying mid-request raises :class:`WorkerCrashed` (the dead slot
  is respawned on the next search — the pool heals itself);
* an unresponsive worker raises :class:`ShardTimeout` after the per-search
  deadline; its late reply is recognised by sequence number and drained on
  the next request instead of being misattributed;
* an exception *inside* a worker comes back as :class:`ShardError` carrying
  the original type and message;
* any use after :meth:`close` raises :class:`PoolClosedError`.

``close()`` (also run via ``weakref.finalize`` if the pool is dropped)
stops workers, joins/terminates/kills escalatingly, closes pipes and deletes
any owned temporary layout — leaving no orphan processes and no leaked
files, which the fault-path tests assert via
``multiprocessing.active_children()``.

Workers are started under the ``spawn`` context (fork is unsafe with BLAS
threads and is being retired as a default anyway) with
``OPENBLAS/OMP/MKL_NUM_THREADS=1`` injected so N workers on M cores do not
oversubscribe into each other.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
import time
import weakref
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .client import ShardClient
from .layout import ItemMatrixLayout
from .merge import merge_topk
from .partition import DEFAULT_BLOCK_ROWS, partition_ranges
from .scoring import split_exclude
from .worker import worker_main

_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class ShardError(RuntimeError):
    """Base class for every shard-pool failure."""


class WorkerCrashed(ShardError):
    """A worker process died before replying."""


class ShardTimeout(ShardError):
    """A worker failed to reply within the search deadline."""


class PoolClosedError(ShardError):
    """The pool was used after :meth:`ShardPool.close`."""


def _cleanup(state: Dict[str, Any]) -> None:
    """Idempotent teardown shared by ``close()`` and ``weakref.finalize``.

    Takes the mutable state dict (not the pool) so the finalizer holds no
    reference cycle back to the pool instance.
    """
    if state.get("closed"):
        return
    state["closed"] = True
    for conn, process in zip(state["conns"], state["processes"]):
        if conn is not None and process is not None and process.is_alive():
            try:
                conn.send(("stop", -1, None))
            except OSError:
                pass
    deadline = time.monotonic() + 5.0
    for process in state["processes"]:
        if process is None:
            continue
        process.join(timeout=max(0.1, deadline - time.monotonic()))
        if process.is_alive():
            process.terminate()
            process.join(timeout=1.0)
        if process.is_alive():  # pragma: no cover - terminate() suffices
            process.kill()
            process.join(timeout=1.0)
    for conn in state["conns"]:
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
    owned_dir = state.get("owned_dir")
    if owned_dir is not None:
        state["owned_dir"] = None
        shutil.rmtree(owned_dir, ignore_errors=True)


class ShardPool(ShardClient):
    """Multi-process scatter-gather :class:`ShardClient`.

    Build one with :meth:`from_matrix` (writes the matrix to an owned
    temporary layout) or :meth:`from_layout` (maps an existing on-disk
    layout without owning it).
    """

    def __init__(self, directory: str,
                 ranges: Sequence[Tuple[int, int]], *,
                 num_rows: int, dim: int, dtype: str,
                 block_rows: int = DEFAULT_BLOCK_ROWS,
                 index_params: Optional[Dict] = None,
                 timeout: float = 60.0,
                 mp_context: str = "spawn",
                 owned_dir: Optional[str] = None,
                 codec: str = "fp32"):
        if codec not in ("fp32", "int8"):
            raise ValueError(f"codec must be 'fp32' or 'int8', got {codec!r}")
        self.codec = codec
        self._directory = str(directory)
        self.ranges = list(ranges)
        self._num_rows = int(num_rows)
        self._dim = int(dim)
        self._dtype = np.dtype(dtype)
        self.block_rows = int(block_rows)
        self.index_params = dict(index_params or {})
        self.timeout = float(timeout)
        self._ctx = multiprocessing.get_context(mp_context)
        self._seq = 0
        self._restarts = 0
        self._timeouts = 0
        # Deterministic fault injection (test/bench hook): a FaultPlan-shaped
        # object consulted once per search by 0-based search index.  ``None``
        # (the default) costs one attribute check per search.
        self._fault_plan = None
        self._search_index = 0
        self._state: Dict[str, Any] = {
            "closed": False, "owned_dir": owned_dir,
            "processes": [None] * len(self.ranges),
            "conns": [None] * len(self.ranges),
        }
        self._finalizer = weakref.finalize(self, _cleanup, self._state)
        self._ensure_workers()
        self.ping()  # fail fast if workers cannot attach the matrix

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_matrix(cls, matrix: np.ndarray, num_shards: int, *,
                    block_rows: int = DEFAULT_BLOCK_ROWS,
                    index_params: Optional[Dict] = None,
                    timeout: float = 60.0,
                    codec: str = "fp32") -> "ShardPool":
        """Shard an in-memory matrix, copying it once into an owned
        temporary layout directory (memmapped zero-copy by every worker)
        that is removed on :meth:`close`."""
        matrix = np.ascontiguousarray(matrix)
        ranges = partition_ranges(matrix.shape[0], num_shards, block_rows)
        directory = tempfile.mkdtemp(prefix="repro-shard-")
        layout = ItemMatrixLayout.write(matrix, directory, block_rows)
        if codec == "int8":
            layout.ensure_int8_sidecar()
        return cls(layout.directory, ranges, owned_dir=directory,
                   num_rows=matrix.shape[0], dim=matrix.shape[1],
                   dtype=matrix.dtype.name,
                   block_rows=block_rows, index_params=index_params,
                   timeout=timeout, codec=codec)

    @classmethod
    def from_layout(cls, layout: ItemMatrixLayout, num_shards: int, *,
                    index_params: Optional[Dict] = None,
                    timeout: float = 60.0,
                    codec: str = "fp32") -> "ShardPool":
        """Serve an existing on-disk layout (1M-item matrices never enter
        this process's RAM — workers memmap their row ranges directly).

        ``codec="int8"`` writes the layout's int8 sidecar if it is missing
        (a deterministic, idempotent cache next to the matrix) so every
        worker attaches the codes zero-copy — the fp32 scan working set per
        worker shrinks to the shortlisted re-rank blocks.
        """
        if codec == "int8":
            layout.ensure_int8_sidecar()
        ranges = partition_ranges(layout.num_rows, num_shards,
                                  layout.block_rows)
        return cls(layout.directory, ranges, num_rows=layout.num_rows,
                   dim=layout.dim, dtype=layout.dtype,
                   block_rows=layout.block_rows,
                   index_params=index_params, timeout=timeout, codec=codec)

    # ------------------------------------------------------------------ #
    # ShardClient surface
    # ------------------------------------------------------------------ #
    @property
    def num_rows(self) -> int:
        return self._num_rows

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def closed(self) -> bool:
        return bool(self._state["closed"])

    def search(self, queries: np.ndarray, k: int, *,
               exclude: Optional[Sequence[Sequence[int]]] = None,
               backend: str = "exact",
               timeout: Optional[float] = None
               ) -> Tuple[np.ndarray, np.ndarray]:
        """Scatter-gather one search.  ``timeout`` (seconds) tightens the
        pool's own per-search deadline for this call only — deadline
        propagation hands the request's remaining budget down here, and a
        per-call value can never *extend* the configured timeout."""
        self._check_open()
        queries = np.ascontiguousarray(queries)
        exclude = split_exclude(exclude, queries.shape[0])
        payload = {"queries": queries, "k": int(k), "exclude": exclude,
                   "backend": str(backend)}
        self._ensure_workers()
        budget = self.timeout if timeout is None else min(
            self.timeout, max(0.0, float(timeout)))
        skip = self._inject_faults()
        seq = self._next_seq()
        for shard in range(self.num_shards):
            if shard in skip:
                continue
            self._send(shard, ("search", seq, payload))
        deadline = time.monotonic() + budget
        parts = [self._gather(shard, seq, deadline, budget)
                 for shard in range(self.num_shards)]
        return merge_topk(parts, k)

    def ping(self, timeout: Optional[float] = None) -> List[int]:
        """Round-trip every worker; returns their pids."""
        self._check_open()
        self._ensure_workers()
        seq = self._next_seq()
        for shard in range(self.num_shards):
            self._send(shard, ("ping", seq, None))
        budget = self.timeout if timeout is None else timeout
        deadline = time.monotonic() + budget
        return [self._gather(shard, seq, deadline, budget)
                for shard in range(self.num_shards)]

    def stats(self) -> Dict[str, Any]:
        return {
            "num_shards": self.num_shards,
            "num_rows": self.num_rows,
            "ranges": list(self.ranges),
            "block_rows": self.block_rows,
            "transport": "layout",
            "codec": self.codec,
            "restarts": self._restarts,
            "timeouts": self._timeouts,
            "pids": [process.pid if process is not None else None
                     for process in self._state["processes"]],
        }

    def close(self) -> None:
        """Stop workers and release every owned resource.  Idempotent."""
        _cleanup(self._state)
        self._finalizer.detach()

    # ------------------------------------------------------------------ #
    # Worker lifecycle
    # ------------------------------------------------------------------ #
    def _check_open(self) -> None:
        if self.closed:
            raise PoolClosedError("the shard pool has been closed")

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _ensure_workers(self) -> None:
        """(Re)spawn any missing or dead worker — the self-healing step."""
        pending = []
        for shard, process in enumerate(self._state["processes"]):
            if process is None or not process.is_alive():
                if process is not None:
                    self._reap(shard)
                    self._restarts += 1
                pending.append(shard)
        if not pending:
            return
        overrides = {name: os.environ.get(name) for name in _THREAD_ENV}
        for name in _THREAD_ENV:
            os.environ[name] = "1"
        try:
            for shard in pending:
                parent_conn, child_conn = self._ctx.Pipe(duplex=True)
                lo, hi = self.ranges[shard]
                process = self._ctx.Process(
                    target=worker_main,
                    args=(child_conn, self._directory, lo, hi,
                          self.block_rows,
                          self.index_params, self.codec),
                    name=f"repro-shard-{shard}", daemon=True)
                process.start()
                child_conn.close()
                self._state["processes"][shard] = process
                self._state["conns"][shard] = parent_conn
        finally:
            for name, value in overrides.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value

    def _reap(self, shard: int) -> None:
        """Drop a dead worker's process and pipe."""
        process = self._state["processes"][shard]
        if process is not None:
            process.join(timeout=1.0)
        conn = self._state["conns"][shard]
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        self._state["processes"][shard] = None
        self._state["conns"][shard] = None

    def _crashed(self, shard: int) -> WorkerCrashed:
        process = self._state["processes"][shard]
        self._reap(shard)
        self._restarts += 1
        exitcode = process.exitcode if process is not None else None
        return WorkerCrashed(
            f"shard {shard} worker died mid-request "
            f"(exit code {exitcode}); it will be respawned on the next "
            f"request")

    def _send(self, shard: int, message) -> None:
        try:
            self._state["conns"][shard].send(message)
        except (OSError, ValueError, BrokenPipeError):
            raise self._crashed(shard) from None

    def _gather(self, shard: int, seq: int, deadline: float,
                budget: Optional[float] = None):
        """Receive the reply stamped ``seq`` from ``shard``, draining stale
        replies left over from timed-out earlier requests."""
        conn = self._state["conns"][shard]
        if budget is None:
            budget = self.timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not conn.poll(max(0.0, remaining)):
                self._timeouts += 1
                raise ShardTimeout(
                    f"shard {shard} did not reply within {budget:.1f}s")
            try:
                status, reply_seq, result = conn.recv()
            except (EOFError, OSError):
                raise self._crashed(shard) from None
            if reply_seq != seq:
                continue  # stale reply from a request that timed out
            if status == "error":
                raise ShardError(f"shard {shard} failed: {result}")
            return result

    # ------------------------------------------------------------------ #
    # Deterministic fault injection (test/bench hook)
    # ------------------------------------------------------------------ #
    def set_fault_plan(self, plan) -> None:
        """Attach a :class:`repro.resilience.FaultPlan` (or ``None`` to
        detach).  Consulted once per :meth:`search`, keyed by the 0-based
        search index, before the scatter — so the same plan over the same
        request stream injects the same faults at the same points."""
        self._fault_plan = plan
        self._search_index = 0

    def _inject_faults(self) -> set:
        """Fire this search's scheduled faults; returns shards whose scatter
        send must be skipped (the ``drop`` kind)."""
        skip: set = set()
        if self._fault_plan is None:
            return skip
        index, self._search_index = self._search_index, self._search_index + 1
        for action in self._fault_plan.actions_for(index):
            shard = action.shard % self.num_shards
            if action.kind == "kill":
                # SIGKILL before the scatter: the send (or gather) sees the
                # broken pipe and raises WorkerCrashed, as an OOM kill would.
                process = self._state["processes"][shard]
                if process is not None and process.is_alive():
                    process.kill()
                    process.join(timeout=5.0)
            elif action.kind == "delay":
                # The worker loop is serial: a sleep op queued ahead of the
                # search delays (only) this shard's reply; the sleep's own
                # reply is drained as stale by sequence number.
                self._send(shard, ("sleep", self._next_seq(),
                                   float(action.delay_s)))
            elif action.kind == "drop":
                # Never scatter to this shard: its gather times out, as a
                # blackholed reply would.
                skip.add(shard)
        return skip

    # Test hook: fire an op at one worker without waiting for the reply.
    def _post(self, shard: int, op: str, payload=None) -> int:
        self._check_open()
        seq = self._next_seq()
        self._send(shard, (op, seq, payload))
        return seq

    # Test hook: round-trip a single op to one worker.
    def _request(self, shard: int, op: str, payload=None):
        seq = self._post(shard, op, payload)
        return self._gather(shard, seq, time.monotonic() + self.timeout)
