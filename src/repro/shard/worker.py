"""The shard worker process: attach the matrix, loop on pipe RPC.

Each worker owns one contiguous row range of the item matrix, reached
zero-copy as an ``np.memmap`` over the
:class:`~repro.shard.layout.ItemMatrixLayout` ``.npy`` in the directory the
pool names (the OS page cache shares the physical pages between all
workers).

The protocol is strictly sequential request/reply over one duplex pipe:
``(op, seq, payload)`` in, ``("ok", seq, result)`` or
``("error", seq, "Type: message")`` out.  The ``seq`` echo lets the pool
discard stale replies after a timeout.  Searches run through
:func:`repro.shard.client.single_shard_search` — the same kernel the
in-process client uses — so worker results are bitwise identical to local
results by shared code, not by re-implementation.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Optional, Tuple

import numpy as np


def worker_main(conn, directory: str, lo: int, hi: int,
                block_rows: int, index_params: Optional[Dict],
                codec: str = "fp32") -> None:
    """Entry point executed in the spawned worker process."""
    from .client import single_shard_search
    from .layout import ItemMatrixLayout

    index_cache: Dict[str, Any] = {}
    crash_armed = False
    try:
        layout = ItemMatrixLayout.open(directory)
        matrix = layout.matrix()
        # the int8 sidecar sits next to the matrix, attached zero-copy too
        quantized = layout.quantized() if codec == "int8" else None
        while True:
            try:
                op, seq, payload = conn.recv()
            except (EOFError, OSError):
                break
            try:
                if op == "search":
                    if crash_armed:
                        os._exit(13)
                    result: Tuple[np.ndarray, np.ndarray] = single_shard_search(
                        matrix, lo, hi,
                        payload["queries"], payload["k"], payload["exclude"],
                        payload["backend"], block_rows, index_params,
                        index_cache, quantized)
                    conn.send(("ok", seq, result))
                elif op == "ping":
                    conn.send(("ok", seq, os.getpid()))
                elif op == "sleep":
                    # Test hook: occupy the worker so timeout handling and
                    # stale-reply draining can be exercised deterministically.
                    time.sleep(float(payload))
                    conn.send(("ok", seq, None))
                elif op == "crash":
                    # Test hook: die mid-request without replying, as a
                    # SIGKILLed or OOM-killed worker would.
                    os._exit(13)
                elif op == "crash_next":
                    # Test hook: die on receipt of the *next* search, after
                    # the pool has already scattered it — deterministic
                    # "killed mid-request" without racing the respawn check.
                    crash_armed = True
                    conn.send(("ok", seq, None))
                elif op == "stop":
                    conn.send(("ok", seq, None))
                    break
                else:
                    conn.send(("error", seq, f"ValueError: unknown op {op!r}"))
            except Exception as exc:  # surface, don't die: pool re-raises typed
                try:
                    conn.send(("error", seq, f"{type(exc).__name__}: {exc}"))
                except OSError:
                    break
    finally:
        try:
            conn.close()
        except OSError:
            pass
