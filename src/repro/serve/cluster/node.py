"""Replica node daemon: a model repository + executors behind TCP.

One :class:`ReplicaNode` is a single replica of the serving tier: it owns a
local :class:`~repro.serve.repository.ModelRepository` (usually populated
by :mod:`repro.serve.cluster.sync` from the front end's repository),
answers ``predict`` frames with executor outputs, ``health`` probes with a
liveness snapshot, and the sync protocol's ``manifest`` / ``push`` /
``fetch`` frames with repository state.  The front-end
:class:`~repro.serve.cluster.router.ClusterRouter` treats a set of these
exactly like a worker pool — a replica node is a worker pool you can SIGKILL
from another machine.

Concurrency model: one daemon accept thread, one handler thread per
connection.  Executors are cached per ``(model, version)``; thread-safe
executors (planned shard pools) are shared across connections, anything
else is serialized behind a per-executor lock — the same degradation rule
as :class:`~repro.serve.workers.ThreadWorkerPool`.

Batch payloads are bounded by the artifact's slot geometry
(:func:`~repro.serve.cluster.transport.frame_bound_for_artifact`) — the
shared-memory rings' sizing rule — so a batch too large for a replica's
ring is rejected at the frame layer with a clean error frame instead of
OOMing the node.

Runnable as a daemon::

    python -m repro.serve.cluster.node --repo /path/to/repo --port 7070

which prints ``READY host:port pid=<pid>`` on stdout once the socket
listens (the cluster benchmark and the kill-one-replica smoke test parse
that line, then SIGKILL the process mid-load).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import socket
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.core.export import ProgramFormatError, verify_program_digest
from repro.core.program import Executor, auto_backend
from repro.serve.cluster.transport import (
    Connection,
    ConnectionClosed,
    DEFAULT_MAX_FRAME_BYTES,
    Frame,
    TransportError,
    frame_bound_for_artifact,
)
from repro.serve.repository import ModelNotFound, ModelRepository


class _CachedExecutor:
    """One executor for a (model, version), shared by every connection."""

    def __init__(self, executor: Executor, frame_bound: int):
        self.executor = executor
        self.frame_bound = frame_bound


class ReplicaNode:
    """Serve a repository's models over the cluster transport.

    Parameters
    ----------
    repository:
        A :class:`ModelRepository` or a root path one is built from (created
        empty if missing — a fresh replica syncs before serving).
    host / port:
        Bind address; port 0 picks a free port (see :attr:`address`).
    backend:
        Executor backend for every model (``plan`` / ``reference`` / ...).
    name:
        Replica name reported in health probes (default ``host:port``).
    """

    def __init__(
        self,
        repository: Union[ModelRepository, str, Path],
        host: str = "127.0.0.1",
        port: int = 0,
        backend: str = "plan",
        name: Optional[str] = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ):
        if not isinstance(repository, ModelRepository):
            repository = ModelRepository(Path(repository))
        self.repository = repository
        self.backend = backend
        self.max_frame_bytes = max_frame_bytes
        self._lock = threading.Lock()
        self._executors: Dict[Tuple[str, int], _CachedExecutor] = {}
        self._closed = False
        self._started_at = time.monotonic()
        # Counters reported by health probes (and asserted by chaos tests).
        self.served_batches = 0
        self.errors = 0
        self.syncs = 0
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self.name = name or f"{self.address[0]}:{self.address[1]}"
        self._accept_thread: Optional[threading.Thread] = None
        self._connections: set = set()

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> "ReplicaNode":
        """Begin accepting connections on a daemon thread; returns self."""
        if self._accept_thread is None:
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name=f"replica-{self.name}", daemon=True
            )
            self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Blocking variant for ``python -m`` daemon use."""
        self.start()
        self._accept_thread.join()

    def close(self) -> None:
        """Stop serving: close the listener *and* every open connection.

        Dropping live connections is deliberate — from a peer's point of
        view a closed node is indistinguishable from a crashed one, which is
        exactly what the router's failure detection must handle (and what
        the in-process kill tests rely on).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            connections = list(self._connections)
        try:
            self._listener.close()
        except OSError:
            pass
        for conn in connections:
            conn.close()

    # -- accept / dispatch -----------------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            conn = Connection(sock, max_frame_bytes=self.max_frame_bytes)
            with self._lock:
                if self._closed:
                    conn.close()
                    continue
                self._connections.add(conn)
            threading.Thread(
                target=self._serve_connection, args=(conn,),
                name=f"replica-{self.name}-conn", daemon=True,
            ).start()

    def _serve_connection(self, conn: Connection) -> None:
        try:
            while True:
                try:
                    frame = conn.recv(timeout_s=None)  # idle connections are fine
                except (ConnectionClosed, TransportError):
                    return
                handler = getattr(self, f"_handle_{frame.kind}", None)
                if handler is None:
                    conn.send(
                        "error",
                        {"error": f"unknown frame kind {frame.kind!r}",
                         "retriable": False},
                    )
                    continue
                try:
                    reply_kind, meta, arrays = handler(frame)
                except TransportError:
                    raise
                except Exception as exc:  # handler bug: answer, don't hang
                    self.errors += 1
                    reply_kind, meta, arrays = (
                        "error",
                        {"error": f"{type(exc).__name__}: {exc}", "retriable": False},
                        None,
                    )
                conn.send(reply_kind, meta, arrays)
        except TransportError:
            pass  # peer went away mid-reply; nothing to clean up
        finally:
            conn.close()
            with self._lock:
                self._connections.discard(conn)

    # -- executors -------------------------------------------------------------
    def _executor_for(self, model: str, version: Optional[int]) -> Tuple[_CachedExecutor, int]:
        loaded = self.repository.get(model, version)
        key = (loaded.name, loaded.version)
        with self._lock:
            cached = self._executors.get(key)
            if cached is not None:
                return cached, loaded.version
        backend = auto_backend(self.backend, loaded.program)
        executor = Executor(loaded.program, backend=backend)
        entry = _CachedExecutor(executor, frame_bound_for_artifact(loaded.path))
        with self._lock:
            cached = self._executors.setdefault(key, entry)
        return cached, loaded.version

    # -- protocol handlers -----------------------------------------------------
    def _handle_predict(self, frame: Frame):
        model = frame.meta.get("model")
        version = frame.meta.get("version")
        batch = frame.arrays.get("batch")
        if not model or batch is None:
            return (
                "error",
                {"error": "predict frame needs meta.model and arrays.batch",
                 "retriable": False},
                None,
            )
        try:
            entry, resolved = self._executor_for(model, version)
        except (ModelNotFound, ProgramFormatError) as exc:
            return (
                "error",
                {"error": f"{type(exc).__name__}: {exc}", "retriable": False},
                None,
            )
        if batch.nbytes > entry.frame_bound:
            return (
                "error",
                {"error": (
                    f"batch of {batch.nbytes} bytes exceeds the artifact's "
                    f"{entry.frame_bound}-byte slot geometry"
                ), "retriable": False},
                None,
            )
        outputs = entry.executor.run(batch)
        self.served_batches += 1
        return (
            "result",
            {"model": model, "version": resolved},
            {"outputs": np.ascontiguousarray(outputs)},
        )

    def _handle_health(self, frame: Frame):
        return (
            "health_ok",
            {
                "name": self.name,
                "pid": os.getpid(),
                "uptime_s": time.monotonic() - self._started_at,
                "served_batches": self.served_batches,
                "errors": self.errors,
                "syncs": self.syncs,
                "models": self.repository.list_models(),
            },
            None,
        )

    def _handle_manifest(self, frame: Frame):
        from repro.serve.cluster.sync import repository_manifest

        return (
            "manifest_ok",
            {"models": repository_manifest(self.repository)},
            None,
        )

    def _handle_fetch(self, frame: Frame):
        model = frame.meta.get("model")
        version = frame.meta.get("version")
        try:
            path = self.repository.artifact_path(model, version)
            meta = self.repository.metadata(model, version)
        except (ModelNotFound, ValueError) as exc:
            return (
                "error",
                {"error": f"{type(exc).__name__}: {exc}", "retriable": False},
                None,
            )
        raw = path.read_bytes()
        return (
            "artifact",
            {
                "model": meta["name"],
                "version": meta["version"],
                "sha256": hashlib.sha256(raw).hexdigest(),
            },
            {"artifact": np.frombuffer(raw, dtype=np.uint8)},
        )

    def _handle_push(self, frame: Frame):
        """Install a pushed artifact: sha256-verify, then staged publish.

        Verification is two-layer: the *file* digest in the frame metadata
        guards the transfer, and :func:`verify_program_digest` re-checks the
        artifact's embedded content digest before the atomic publish — a
        frame that arrived intact but was corrupt at the source still fails
        here, loudly, instead of serving wrong predictions later.
        """
        model = frame.meta.get("model")
        version = frame.meta.get("version")
        claimed = frame.meta.get("sha256")
        payload = frame.arrays.get("artifact")
        if not model or version is None or payload is None or not claimed:
            return (
                "error",
                {"error": "push frame needs meta.{model,version,sha256} and "
                          "arrays.artifact", "retriable": False},
                None,
            )
        raw = payload.astype(np.uint8, copy=False).tobytes()
        actual = hashlib.sha256(raw).hexdigest()
        if actual != claimed:
            return (
                "error",
                {"error": (
                    f"pushed artifact for {model} v{version} failed sha256 "
                    f"verification (got {actual}, expected {claimed})"
                ), "retriable": True},  # a re-send may arrive intact
                None,
            )
        if int(version) in self.repository.versions(model):
            # Versions are immutable; an identical re-push is a no-op.
            return (
                "push_ok",
                {"model": model, "version": int(version), "installed": False},
                None,
            )
        tmp = tempfile.NamedTemporaryFile(
            suffix=".npz", prefix="sync-", delete=False
        )
        try:
            tmp.write(raw)
            tmp.close()
            verify_program_digest(tmp.name)  # embedded content digest
            self.repository.publish_artifact(tmp.name, model, int(version))
        except (ProgramFormatError, FileExistsError) as exc:
            return (
                "error",
                {"error": f"{type(exc).__name__}: {exc}", "retriable": False},
                None,
            )
        finally:
            try:
                os.unlink(tmp.name)
            except OSError:
                pass
        self.syncs += 1
        return (
            "push_ok",
            {"model": model, "version": int(version), "installed": True},
            None,
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one serving replica node (see docs/CLUSTER.md)."
    )
    parser.add_argument("--repo", required=True, help="model repository root")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--backend", default="plan")
    parser.add_argument("--name", default=None)
    args = parser.parse_args(argv)
    node = ReplicaNode(
        args.repo, host=args.host, port=args.port,
        backend=args.backend, name=args.name,
    )
    print(
        f"READY {node.address[0]}:{node.address[1]} pid={os.getpid()}",
        flush=True,
    )
    try:
        node.serve_forever()
    except KeyboardInterrupt:
        node.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
