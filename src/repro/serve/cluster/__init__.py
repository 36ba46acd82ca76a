"""Fault-tolerant multi-node serving: transport, replicas, router, sync.

The cluster tier turns the single-process serving stack into N replica
processes (or machines) behind one front end:

* :mod:`~repro.serve.cluster.transport` — length-prefixed array framing
  over TCP with per-operation deadlines and injectable network faults,
  each frame bounded by the artifact's input/output geometry.
* :mod:`~repro.serve.cluster.node` — the replica daemon: a model
  repository plus cached executors behind a socket, answering predict /
  health / sync frames (``python -m repro.serve.cluster.node``).
* :mod:`~repro.serve.cluster.router` — the front end: shards batches
  across health-checked replicas, re-dispatches failed shards to
  survivors, and exposes membership + retry counters to ``/healthz``.
* :mod:`~repro.serve.cluster.sync` — digest-diffed, sha256-verified
  repository replication (push from the front end, pull for cold
  replicas).

See docs/CLUSTER.md for topology, knobs, and the failure-mode table.
"""

from repro.serve.cluster.node import ReplicaNode
from repro.serve.cluster.router import (
    ClusterRouter,
    MembershipPolicy,
    NoReplicas,
    ReplicaError,
    ReplicaHandle,
    RouterPool,
    TcpReplica,
)
from repro.serve.cluster.sync import (
    SyncError,
    diff_manifests,
    pull_from_node,
    repository_manifest,
    sync_to_node,
)
from repro.serve.cluster.transport import (
    Connection,
    ConnectionClosed,
    DeadlineExpired,
    Frame,
    FrameTooLarge,
    Partitioned,
    TransportError,
    TruncatedFrame,
    connect,
    frame_bound_for_artifact,
    recv_frame,
    send_frame,
)

__all__ = [
    "ClusterRouter",
    "Connection",
    "ConnectionClosed",
    "DeadlineExpired",
    "Frame",
    "FrameTooLarge",
    "MembershipPolicy",
    "NoReplicas",
    "Partitioned",
    "ReplicaError",
    "ReplicaHandle",
    "ReplicaNode",
    "RouterPool",
    "SyncError",
    "TcpReplica",
    "TransportError",
    "TruncatedFrame",
    "connect",
    "diff_manifests",
    "frame_bound_for_artifact",
    "pull_from_node",
    "recv_frame",
    "repository_manifest",
    "send_frame",
    "sync_to_node",
]
