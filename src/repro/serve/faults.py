"""Deterministic fault injection for the serving stack.

Production resilience code is exactly the code that never runs in a clean
test environment: workers do not crash on cue, queues do not stall, and
artifacts do not corrupt themselves.  This module makes those failures
*schedulable*.  A :class:`FaultPlan` is a picklable, seeded description of
faults to inject — it crosses the ``multiprocessing`` boundary into process
workers unchanged — and each worker incarnation evaluates it through its own
:class:`FaultSession` (a batch counter, per-spec trigger budgets, and a
seeded RNG), so a chaos test replays *identically* on every run.

Supported fault kinds (:data:`FAULT_KINDS`):

``crash``
    The worker dies while holding the batch.  Process workers hard-exit
    (``os._exit``) — a real SIGKILL-grade death exercising the crash
    detector, respawn, and retry paths; thread workers raise
    :class:`~repro.serve.workers.WorkerCrashed` (a simulated transient
    crash: the thread survives, the batch fails exactly like a real one).
``slow``
    The worker sleeps ``delay_ms`` before executing the batch — a degraded
    replica that makes deadlines and timeout-driven breakers testable.
``stall``
    The worker sleeps ``delay_ms`` before even looking at the message — a
    stalled queue consumer.
``corrupt_artifact``
    The worker's artifact read fails at load time (process workers only:
    thread workers receive an already-deserialized program).  Drives the
    start-failure accounting and the respawn cap.

Network fault kinds (:data:`NET_FAULT_KINDS`) are evaluated inside the
cluster transport (:mod:`repro.serve.cluster.transport`) through a
:class:`NetFaultSession` — one per peer, counting *frames* instead of
batches, so chaos runs against a router replay identically:

``drop_conn``
    The connection is severed (socket closed, the operation fails) on the
    matching frame — a replica crash or an RST seen from the wire.
``slow_link``
    The frame is delayed ``delay_ms`` before transmission — a congested or
    degraded link that makes probe deadlines and request timeouts testable.
``partition``
    The peer becomes unreachable *from the matching frame onward*: every
    subsequent operation fails without touching the socket.  ``nth_batch``
    marks the first affected frame (>=, unlike the exact-match batch kinds)
    and ``times`` bounds how many frames fail before the partition heals
    (``None`` = never heals).

For network kinds ``worker`` selects the *peer* (replica index) and
``spawn`` is ignored — connections have no incarnation identity.

A ``crash`` spec may additionally set ``during_scale=True``: instead of
firing on a batch ordinal inside a worker, it fires when the pool's
``resize()`` runs — the parent evaluates it through a
:class:`ScaleFaultSession` and kills a live worker mid-scale (process
pools terminate the target's OS process; thread pools fail the next
batch), which is exactly the window where respawn bookkeeping and slot
accounting are easiest to get wrong.  ``nth_batch`` then counts *resizes*
(the Nth ``resize()`` call on the pool) and ``worker`` selects the victim
slot (``None`` = the lowest live slot).

Every knob is deterministic: ``worker`` selects a pool slot, ``spawn``
selects an incarnation of that slot (``0`` — the default — targets only the
first process spawned into the slot, so a respawned replacement is healthy
and recovery is observable; ``None`` poisons every incarnation), and
``nth_batch``/``times`` schedule the trigger on the worker's own batch
ordinals.  ``probability`` draws from the session RNG, which is seeded by
``(plan.seed, worker, spawn)`` — the same coin flips on every run.

The default everywhere is **no plan** (``None``): the hooks cost one ``is
None`` check per batch and inject nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

FAULT_KINDS = (
    "crash", "slow", "stall", "corrupt_artifact",
    "drop_conn", "slow_link", "partition",
)

#: The subset evaluated by the cluster transport's :class:`NetFaultSession`
#: (worker sessions never fire these, and vice versa).
NET_FAULT_KINDS = ("drop_conn", "slow_link", "partition")


@dataclass(frozen=True)
class FaultSpec:
    """One schedulable fault.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    worker:
        Pool slot index the fault targets; ``None`` matches every worker.
    spawn:
        Which incarnation of the slot (0 = the original worker, 1 = its
        first respawn, ...); ``None`` matches every incarnation.  The
        default 0 makes "crash once, recover" the easy case to write.
    nth_batch:
        1-based batch ordinal *on that worker* the fault triggers on;
        ``None`` makes every batch a candidate.  Ignored by
        ``corrupt_artifact`` (which triggers at load time).
    times:
        Trigger budget per session; ``None`` is unlimited.
    delay_ms:
        Sleep duration for ``slow``/``stall``.
    probability:
        Chance a candidate trigger actually fires, drawn from the
        session's seeded RNG (1.0 = always; still deterministic).
    during_scale:
        Fire at pool ``resize()`` time instead of on a worker's batch
        (``crash`` only).  ``worker`` then selects the victim slot,
        ``nth_batch`` the resize ordinal, and ``spawn`` is ignored — the
        parent evaluates the spec, not a worker incarnation.
    """

    kind: str
    worker: Optional[int] = None
    spawn: Optional[int] = 0
    nth_batch: Optional[int] = None
    times: Optional[int] = 1
    delay_ms: float = 0.0
    probability: float = 1.0
    during_scale: bool = False

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.during_scale and self.kind != "crash":
            raise ValueError(
                f"during_scale only supports kind='crash', got {self.kind!r}"
            )
        if self.delay_ms < 0:
            raise ValueError(f"delay_ms must be >= 0, got {self.delay_ms}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be >= 1 (or None), got {self.times}")
        if self.nth_batch is not None and self.nth_batch < 1:
            raise ValueError(f"nth_batch is 1-based, got {self.nth_batch}")


@dataclass(frozen=True)
class FaultPlan:
    """A picklable, seeded set of :class:`FaultSpec` entries.

    The plan itself is immutable state-free configuration; all mutable
    evaluation state (batch counters, budgets, RNG) lives in the
    :class:`FaultSession` each worker incarnation creates from it — which is
    what lets one plan object be shared by N workers across process
    boundaries and still behave deterministically per worker.
    """

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    # -- convenience constructors (the common chaos-test shapes) ---------------
    @staticmethod
    def crash_on_batch(nth: int, worker: Optional[int] = None, *,
                       spawn: Optional[int] = 0, times: Optional[int] = 1,
                       seed: int = 0) -> "FaultPlan":
        """Crash ``worker`` (or any) on its ``nth`` batch."""
        return FaultPlan(
            (FaultSpec("crash", worker=worker, spawn=spawn,
                       nth_batch=nth, times=times),),
            seed=seed,
        )

    @staticmethod
    def slow_worker(delay_ms: float, worker: Optional[int] = None, *,
                    spawn: Optional[int] = 0, times: Optional[int] = None,
                    seed: int = 0) -> "FaultPlan":
        """Delay every (or the first ``times``) batches on ``worker``."""
        return FaultPlan(
            (FaultSpec("slow", worker=worker, spawn=spawn,
                       times=times, delay_ms=delay_ms),),
            seed=seed,
        )

    @staticmethod
    def corrupt_artifact(worker: Optional[int] = None, *,
                         spawn: Optional[int] = 0, seed: int = 0) -> "FaultPlan":
        """Fail the artifact read at worker start (process workers)."""
        return FaultPlan(
            (FaultSpec("corrupt_artifact", worker=worker, spawn=spawn),),
            seed=seed,
        )

    @staticmethod
    def crash_during_scale(worker: Optional[int] = None, *,
                           nth_resize: Optional[int] = None,
                           times: Optional[int] = 1,
                           seed: int = 0) -> "FaultPlan":
        """Kill a live worker while the pool is resizing (the ``nth_resize``-th
        ``resize()`` call, or every one)."""
        return FaultPlan(
            (FaultSpec("crash", worker=worker, spawn=None,
                       nth_batch=nth_resize, times=times, during_scale=True),),
            seed=seed,
        )

    @staticmethod
    def queue_stall(delay_ms: float, worker: Optional[int] = None, *,
                    spawn: Optional[int] = 0, times: Optional[int] = 1,
                    seed: int = 0) -> "FaultPlan":
        """Stall the worker's queue consumption for ``delay_ms``."""
        return FaultPlan(
            (FaultSpec("stall", worker=worker, spawn=spawn,
                       times=times, delay_ms=delay_ms),),
            seed=seed,
        )

    @staticmethod
    def drop_connection(nth_frame: Optional[int] = None,
                        peer: Optional[int] = None, *,
                        times: Optional[int] = 1, seed: int = 0) -> "FaultPlan":
        """Sever the connection to ``peer`` on its ``nth_frame``-th frame."""
        return FaultPlan(
            (FaultSpec("drop_conn", worker=peer, spawn=None,
                       nth_batch=nth_frame, times=times),),
            seed=seed,
        )

    @staticmethod
    def slow_link(delay_ms: float, peer: Optional[int] = None, *,
                  times: Optional[int] = None, seed: int = 0) -> "FaultPlan":
        """Delay every (or the first ``times``) frames to ``peer``."""
        return FaultPlan(
            (FaultSpec("slow_link", worker=peer, spawn=None,
                       times=times, delay_ms=delay_ms),),
            seed=seed,
        )

    @staticmethod
    def partition(peer: Optional[int] = None, *,
                  after_frame: int = 1, heal_after: Optional[int] = None,
                  seed: int = 0) -> "FaultPlan":
        """Make ``peer`` unreachable from its ``after_frame``-th frame on.

        ``heal_after`` bounds the partition: that many frames fail, then
        traffic flows again (``None`` = the partition never heals).
        """
        return FaultPlan(
            (FaultSpec("partition", worker=peer, spawn=None,
                       nth_batch=after_frame, times=heal_after),),
            seed=seed,
        )

    def __add__(self, other: "FaultPlan") -> "FaultPlan":
        """Compose plans (left seed wins: one RNG stream per session)."""
        return FaultPlan(self.specs + tuple(other.specs), seed=self.seed)

    def session(self, worker: int = 0, spawn: int = 0) -> "FaultSession":
        """Evaluation state for one worker incarnation."""
        return FaultSession(self, worker=worker, spawn=spawn)

    def net_session(self, peer: int = 0) -> "NetFaultSession":
        """Evaluation state for one transport peer (replica index)."""
        return NetFaultSession(self, peer=peer)


class FaultSession:
    """Per-worker-incarnation evaluation of a :class:`FaultPlan`.

    Workers call :meth:`on_batch` once per batch (and process workers call
    :meth:`on_artifact_load` once at startup); matching specs come back as a
    list of actions for the caller to apply in order — sleeps first, crash
    last, so a ``slow`` + ``crash`` combination observes both.
    """

    def __init__(self, plan: FaultPlan, worker: int = 0, spawn: int = 0):
        self.plan = plan
        self.worker = worker
        self.spawn = spawn
        self.batches = 0
        self._budgets: List[Optional[int]] = [spec.times for spec in plan.specs]
        self._rng = random.Random(f"{plan.seed}:{worker}:{spawn}")

    def _matches(self, index: int, spec: FaultSpec, *, batch: Optional[int]) -> bool:
        if spec.worker is not None and spec.worker != self.worker:
            return False
        if spec.spawn is not None and spec.spawn != self.spawn:
            return False
        if batch is not None and spec.nth_batch is not None and spec.nth_batch != batch:
            return False
        budget = self._budgets[index]
        if budget is not None and budget <= 0:
            return False
        if spec.probability < 1.0 and self._rng.random() >= spec.probability:
            return False
        if budget is not None:
            self._budgets[index] = budget - 1
        return True

    def _fire(self, kinds: Sequence[str], batch: Optional[int]) -> List[FaultSpec]:
        fired = [
            spec
            for index, spec in enumerate(self.plan.specs)
            # during_scale specs belong to the parent's ScaleFaultSession,
            # never to a worker's batch/load hooks.
            if spec.kind in kinds
            and not spec.during_scale
            and self._matches(index, spec, batch=batch)
        ]
        # Sleeps before the crash: a slow death is still observably slow.
        order = {"stall": 0, "slow": 1, "crash": 2}
        fired.sort(key=lambda spec: order.get(spec.kind, 3))
        return fired

    def on_batch(self) -> List[FaultSpec]:
        """Advance the batch counter; actions to apply to this batch."""
        self.batches += 1
        return self._fire(("stall", "slow", "crash"), batch=self.batches)

    def on_artifact_load(self) -> Optional[FaultSpec]:
        """The ``corrupt_artifact`` spec to apply at load time, if any."""
        fired = self._fire(("corrupt_artifact",), batch=None)
        return fired[0] if fired else None


class ScaleFaultSession:
    """Parent-side evaluation of ``during_scale`` specs — one per pool.

    Worker pools call :meth:`on_resize` once per ``resize()``; the returned
    specs name the victims to kill mid-scale.  Evaluation state (a resize
    counter, per-spec budgets, a seeded RNG stream distinct from every
    worker's) lives here in the parent, because the crash targets a worker
    *from outside* — terminating its process, or failing its next batch —
    exactly as an external killer would.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.resizes = 0
        self._budgets: List[Optional[int]] = [spec.times for spec in plan.specs]
        self._rng = random.Random(f"{plan.seed}:scale")

    def on_resize(self) -> List[FaultSpec]:
        """Advance the resize counter; crash specs to apply to this resize."""
        self.resizes += 1
        fired: List[FaultSpec] = []
        for index, spec in enumerate(self.plan.specs):
            if not spec.during_scale:
                continue
            if spec.nth_batch is not None and spec.nth_batch != self.resizes:
                continue
            budget = self._budgets[index]
            if budget is not None and budget <= 0:
                continue
            if spec.probability < 1.0 and self._rng.random() >= spec.probability:
                continue
            if budget is not None:
                self._budgets[index] = budget - 1
            fired.append(spec)
        return fired


class NetFaultSession:
    """Per-peer evaluation of a plan's network specs — one per replica.

    The cluster transport calls :meth:`on_frame` once per frame it is about
    to move (sends and receives both advance the counter), and applies the
    returned specs in order: ``partition`` first (the frame never reaches
    the wire), then ``slow_link`` (delay), then ``drop_conn`` (sever after
    any delay).  Frame ordinals are per-peer, so a plan targeting "the 3rd
    frame to replica 1" replays identically however the router interleaves
    its other peers.

    Matching semantics differ from batch faults in two deliberate ways:
    ``spawn`` never filters (connections have no incarnation), and a
    ``partition`` spec's ``nth_batch`` is a *lower bound* — the partition
    holds from that frame until its ``times`` budget heals it.
    """

    def __init__(self, plan: FaultPlan, peer: int = 0):
        self.plan = plan
        self.peer = peer
        self.frames = 0
        self._budgets: List[Optional[int]] = [spec.times for spec in plan.specs]
        self._rng = random.Random(f"{plan.seed}:net:{peer}")

    def _matches(self, index: int, spec: FaultSpec) -> bool:
        if spec.worker is not None and spec.worker != self.peer:
            return False
        if spec.nth_batch is not None:
            if spec.kind == "partition":
                if self.frames < spec.nth_batch:
                    return False
            elif spec.nth_batch != self.frames:
                return False
        budget = self._budgets[index]
        if budget is not None and budget <= 0:
            return False
        if spec.probability < 1.0 and self._rng.random() >= spec.probability:
            return False
        if budget is not None:
            self._budgets[index] = budget - 1
        return True

    def on_frame(self) -> List[FaultSpec]:
        """Advance the frame counter; actions to apply to this frame."""
        self.frames += 1
        fired = [
            spec
            for index, spec in enumerate(self.plan.specs)
            if spec.kind in NET_FAULT_KINDS and self._matches(index, spec)
        ]
        order = {"partition": 0, "slow_link": 1, "drop_conn": 2}
        fired.sort(key=lambda spec: order[spec.kind])
        return fired


class InjectedFault(RuntimeError):
    """Raised in place of real I/O when a ``corrupt_artifact`` fault fires."""
