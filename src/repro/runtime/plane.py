"""Execution planes: who runs the solve, and on which core.

Every compute layer of the reproduction — dataset generation, the session's
``solve_batch``, the serving engine's micro-batch dispatch — ultimately asks
the same question: *run this batched solver call against warm per-key state
(prepared geometry + block basis or factorisation) somewhere*.  Historically the
answer was always "inline, on the calling thread", which caps every layer at
one core.  An :class:`ExecutionPlane` abstracts that answer behind one
submission interface so the three layers scale together:

* :class:`SerialPlane` — runs tasks inline on the calling thread, one at a
  time, with a warm-state LRU.  Bitwise-identical to the historical inline
  pipelines and the default everywhere.
* :class:`ThreadPlane` — a fixed pool of worker threads, each owning its own
  warm states.  Overlaps batching windows and releases the GIL inside SciPy
  back-substitutions, but heavy Python-side work still contends.
* :class:`ProcessPlane` — spawned worker **processes**, each keeping warm
  per-process solver state, so batched solves run on separate cores with no
  GIL in sight.  Task functions and state factories must be module-level
  (picklable by reference); payloads and results cross process boundaries by
  pickling.

Tasks carry a ``state_key``: workers cache the expensive state (a prepared
solver) under that key, so a factorisation is computed at most once per
worker and amortised across every task routed to it.  Routing is by stable
key-affinity hashing (CRC-32 of the key's repr), overridable per task with
an explicit ``affinity`` slot — dataset generation uses that to shard one
key's batches round-robin across all workers, each of which then warms its
own copy of the factorisation.
"""

from __future__ import annotations

import atexit
import os
import queue as queue_module
import signal
import threading
import time
import zlib
from collections import OrderedDict, deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence

from repro.obs.bus import publish_all
from repro.obs.events import WorkerDead, WorkerRetry
from repro.runtime.faults import FaultPlan, WorkerFault

#: Warm solver states kept per worker before LRU eviction.  A state can
#: hold a sparse LU factorisation (a transient adapter's backward-Euler
#: factor), so the bound is deliberately small.
DEFAULT_STATE_CAPACITY = 4

#: The plane kinds :func:`create_plane` understands.
PLANE_KINDS = ("serial", "threads", "processes")

#: How many warm keys a plane lists verbatim per worker in :meth:`stats`
#: before truncating to a count (keeps ``/stats`` payloads bounded).
_STATS_KEY_LIMIT = 8

#: Times one task may be shipped in total (first attempt + retries) before
#: a lost task is failed instead of resubmitted.
DEFAULT_MAX_TASK_ATTEMPTS = 2

#: Retries charged against one ``state_key`` across the plane's lifetime
#: before further losses on that key fail fast — a task whose factorisation
#: reliably kills workers must not take down the whole pool one by one.
DEFAULT_MAX_KEY_RETRIES = 4

#: Base delay before a lost task is reshipped; doubles per attempt.
DEFAULT_RETRY_BACKOFF_S = 0.05

#: Seconds a worker must be dead before its pending tasks are declared
#: lost: results the worker computed just before dying are still in flight
#: through the result queue's feeder pipe, and dooming them early would
#: recompute work that already succeeded.
DEAD_WORKER_GRACE_S = 0.5


class DeadlineExceeded(TimeoutError):
    """A task (or request) deadline expired before the work was started.

    Raised by planes that refuse to start expired tasks and by the serving
    engine when it sheds a request that expired while queued.  The work was
    *never solved* — callers distinguishing "slow" from "shed" can rely on
    that.
    """


class PlaneTimeout(TimeoutError):
    """``run_all``'s single overall deadline expired with tasks unfinished.

    Carries a descriptive message (how many of how many tasks were still
    unfinished after how long); leftover futures are cancelled where
    possible but tasks already running on workers are not interrupted.
    """


@dataclass(frozen=True)
class PlaneTask:
    """One unit of work for an execution plane.

    Attributes
    ----------
    fn:
        Module-level callable ``fn(state, payload) -> result`` (picklable by
        reference for :class:`ProcessPlane`).  ``state`` is ``None`` for
        stateless tasks.
    payload:
        Picklable argument forwarded to ``fn``.
    state_key:
        Hashable identity of the warm state this task needs; workers build
        it once (via ``state_factory(state_spec)``) and reuse it for every
        later task carrying the same key.  ``None`` means stateless.
    state_factory:
        Module-level callable building the state from ``state_spec`` on a
        worker's first encounter with ``state_key``.
    state_spec:
        Picklable construction recipe handed to ``state_factory``.
    affinity:
        Optional explicit worker slot (taken modulo the worker count).
        ``None`` routes by stable hash of ``state_key``, keeping every task
        of one key on one worker; an integer shards a single key's tasks
        across workers (each warms its own state copy).
    deadline:
        Optional absolute deadline in ``time.monotonic()`` seconds.  A
        plane never *starts* a task past its deadline: the future fails
        with :class:`DeadlineExceeded` instead (counted as ``shed`` in
        :meth:`ExecutionPlane.stats`), so a backlog cannot burn worker
        time answering questions nobody is waiting for anymore.  Workers
        run on the same host as the submitter, so the monotonic clock is
        shared.
    """

    fn: Callable[[Any, Any], Any]
    payload: Any = None
    state_key: Optional[Hashable] = None
    state_factory: Optional[Callable[[Any], Any]] = None
    state_spec: Any = None
    affinity: Optional[int] = None
    deadline: Optional[float] = None

    def expired(self, now: Optional[float] = None) -> bool:
        """Whether the task's deadline (if any) has already passed."""
        if self.deadline is None:
            return False
        return (time.monotonic() if now is None else now) >= self.deadline


def _stable_slot(key: Hashable, workers: int) -> int:
    """Deterministic worker slot for a state key (stable across restarts)."""
    return zlib.crc32(repr(key).encode("utf-8")) % workers


class _WarmStates:
    """A small LRU of per-worker warm states (not thread-safe by itself)."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("state capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    def get(self, task: PlaneTask) -> Any:
        """The warm state for ``task`` (built on first use), or ``None``."""
        if task.state_key is None:
            return None
        if task.state_key in self._entries:
            self._entries.move_to_end(task.state_key)
            return self._entries[task.state_key]
        if task.state_factory is None:
            raise ValueError(
                f"task carries state_key {task.state_key!r} but no state_factory"
            )
        state = task.state_factory(task.state_spec)
        self._entries[task.state_key] = state
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return state

    def keys(self) -> List[Hashable]:
        """Currently resident state keys, least recently used first."""
        return list(self._entries)


class _WorkerStats:
    """Parent-side bookkeeping of one worker slot (guarded by plane lock)."""

    def __init__(self) -> None:
        self.submitted = 0
        self.completed = 0
        self.errors = 0
        self.warm_keys: "OrderedDict[Hashable, None]" = OrderedDict()

    def snapshot(self) -> Dict[str, Any]:
        keys = list(self.warm_keys)
        summary: Dict[str, Any] = {
            "tasks": self.submitted,
            "completed": self.completed,
            "errors": self.errors,
            "queue_depth": self.submitted - self.completed,
            "warm_keys": len(keys),
        }
        if keys:
            summary["keys"] = [str(key) for key in keys[-_STATS_KEY_LIMIT:]]
        return summary


class ExecutionPlane:
    """Common submission surface and statistics of every plane kind."""

    #: Plane kind reported in :meth:`stats` (``serial``/``threads``/``processes``).
    kind = "base"

    #: Whether :meth:`submit` runs the task to completion before returning
    #: (true only for :class:`SerialPlane`).  Callers that interleave
    #: submission with progress reporting check this to submit lazily —
    #: eagerly submitting to a synchronous plane would run the whole
    #: workload inside the submission loop.
    synchronous = False

    def __init__(self, workers: int, state_capacity: int = DEFAULT_STATE_CAPACITY):
        if workers < 1:
            raise ValueError("an execution plane needs at least one worker")
        self.workers = workers
        self.state_capacity = state_capacity
        self._stats_lock = threading.Lock()
        self._worker_stats = [_WorkerStats() for _ in range(workers)]
        self._shed = 0
        self._retried = 0
        self._closed = False
        #: Optional :class:`~repro.obs.bus.EventBus` receiving worker-death
        #: and retry telemetry; set via :meth:`attach_events`.
        self.events = None

    def attach_events(self, bus) -> None:
        """Attach an :class:`~repro.obs.bus.EventBus` for plane telemetry.

        Only the fault-tolerant :class:`ProcessPlane` currently emits
        events (``worker_dead`` / ``worker_retry``); attaching a bus to
        the other kinds is harmless.
        """
        self.events = bus

    # ------------------------------------------------------------------
    def _slot_of(self, task: PlaneTask) -> int:
        if self.workers == 1:
            return 0
        if task.affinity is not None:
            return int(task.affinity) % self.workers
        if task.state_key is not None:
            return _stable_slot(task.state_key, self.workers)
        # Stateless tasks with no affinity spread round-robin by submit order.
        with self._stats_lock:
            total = sum(w.submitted for w in self._worker_stats)
        return total % self.workers

    def _record_submit(self, slot: int, task: PlaneTask) -> bool:
        """Record a routed task; returns whether its state was already warm.

        The per-slot ``warm_keys`` mirror the worker-side LRU exactly: the
        worker touches its state cache in this same routing order (one FIFO
        queue per worker), so evicting here keeps the reported ``warm_keys``
        equal to what is actually resident (docs tell operators to budget
        memory from this number) — and a key present in the mirror is
        guaranteed resident on the worker by the time this task reaches it,
        which :class:`ProcessPlane` uses to skip re-pickling state specs.
        """
        with self._stats_lock:
            stats = self._worker_stats[slot]
            stats.submitted += 1
            if task.state_key is None:
                return False
            already_warm = task.state_key in stats.warm_keys
            stats.warm_keys[task.state_key] = None
            stats.warm_keys.move_to_end(task.state_key)
            while len(stats.warm_keys) > self.state_capacity:
                stats.warm_keys.popitem(last=False)
            return already_warm

    def _record_done(self, slot: int, failed: bool) -> None:
        with self._stats_lock:
            self._worker_stats[slot].completed += 1
            if failed:
                self._worker_stats[slot].errors += 1

    def _count_shed(self) -> None:
        """Count one deadline-shed task (never started, never an error)."""
        with self._stats_lock:
            self._shed += 1

    def _count_retry(self) -> None:
        """Count one lost task resubmitted to a healthy worker."""
        with self._stats_lock:
            self._retried += 1

    def _shed_future(self, task: PlaneTask) -> Future:
        """A settled future failing ``task`` with :class:`DeadlineExceeded`."""
        self._count_shed()
        future: Future = Future()
        future.set_running_or_notify_cancel()
        future.set_exception(
            DeadlineExceeded(
                "plane task deadline expired "
                f"{time.monotonic() - task.deadline:.3f}s before it could start"
            )
        )
        return future

    # ------------------------------------------------------------------
    def submit(self, task: PlaneTask) -> Future:
        """Enqueue one task; the returned future resolves to ``fn``'s result."""
        raise NotImplementedError

    def run_all(self, tasks: Sequence[PlaneTask], timeout: Optional[float] = None) -> List[Any]:
        """Submit every task and collect their results in submission order.

        ``timeout`` is one **overall** deadline for the whole batch, not a
        per-future allowance (which would let the total wait balloon to
        N x timeout).  On expiry the still-pending leftovers are cancelled
        where possible and a descriptive :class:`PlaneTimeout` is raised.
        Task errors propagate as before: first in submission order wins.
        """
        futures = [self.submit(task) for task in tasks]
        deadline = None if timeout is None else time.monotonic() + float(timeout)
        results = []
        for index, future in enumerate(futures):
            remaining: Optional[float] = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            try:
                results.append(future.result(timeout=remaining))
            except FutureTimeoutError:
                leftovers = [f for f in futures[index:] if not f.done()]
                for leftover in leftovers:
                    leftover.cancel()
                raise PlaneTimeout(
                    f"{len(leftovers)} of {len(tasks)} plane tasks were still "
                    f"unfinished when the overall {float(timeout):.1f}s "
                    "run_all deadline expired"
                ) from None
        return results

    def warm_up(
        self,
        recipes: Sequence[tuple],
        timeout: Optional[float] = None,
    ) -> int:
        """Pre-build warm states so later traffic hits hot factorisations.

        ``recipes`` is a sequence of ``(state_key, state_factory,
        state_spec)`` triples; each becomes one no-op task routed by its
        key's normal affinity, which forces the owning worker to construct
        the state (geometry + factorisation) through its LRU exactly as a
        real task would.  Returns how many states were resident afterwards.
        This is the plane half of the fleet warm-up protocol: a replica
        answering ``POST /warm_up`` calls this before re-admission so its
        first real request never pays a cold factorisation.
        """
        from repro.runtime.tasks import warm_state

        tasks = [
            PlaneTask(
                fn=warm_state,
                state_key=state_key,
                state_factory=state_factory,
                state_spec=state_spec,
            )
            for state_key, state_factory, state_spec in recipes
        ]
        return sum(bool(ok) for ok in self.run_all(tasks, timeout=timeout))

    def close(self) -> None:
        """Release the plane's workers (idempotent; no-op for serial)."""
        self._closed = True

    def __enter__(self) -> "ExecutionPlane":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (closed planes reject submits)."""
        return self._closed

    def stats(self) -> Dict[str, Any]:
        """Task counters, per-worker warm keys and queue depths for ``/stats``."""
        with self._stats_lock:
            per_worker = [w.snapshot() for w in self._worker_stats]
            shed = self._shed
            retried = self._retried
        return {
            "kind": self.kind,
            "workers": self.workers,
            "tasks": sum(w["tasks"] for w in per_worker),
            "completed": sum(w["completed"] for w in per_worker),
            "errors": sum(w["errors"] for w in per_worker),
            "queue_depth": sum(w["queue_depth"] for w in per_worker),
            "shed": shed,
            "retried": retried,
            "workers_dead": 0,
            "per_worker": per_worker,
        }


# ----------------------------------------------------------------------
# Serial
# ----------------------------------------------------------------------
class SerialPlane(ExecutionPlane):
    """Inline execution on the calling thread — the historical behaviour.

    Tasks run synchronously inside :meth:`submit`, one at a time (a
    plane-wide lock serialises concurrent submitters), against a single
    warm-state LRU.  Results are therefore bitwise-identical to the
    pre-plane pipelines; this is the default plane everywhere.
    """

    kind = "serial"
    synchronous = True

    def __init__(self, state_capacity: int = DEFAULT_STATE_CAPACITY):
        super().__init__(workers=1, state_capacity=state_capacity)
        self._states = _WarmStates(state_capacity)
        self._execute_lock = threading.Lock()

    def submit(self, task: PlaneTask) -> Future:
        """Run ``task`` inline and return its already-settled future."""
        if self._closed:
            raise RuntimeError("the execution plane has been closed")
        if task.expired():
            return self._shed_future(task)
        future: Future = Future()
        future.set_running_or_notify_cancel()
        self._record_submit(0, task)
        failed = False
        with self._execute_lock:
            try:
                state = self._states.get(task)
                result = task.fn(state, task.payload)
            except BaseException as error:  # noqa: BLE001 — travels to caller
                failed = True
                future.set_exception(error)
            else:
                future.set_result(result)
        self._record_done(0, failed)
        return future

    def stats(self) -> Dict[str, Any]:
        """Serial stats additionally reflect the live warm-state cache."""
        summary = super().stats()
        with self._execute_lock:
            keys = self._states.keys()
        summary["per_worker"][0]["warm_keys"] = len(keys)
        summary["per_worker"][0]["keys"] = [str(key) for key in keys[-_STATS_KEY_LIMIT:]]
        return summary


# ----------------------------------------------------------------------
# Threads
# ----------------------------------------------------------------------
class ThreadPlane(ExecutionPlane):
    """A fixed pool of worker threads, each owning its own warm states.

    Buys overlap (SciPy's factorisations and back-substitutions release the
    GIL) without process-spawn or pickling costs, but pure-Python task work
    still serialises under the GIL — for full multi-core scaling use
    :class:`ProcessPlane`.
    """

    kind = "threads"

    def __init__(
        self,
        workers: Optional[int] = None,
        state_capacity: int = DEFAULT_STATE_CAPACITY,
    ):
        workers = workers if workers is not None else (os.cpu_count() or 1)
        super().__init__(workers=workers, state_capacity=state_capacity)
        self._queues: List[deque] = [deque() for _ in range(self.workers)]
        self._wakeups = [threading.Condition() for _ in range(self.workers)]
        self._threads: List[threading.Thread] = []
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._run, args=(index,), name=f"plane-worker-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def submit(self, task: PlaneTask) -> Future:
        """Route ``task`` to its worker thread's queue."""
        if task.expired():
            return self._shed_future(task)
        slot = self._slot_of(task)
        future: Future = Future()
        with self._wakeups[slot]:
            # Checked under the worker's condition: a submit racing close()
            # must fail fast rather than park a future no worker will drain.
            if self._closed:
                raise RuntimeError("the execution plane has been closed")
            self._record_submit(slot, task)
            self._queues[slot].append((task, future))
            self._wakeups[slot].notify()
        return future

    def _run(self, index: int) -> None:
        states = _WarmStates(self.state_capacity)
        wakeup = self._wakeups[index]
        queue = self._queues[index]
        while True:
            with wakeup:
                while not queue and not self._closed:
                    wakeup.wait()
                if not queue:
                    return  # closed and drained
                task, future = queue.popleft()
            if not future.set_running_or_notify_cancel():
                self._record_done(index, failed=False)
                continue
            if task.expired():
                # Expired while queued behind other tasks: shed, never run.
                self._count_shed()
                self._record_done(index, failed=False)
                future.set_exception(
                    DeadlineExceeded(
                        "plane task deadline expired while queued on "
                        f"worker {index}"
                    )
                )
                continue
            failed = False
            try:
                state = states.get(task)
                result = task.fn(state, task.payload)
            except BaseException as error:  # noqa: BLE001
                failed = True
                future.set_exception(error)
            else:
                future.set_result(result)
            self._record_done(index, failed)

    def close(self) -> None:
        """Drain the queues, then stop and join every worker thread."""
        if self._closed:
            return
        self._closed = True
        for wakeup in self._wakeups:
            with wakeup:
                wakeup.notify_all()
        for thread in self._threads:
            thread.join()
        self._threads = []


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
def _process_worker_main(index, parent_pid, task_queue, result_queue, state_capacity, fault=None):
    """Loop of one spawned worker: build warm state on demand, run tasks.

    SIGINT is ignored — on Ctrl+C the parent coordinates shutdown through
    the queues, so workers must not die mid-task with corrupted pipes.  The
    loop also exits when the parent disappears (re-parented), so killed
    parents do not leave orphan solver processes behind.

    Results are pickled *explicitly* (not left to the queue's feeder
    thread): a feeder-thread pickling error is printed and swallowed, which
    would strand the caller's future forever, whereas pickling inside the
    task's try block turns an unpicklable result into an error the caller
    actually receives.

    A per-key *recipe* cache (the last shipped ``(state_factory,
    state_spec)``, evicted in lockstep with the state LRU) lets the worker
    rebuild state for spec-elided tasks — the parent stops shipping the
    construction recipe once it believes a key is warm, and without the
    recipe a single failed factory call (e.g. an OOM during factorisation)
    would poison that key for the plane's lifetime instead of being retried.

    ``fault`` optionally carries this slot's
    :class:`~repro.runtime.faults.WorkerFault` chaos directive: the worker
    counts its own received tasks and computed results, dying or dropping
    exactly where the plan says — deterministic no matter how the parent
    interleaves submissions across slots.
    """
    import pickle

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    states = _WarmStates(state_capacity)
    recipes: "OrderedDict[Hashable, tuple]" = OrderedDict()
    received = 0
    computed = 0
    while True:
        try:
            message = task_queue.get(timeout=1.0)
        except queue_module.Empty:
            if os.getppid() != parent_pid:
                return  # the parent is gone; do not linger as an orphan
            continue
        if message is None:
            return
        received += 1
        if fault is not None and fault.kill_after is not None and received > fault.kill_after:
            # Chaos: die *holding* this task, exactly like an OOM kill —
            # the parent must notice and retry it on a healthy worker.
            # Flush buffered result messages first so the directive's
            # semantics stay deterministic: the first ``kill_after`` tasks
            # complete, exactly the later ones are lost.
            try:
                result_queue.close()
                result_queue.join_thread()
            except (OSError, ValueError):
                pass
            os._exit(1)
        task_id, fn, state_key, state_factory, state_spec, payload, deadline = (
            pickle.loads(message)
        )
        if state_key is not None:
            if state_factory is not None:
                recipes[state_key] = (state_factory, state_spec)
            if state_key in recipes:
                recipes.move_to_end(state_key)
                while len(recipes) > state_capacity:
                    recipes.popitem(last=False)
                if state_factory is None:
                    state_factory, state_spec = recipes[state_key]
        try:
            if deadline is not None and time.monotonic() >= deadline:
                raise DeadlineExceeded(
                    "plane task deadline expired while queued on "
                    f"worker {index}"
                )
            task = PlaneTask(
                fn=fn,
                payload=payload,
                state_key=state_key,
                state_factory=state_factory,
                state_spec=state_spec,
            )
            result = fn(states.get(task), payload)
            blob = pickle.dumps((True, result), protocol=pickle.HIGHEST_PROTOCOL)
        except BaseException as error:  # noqa: BLE001 — shipped to the parent
            try:
                blob = pickle.dumps((False, error), protocol=pickle.HIGHEST_PROTOCOL)
            except Exception:  # noqa: BLE001 — unpicklable exception objects
                blob = pickle.dumps(
                    (False, RuntimeError(f"{type(error).__name__}: {error}")),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
        computed += 1
        if fault is not None and computed in fault.drop_results:
            continue  # chaos: the answer vanishes; only a task lease recovers it
        result_queue.put((task_id, blob))


class _PendingTask:
    """Parent-side record of one in-flight process-plane task.

    Keeps the full :class:`PlaneTask` so a task lost to a dead worker can
    be reshipped — including its warm-state construction recipe, which is
    exactly why ``plane.py`` keeps specs picklable.
    """

    __slots__ = ("future", "slot", "task", "attempts", "shipped_at")

    def __init__(self, future: Future, slot: int, task: PlaneTask, attempts: int, shipped_at: float):
        self.future = future
        self.slot = slot
        self.task = task
        self.attempts = attempts
        self.shipped_at = shipped_at


class ProcessPlane(ExecutionPlane):
    """Spawned worker processes with warm per-process solver state.

    Each worker keeps an LRU of prepared solver states keyed by the tasks'
    ``state_key`` — a factorisation is computed once per worker and then
    amortised across every task routed to it — and runs its tasks strictly
    in order, so a warm state is never driven concurrently.  This is the
    plane that buys true multi-core scaling: batched back-substitutions,
    rasterisation and result assembly all run outside the parent's GIL.

    Workers ignore SIGINT (the parent coordinates shutdown), exit when the
    parent disappears, and are terminated by :meth:`close` — which the
    context-manager exit and an ``atexit`` hook both invoke, so no orphan
    solver processes outlive the session.

    Tasks lost to a dead worker (crash, OOM kill, injected chaos) are
    resubmitted to a healthy worker with exponential backoff — once per
    task, and at most :data:`DEFAULT_MAX_KEY_RETRIES` times per state key
    so a poisonous factorisation cannot take the pool down worker by
    worker.  An optional ``task_timeout_s`` lease additionally recovers
    tasks whose *answer* was lost (the worker is alive but the result
    message never arrived) by reshipping them after the lease expires.
    """

    kind = "processes"

    #: Seconds :meth:`close` waits for workers to finish their current task
    #: before escalating to ``terminate()``.
    SHUTDOWN_GRACE_S = 10.0

    def __init__(
        self,
        workers: Optional[int] = None,
        state_capacity: int = DEFAULT_STATE_CAPACITY,
        faults: Optional[FaultPlan] = None,
        task_timeout_s: Optional[float] = None,
        retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
        max_key_retries: int = DEFAULT_MAX_KEY_RETRIES,
    ):
        import multiprocessing

        workers = workers if workers is not None else (os.cpu_count() or 1)
        super().__init__(workers=workers, state_capacity=state_capacity)
        self._faults = faults
        self._task_timeout_s = None if task_timeout_s is None else float(task_timeout_s)
        self._retry_backoff_s = float(retry_backoff_s)
        self._max_key_retries = int(max_key_retries)
        context = multiprocessing.get_context("spawn")
        self._task_queues = [context.Queue() for _ in range(self.workers)]
        self._result_queue = context.Queue()
        self._processes = []
        for index in range(self.workers):
            process = context.Process(
                target=_process_worker_main,
                args=(
                    index,
                    os.getpid(),
                    self._task_queues[index],
                    self._result_queue,
                    state_capacity,
                    faults.worker_fault(index) if faults is not None else None,
                ),
                name=f"plane-worker-{index}",
                daemon=True,
            )
            process.start()
            self._processes.append(process)
        self._lock = threading.Lock()
        self._next_task_id = 0
        self._pending: Dict[int, _PendingTask] = {}
        self._retry_queue: List[tuple] = []  # (due_at, _PendingTask)
        self._key_retries: Dict[Hashable, int] = {}
        self._dead_since: Dict[int, float] = {}  # slot -> first seen dead
        self._collector = threading.Thread(
            target=self._collect, name="plane-collector", daemon=True
        )
        self._collector.start()
        atexit.register(self.close)

    # ------------------------------------------------------------------
    def submit(self, task: PlaneTask) -> Future:
        """Ship ``task`` to its worker process' queue.

        The pending registration, warm-key record and enqueue happen under
        one lock: that keeps a submit racing :meth:`close` failing fast
        (instead of hitting a torn-down queue), and keeps the warm-key
        mirror's order identical to the queue order, which the state-spec
        elision below depends on.  Expired tasks are shed without ever
        crossing a process boundary.
        """
        future: Future = Future()
        with self._lock:
            if self._closed:
                raise RuntimeError("the execution plane has been closed")
            if task.expired():
                return self._shed_future(task)
            self._ship_locked(task, future, attempts=1)
        return future

    def _ship_locked(self, task: PlaneTask, future: Future, attempts: int) -> None:
        """Route and pickle one (possibly re-)shipment; caller holds the lock."""
        import pickle

        slot = self._live_slot_locked(self._slot_of(task))
        task_id = self._next_task_id
        self._next_task_id += 1
        already_warm = self._record_submit(slot, task)
        # A key the mirror marks warm is resident on the worker by the
        # time this (FIFO-ordered) task arrives, so the construction
        # recipe need not be re-pickled — state specs carry whole chip
        # descriptions and optionally shared geometries, which would
        # otherwise ride along with every batch.  (The worker keeps the
        # last shipped recipe per key, so it can rebuild after a failed
        # factory call.)
        factory = None if already_warm else task.state_factory
        spec = None if already_warm else task.state_spec
        try:
            # Pickle explicitly: an error in the queue's feeder thread
            # would be swallowed and the future never resolved, whereas
            # here the submitter gets the TypeError immediately.
            blob = pickle.dumps(
                (task_id, task.fn, task.state_key, factory, spec, task.payload,
                 task.deadline),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        except Exception as error:
            self._record_done(slot, failed=True)
            if not already_warm and task.state_key is not None:
                # The recipe never reached the worker: un-mark the key
                # so a retry ships the spec again instead of eliding it.
                with self._stats_lock:
                    self._worker_stats[slot].warm_keys.pop(task.state_key, None)
            raise ValueError(
                f"plane task is not picklable for process execution: {error}"
            ) from error
        self._pending[task_id] = _PendingTask(
            future, slot, task, attempts, time.monotonic()
        )
        self._task_queues[slot].put(blob)

    def _live_slot_locked(self, preferred: int) -> int:
        """``preferred`` if that worker is alive, else a stable healthy slot.

        Dead workers are never restarted; remapping keeps post-crash
        submissions (and retries) off slots that would strand them.
        Raises if every worker has exited.
        """
        if self._processes[preferred].exitcode is None:
            return preferred
        live = [
            slot
            for slot, process in enumerate(self._processes)
            if process.exitcode is None
        ]
        if not live:
            raise RuntimeError("all plane workers have exited")
        return live[preferred % len(live)]

    def _collect(self) -> None:
        """Drain worker results into futures; recover lost tasks on idle ticks."""
        import pickle

        while True:
            try:
                task_id, blob = self._result_queue.get(timeout=0.25)
            except queue_module.Empty:
                with self._lock:
                    drained = self._closed and not self._pending and not self._retry_queue
                if drained:
                    return
                self._recover_lost_tasks()
                self._flush_retries()
                continue
            ok, value = pickle.loads(blob)
            with self._lock:
                entry = self._pending.pop(task_id, None)
            if entry is None:
                continue  # already recovered (or failed) by the watchdog
            shed = (not ok) and isinstance(value, DeadlineExceeded)
            self._record_done(entry.slot, failed=not ok and not shed)
            if shed:
                self._count_shed()
            if not entry.future.set_running_or_notify_cancel():
                continue
            if ok:
                entry.future.set_result(value)
            else:
                entry.future.set_exception(value)

    def _recover_lost_tasks(self) -> None:
        """Retry (or fail) tasks lost to dead workers or expired leases.

        Without this, a crashed worker (OOM kill, hard fault inside native
        code) would leave its callers blocked on futures forever.  Instead
        of failing straight away, each lost task gets one resubmission to
        a healthy worker — subject to the per-key retry cap.
        """
        now = time.monotonic()
        newly_dead = []
        for slot, process in enumerate(self._processes):
            if process.exitcode is not None and slot not in self._dead_since:
                self._dead_since[slot] = now
                newly_dead.append((slot, process.exitcode))
        if newly_dead:
            with self._lock:
                pending_by_slot = {
                    slot: sum(1 for e in self._pending.values() if e.slot == slot)
                    for slot, _ in newly_dead
                }
            publish_all(
                self.events,
                [
                    WorkerDead(
                        source="plane",
                        slot=slot,
                        exit_code=exit_code,
                        pending=pending_by_slot.get(slot, 0),
                    )
                    for slot, exit_code in newly_dead
                ],
            )
        # A worker is only *treated* as dead after a short grace period:
        # results it computed right before dying may still be in flight
        # through the result queue, and those tasks need no recomputation.
        dead = {
            slot
            for slot, since in self._dead_since.items()
            if now - since >= DEAD_WORKER_GRACE_S
        }
        doomed = []
        with self._lock:
            if self._closed:
                return  # close() fails the stragglers itself
            for task_id, entry in list(self._pending.items()):
                reason = None
                if entry.slot in dead:
                    reason = (
                        f"plane worker {entry.slot} exited "
                        f"(exit code {self._processes[entry.slot].exitcode})"
                    )
                elif (
                    self._task_timeout_s is not None
                    and now - entry.shipped_at > self._task_timeout_s
                ):
                    reason = (
                        f"no answer from plane worker {entry.slot} within "
                        f"the {self._task_timeout_s:.1f}s task lease"
                    )
                if reason is not None:
                    del self._pending[task_id]
                    doomed.append((entry, reason))
        for entry, reason in doomed:
            self._retry_or_fail(entry, reason)

    def _retry_or_fail(self, entry: _PendingTask, reason: str) -> None:
        """Queue one lost task for backoff-delayed reshipment, or fail it."""
        task = entry.task
        with self._lock:
            # The per-key cap guards against a *state key* whose
            # factorisation reliably kills workers; keyless tasks share no
            # state and are exempt (each still gets only one resubmission).
            key_retries = (
                0 if task.state_key is None
                else self._key_retries.get(task.state_key, 0)
            )
            retryable = (
                not self._closed
                and entry.attempts < DEFAULT_MAX_TASK_ATTEMPTS
                and key_retries < self._max_key_retries
                and not task.expired()
                and any(process.exitcode is None for process in self._processes)
            )
            if retryable:
                if task.state_key is not None:
                    self._key_retries[task.state_key] = key_retries + 1
                delay = self._retry_backoff_s * (2 ** (entry.attempts - 1))
                self._retry_queue.append((time.monotonic() + delay, entry))
        # The dead slot's queue-depth books close either way; only a
        # definitive loss counts as an error (a retried task may yet succeed).
        self._record_done(entry.slot, failed=not retryable)
        if retryable:
            self._count_retry()
            publish_all(
                self.events,
                [
                    WorkerRetry(
                        source="plane",
                        slot=entry.slot,
                        attempts=entry.attempts,
                        state_key="" if task.state_key is None else str(task.state_key),
                        reason=reason,
                    )
                ],
            )
            return
        if entry.future.set_running_or_notify_cancel():
            entry.future.set_exception(
                RuntimeError(
                    f"{reason} before answering this task"
                    + (f" (attempt {entry.attempts})" if entry.attempts > 1 else "")
                )
            )

    def _flush_retries(self) -> None:
        """Reship retry-queue entries whose backoff delay has elapsed."""
        now = time.monotonic()
        due = []
        with self._lock:
            if self._closed or not self._retry_queue:
                return
            remaining = []
            for item in self._retry_queue:
                (due_at, _entry) = item
                (due if due_at <= now else remaining).append(item)
            self._retry_queue = remaining
        for _, entry in due:
            try:
                with self._lock:
                    if self._closed:
                        raise RuntimeError("the execution plane has been closed")
                    self._ship_locked(entry.task, entry.future, attempts=entry.attempts + 1)
            except BaseException as error:  # noqa: BLE001 — travels to caller
                if entry.future.set_running_or_notify_cancel():
                    entry.future.set_exception(error)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop every worker process; escalate politely (sentinel → terminate
        → kill) and fail any still-pending futures.  Idempotent, and also
        registered via ``atexit`` so forgotten planes cannot orphan workers.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        atexit.unregister(self.close)  # the hook held the last plane reference
        for task_queue in self._task_queues:
            try:
                task_queue.put(None)
            except (OSError, ValueError):
                pass  # queue already torn down
        # One shared wall-clock budget for every worker, not a grace period
        # per worker — with many workers mid-solve, sequential full-length
        # joins would multiply the documented shutdown latency.
        deadline = time.monotonic() + self.SHUTDOWN_GRACE_S
        for process in self._processes:
            process.join(timeout=max(0.0, deadline - time.monotonic()))
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        for process in self._processes:
            if process.is_alive():
                process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover — terminate() refused
                process.kill()
                process.join(timeout=2.0)
        # Fail whatever never got answered (workers died holding tasks),
        # including tasks parked in the retry queue awaiting reshipment.
        with self._lock:
            leftovers = list(self._pending.values())
            self._pending.clear()
            retries = [entry for _, entry in self._retry_queue]
            self._retry_queue = []
        for entry in leftovers:
            self._record_done(entry.slot, failed=True)
        for entry in leftovers + retries:
            if entry.future.set_running_or_notify_cancel():
                entry.future.set_exception(
                    RuntimeError("the execution plane has been closed")
                )
        if self._collector.is_alive() and threading.current_thread() is not self._collector:
            self._collector.join(timeout=5.0)
        for task_queue in self._task_queues:
            task_queue.cancel_join_thread()
            task_queue.close()
        self._result_queue.cancel_join_thread()
        self._result_queue.close()
        # Drop the queue references so their semaphores finalise now rather
        # than at interpreter exit — the serve CLI's deterministic-shutdown
        # path ends in os._exit, which would otherwise skip those finalisers
        # and leave the multiprocessing resource tracker warning about
        # leaked semaphores.
        self._task_queues = []
        self._result_queue = None
        import gc

        gc.collect()

    def worker_pids(self) -> List[int]:
        """PIDs of the spawned workers (the shutdown tests watch these)."""
        return [process.pid for process in self._processes if process.pid is not None]

    def stats(self) -> Dict[str, Any]:
        """Process-plane stats additionally report dead workers and retries."""
        summary = super().stats()
        alive = [process.exitcode is None for process in self._processes]
        summary["workers_dead"] = sum(not a for a in alive)
        for slot, worker_alive in enumerate(alive):
            summary["per_worker"][slot]["alive"] = worker_alive
        with self._lock:
            summary["retry_queue"] = len(self._retry_queue)
        return summary


def create_plane(
    kind: str,
    workers: Optional[int] = None,
    state_capacity: int = DEFAULT_STATE_CAPACITY,
    faults: Optional[FaultPlan] = None,
    task_timeout_s: Optional[float] = None,
) -> ExecutionPlane:
    """Build an execution plane from a CLI-style spec.

    ``kind`` is one of :data:`PLANE_KINDS`; ``workers`` defaults to the host
    CPU count for ``threads``/``processes`` and is ignored for ``serial``.
    ``faults`` threads a chaos :class:`~repro.runtime.faults.FaultPlan` into
    the workers; its worker directives only make sense where workers can
    actually die, so they require the ``processes`` plane.
    ``task_timeout_s`` enables the process plane's lost-answer lease.
    """
    kind = str(kind).lower()
    if kind == "processes":
        return ProcessPlane(
            workers=workers,
            state_capacity=state_capacity,
            faults=faults,
            task_timeout_s=task_timeout_s,
        )
    if faults is not None and faults.has_worker_faults:
        raise ValueError(
            "worker fault injection (kill-worker / drop-result) requires "
            "the 'processes' execution plane"
        )
    if kind == "serial":
        return SerialPlane(state_capacity=state_capacity)
    if kind == "threads":
        return ThreadPlane(workers=workers, state_capacity=state_capacity)
    raise ValueError(
        f"unknown execution plane '{kind}'; available: {', '.join(PLANE_KINDS)}"
    )
