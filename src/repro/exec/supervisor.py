"""Supervised fan-out: shards, retries, timeouts, pool respawn, degrade.

:func:`run_sharded` is the generic execution primitive behind every
study fan-out, and :func:`run_supervised` (behind
:func:`repro.simulation.parallel.map_jobs`) is its one-payload-per-shard
case.  The unit of work is a *shard*: a contiguous run of payloads that
one call of the shard function prices together (the studies hand it a
stacked engine).  Shards run serially in process or across a
``ProcessPoolExecutor`` under a :class:`~repro.exec.RunPolicy`, and every
payload resolves to one :class:`~repro.exec.ItemOutcome` instead of
letting a single bad item abort the batch.  Attempts, outcomes,
``on_result`` calls and fault matching all stay per payload: the worker
entry point fires the armed fault hook for each payload of its shard.

A shard whose function raises is split into one-payload shards, which
re-run *without* being charged an attempt, so only the payload that
really fails is charged, retried and finalised ``failed`` — every other
payload's value is the one an error-free run computes.

The pooled scheduler runs in *waves*.  Each wave submits every
unresolved shard, then polls with a short ``concurrent.futures.wait``
tick, gathering results as they land.  Three kinds of trouble disrupt a
wave:

* a worker **exception** — a multi-payload shard is split as above; a
  one-payload shard's item is charged an attempt and either retried
  next wave or finalised ``failed``;
* a **pool break** (a worker died — segfault, ``os._exit``, OOM kill) —
  ``ProcessPoolExecutor`` cannot say which item was responsible, so the
  supervisor charges one attempt to *every* submitted-but-unresolved
  item, tears the pool down, and respawns it.  The guilty item's attempt
  counter is therefore guaranteed to advance (its retry re-executes under
  a new attempt number), while innocent items merely recompute — their
  results are bit-identical by the determinism contract;
* a **hung shard** — with ``policy.timeout`` set, a shard observed
  running longer than ``timeout × shard size`` disrupts the wave the same
  way (a running future cannot be cancelled, so the pool is torn down
  around it); its items are charged a ``timeout`` attempt and retried
  like any other failure.

Pool rebuilds are bounded by ``policy.pool_restarts``; once exhausted the
run either degrades to serial in-process execution
(``policy.degrade_serial``, the default) or finalises the remaining items
as failed.  Serial execution cannot preempt a running call, so per-item
timeouts are not enforced there.

``KeyboardInterrupt`` is never absorbed into an outcome: the pool is
shut down with ``cancel_futures=True`` and its workers killed (no
orphaned children), then the interrupt propagates to the caller.
"""

from __future__ import annotations

import functools
import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    wait,
)
from typing import Any, Callable

from repro._util import require, require_int
from repro.exec.faults import fire, mark_worker_process
from repro.exec.outcomes import (
    OUTCOME_FAILED,
    OUTCOME_OK,
    OUTCOME_TIMEOUT,
    ItemOutcome,
)
from repro.exec.policy import RunPolicy

__all__ = ["resolve_jobs", "run_sharded", "run_supervised"]

# Poll interval of the wave loop: long enough to keep the supervising
# process idle, short enough that timeout enforcement is responsive.
_TICK = 0.05

# A shard function maps a list of payloads to the list of their values;
# a task is (fn, payloads, payload indices, their attempt numbers).
_ShardFn = Callable[[list[Any]], Any]
_Task = tuple[_ShardFn, list[Any], list[int], list[int]]


def resolve_jobs(jobs: "int | str | None") -> int:
    """Normalise a ``--jobs`` value to a worker count.

    ``None``/``1`` mean serial in-process execution; ``0`` or ``"auto"``
    mean one worker per available CPU; any other positive int is taken
    as-is.
    """
    if jobs is None:
        return 1
    require(not isinstance(jobs, bool), "jobs must be an int or 'auto', not a bool")
    if jobs == "auto" or jobs == 0:
        return max(1, os.cpu_count() or 1)
    require_int(jobs, "jobs", minimum=1)
    return int(jobs)


def _invoke(task: _Task) -> "list[Any]":
    """Worker entry point: per-payload fault hooks, then the shard function.

    The hook matches armed faults per payload, at each payload's own
    attempt number; with nothing armed it is a no-op.
    """
    fn, payloads, indices, attempts = task
    for index, attempt in zip(indices, attempts):
        fire(index, attempt)
    values = list(fn(payloads))
    require(
        len(values) == len(payloads),
        f"shard function returned {len(values)} values for {len(payloads)} payloads",
    )
    return values


def _each(fn: "Callable[[Any], Any]", payloads: "list[Any]") -> "list[Any]":
    """Shard function of :func:`run_supervised`: *fn* per payload."""
    return [fn(payload) for payload in payloads]


class _RunState:
    """Mutable bookkeeping shared by the pooled and serial schedulers."""

    def __init__(self, count: int, shards: "list[list[int]]") -> None:
        self.todo: "set[int]" = set(range(count))
        self.shards = shards  # the live partition of unresolved payloads
        self.attempts: "list[int]" = [0] * count
        self.errors: "list[str]" = [""] * count
        self.excs: "list[BaseException | None]" = [None] * count
        # Status the item would be finalised with if no further execution
        # happens (last failure kind: failed vs timeout).
        self.statuses: "list[str]" = [OUTCOME_FAILED] * count
        self.outcomes: "dict[int, ItemOutcome]" = {}

    def task(self, fn: _ShardFn, items: "list[Any]", shard: "list[int]") -> _Task:
        return (fn, [items[i] for i in shard], shard, [self.attempts[i] for i in shard])

    def charge(self, index: int, status: str, error: str, exc: "BaseException | None") -> None:
        """Record one failed execution of item *index*."""
        self.attempts[index] += 1
        self.errors[index] = error
        self.excs[index] = exc
        self.statuses[index] = status


def _finish(
    state: _RunState,
    index: int,
    outcome: ItemOutcome,
    on_result: "Callable[[int, ItemOutcome], None] | None",
) -> None:
    state.outcomes[index] = outcome
    state.todo.discard(index)
    if on_result is not None:
        on_result(index, outcome)


def _finish_unresolved(
    state: _RunState,
    index: int,
    on_result: "Callable[[int, ItemOutcome], None] | None",
) -> None:
    """Finalise an item from its recorded (non-``ok``) bookkeeping."""
    _finish(
        state,
        index,
        ItemOutcome(
            index=index,
            status=state.statuses[index],
            attempts=state.attempts[index],
            error=state.errors[index],
            exception=state.excs[index],
        ),
        on_result,
    )


def _finish_shard(
    state: _RunState,
    shard: "list[int]",
    values: "list[Any]",
    on_result: "Callable[[int, ItemOutcome], None] | None",
) -> None:
    for index, value in zip(shard, values):
        state.attempts[index] += 1
        _finish(
            state,
            index,
            ItemOutcome(
                index=index, status=OUTCOME_OK, attempts=state.attempts[index], value=value
            ),
            on_result,
        )


def _shard_failed(state: _RunState, shard: "list[int]", exc: Exception) -> "list[list[int]]":
    """The shards to run after *shard*'s function raised *exc*.

    A multi-payload shard cannot say which payload failed, so it splits
    into one-payload shards and nobody is charged; a one-payload shard's
    item is charged the failure and re-runs while retries remain.
    """
    if len(shard) > 1:
        return [[index] for index in shard]
    state.charge(shard[0], OUTCOME_FAILED, f"{type(exc).__name__}: {exc}", exc)
    return [shard]


def _live(
    state: _RunState,
    shard: "list[int]",
    pol: RunPolicy,
    on_result: "Callable[[int, ItemOutcome], None] | None",
) -> "list[int]":
    """*shard*'s unresolved items, after finalising those out of retries."""
    for index in shard:
        if index in state.todo and state.attempts[index] > pol.max_retries:
            _finish_unresolved(state, index, on_result)
    return [index for index in shard if index in state.todo]


def _run_serial(
    fn: _ShardFn,
    items: "list[Any]",
    pol: RunPolicy,
    state: _RunState,
    on_result: "Callable[[int, ItemOutcome], None] | None",
) -> None:
    """Run every unresolved shard in this process, honouring prior attempts.

    Used both for ``jobs <= 1`` runs and as the degraded path once pool
    restarts are exhausted.  Shards run in order and a failing shard's
    re-runs go first, so item *i* resolves before item *i + 1* starts.
    Only ``Exception`` is absorbed into an outcome —
    ``KeyboardInterrupt``/``SystemExit`` propagate.
    """
    while state.shards:
        shard = _live(state, state.shards.pop(0), pol, on_result)
        if not shard:
            continue
        delay = max(pol.backoff_delay(i, state.attempts[i]) for i in shard)
        if delay > 0:
            time.sleep(delay)
        try:
            values = _invoke(state.task(fn, items, shard))
        except Exception as exc:
            state.shards[:0] = _shard_failed(state, shard, exc)
            continue
        _finish_shard(state, shard, values, on_result)


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a (possibly broken or hung) pool down without orphaning workers."""
    procs = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        if proc.is_alive():
            proc.kill()
    for proc in procs:
        proc.join(timeout=1.0)


def _run_wave(
    fn: _ShardFn,
    items: "list[Any]",
    pool: ProcessPoolExecutor,
    pol: RunPolicy,
    state: _RunState,
    on_result: "Callable[[int, ItemOutcome], None] | None",
) -> bool:
    """Submit all unresolved shards and gather until done or disrupted.

    Returns ``True`` when the wave was disrupted (pool break or hung
    shard) and the pool must be torn down; every item of a submitted but
    unsettled shard has then been charged one interrupted attempt, so a
    crashing item cannot replay the same attempt number forever.
    """
    shards = state.shards
    futs: "dict[Future[Any], int]" = {}
    disrupted = False
    try:
        for pos, shard in enumerate(shards):
            futs[pool.submit(_invoke, state.task(fn, items, shard))] = pos
    except BrokenExecutor:
        disrupted = True
    # What each shard that settles (returns or raises) becomes for the
    # next wave; unsettled shards are kept as they are.
    after: "dict[int, list[list[int]]]" = {}
    timed_out: "dict[int, float]" = {}  # shard position -> its budget
    started: "dict[Future[Any], float]" = {}
    pending = set(futs)
    while pending and not disrupted:
        done, _ = wait(pending, timeout=_TICK, return_when=FIRST_COMPLETED)
        now = time.perf_counter()
        for fut in done:
            pending.discard(fut)
            pos = futs[fut]
            try:
                values = fut.result()
            except (BrokenExecutor, CancelledError):
                disrupted = True
                continue
            except Exception as exc:
                after[pos] = _shard_failed(state, shards[pos], exc)
                continue
            after[pos] = []
            _finish_shard(state, shards[pos], values, on_result)
        if disrupted or pol.timeout is None:
            continue
        for fut in pending:
            budget = pol.timeout * len(shards[futs[fut]])
            if fut not in started:
                if fut.running():
                    started[fut] = now
            elif now - started[fut] > budget:
                timed_out[futs[fut]] = budget
                disrupted = True
    state.shards = [kept for pos, shard in enumerate(shards) for kept in after.get(pos, [shard])]
    if not disrupted:
        return False
    for pos in futs.values():
        if pos in after:
            continue
        for index in shards[pos]:
            if pos in timed_out:
                state.charge(index, OUTCOME_TIMEOUT, f"timed out after {timed_out[pos]}s", None)
            else:
                state.charge(index, OUTCOME_FAILED, "interrupted by process-pool failure", None)
    return True


def _run_pooled(
    fn: _ShardFn,
    items: "list[Any]",
    n_jobs: int,
    pol: RunPolicy,
    state: _RunState,
    on_result: "Callable[[int, ItemOutcome], None] | None",
) -> None:
    restarts = 0
    pool: "ProcessPoolExecutor | None" = None
    try:
        while True:
            shards = [_live(state, shard, pol, on_result) for shard in state.shards]
            state.shards = [shard for shard in shards if shard]
            if not state.shards:
                break
            delay = max(pol.backoff_delay(i, state.attempts[i]) for i in state.todo)
            if delay > 0:
                time.sleep(delay)
            if pool is None:
                pool = ProcessPoolExecutor(
                    max_workers=min(n_jobs, len(state.shards)),
                    initializer=mark_worker_process,
                )
            if not _run_wave(fn, items, pool, pol, state, on_result):
                continue
            _terminate_pool(pool)
            pool = None
            if not state.todo:
                continue
            restarts += 1
            if restarts <= pol.pool_restarts:
                continue
            if pol.degrade_serial:
                _run_serial(fn, items, pol, state, on_result)
            else:
                for index in sorted(state.todo):
                    if not state.errors[index]:
                        state.errors[index] = "process pool could not be rebuilt"
                    _finish_unresolved(state, index, on_result)
            return
    except BaseException:
        # KeyboardInterrupt and friends: never leave worker processes
        # behind — kill them and let the interrupt propagate.
        if pool is not None:
            _terminate_pool(pool)
            pool = None
        raise
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


def _schedule(
    fn: _ShardFn,
    items: "list[Any]",
    shards: "list[list[int]]",
    n_jobs: int,
    policy: "RunPolicy | None",
    on_result: "Callable[[int, ItemOutcome], None] | None",
) -> "list[ItemOutcome]":
    pol = policy if policy is not None else RunPolicy()
    state = _RunState(len(items), shards)
    if n_jobs <= 1:
        _run_serial(fn, items, pol, state, on_result)
    else:
        _run_pooled(fn, items, n_jobs, pol, state, on_result)
    return [state.outcomes[i] for i in range(len(items))]


def run_sharded(
    fn: _ShardFn,
    payloads: Any,
    *,
    jobs: "int | str | None" = None,
    policy: "RunPolicy | None" = None,
    on_result: "Callable[[int, ItemOutcome], None] | None" = None,
) -> "list[ItemOutcome]":
    """Price *payloads* in shards under supervision; one outcome per payload.

    *fn* maps a list of payloads to the list of their values.  The
    payloads are split into ``min(jobs, n)`` contiguous shards (``jobs``
    per :func:`resolve_jobs`), so a serial run is one shard priced in
    process and ``jobs=k`` prices ``1/k`` of the payloads per call.  A
    shard whose *fn* raises is split into one-payload shards without
    charging an attempt; under pooled execution a shard's timeout budget
    is ``policy.timeout × shard size``.  Outcomes, attempts, *on_result*
    calls and fault-plan indices are per payload, exactly as for
    :func:`run_supervised`.  *fn* must be picklable (module level, or a
    ``functools.partial`` of one) when ``jobs > 1``.
    """
    items = list(payloads)
    n_jobs = min(resolve_jobs(jobs), len(items))
    count = max(n_jobs, 1)
    bounds = [len(items) * s // count for s in range(count + 1)]
    shards = [list(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
    return _schedule(fn, items, shards, n_jobs, policy, on_result)


def run_supervised(
    fn: "Callable[[Any], Any]",
    payloads: Any,
    *,
    jobs: "int | str | None" = None,
    policy: "RunPolicy | None" = None,
    on_result: "Callable[[int, ItemOutcome], None] | None" = None,
) -> "list[ItemOutcome]":
    """Map *fn* over *payloads* under supervision; one outcome per payload.

    The one-payload-per-shard case of :func:`run_sharded`.  ``jobs``
    follows :func:`resolve_jobs` and the pool never exceeds the payload
    count.  Results are returned in payload order regardless of
    completion order; *on_result* (if given) is called as each item
    *finalises* — in completion order — so callers can persist results
    and journal progress crash-safely while the run is still going.
    *fn* must be a module-level callable and payloads picklable when
    ``jobs > 1``.  No exception from a worker escapes this function:
    every payload resolves to an :class:`~repro.exec.ItemOutcome` (use
    :func:`~repro.exec.raise_on_failure` for throwing semantics).
    """
    items = list(payloads)
    n_jobs = min(resolve_jobs(jobs), len(items))
    shards = [[i] for i in range(len(items))]
    return _schedule(functools.partial(_each, fn), items, shards, n_jobs, policy, on_result)
