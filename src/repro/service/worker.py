"""Workers: processes that claim queued plans' shards and execute them.

A worker owns no state — the run directory is the scheduler.  Its loop is:

1. list queued plans (:func:`repro.store.queued_plans`),
2. for each, try to claim an unfinished shard with an atomic
   ``O_CREAT | O_EXCL`` claim file (:func:`repro.store.claim_shard` —
   exactly one contender wins, so N workers sharing one directory execute
   each ledger row exactly once),
3. execute the claimed shard through the unchanged
   :func:`repro.api.submit` path with ``resume=True`` — worker output is
   therefore bit-identical to a serial in-process run of the same spec,
4. release the claim; when every instance of the plan is ledgered, drop
   its queue marker.

Claims left by a dead worker (its pid is gone) are broken via
:func:`repro.store.break_stale_claim`, which first writes the persistent
dead-shard marker that relaxes torn-middle refusal for that shard's
ledger.  Cancellation tombstones are honoured twice: plans carrying one
are never claimed, and :func:`repro.api.submit` itself stops between
chunks with :class:`~repro.errors.PlanCancelled`.

``repro worker --run-dir D --workers N`` (see :mod:`repro.__main__`)
runs :func:`run_workers`: N OS processes calling :func:`drain_store`.
The same drain loop, called on one plan from a thread, is how the
service app executes submissions in-process (:mod:`repro.service.jobs`).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Any, Callable

from repro.api import submit
from repro.engine._spec import Shard
from repro.errors import PlanCancelled, ReproError
from repro.store import coordination as coord
from repro.store.ledger import RunStore, StoreError

__all__ = ["drain_plan", "drain_store", "run_workers"]


def _default_owner() -> str:
    return f"worker-{os.getpid()}"


def drain_plan(
    store: RunStore,
    plan_key: str,
    *,
    owner: "str | None" = None,
    backend: "str | None" = None,
    jobs: int = 1,
    shard_filter: "Callable[[Shard], bool] | None" = None,
    on_shard: "Callable[[Shard, Any], None] | None" = None,
) -> bool:
    """Claim and execute every unclaimed, unfinished shard of one plan.

    Skips shards another worker holds (they are that worker's problem) and
    shards whose ledger already covers all owned instances.  Returns
    ``True`` when the whole plan is complete (and drops its queue marker) —
    regardless of which workers did the work.  A cancellation tombstone
    stops claiming immediately and returns ``False``.

    ``shard_filter`` restricts which shards this worker may claim (the CLI
    ``--shard i/m`` pin); ``on_shard`` observes each executed shard's
    result (the service uses it for logging).
    """
    owner = owner if owner is not None else _default_owner()
    key, request = store.load_request(plan_key)
    entry = coord.queue_entry(store, key)
    shards = entry.shards if entry is not None else 1

    for index in range(shards):
        shard = Shard(index, shards)
        if store.is_cancelled(key):
            return False
        if shard_filter is not None and not shard_filter(shard):
            continue
        coord.break_stale_claim(store, key, shard)
        if _shard_complete(store, key, shard):
            continue
        if not coord.claim_shard(store, key, shard, owner):
            continue  # live contender holds it
        try:
            result = submit(
                request,
                store=store,
                shard=shard,
                resume=True,
                backend=backend,
                jobs=jobs,
            )
        except PlanCancelled:
            return False
        finally:
            coord.release_shard(store, key, shard)
        if on_shard is not None:
            on_shard(shard, result)

    progress = coord.plan_progress(store, key)
    if progress.complete:
        coord.dequeue(store, key)
        return True
    return False


def _shard_complete(store: RunStore, plan_key: str, shard: Shard) -> bool:
    progress = coord.plan_progress(store, plan_key)
    for sp in progress.shards:
        if sp.shard == shard:
            return sp.complete
    return False


def drain_store(
    store: RunStore,
    *,
    owner: "str | None" = None,
    backend: "str | None" = None,
    jobs: int = 1,
    once: bool = False,
    poll: float = 0.5,
    shard_filter: "Callable[[Shard], bool] | None" = None,
    should_stop: "Callable[[], bool] | None" = None,
    on_event: "Callable[[str], None] | None" = None,
) -> int:
    """Drain queued plans from a run directory until empty (or forever).

    One pass claims work from every queued, uncancelled plan via
    :func:`drain_plan`.  With ``once=True`` the loop exits as soon as a
    pass finds the queue empty; otherwise it sleeps ``poll`` seconds
    between passes until ``should_stop`` reports ``True``.  Returns the
    number of plans this call saw through to completion.
    """
    owner = owner if owner is not None else _default_owner()
    completed = 0
    while True:
        pending = [
            e for e in coord.queued_plans(store)
            if not store.is_cancelled(e.plan_key)
        ]
        for entry in pending:
            try:
                done = drain_plan(
                    store,
                    entry.plan_key,
                    owner=owner,
                    backend=backend,
                    jobs=jobs,
                    shard_filter=shard_filter,
                )
            except (StoreError, ReproError) as exc:
                if on_event is not None:
                    on_event(f"plan {entry.plan_key[:12]} failed: {exc}")
                continue
            if done:
                completed += 1
                if on_event is not None:
                    on_event(f"plan {entry.plan_key[:12]} complete")
        remaining = [
            e for e in coord.queued_plans(store)
            if not store.is_cancelled(e.plan_key)
        ]
        # A shard-pinned worker is done after one pass: whatever is left in
        # the queue belongs to other shard owners by construction.
        if once and (not remaining or shard_filter is not None):
            return completed
        if should_stop is not None and should_stop():
            return completed
        # Another worker holds the remaining claims: wait for it to finish
        # (or die and be broken as stale) instead of spinning on the queue.
        time.sleep(min(poll, 0.05) if once else poll)


def _worker_main(
    run_dir: str,
    owner: str,
    backend: "str | None",
    jobs: int,
    once: bool,
    poll: float,
    shard: "tuple[int, int] | None" = None,
) -> None:
    """Top-level process entry point (must be importable for spawn)."""
    store = RunStore(run_dir)
    shard_filter = None
    if shard is not None:
        pin = Shard(*shard)
        shard_filter = lambda s: s == pin  # noqa: E731 - picklable closure
    try:
        drain_store(
            store, owner=owner, backend=backend, jobs=jobs, once=once,
            poll=poll, shard_filter=shard_filter,
        )
    finally:
        store.close()


def run_workers(
    run_dir: str,
    workers: int,
    *,
    backend: "str | None" = None,
    jobs: int = 1,
    once: bool = True,
    poll: float = 0.5,
    shard: "tuple[int, int] | None" = None,
) -> None:
    """Run ``workers`` OS processes draining one shared run directory.

    Each process claims shards independently through the atomic claim
    files, so the partitioning of work is dynamic but every ledger row is
    written exactly once.  With ``once=True`` (the CLI default) all
    processes exit when the queue is empty; blocks until they are joined.
    """
    if workers < 1:
        raise StoreError(f"worker count must be >= 1, got {workers}")
    if workers == 1:
        _worker_main(run_dir, _default_owner(), backend, jobs, once, poll, shard)
        return
    # fork keeps the child independent of __main__ importability (and is
    # cheap); platforms without it (Windows, some macOS setups) get spawn.
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    ctx = multiprocessing.get_context(method)
    procs = [
        ctx.Process(
            target=_worker_main,
            args=(run_dir, f"worker-{i}", backend, jobs, once, poll, shard),
            daemon=False,
        )
        for i in range(workers)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join()
