"""Persistent run store: durable, resumable, shardable plan executions.

:mod:`repro.store.ledger` implements the on-disk format — a run directory
holding one ``plan-<key>.json`` spec per plan (keyed by the
:func:`plan_fingerprint` content hash) and one append-only
``ledger-<key>-s<i>of<m>.jsonl`` file per executed
:class:`~repro.engine._spec.Shard`.  Every request kind — sweeps,
frontiers (``"type": "frontier"`` rows) and ensembles (``"type":
"ensemble"`` rows) — checkpoints each completed slot into the store as one
ledger row and replays ledgered rows on resume, through the one durable
executor (:func:`repro.engine.executor.execute`); :func:`merge_stores`
plus :func:`repro.api.assemble_rows` rebuild the full result from shard
ledgers produced on different machines.

:mod:`repro.store.lifecycle` adds maintenance: :func:`compact_plan`
archives a finished plan's shard ledgers into one file (row bytes and
fingerprints unchanged) and :func:`gc_store` drops superseded artifacts;
neither touches a plan while a live claim holds one of its shards.

:mod:`repro.store.coordination` makes a run directory a shared work
queue for the planning service and ``repro worker``: queue markers,
atomic per-shard claim files (``O_CREAT | O_EXCL`` leases), persistent
dead-shard markers that relax the torn-middle-line refusal for killed
concurrent writers, and :func:`plan_progress` — cheap per-shard row
counting with no table assembly.  A plan is cancelled one way:
:meth:`RunStore.cancel`, :meth:`~RunStore.is_cancelled` and
:meth:`~RunStore.clear_cancel` own its tombstone, which the executors poll
between chunks.

A ledger row is a newline-terminated line; replay, progress, compaction
and gc all read rows by that one rule.
"""

from repro.store.coordination import (
    ClaimInfo,
    PlanProgress,
    QueueEntry,
    ShardProgress,
    break_stale_claim,
    claim_shard,
    claims_for,
    dequeue,
    enqueue,
    is_shard_dead,
    mark_shard_dead,
    plan_progress,
    queued_plans,
    release_shard,
)
from repro.store.ledger import (
    LEDGER_VERSION,
    FrontierRow,
    LedgerRow,
    RunStore,
    ShardLedger,
    StoreError,
    frontier_from_dict,
    frontier_to_dict,
    hit_rate,
    merge_stores,
    plan_fingerprint,
    plan_kind,
    request_from_dict,
    request_to_dict,
    rows_equal,
)
from repro.store.lifecycle import CompactReport, GcReport, compact_plan, gc_store

__all__ = [
    "LEDGER_VERSION",
    "ClaimInfo",
    "CompactReport",
    "FrontierRow",
    "GcReport",
    "LedgerRow",
    "PlanProgress",
    "QueueEntry",
    "RunStore",
    "ShardLedger",
    "ShardProgress",
    "StoreError",
    "break_stale_claim",
    "claim_shard",
    "claims_for",
    "compact_plan",
    "dequeue",
    "enqueue",
    "frontier_from_dict",
    "frontier_to_dict",
    "gc_store",
    "hit_rate",
    "is_shard_dead",
    "mark_shard_dead",
    "merge_stores",
    "plan_fingerprint",
    "plan_kind",
    "plan_progress",
    "queued_plans",
    "release_shard",
    "request_from_dict",
    "request_to_dict",
    "rows_equal",
]
