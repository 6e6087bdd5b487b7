"""Multi-worker coordination over a run directory: queues, claims, tombstones.

The run store's content-addressed layout already makes a run directory a
correct *shared* substrate — every shard appends to its own ledger file and
the plan fingerprint dedupes identical submissions — but it says nothing
about *who* executes what.  This module adds the small, crash-safe file
primitives the planning service and ``repro worker`` build on.  Everything
is plain files in the run directory, so coordination works across
processes and across machines sharing a filesystem, with no daemon state:

``queue-<key12>.json``
    Marks a plan as *queued for execution* and records how many shards it
    should be split into.  Written idempotently at submit time; removed
    once every instance is ledgered.

``claim-<key12>-s<i>of<m>.json``
    An exclusive execution lease on one shard, acquired atomically with
    ``O_CREAT | O_EXCL`` — exactly one worker wins a claim race, which is
    what makes N workers draining one run directory produce each ledger
    row exactly once.  Claims record owner/pid/host so a stale claim
    (holder process died) can be detected and broken.

``dead-<key12>-s<i>of<m>.json``
    A persistent marker that a writer of this shard was killed while
    holding its claim.  Its ledger file may contain a torn line in the
    *middle* (the survivor of a takeover kept appending after the kill);
    readers tolerate torn middles only for shards carrying this marker
    (see :func:`repro.store.ledger._read_rows`).

The names follow the store's one rule (:meth:`RunStore.file_path`), and
the plan's cancellation tombstone is :meth:`RunStore.cancel`'s.

:func:`plan_progress` is the cheap read path behind ``GET
/plans/{id}/progress``: it counts ledger rows per shard through the
store's one row reader, without building metrics objects or assembling
tables.
"""

from __future__ import annotations

import json
import os
import socket
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.engine._spec import RequestBase, Shard
from repro.store.ledger import StoreError, _read_rows, _row_type_for, _write_json

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.ledger import RunStore

__all__ = [
    "ClaimInfo",
    "QueueEntry",
    "ShardProgress",
    "PlanProgress",
    "enqueue",
    "queued_plans",
    "queue_entry",
    "dequeue",
    "claim_shard",
    "release_shard",
    "claim_info",
    "claims_for",
    "claim_is_stale",
    "break_stale_claim",
    "mark_shard_dead",
    "is_shard_dead",
    "plan_progress",
]


def _read_json(path: Path) -> dict[str, Any] | None:
    try:
        return json.loads(path.read_text(encoding="utf8"))
    except FileNotFoundError:
        return None
    except json.JSONDecodeError:
        return None  # half-written marker from a kill; treat as absent


# -- queue -------------------------------------------------------------------------


@dataclass(frozen=True)
class QueueEntry:
    """One queued plan: its full key and the shard split workers should use."""

    plan_key: str
    shards: int
    kind: str


def enqueue(store: "RunStore", request: RequestBase, *, shards: int = 1) -> str:
    """Record the plan spec and mark it queued for execution (idempotent).

    Returns the plan fingerprint — the job id.  Re-enqueueing an identical
    spec attaches to the existing queue entry; the *first* submission's
    shard split wins (a plan's shard partition must stay consistent while
    workers are draining it).
    """
    if shards < 1:
        raise StoreError(f"shard count must be >= 1, got {shards}")
    key = store.write_plan(request)
    path = store.file_path("queue", key)
    if path.exists():
        return key
    _write_json(
        path,
        {"plan_key": key, "shards": int(shards), "kind": request.KIND},
    )
    return key


def queue_entry(store: "RunStore", plan_key: str) -> QueueEntry | None:
    data = _read_json(store.file_path("queue", plan_key))
    if data is None:
        return None
    return QueueEntry(
        plan_key=data.get("plan_key", plan_key),
        shards=int(data.get("shards", 1)),
        kind=str(data.get("kind", "sweep")),
    )


def queued_plans(store: "RunStore") -> list[QueueEntry]:
    """Every queued plan in the directory (stable order by file name)."""
    entries = []
    for path in sorted(store.run_dir.glob("queue-*.json")):
        data = _read_json(path)
        if data is None or "plan_key" not in data:
            continue
        entries.append(
            QueueEntry(
                plan_key=str(data["plan_key"]),
                shards=int(data.get("shards", 1)),
                kind=str(data.get("kind", "sweep")),
            )
        )
    return entries


def dequeue(store: "RunStore", plan_key: str) -> bool:
    """Drop the queue marker (the plan finished); True if one was present."""
    try:
        store.file_path("queue", plan_key).unlink()
        return True
    except FileNotFoundError:
        return False


# -- claims ------------------------------------------------------------------------


@dataclass(frozen=True)
class ClaimInfo:
    """Who holds (or held) the execution lease on one shard."""

    plan_key: str
    shard: Shard
    owner: str
    pid: int
    host: str
    created: float


def claim_shard(
    store: "RunStore", plan_key: str, shard: Shard, owner: str
) -> bool:
    """Try to acquire the exclusive lease on ``(plan, shard)``.

    Atomic: ``O_CREAT | O_EXCL`` means exactly one contender wins, even
    across processes and NFS-style shared directories.  Returns ``False``
    if someone else holds the claim.
    """
    path = store.file_path("claim", plan_key, shard)
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
    except FileExistsError:
        return False
    try:
        payload = {
            "plan_key": plan_key,
            "shard": [shard.index, shard.count],
            "owner": owner,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "created": time.time(),
        }
        os.write(fd, (json.dumps(payload, indent=2) + "\n").encode("utf8"))
    finally:
        os.close(fd)
    return True


def release_shard(store: "RunStore", plan_key: str, shard: Shard) -> bool:
    """Drop the lease (work finished or abandoned cleanly)."""
    try:
        store.file_path("claim", plan_key, shard).unlink()
        return True
    except FileNotFoundError:
        return False


def claim_info(
    store: "RunStore", plan_key: str, shard: Shard
) -> ClaimInfo | None:
    data = _read_json(store.file_path("claim", plan_key, shard))
    if data is None:
        return None
    i, m = data.get("shard", [shard.index, shard.count])
    return ClaimInfo(
        plan_key=data.get("plan_key", plan_key),
        shard=Shard(int(i), int(m)),
        owner=str(data.get("owner", "?")),
        pid=int(data.get("pid", 0)),
        host=str(data.get("host", "?")),
        created=float(data.get("created", 0.0)),
    )


def claims_for(store: "RunStore", plan_key: str) -> list[ClaimInfo]:
    infos = [
        claim_info(store, plan_key, store.shard_of_path(path))
        for path in store.plan_files(plan_key, "claim")
    ]
    return [info for info in infos if info is not None]


def claim_is_stale(info: ClaimInfo) -> bool:
    """Is the claim's holder provably dead?

    Only decidable for claims from this host: a pid that no longer exists
    (or that we may not signal — pid reuse by another user) means the
    holder died without releasing.  Claims from other hosts are never
    considered stale automatically; break them explicitly.
    """
    if info.host != socket.gethostname() or info.pid <= 0:
        return False
    try:
        os.kill(info.pid, 0)
    except ProcessLookupError:
        return True
    except PermissionError:
        return False
    return False


def break_stale_claim(
    store: "RunStore", plan_key: str, shard: Shard
) -> bool:
    """Take down a dead holder's claim so the shard can be re-claimed.

    Writes the persistent dead-shard marker *first* (the shard's ledger may
    carry a torn middle line once a new writer appends after the kill; see
    :func:`mark_shard_dead`), then unlinks the claim.  Returns ``True`` if
    a stale claim was broken.
    """
    info = claim_info(store, plan_key, shard)
    if info is None or not claim_is_stale(info):
        return False
    mark_shard_dead(store, plan_key, shard, owner=info.owner)
    release_shard(store, plan_key, shard)
    return True


def mark_shard_dead(
    store: "RunStore",
    plan_key: str,
    shard: Shard,
    *,
    owner: str | None = None,
) -> None:
    """Persistently record that a writer of this shard died mid-run.

    From now on, readers of this shard's ledger tolerate corrupt *middle*
    lines (the torn write the kill left behind) instead of refusing the
    file — the torn slot simply re-executes on resume.  The marker is
    per-shard and never removed automatically: the tear stays in the file
    until a compaction rewrites it.
    """
    _write_json(
        store.file_path("dead", plan_key, shard),
        {
            "plan_key": plan_key,
            "shard": [shard.index, shard.count],
            "owner": owner,
            "marked": time.time(),
        },
    )


def is_shard_dead(store: "RunStore", plan_key: str, shard: Shard) -> bool:
    return store.file_path("dead", plan_key, shard).exists()


# -- progress ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardProgress:
    """One shard's completion facts, straight from its ledger file."""

    shard: Shard
    done: int
    expected: int
    claimed: bool
    dead: bool

    @property
    def complete(self) -> bool:
        return self.done >= self.expected


@dataclass(frozen=True)
class PlanProgress:
    """Cheap per-plan completion summary (row counts, not tables).

    ``done_instances`` counts distinct completed plan slots across every
    shard ledger; torn or foreign lines are skipped, never counted, so the
    number is monotone over a run's lifetime.
    """

    plan_key: str
    kind: str
    total_instances: int
    done_instances: int
    shards: list[ShardProgress] = field(default_factory=list)
    queued_shards: int = 1
    cancelled: bool = False

    @property
    def complete(self) -> bool:
        return self.done_instances >= self.total_instances

    @property
    def state(self) -> str:
        """``queued`` → ``running`` → ``done``, or ``cancelled``."""
        if self.complete:
            return "done"
        if self.cancelled:
            return "cancelled"
        if self.done_instances > 0 or any(s.claimed for s in self.shards):
            return "running"
        return "queued"

    def as_dict(self) -> dict[str, Any]:
        return {
            "plan_key": self.plan_key,
            "kind": self.kind,
            "state": self.state,
            "total_instances": self.total_instances,
            "done_instances": self.done_instances,
            "queued_shards": self.queued_shards,
            "cancelled": self.cancelled,
            "shards": [
                {
                    "shard": s.shard.label,
                    "done": s.done,
                    "expected": s.expected,
                    "claimed": s.claimed,
                    "dead": s.dead,
                }
                for s in self.shards
            ],
        }


def plan_progress(store: "RunStore", plan_key: str) -> PlanProgress:
    """Per-shard and total completion counts for one plan.

    Counts ledger rows without assembling tables (no metrics parsing, no
    plan-order reconstruction), so polling ``GET /plans/{id}/progress``
    stays cheap even for large plans.  It reads through the store's one
    row reader, but never refuses a file: a line that does not parse is
    simply not counted, and structural validation stays where correctness
    needs it (replay and assembly).
    """
    key, request = store.load_request(plan_key)
    kind = request.KIND
    row_type = _row_type_for(request)
    # Slot-space totals: one slot per instance for sweeps/frontiers, one
    # per (instance, trial chunk) for curve-mode ensembles.
    total = request.total_slots
    entry = queue_entry(store, key)
    queued_shards = entry.shards if entry is not None else 1

    all_slots: set[int] = set()
    shards: list[ShardProgress] = []
    for path in store.ledger_paths(key):
        shard = store.shard_of_path(path)
        try:
            rows = _read_rows(path, row_type, skip_corrupt=True)
            slots = {int(obj["slot"]) for obj, _line in rows}
        except FileNotFoundError:
            continue  # compacted or collected since it was listed
        all_slots |= slots
        if shard is None:
            continue
        expected = sum(1 for slot in range(total) if shard.owns(slot))
        shards.append(
            ShardProgress(
                shard=shard,
                done=len(slots),
                expected=expected,
                claimed=claim_info(store, key, shard) is not None,
                dead=is_shard_dead(store, key, shard),
            )
        )
    # Shards that are claimed but have not checkpointed a row yet have no
    # ledger file; surface them so "running" is visible before first rows.
    seen = {s.shard for s in shards}
    for info in claims_for(store, key):
        if info.shard in seen:
            continue
        expected = sum(1 for slot in range(total) if info.shard.owns(slot))
        shards.append(
            ShardProgress(
                shard=info.shard,
                done=0,
                expected=expected,
                claimed=True,
                dead=is_shard_dead(store, key, info.shard),
            )
        )
    shards.sort(key=lambda s: (s.shard.count, s.shard.index))
    return PlanProgress(
        plan_key=key,
        kind=kind,
        total_instances=total,
        done_instances=len(all_slots & set(range(total))),
        shards=shards,
        queued_shards=queued_shards,
        cancelled=store.is_cancelled(key),
    )
