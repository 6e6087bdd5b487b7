"""Run-directory lifecycle: compacting finished ledgers, collecting garbage.

A long sweep campaign leaves a run directory strewn with per-shard ledger
files (one per CI job), torn ``*.json.tmp`` leftovers from killed plan
writes, and plan files whose runs never checkpointed a single instance.
Two maintenance operations clean this up without ever touching plan
fingerprints or row bytes:

:func:`compact_plan`
    Archive every shard ledger of a finished plan into the single
    ``s0000of0001`` file.  Rows are carried over as their original raw
    JSON lines (deduplicated by slot, sorted in plan order), so replay
    after compaction is byte-for-byte the same data — resumed and
    assembled results stay bit-identical.

:func:`gc_store`
    Drop superseded artifacts: stale ``.json.tmp`` files, and plans with
    zero checkpointed instances that no worker will still run (or one
    named plan in its entirety).

Both read rows through the store's one row reader, return small report
dataclasses and support ``dry_run``.  Neither touches a plan while a shard
of it holds a claim that :func:`~repro.store.coordination.claim_is_stale`
does not prove dead: a live writer could append into a file they replace
or delete.  A foreground ``repro sweep --run-dir`` takes no claim, so
maintenance must not run beside one.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.engine.cache import CacheStats
from repro.engine._spec import Shard
from repro.store.coordination import ClaimInfo, claim_is_stale, claims_for, queue_entry
from repro.store.ledger import _ROW_TYPES, RunStore, StoreError, _read_rows, _row_type_for

__all__ = ["CompactReport", "GcReport", "compact_plan", "gc_store"]


@dataclass(frozen=True)
class CompactReport:
    """What :func:`compact_plan` did to one plan's ledgers."""

    plan_key: str
    rows: int
    files_before: int
    bytes_before: int
    bytes_after: int
    path: Path

    def summary(self) -> str:
        return (
            f"plan {self.plan_key[:12]}: {self.rows} rows from "
            f"{self.files_before} shard file(s) -> {self.path.name} "
            f"({self.bytes_before} -> {self.bytes_after} bytes)"
        )


@dataclass(frozen=True)
class GcReport:
    """What :func:`gc_store` removed (or would remove under ``dry_run``)."""

    removed: list[Path] = field(default_factory=list)
    dry_run: bool = False

    def summary(self) -> str:
        verb = "would remove" if self.dry_run else "removed"
        if not self.removed:
            return f"{verb} nothing"
        return f"{verb} {len(self.removed)} file(s): " + ", ".join(
            p.name for p in self.removed
        )


def _live_claim(store: RunStore, plan_key: str) -> ClaimInfo | None:
    """A claim on the plan whose holder may still be writing, if any."""
    claims = claims_for(store, plan_key)
    return next((info for info in claims if not claim_is_stale(info)), None)


def _refuse_live_claim(store: RunStore, plan_key: str) -> None:
    info = _live_claim(store, plan_key)
    if info is not None:
        raise StoreError(
            f"plan {plan_key[:12]} shard {info.shard.label} is claimed by "
            f"{info.owner} (pid {info.pid} on {info.host}); retry once the "
            "claim is released"
        )


def compact_plan(
    store: RunStore, plan_key: str | None = None, *, dry_run: bool = False
) -> CompactReport:
    """Merge every shard ledger of a plan into one ``s0000of0001`` file.

    Rows are deduplicated by plan slot (overlapping shards hold identical
    rows by determinism — last wins), ordered by slot, and written as
    their original JSON lines followed by one synthesized ``shard_done``
    summary whose cache stats are the sum of the rows' per-instance
    deltas.  The write is atomic (tmp + rename); the superseded shard
    files are deleted only after the archive lands.  The plan file and its
    fingerprint are untouched, so ``--resume`` and ``assemble`` keep
    working against the compacted directory.
    """
    key, request = store.load_request(plan_key)
    _refuse_live_claim(store, key)
    row_type = _row_type_for(request)
    paths = store.ledger_paths(key)
    if not paths:
        raise StoreError(
            f"{store.run_dir} has no ledger files for plan {key[:12]}"
        )

    raw: dict[int, bytes] = {}
    elapsed = 0.0
    stats = CacheStats()
    bytes_before = 0
    for path in paths:
        bytes_before += path.stat().st_size
        skip = store._skip_corrupt(key, path)
        for obj, line in _read_rows(path, row_type, skip_corrupt=skip):
            row = _ROW_TYPES[row_type].from_obj(obj)  # refuse what replay refuses
            if row.slot not in raw:
                elapsed += row.elapsed
                stats.merge(CacheStats.from_dict(row.cache))
            raw[row.slot] = line

    whole = Shard()
    target = store.ledger_path(key, whole)
    done = json.dumps(
        {
            "type": "shard_done",
            "shard": [whole.index, whole.count],
            "cache": stats.as_dict(),
            "elapsed": elapsed,
        }
    )
    body = b"".join(raw[slot] + b"\n" for slot in sorted(raw))
    body += done.encode("utf8") + b"\n"
    if not dry_run:
        tmp = target.with_suffix(".jsonl.tmp")
        tmp.write_bytes(body)
        with open(tmp, "rb") as fh:
            os.fsync(fh.fileno())
        os.replace(tmp, target)
        for path in paths:
            if path != target:
                path.unlink()
        # The archive holds only validated rows, so any recorded tear is
        # gone with the superseded shard files — their dead markers too.
        for marker in store.plan_files(key, "dead"):
            marker.unlink()
    return CompactReport(
        plan_key=key,
        rows=len(raw),
        files_before=len(paths),
        bytes_before=bytes_before,
        bytes_after=len(body),
        path=target,
    )


def gc_store(
    store: RunStore, plan_key: str | None = None, *, dry_run: bool = False
) -> GcReport:
    """Remove superseded files from a run directory.

    Always removes stale ``*.tmp`` leftovers from interrupted atomic
    writes.  With ``plan_key``, additionally removes that plan *entirely*
    (every file of it), and refuses while a live claim holds a shard of
    it.  Without one, removes every plan that never checkpointed an
    instance (zero rows across all its ledgers), skipping plans with a
    live claim and plans still queued for workers (a queue marker: work
    not started yet is not garbage) unless they are cancelled, since no
    worker runs a cancelled plan.  Never rewrites a surviving file, so
    fingerprints and row bytes are stable.
    """
    if plan_key is not None:
        key, _request = store.load_request(plan_key)
        _refuse_live_claim(store, key)
        doomed = [key]
    else:
        doomed = [
            key
            for key in store.plan_keys()
            if not store.rows_for(store.load_request(key)[1])
            and _live_claim(store, key) is None
            and (queue_entry(store, key) is None or store.is_cancelled(key))
        ]
    removed = sorted(store.run_dir.glob("*.tmp"))
    removed += [path for key in doomed for path in store.plan_files(key)]
    if not dry_run:
        for path in removed:
            path.unlink()
    return GcReport(removed=removed, dry_run=dry_run)
