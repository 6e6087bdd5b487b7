"""On-disk, content-addressed run ledger for every request kind.

A *run directory* holds the durable record of one or more request
executions (sweeps, frontiers, ensembles).  Every file of a plan is named
``<kind>-<key12>[-s<i>of<m>].<ext>`` (:meth:`RunStore.file_path`), where
``<key12>`` is the first 12 hex digits of the plan fingerprint, so several
distinct plans can share one run directory:

``plan-<key12>.json``
    The full request specification plus its content fingerprint (written
    once, idempotently).

``ledger-<key12>-s<i>of<m>.jsonl``
    Append-only JSONL, one file per :class:`~repro.engine._spec.Shard` of
    the plan.  Each row checkpoints one completed slot: its ``slot``, the
    per-instance facts (:class:`~repro.engine.executor.InstanceReport`),
    the instance's :class:`~repro.engine.cache.CacheStats` delta and the
    kind's payload list — one metrics dict per grid cell (``instance``
    rows, sweeps), one frontier per ``k`` (``frontier`` rows) or one
    result per cell or ``k`` (``ensemble`` rows).  The row is the only
    payload the executor produces: in-process results and
    :func:`repro.api.assemble` are built from the same rows by the same
    ``build`` function.

``cancel-<key12>.json``
    The plan's cancellation tombstone (:meth:`RunStore.cancel`).  The
    queue, claim and dead-shard markers of :mod:`repro.store.coordination`
    follow the same naming rule.

A ledger row is a newline-terminated line.  Bytes after a file's last
newline are a write still in flight or torn by a kill: they are never read,
and the append handle cuts them before it writes, so a killed run loses at
most the row being written.  Replay, progress, compaction and gc all split
a file into rows through :func:`_read_rows`.  Floats round-trip exactly
through JSON (``repr`` is shortest-round-trip in Python 3), which is what
makes a resumed or merged run bit-identical to an uninterrupted one —
validated by determinism and kernel-counter assertions, never wall-clock
(CI is single-core).

Readers are *forward compatible*: unknown keys in a row, its metrics
dicts, its cache-stats delta or a recorded scenario are ignored rather
than rejected, so a ledger written by a newer version (with, say, a new
per-row tag or counter) still replays here.  Unknown *row types* are
likewise skipped.  Only structural damage is an error: a row that does not
parse, here, and a slot outside the plan or a payload of the wrong width in
the executor's row check, which resume and assembly both apply.
"""

from __future__ import annotations

import json
import math
import os
import re
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, ClassVar, Iterable, Iterator, Sequence

from repro.analysis.metrics import OrientationMetrics
from repro.engine.cache import CacheStats
from repro.engine.executor import InstanceReport
from repro.engine._spec import (
    LEDGER_VERSION,
    FrontierRequest,
    PlanRequest,
    RequestBase,
    Shard,
    request_from_wire,
)
from repro.errors import ReproError

__all__ = [
    "LEDGER_VERSION",
    "StoreError",
    "plan_fingerprint",
    "plan_kind",
    "request_to_dict",
    "request_from_dict",
    "frontier_to_dict",
    "frontier_from_dict",
    "LedgerRow",
    "FrontierRow",
    "EnsembleRow",
    "ShardLedger",
    "RunStore",
    "merge_stores",
]


class StoreError(ReproError):
    """A run directory is inconsistent with the requested operation."""


#: Known field names, used to drop unknown keys from ledgered dicts
#: (forward compatibility) instead of letting ``__init__`` raise.
_METRIC_FIELDS = frozenset(f.name for f in fields(OrientationMetrics))


# -- plan identity -----------------------------------------------------------------
#
# Serialization and fingerprinting live on the request classes themselves
# (:class:`repro.engine._spec.RequestBase`); these wrappers are the store's
# historical public spellings and must stay byte-compatible.


def request_to_dict(request: PlanRequest) -> dict[str, Any]:
    """JSON-serializable plan spec; round-trips via :func:`request_from_dict`."""
    return request.to_dict()


def request_from_dict(data: dict[str, Any]) -> PlanRequest:
    """Rebuild a :class:`PlanRequest` from :func:`request_to_dict` output."""
    return PlanRequest.from_dict(data)


def frontier_to_dict(request: FrontierRequest) -> dict[str, Any]:
    """JSON-serializable frontier spec; round-trips via :func:`frontier_from_dict`."""
    return request.to_dict()


def frontier_from_dict(data: dict[str, Any]) -> FrontierRequest:
    """Rebuild a :class:`FrontierRequest` from :func:`frontier_to_dict` output."""
    return FrontierRequest.from_dict(data)


def plan_kind(request: PlanRequest | FrontierRequest) -> str:
    """``"sweep"`` for a :class:`PlanRequest`, ``"frontier"`` otherwise."""
    return request.KIND if isinstance(request, RequestBase) else "sweep"


def plan_fingerprint(request: PlanRequest | FrontierRequest) -> str:
    """SHA-256 content hash of a plan or frontier spec (the ledger key).

    Delegates to :meth:`repro.engine._spec.RequestBase.fingerprint`; the
    scheme is frozen (see the fixture regression test), so every historical
    fingerprint remains valid.
    """
    return request.fingerprint()


# -- rows --------------------------------------------------------------------------


@dataclass
class _InstanceRowBase:
    """Shared shape of one checkpointed instance chunk.

    Subclasses declare ``ROW_TYPE`` (the JSON ``"type"`` tag) and
    ``PAYLOAD`` (the name of their one extra list field); serialization,
    parsing and the :class:`InstanceReport` projection live here once, so
    the sweep and frontier replay paths cannot drift apart.
    """

    ROW_TYPE: ClassVar[str]
    PAYLOAD: ClassVar[str]

    slot: int
    scenario_index: int
    instance_index: int
    elapsed: float
    facts: dict[str, float]
    cache: dict[str, int]
    backend: str = "numpy"
    mode: str = "strong"

    def to_json(self) -> str:
        payload = {
            "type": self.ROW_TYPE,
            "slot": self.slot,
            "scenario_index": self.scenario_index,
            "instance_index": self.instance_index,
            "elapsed": self.elapsed,
            "facts": self.facts,
            self.PAYLOAD: getattr(self, self.PAYLOAD),
            "cache": self.cache,
            "backend": self.backend,
        }
        # Provenance tag for the connectivity objective.  Strong-mode rows
        # predate the seam: omitting the default keeps them byte-identical
        # to every ledger written before it (readers default to "strong").
        if self.mode != "strong":
            payload["mode"] = self.mode
        return json.dumps(payload)

    @classmethod
    def from_obj(cls, obj: dict[str, Any]) -> "_InstanceRowBase":
        # Reads known keys only: unknown keys written by a newer version
        # are ignored (ledger forward compatibility).
        return cls(
            slot=int(obj["slot"]),
            scenario_index=int(obj["scenario_index"]),
            instance_index=int(obj["instance_index"]),
            elapsed=float(obj["elapsed"]),
            facts=dict(obj["facts"]),
            cache={k: int(v) for k, v in obj["cache"].items()},
            backend=str(obj.get("backend", "numpy")),
            mode=str(obj.get("mode", "strong")),
            **{cls.PAYLOAD: list(obj[cls.PAYLOAD])},
        )

    def report(self) -> InstanceReport:
        return InstanceReport(
            scenario_index=self.scenario_index,
            instance_index=self.instance_index,
            n=int(self.facts["n"]),
            lmax=self.facts["lmax"],
            mst_weight=self.facts["mst_weight"],
            diameter=self.facts["diameter"],
            elapsed=self.elapsed,
        )


@dataclass
class LedgerRow(_InstanceRowBase):
    """One checkpointed sweep chunk: every grid cell of one instance."""

    ROW_TYPE: ClassVar[str] = "instance"
    PAYLOAD: ClassVar[str] = "metrics"

    metrics: list[dict[str, Any]] = field(default_factory=list)

    def cell_metrics(self) -> list[OrientationMetrics]:
        # Unknown metric keys (added by a newer version) are dropped.
        return [
            OrientationMetrics(
                **{k: v for k, v in m.items() if k in _METRIC_FIELDS}
            )
            for m in self.metrics
        ]


@dataclass
class FrontierRow(_InstanceRowBase):
    """One checkpointed frontier chunk: every ``k`` of one instance.

    ``frontiers`` holds one :meth:`repro.frontier._solver.KFrontier.as_dict`
    payload per requested ``k`` (request order); probe φ values and solved
    φ* round-trip exactly through JSON, which is what makes a resumed or
    merged frontier run bit-identical to an uninterrupted one.
    """

    ROW_TYPE: ClassVar[str] = "frontier"
    PAYLOAD: ClassVar[str] = "frontiers"

    frontiers: list[dict[str, Any]] = field(default_factory=list)


@dataclass
class EnsembleRow(_InstanceRowBase):
    """One checkpointed ensemble chunk.

    Curve mode: one trial-chunk of one instance — ``results`` holds one
    ``{"successes", "trials", "critical"}`` payload per grid cell.
    Threshold mode: one whole instance — ``results`` holds one
    :meth:`repro.ensemble.solver.KEnsembleFrontier.as_dict` payload per
    requested ``k``.  Either way the slot is a *slot-space* index
    (``request.total_slots``), not an instance index.
    """

    ROW_TYPE: ClassVar[str] = "ensemble"
    PAYLOAD: ClassVar[str] = "results"

    results: list[dict[str, Any]] = field(default_factory=list)


#: Ledger row type tag -> row class; a ledger file may only mix row types
#: with distinct tags (``shard_done`` summaries ride along untyped).
_ROW_TYPES = {cls.ROW_TYPE: cls for cls in (LedgerRow, FrontierRow, EnsembleRow)}

#: Plan kind -> row type tag.  The single request→rows mapping: the
#: executor builds each kind's rows through it, and resume, assembly, merge
#: and progress read them through it, so a new plan kind must be registered
#: here (and in :func:`plan_kind`).
_KIND_ROW_TYPES = {
    "sweep": LedgerRow.ROW_TYPE,
    "frontier": FrontierRow.ROW_TYPE,
    "ensemble": EnsembleRow.ROW_TYPE,
}


def _row_type_for(request: PlanRequest | FrontierRequest) -> str:
    return _KIND_ROW_TYPES[plan_kind(request)]


# -- files -------------------------------------------------------------------------


class ShardLedger:
    """Append handle for one ``(plan, shard)`` ledger file.

    Concurrent-append contract (multi-worker mode): the file is opened with
    ``O_APPEND`` and every row is emitted as exactly ONE ``os.write`` of one
    newline-terminated line.  POSIX append semantics then guarantee whole
    lines never interleave, even if a second writer briefly overlaps a
    claim takeover — a row can be *torn* only by a kill mid-``write``, which
    the ``skip_corrupt`` rule of :func:`_read_rows` handles.  Do not route
    appends through a buffered stream: a large row could flush in several
    ``write`` syscalls and break the atomicity this contract relies on.
    """

    def __init__(self, path: Path, plan_key: str, shard: Shard):
        self.path = path
        self.plan_key = plan_key
        self.shard = shard
        _drop_torn_tail(path)
        self._fd: int | None = os.open(
            path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )

    def _write_line(self, line: str) -> None:
        assert self._fd is not None, "ledger already closed"
        data = (line + "\n").encode("utf8")
        assert b"\n" not in data[:-1], "ledger rows must be single lines"
        written = os.write(self._fd, data)
        assert written == len(data), "short ledger write"

    def append(self, row: LedgerRow) -> None:
        self._write_line(row.to_json())

    def finish(self, cache: CacheStats, elapsed: float) -> None:
        """Append the shard-completion summary row (informational)."""
        self._write_line(
            json.dumps(
                {
                    "type": "shard_done",
                    "shard": [self.shard.index, self.shard.count],
                    "cache": cache.as_dict(),
                    "elapsed": elapsed,
                }
            )
        )
        assert self._fd is not None
        os.fsync(self._fd)

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "ShardLedger":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def _drop_torn_tail(path: Path) -> None:
    """Truncate the bytes after the last newline (a torn write from a kill).

    Must run before re-opening a ledger for append: gluing a fresh row onto
    the fragment would leave a corrupt row in the *middle* of the file,
    which readers rightly refuse.  The fragment is no row (see
    :func:`_read_rows`), so dropping it is lossless.
    """
    if not path.exists():
        return
    with open(path, "rb+") as fh:
        data = fh.read()
        if not data or data.endswith(b"\n"):
            return
        keep = data.rfind(b"\n") + 1  # 0 if the file is one torn line
        fh.truncate(keep)


def _read_rows(
    path: Path, row_type: str, *, skip_corrupt: bool = False
) -> Iterator[tuple[dict[str, Any], bytes]]:
    """Yield ``(object, raw line)`` for every ``row_type`` row of one file.

    The one rule for what a ledger row is: a newline-terminated line.  The
    bytes after the last newline are never read.  Rows of other types —
    ``shard_done`` summaries, rows of a different spec kind — are skipped.

    A newline-terminated line that does not parse is refused wherever it
    sits, unless ``skip_corrupt``: replay passes it for shards whose writer
    is known to have died mid-append (a dead-shard marker, see
    :func:`repro.store.coordination.mark_shard_dead`), because with
    O_APPEND single-write rows the only way a torn line gets a newline is
    a killed concurrent writer whose survivor kept appending; progress
    passes it always, because a poll must never refuse a file.  The torn
    row carries no completed work (rows are written whole), so skipping it
    is lossless — its slot simply re-executes on resume.
    """
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")[:-1]
    for lineno, line in enumerate(lines, 1):
        try:
            obj = json.loads(line)
        except ValueError:  # not JSON, or not UTF-8
            if skip_corrupt:
                continue
            raise StoreError(
                f"{path}: corrupt ledger row at line {lineno}"
            ) from None
        if obj.get("type") == row_type:
            yield obj, line


def _write_json(path: Path, payload: dict[str, Any]) -> None:
    """Write ``payload`` as indented JSON atomically (tmp file + rename)."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf8")
    os.replace(tmp, path)


#: File kind -> what follows ``<kind>-<key12>`` in its name, where ``*``
#: stands for the shard's ``<i>of<m>``.  The order is the one
#: :meth:`RunStore.plan_files` lists them in.
_NAME_TAILS = {
    "ledger": "-s*.jsonl",
    "queue": ".json",
    "cancel": ".json",
    "claim": "-s*.json",
    "dead": "-s*.json",
    "plan": ".json",
}

_SHARD_NAME = re.compile(r"[a-z]+-[0-9a-f]{12}-s(\d+)of(\d+)\.jsonl?")


# -- the store ---------------------------------------------------------------------


@dataclass
class RunStore:
    """A run directory: durable, resumable, shardable plan executions.

    The same directory can be shared by every shard of a plan (each shard
    appends to its own file), by several distinct plans (files are keyed by
    the plan fingerprint), and by repeated resumed runs.
    """

    run_dir: Path
    _ledgers: list[ShardLedger] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        self.run_dir = Path(self.run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)

    # -- paths ---------------------------------------------------------------

    def file_path(
        self, kind: str, plan_key: str, shard: Shard | None = None
    ) -> Path:
        """``<kind>-<key12>[-s<i>of<m>].<ext>``: the name of every plan file."""
        tail = _NAME_TAILS[kind]
        if shard is not None:
            tail = tail.replace("*", f"{shard.index:04d}of{shard.count:04d}")
        return self.run_dir / f"{kind}-{plan_key[:12]}{tail}"

    def plan_files(self, plan_key: str, *kinds: str) -> list[Path]:
        """Every file of the plan present here (of ``kinds``, default all)."""
        return [
            path
            for kind in kinds or _NAME_TAILS
            for path in sorted(
                self.run_dir.glob(f"{kind}-{plan_key[:12]}{_NAME_TAILS[kind]}")
            )
        ]

    @staticmethod
    def shard_of_path(path: Path) -> "Shard | None":
        """Recover the :class:`Shard` a sharded plan file records (``None``
        if the name has no ``-s<i>of<m>`` suffix)."""
        m = _SHARD_NAME.fullmatch(path.name)
        return None if m is None else Shard(int(m.group(1)), int(m.group(2)))

    def plan_path(self, plan_key: str) -> Path:
        return self.file_path("plan", plan_key)

    def ledger_path(self, plan_key: str, shard: Shard) -> Path:
        return self.file_path("ledger", plan_key, shard)

    def ledger_paths(self, plan_key: str) -> list[Path]:
        """Every shard ledger of the plan present in this directory."""
        return self.plan_files(plan_key, "ledger")

    def _skip_corrupt(self, plan_key: str, path: Path) -> bool:
        """Tolerate torn middle lines in ``path``?  Only when a dead-shard
        marker records that a writer of this shard was killed mid-append."""
        shard = self.shard_of_path(path)
        return shard is not None and self.file_path("dead", plan_key, shard).exists()

    # -- plans ---------------------------------------------------------------

    def write_plan(self, request: PlanRequest | FrontierRequest) -> str:
        """Record the plan/frontier spec (idempotent); returns its fingerprint."""
        key = plan_fingerprint(request)
        path = self.plan_path(key)
        if path.exists():
            existing = json.loads(path.read_text(encoding="utf8"))
            if existing.get("plan_key") != key:
                raise StoreError(
                    f"{path} records a different plan "
                    f"(key {existing.get('plan_key', '?')[:12]} != {key[:12]})"
                )
            return key
        _write_json(
            path,
            {"ledger_version": LEDGER_VERSION, "plan_key": key, **request.to_wire()},
        )
        return key

    def plan_keys(self) -> list[str]:
        """Fingerprints of every plan recorded in this directory."""
        keys = []
        for path in sorted(self.run_dir.glob("plan-*.json")):
            keys.append(json.loads(path.read_text(encoding="utf8"))["plan_key"])
        return keys

    def load_request(
        self, plan_key: str | None = None
    ) -> "tuple[str, PlanRequest | FrontierRequest]":
        """Load the recorded plan or frontier spec (the only one, unless a
        key is given).  The returned request's type reflects the recorded
        ``kind`` (plan files without one predate frontiers and are sweeps).
        """
        keys = self.plan_keys()
        if plan_key is not None:
            matches = [k for k in keys if k.startswith(plan_key)]
            if not matches:
                raise StoreError(
                    f"{self.run_dir} has no plan matching key {plan_key[:12]!r}"
                )
            if len(matches) > 1:
                raise StoreError(
                    f"plan key prefix {plan_key!r} is ambiguous in "
                    f"{self.run_dir}: matches "
                    f"{', '.join(k[:12] for k in matches)}"
                )
            keys = matches
        if not keys:
            raise StoreError(f"{self.run_dir} records no plans")
        if len(keys) > 1:
            raise StoreError(
                f"{self.run_dir} records {len(keys)} plans "
                f"({', '.join(k[:12] for k in keys)}); pass a plan key"
            )
        key = keys[0]
        data = json.loads(self.plan_path(key).read_text(encoding="utf8"))
        request = request_from_wire(data)
        rebuilt = plan_fingerprint(request)
        if rebuilt != key:
            raise StoreError(
                f"{self.plan_path(key)}: spec no longer hashes to its recorded "
                f"key ({rebuilt[:12]} != {key[:12]}); the file was edited"
            )
        return key, request

    # -- rows ----------------------------------------------------------------

    def _load(
        self, plan_key: str, row_type: str, paths: Iterable[Path]
    ) -> dict[int, Any]:
        row_cls = _ROW_TYPES[row_type]
        rows: dict[int, Any] = {}
        for path in paths:
            skip = self._skip_corrupt(plan_key, path)
            for obj, _line in _read_rows(path, row_type, skip_corrupt=skip):
                row = row_cls.from_obj(obj)
                rows[row.slot] = row
        return rows

    def load_rows(self, plan_key: str) -> dict[int, LedgerRow]:
        """All ledgered instance rows of the plan, across every shard file."""
        return self._load(
            plan_key, LedgerRow.ROW_TYPE, self.ledger_paths(plan_key)
        )

    def load_typed_rows(self, plan_key: str, row_type: str) -> dict[int, Any]:
        """All ledgered rows of one row type, across every shard file."""
        return self._load(plan_key, row_type, self.ledger_paths(plan_key))

    def rows_for(self, request: "RequestBase") -> dict[int, Any]:
        """Ledgered rows of ``request``, with the row type keyed off its kind."""
        return self.load_typed_rows(
            plan_fingerprint(request), _row_type_for(request)
        )

    def shard_rows(
        self, request: PlanRequest | FrontierRequest, shard: Shard
    ) -> dict[int, Any]:
        """Rows recorded in one shard's own ledger file (kind-matched)."""
        key = plan_fingerprint(request)
        path = self.ledger_path(key, shard)
        if not path.exists():
            return {}
        return self._load(key, _row_type_for(request), [path])

    def open_shard(
        self, request: "PlanRequest | FrontierRequest", shard: Shard
    ) -> ShardLedger:
        """Open the append handle for one shard (recording the plan spec)."""
        key = self.write_plan(request)
        ledger = ShardLedger(self.ledger_path(key, shard), key, shard)
        self._ledgers.append(ledger)
        return ledger

    def close(self) -> None:
        for ledger in self._ledgers:
            ledger.close()
        self._ledgers.clear()

    # -- cancellation ----------------------------------------------------------

    def cancel(self, plan_key: str, reason: "str | None" = None) -> None:
        """Flip the plan's cancellation tombstone (idempotent).

        Executors poll it between instance chunks and stop with
        :class:`~repro.errors.PlanCancelled`, so cancellation lands at a
        chunk boundary: everything already checkpointed stays valid, and a
        resume after :meth:`clear_cancel` continues from the ledger.
        """
        _write_json(
            self.file_path("cancel", plan_key),
            {"plan_key": plan_key, "reason": reason, "cancelled": time.time()},
        )

    def is_cancelled(self, plan_key: str) -> bool:
        return self.file_path("cancel", plan_key).exists()

    def clear_cancel(self, plan_key: str) -> bool:
        """Remove the tombstone (a resubmission un-cancels); True if one was
        present."""
        try:
            self.file_path("cancel", plan_key).unlink()
            return True
        except FileNotFoundError:
            return False


# -- merge -------------------------------------------------------------------------


def merge_stores(
    run_dirs: Sequence[str | Path], plan_key: str | None = None
) -> "tuple[str, PlanRequest | FrontierRequest, dict[int, Any]]":
    """Union the ledgers of several run directories (one shard per CI job).

    Every directory must record the same plan (sweep or frontier — the row
    type follows the recorded spec kind); rows are keyed by slot, so
    overlapping shards are harmless (rows for a slot are identical by
    determinism).
    """
    if not run_dirs:
        raise StoreError("no run directories to merge")
    key = None
    request = None
    rows: dict[int, Any] = {}
    for run_dir in run_dirs:
        store = RunStore(Path(run_dir))
        k, req = store.load_request(plan_key)
        if key is None:
            key, request = k, req
        elif k != key:
            mode, other = (
                getattr(request, "mode", "strong"),
                getattr(req, "mode", "strong"),
            )
            if mode != other:
                raise StoreError(
                    f"{run_dir} records a {other}-mode plan, expected "
                    f"{mode}; runs with different connectivity modes "
                    "cannot be merged"
                )
            raise StoreError(
                f"{run_dir} records plan {k[:12]}, expected {key[:12]}; "
                "shards of different plans cannot be merged"
            )
        rows.update(store.load_typed_rows(key, _row_type_for(request)))
    assert key is not None and request is not None
    return key, request, rows


def hit_rate(stats: CacheStats) -> float:
    """Cache hit fraction in [0, 1] (0 when the cache was never touched)."""
    touches = stats.hits + stats.misses
    return stats.hits / touches if touches else 0.0


def _isnan(x: float) -> bool:
    return isinstance(x, float) and math.isnan(x)


def rows_equal(a: Iterable[dict], b: Iterable[dict]) -> bool:
    """NaN-tolerant equality of aggregate-row sequences (test helper)."""
    la, lb = list(a), list(b)
    if len(la) != len(lb):
        return False
    for ra, rb in zip(la, lb):
        if ra.keys() != rb.keys():
            return False
        for k in ra:
            if ra[k] != rb[k] and not (_isnan(ra[k]) and _isnan(rb[k])):
                return False
    return True
