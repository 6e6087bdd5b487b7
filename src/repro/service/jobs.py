"""In-process job management for the planning service.

:class:`JobManager` is the glue between HTTP handlers and the store: it
turns a deserialized request into a queued plan (the SHA-256 fingerprint
is the job id), optionally executes it on a background thread through the
same claim-and-drain loop external workers use
(:func:`repro.service.worker.drain_plan`), and answers status/progress/
result/cancel queries straight from the run directory.

Idempotency is structural, not bookkept: submitting a spec whose
fingerprint already has a complete ledger starts no thread and performs
zero kernel work — the ledger *is* the memo.  Submitting a spec that is
mid-run (here or on any worker sharing the directory) just attaches to
the existing job id.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.engine._spec import RequestBase
from repro.errors import PlanCancelled, ReproError
from repro.service.worker import drain_plan
from repro.store import coordination as coord
from repro.store.ledger import RunStore, StoreError

__all__ = ["JobManager", "IncompleteJob"]


class IncompleteJob(StoreError):
    """Result requested before every shard landed; carries the progress."""

    def __init__(self, key: str, progress: "coord.PlanProgress") -> None:
        super().__init__(
            f"plan {key[:12]} is {progress.state}: "
            f"{progress.done_instances}/{progress.total_instances} instances"
        )
        self.key = key
        self.progress = progress


class JobManager:
    """Submit, watch, cancel and collect plans over one :class:`RunStore`.

    Parameters
    ----------
    store:
        The run directory all state lives in.
    backend / jobs:
        Execution knobs forwarded to :func:`repro.api.submit` for plans
        this manager executes itself.
    execute:
        ``True`` (default): each submission is drained by a daemon thread
        in this process.  ``False``: submissions are only queued — for
        deployments where separate ``repro worker`` processes drain the
        directory (the app's ``--no-execute`` mode).
    """

    def __init__(
        self,
        store: RunStore,
        *,
        backend: "str | None" = None,
        jobs: int = 1,
        execute: bool = True,
    ) -> None:
        self.store = store
        self.backend = backend
        self.jobs = jobs
        self.execute = execute
        self._lock = threading.Lock()
        self._threads: dict[str, threading.Thread] = {}
        self._errors: dict[str, str] = {}

    # -- submission ----------------------------------------------------------------

    def submit(self, request: RequestBase, *, shards: int = 1) -> dict[str, Any]:
        """Queue (and maybe start) a request; returns the job descriptor.

        The returned dict carries ``id`` (the fingerprint), ``state``, and
        ``attached`` — ``True`` when an identical spec was already known
        to the run directory, i.e. this submission was deduplicated.
        A resubmission clears any cancellation tombstone (an explicit
        submit is the "run this after all" signal), so cancel-then-submit
        resumes from the ledgered chunks.
        """
        key = self.store.write_plan(request)
        attached = bool(
            coord.queue_entry(self.store, key) is not None
            or self.store.ledger_paths(key)
        )
        self.store.clear_cancel(key)
        progress = coord.plan_progress(self.store, key)
        if not progress.complete:
            coord.enqueue(self.store, request, shards=shards)
            if self.execute:
                self._ensure_thread(key)
        else:
            coord.dequeue(self.store, key)
        with self._lock:
            self._errors.pop(key, None)
        return {
            "id": key,
            "kind": request.KIND,
            "state": coord.plan_progress(self.store, key).state,
            "attached": attached,
            "total_instances": request.total_instances,
        }

    def _ensure_thread(self, key: str) -> None:
        with self._lock:
            thread = self._threads.get(key)
            if thread is not None and thread.is_alive():
                return  # already draining this plan
            thread = threading.Thread(
                target=self._drain, args=(key,), name=f"repro-job-{key[:12]}",
                daemon=True,
            )
            self._threads[key] = thread
        thread.start()

    def _drain(self, key: str) -> None:
        try:
            drain_plan(
                self.store, key,
                owner=f"service-{key[:12]}",
                backend=self.backend,
                jobs=self.jobs,
            )
        except PlanCancelled:
            pass  # tombstone state is the record; progress reports it
        except (StoreError, ReproError) as exc:
            with self._lock:
                self._errors[key] = str(exc)

    # -- queries -------------------------------------------------------------------

    def resolve(self, job_id: str) -> tuple[str, RequestBase]:
        """Full key + recorded request for a (possibly prefixed) job id.

        Raises :class:`StoreError` for unknown or ambiguous ids — the app
        maps that to a 404.
        """
        return self.store.load_request(job_id)

    def status(self, job_id: str) -> dict[str, Any]:
        key, request = self.resolve(job_id)
        progress = coord.plan_progress(self.store, key)
        payload = {
            "id": key,
            "kind": request.KIND,
            "mode": getattr(request, "mode", "strong"),
            "state": progress.state,
            "total_instances": progress.total_instances,
            "done_instances": progress.done_instances,
        }
        error = self._errors.get(key)
        if error is not None:
            payload["error"] = error
        return payload

    def progress(self, job_id: str) -> dict[str, Any]:
        key, request = self.resolve(job_id)
        payload = coord.plan_progress(self.store, key).as_dict()
        payload["mode"] = getattr(request, "mode", "strong")
        error = self._errors.get(key)
        if error is not None:
            payload["error"] = error
        return payload

    def jobs_list(self) -> list[dict[str, Any]]:
        """Status of every plan recorded in the run directory."""
        return [self.status(key) for key in self.store.plan_keys()]

    def result(self, job_id: str, *, aggregate: str = "scenario") -> dict[str, Any]:
        """Merged result tables of a completed job.

        Raises :class:`IncompleteJob` while shards are still outstanding
        (the app maps it to a 409 with the current progress).  Tables are
        assembled purely from ledger rows (:func:`repro.api.assemble`), so
        they are bit-identical regardless of which workers, shards or
        resumes produced the rows.
        """
        from repro.api import BatchResult, assemble

        key, request = self.resolve(job_id)
        progress = coord.plan_progress(self.store, key)
        if not progress.complete:
            raise IncompleteJob(key, progress)
        batch = assemble(request, self.store)
        if isinstance(batch, BatchResult):
            if aggregate == "cell":
                rows = batch.aggregate_by_cell()
            else:
                rows = batch.aggregate_by_scenario_cell()
        else:
            rows = batch.aggregate_rows()
        return {
            "id": key,
            "kind": request.KIND,
            "instances": len(batch.instance_reports),
            "rows": rows,
        }

    def cancel(self, job_id: str, reason: "str | None" = None) -> dict[str, Any]:
        """Flip the job's cancellation tombstone; running executors stop at
        their next chunk boundary and completed chunks stay ledgered."""
        key, _request = self.resolve(job_id)
        self.store.cancel(key, reason)
        return self.status(key)

    def join(self, job_id: "str | None" = None, timeout: "float | None" = None) -> None:
        """Block until this manager's executor thread(s) finish (tests)."""
        with self._lock:
            threads = (
                list(self._threads.values())
                if job_id is None
                else [t for k, t in self._threads.items() if k.startswith(job_id)]
            )
        for thread in threads:
            thread.join(timeout)
