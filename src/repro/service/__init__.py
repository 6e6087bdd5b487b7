"""Planning service: an async job API over the persistent run store.

The store's content-addressed design already *is* a job system — the
SHA-256 plan fingerprint is an idempotency key, shard ledgers are
exactly-once work records, and merge/assembly is bit-identical to serial
execution.  This package puts a network seam on it:

:mod:`repro.service.app`
    The ASGI application (pure stdlib): ``POST /plans`` submits a
    wire-format request and returns the fingerprint as job id; ``GET``
    routes report status/progress/results; ``POST .../cancel`` flips the
    tombstone.  Resubmitting an identical spec attaches to the existing
    ledger — a completed plan's second submission performs zero kernel
    work.
:mod:`repro.service.jobs`
    :class:`JobManager`: submissions → queued plans → background
    execution threads, all state in the run directory.
:mod:`repro.service.worker`
    Claim-and-drain loops for external worker processes
    (``repro worker``); atomic claim files make N workers on one
    directory exactly-once, bit-identical to serial.
:mod:`repro.service._wire`
    The JSON wire format (kind-tagged request payloads).
:mod:`repro.service.http`
    A minimal asyncio HTTP/1.1 bridge (``repro serve``) — the
    environment bakes in no ASGI server, so the service carries its own.
:mod:`repro.service.testing`
    In-process client for tests and examples.
"""

from repro.service.app import create_app
from repro.service.http import serve
from repro.service.jobs import IncompleteJob, JobManager
from repro.service.testing import Response, ServiceClient
from repro.service._wire import parse_submit, submit_payload
from repro.service.worker import drain_plan, drain_store, run_workers

__all__ = [
    "IncompleteJob",
    "JobManager",
    "Response",
    "ServiceClient",
    "create_app",
    "drain_plan",
    "drain_store",
    "parse_submit",
    "run_workers",
    "serve",
    "submit_payload",
]
