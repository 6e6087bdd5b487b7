"""Wire format for the planning service: submit payloads and responses.

The body of ``POST /plans`` is the request's kind-tagged wire form (see
:meth:`repro.engine._spec.RequestBase.to_wire`) plus optional execution
hints:

.. code-block:: json

    {
      "kind": "sweep",
      "request": { "scenarios": [...], "grid": [...], ... },
      "shards": 2
    }

``kind`` defaults to ``"sweep"`` (matching plan files written before
frontiers existed); ``shards`` (default 1) is the round-robin split
workers claim — it is an execution hint, *not* part of the plan's
identity, so the same spec submitted with different shard counts
deduplicates onto one job id.  The deserialized request re-fingerprints
to exactly the id an in-process submission would get: the wire format
adds nothing that could perturb identity.

Everything here is plain ``dict`` ↔ JSON; HTTP framing lives in
:mod:`repro.service.app` / :mod:`repro.service.http`.
"""

from __future__ import annotations

import json
from typing import Any

from repro.engine._spec import RequestBase, request_from_wire
from repro.errors import InvalidParameterError

__all__ = ["parse_submit", "submit_payload", "dump_json", "load_json"]


def submit_payload(request: RequestBase, *, shards: int = 1) -> dict[str, Any]:
    """The ``POST /plans`` body for ``request`` (client-side helper)."""
    payload = request.to_wire()
    if shards != 1:
        payload["shards"] = int(shards)
    return payload


def parse_submit(data: Any) -> tuple[RequestBase, int]:
    """Validate a submit payload; returns ``(request, shards)``.

    Raises :class:`~repro.errors.InvalidParameterError` on malformed
    payloads (non-object body, unknown kind, bad scenario/grid fields,
    invalid shard count) — the app layer maps that to a 400 response.
    """
    if not isinstance(data, dict):
        raise InvalidParameterError(
            f"submit payload must be a JSON object, got {type(data).__name__}"
        )
    if not isinstance(data.get("request"), dict):
        raise InvalidParameterError(
            'submit payload must carry a "request" object '
            '({"kind": ..., "request": {...}})'
        )
    request = request_from_wire(data)
    shards = data.get("shards", 1)
    if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
        raise InvalidParameterError(
            f"shards must be a positive integer, got {shards!r}"
        )
    return request, shards


def dump_json(payload: Any) -> bytes:
    """Serialize a response body (floats round-trip exactly via ``repr``)."""
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf8")


def load_json(body: bytes) -> Any:
    """Parse a request body, mapping JSON errors to the library error type."""
    if not body:
        raise InvalidParameterError("request body is empty; expected JSON")
    try:
        return json.loads(body.decode("utf8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidParameterError(f"request body is not valid JSON: {exc}") from exc
