"""The benchmark tracer's patch points still exist in the library.

``perfbench/tracing.py`` wraps names the library's modules import from one
another.  A rename under ``src/`` would make ``perfbench/run.py --trace 1``
crash at :meth:`Tracer.install`; this test fails first.  A name that stays
but no longer carries the work its span is named after would silently
misreport the layer split; the traced sweep below guards the sweep chunk's.
"""

import importlib.util
import math
import sys
from collections import Counter
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve annotations through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_and_uninstall_restores_every_patch_point(monkeypatch):
    tracer = load_tracing(monkeypatch).Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        tracer.uninstall()
    assert not tracer._patches
    # The first wrap of an attribute saw the library's own object.
    originals = {}
    for owner, attr, original in patches:
        originals.setdefault((id(owner), attr), (owner, attr, original))
    for owner, attr, original in originals.values():
        assert getattr(owner, attr) is original, (owner, attr)


def test_traced_dense_sweep_records_the_chunk_table_build_and_measurement(
    monkeypatch,
):
    """A dense sweep's chunks build their tables inside
    ``ArtifactCache.packed_polar`` (span ``engine.cache.tables``) through
    ``repro.kernels.backend.packed_polar_tables`` (its child span
    ``kernels.packed_polar_tables``, one table build each), and are
    measured inside ``analysis.measure``."""
    from repro import api
    from repro.api import GridCell, PlanRequest, Scenario

    tracer = load_tracing(monkeypatch).Tracer()
    request = PlanRequest(
        (Scenario("uniform", 10, seeds=3, tag="tracer-chunks"),),
        (GridCell(1, math.pi), GridCell(2, math.pi)),
        backend="numpy",
    )
    try:
        tracer.install()
        api.submit(request)
    finally:
        tracer.uninstall()
    names = Counter(span.name for span in tracer.spans)
    for name in ("engine.cache.tables", "kernels.packed_polar_tables",
                 "analysis.measure"):
        assert names[name] >= 1, names
    by_id = {span.id: span for span in tracer.spans}
    builds = [s for s in tracer.spans if s.name == "kernels.packed_polar_tables"]
    assert all(by_id[s.parent].name == "engine.cache.tables" for s in builds)
    assert tracer.counts["engine.cache.table_builds"] == len(builds)
