"""The benchmark tracer's patch points still exist in the library.

``perfbench/tracing.py`` wraps names the library's modules import from one
another.  A rename under ``src/`` would make ``perfbench/run.py --trace 1``
crash at :meth:`Tracer.install`; this test fails first.
"""

import importlib.util
import sys
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
