"""Every example script must run end-to-end (they are living documentation)."""

import pathlib
import runpy
import tempfile

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
SCRIPTS = sorted(EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.stem)
def test_example_runs(script, capsys, tmp_path, monkeypatch):
    # Examples write into fresh temporary directories (and print their real
    # paths); keep those under pytest's own temporary tree.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert len(out) > 100, f"{script.name} produced almost no output"


def test_examples_exist():
    assert len(SCRIPTS) >= 3, "the deliverable requires at least three examples"
    names = {p.stem for p in SCRIPTS}
    assert "quickstart" in names
