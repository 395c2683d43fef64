"""Every script in demos/ runs to the end against the current API, with
RuntimeWarnings as errors (the suite's warning filter)."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)  # 04 writes its figure to the working directory
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
