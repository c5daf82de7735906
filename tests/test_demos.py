"""Smoke test: every narrative script in demos/ runs to its end without raising."""

import os
import runpy

import pytest

DEMO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "demos")
DEMOS = sorted(name for name in os.listdir(DEMO_DIR) if name.endswith(".py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the demos write their meshes and CSVs to the working directory
    runpy.run_path(os.path.join(DEMO_DIR, name), run_name="__main__")
