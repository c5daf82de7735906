"""The benchmark's tracer wraps cmcs3 functions by module and name; a refactor
that renames or removes one of them silently drops its span from `--trace 1`."""

import importlib.util
import os
import sys

import cmcs3

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def test_traced_attributes_exist(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED
    for mod_name, attr in tracing.WRAPPED:
        assert callable(getattr(getattr(cmcs3, mod_name), attr, None)), f"{mod_name}.{attr}"
