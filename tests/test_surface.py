"""The package's public surface, and the library attributes that the
benchmark's tracer wraps by name."""

import importlib
import os

import metragraph

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_star_import_binds_exactly_all():
    names = metragraph.__all__
    assert len(names) == len(set(names)) <= 50
    namespace = {}
    exec("from metragraph import *", namespace)  # fails on a name that does not resolve
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(names)


def test_tracer_targets_exist(monkeypatch):
    # the tracer replaces each (owner, attribute) in place; a renamed or
    # deleted attribute would otherwise surface only in a traced run
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    targets = [pair for _, pairs, _ in tracing._targets() for pair in pairs]
    assert len(targets) > 20
    missing = [(getattr(owner, "__name__", owner), attr) for owner, attr in targets
               if attr not in vars(owner)]
    assert missing == []
