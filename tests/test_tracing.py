"""The benchmark's tracer hooks (bench/tracing.py) resolve against this tree.

`bench/run.py --trace 1` rebinds every name in tracing.TARGETS; a renamed or
moved library name would break it, so this test fails first.  It reads
bench/ and does not change it.
"""
import importlib
import importlib.util
import os

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", os.path.join(ROOT, "bench", "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bound(module, path):
    """The raw object a traced name is bound to, as Tracer.install reads it."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner.__dict__[attr]


def test_tracer_installs_every_target_and_uninstall_restores_it():
    tracing = load_tracing()
    originals = [bound(module, path) for module, path, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        installed = [bound(module, path) for module, path, _ in tracing.TARGETS]
        assert len(tracer._saved) == len(tracing.TARGETS)
        assert all(new is not old for new, old in zip(installed, originals))
        import cohrob.linalg
        cohrob.linalg.as_density(np.eye(2) / 2)
        assert [span[0] for span in tracer.spans] == ["linalg.as_density", "linalg.jacobi"]
    finally:
        tracer.uninstall()
    restored = [bound(module, path) for module, path, _ in tracing.TARGETS]
    assert all(new is old for new, old in zip(restored, originals))
