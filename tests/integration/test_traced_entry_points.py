"""The traced end-to-end benchmark's entry points exist in ``src``.

``benchmarks/e2e/layers.py`` patches the functions its ``LAYERS`` table
names when a traced run starts, and ``LayerTracer.install()`` raises
if one is missing or is not a plain function. The default test run
collects only ``tests/``, so this loads that module by path and
installs, then restores, every shim: renaming one of those functions
fails here, not only in the traced run.
"""

import importlib.util
import inspect
from pathlib import Path

LAYERS_PATH = (Path(__file__).resolve().parents[2]
               / "benchmarks" / "e2e" / "layers.py")


def load_layers():
    spec = importlib.util.spec_from_file_location("e2e_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_entry_point_installs_and_restores():
    layers = load_layers()
    tracer = layers.LayerTracer()
    # Not ``with``: install() can fail half-way, and a context manager
    # whose __enter__ raised never restores what it had patched.
    try:
        tracer.install()
        patched = list(tracer._restore)
    finally:
        tracer.restore()
    assert len(patched) == sum(len(entries)
                               for entries in layers.LAYERS.values())
    for owner, attribute, original in patched:
        assert inspect.getattr_static(owner, attribute) is original
