"""Every entry point the benchmark's tracer wraps must still exist.

``perfbench/layers.py`` names the traced functions of each layer module; a
name that is renamed or deleted breaks the traced benchmark run.  This test
resolves each one the way ``perfbench/tracer.py`` does, so such a change
fails here first.
"""
import importlib
import importlib.util
import os

import pytest

LAYERS_PATH = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "perfbench", "layers.py"
)


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


ENTRIES = [
    (layer, target) for layer, fns in _layers().items() for _, target in fns
]


@pytest.mark.parametrize("layer, target", ENTRIES)
def test_traced_entry_point_resolves(layer, target):
    module = importlib.import_module("fibrelab." + layer)
    if "." in target:
        cls_name, attr = target.split(".")
        assert callable(getattr(module, cls_name).__dict__[attr])
    else:
        assert callable(getattr(module, target))
