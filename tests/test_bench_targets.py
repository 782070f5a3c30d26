"""Every function the benchmark tracer wraps must exist under its listed name.

``perfbench/tracer.py`` names the public functions of each layer that a
traced benchmark run wraps.  A rename or deletion in the package would
otherwise surface only when ``perfbench/run.py --trace 1`` runs.
"""

import importlib.util
import sys
from pathlib import Path

import cosetcodes  # loads every layer module

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _target(layer, name):
    """The object a TARGETS entry names, read from the layer's module."""
    home = sys.modules[f"cosetcodes.{layer}"]
    if "." in name:
        cls_name, meth = name.split(".")
        return vars(getattr(home, cls_name))[meth]
    return vars(home)[name]


def test_every_tracer_target_is_wrapped_and_restored(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    targets = [(layer, name) for layer, names in tracer.TARGETS.items() for name in names]
    before = {t: _target(*t) for t in targets}
    with tracer.Tracer().installed() as t:
        for target in targets:
            assert getattr(_target(*target), "__wrapped__", None) is before[target], target
        cosetcodes.make_field(2, 2)
        assert [s.name for s in t.spans] == ["make_field"]
    for target in targets:
        assert _target(*target) is before[target], target
