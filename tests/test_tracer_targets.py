"""The benchmark tracer wraps library names from outside `src/`; a rename
there must fail here rather than at `perfbench/run.py --trace 1`."""

import functools
import importlib
import importlib.util
import inspect
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    tracer = _tracer()
    for module, name, _, _ in tracer.TARGETS:
        fn = getattr(importlib.import_module(f"regcover.{module}"), name, None)
        assert callable(fn), f"regcover.{module}.{name}"
    targets = {(module, name) for module, name, _, _ in tracer.TARGETS}
    for module, name in tracer.GENERATORS:
        assert (module, name) in targets
        fn = getattr(importlib.import_module(f"regcover.{module}"), name)
        assert inspect.isgeneratorfunction(fn), f"regcover.{module}.{name}"


def test_tracer_properties_are_cached_properties():
    for module, cls, name in _tracer().PROPERTIES:
        owner = getattr(importlib.import_module(f"regcover.{module}"), cls)
        assert isinstance(vars(owner).get(name), functools.cached_property), (
            f"regcover.{module}.{cls}.{name}")
