"""The traced benchmark wraps gaplab callables by the names listed in
perfbench/spans.py. Each listed name must still exist, and a module-level
function must still be called by that name in the module it is bound in,
or the benchmark's per-layer spans silently read 0."""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()


def called_by_name(module_name, attr):
    source = inspect.getsource(importlib.import_module(module_name))
    return re.search(rf"(?<!def )(?<![.\w]){re.escape(attr)}\(", source) is not None


@pytest.mark.parametrize("entry", SPANS.FUNCTIONS + SPANS.GENERATORS,
                         ids=lambda e: f"{e[0]}.{e[1]}")
def test_function_binding_resolves_and_is_called(entry):
    module_name, attr = entry[0], entry[1]
    assert callable(getattr(importlib.import_module(module_name), attr))
    assert called_by_name(module_name, attr)


@pytest.mark.parametrize("entry", SPANS.GENERATORS, ids=lambda e: f"{e[0]}.{e[1]}")
def test_generator_binding_is_a_generator(entry):
    module_name, attr = entry[0], entry[1]
    assert inspect.isgeneratorfunction(getattr(importlib.import_module(module_name), attr))


@pytest.mark.parametrize("entry", SPANS.METHODS, ids=lambda e: f"{e[1]}.{e[2]}")
def test_method_binding_resolves(entry):
    module_name, cls_name, attr = entry[:3]
    cls = getattr(importlib.import_module(module_name), cls_name)
    assert callable(cls.__dict__[attr])


@pytest.mark.parametrize("entry", SPANS.CLASSMETHODS, ids=lambda e: f"{e[1]}.{e[2]}")
def test_classmethod_binding_resolves(entry):
    module_name, cls_name, attr = entry[:3]
    cls = getattr(importlib.import_module(module_name), cls_name)
    assert isinstance(cls.__dict__[attr], classmethod)
