"""The benchmark's traced names still exist in the package.

``perfbench/spans.py`` wraps each ``(module, attr)`` of its ``TARGETS`` when a
run is traced; a name that is renamed or removed here crashes that run.  This
resolves every target the way ``spans.Tracer.install`` does, without
installing anything.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import pathineq

SPANS = Path(pathineq.__file__).resolve().parents[2] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


@pytest.mark.parametrize("module_name, attr", _targets(), ids=lambda x: x)
def test_traced_name_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, key = attr.split(".")
        assert key in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))
