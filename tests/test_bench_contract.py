"""The benchmark patches owlink functions by name (perfbench/spans.py).

A rename in owlink would make every benchmark child process fail at
start-up; this test makes it fail here instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()


@pytest.mark.parametrize("qualname", sorted(set(SPANS.LOADERS + SPANS.WORK + SPANS.TRACED)))
def test_traced_name_resolves(qualname):
    layer, *path = qualname.split(".")
    owner = importlib.import_module(f"owlink.{layer}")
    for attr in path:
        assert hasattr(owner, attr), f"{qualname}: owlink.{layer} has no {'.'.join(path)}"
        owner = getattr(owner, attr)
    assert callable(owner)
