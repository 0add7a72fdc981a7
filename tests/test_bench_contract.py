"""The benchmark patches owlink functions by name (perfbench/spans.py) and
drives the CLI with fixed command lines (perfbench/workloads.py).

A rename in owlink, or a flag the CLI no longer takes, would make benchmark
child processes fail; these tests make it fail here instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from owlink.cli import build_parser

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


SPANS = load_perfbench("spans")
WORKLOADS = load_perfbench("workloads")


@pytest.mark.parametrize("qualname", sorted(set(SPANS.LOADERS + SPANS.WORK + SPANS.TRACED)))
def test_traced_name_resolves(qualname):
    layer, *path = qualname.split(".")
    owner = importlib.import_module(f"owlink.{layer}")
    for attr in path:
        assert hasattr(owner, attr), f"{qualname}: owlink.{layer} has no {'.'.join(path)}"
        owner = getattr(owner, attr)
    assert callable(owner)


@pytest.mark.parametrize("scale", ["bench", "tiny"])
@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_benchmark_command_lines_parse(workload, scale):
    spec = WORKLOADS.spec_for(workload, scale)
    inputs, work = Path("inputs"), Path("work")
    steps = (WORKLOADS.pipeline(workload, spec, inputs, work)
             + WORKLOADS.check_pipeline(workload, spec, inputs, work))
    commands = [step for step in steps if isinstance(step, WORKLOADS.Command)]
    assert commands
    parser = build_parser()
    for command in commands:
        args = parser.parse_args(command.argv)
        assert args.command == command.argv[0]
