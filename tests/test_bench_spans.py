"""Every span name the benchmark relies on names something it can trace.

perfbench/spans.py wraps the public functions of each spikemap module, the
private functions listed in PRIVATE and the methods listed in METHODS; each
workload in perfbench/workloads.py then expects some spans to record calls
and others not to.  A renamed function would show up only as an incorrect
traced run, so the names are checked against the package here.  The two
benchmark files are loaded and left as they are.
"""

import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    flag, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.dont_write_bytecode = flag
    return mod


spans = _load("spans")
workloads = _load("workloads")


def _traceable(name) -> bool:
    """Whether spans.install() wraps a function or method under this name."""
    short, attr, *rest = name.split(".")
    if short not in spans.MODULES or len(rest) > 1:
        return False
    mod = importlib.import_module(spans.MODULES[short])
    if rest:
        cls = vars(mod).get(attr)
        return (
            (short, attr, rest[0]) in spans.METHODS
            and inspect.isclass(cls)
            and inspect.isfunction(vars(cls).get(rest[0]))
        )
    fn = vars(mod).get(attr)
    return (
        inspect.isfunction(fn)
        and fn.__module__ == mod.__name__
        and (not attr.startswith("_") or name in spans.PRIVATE)
    )


WORKLOAD_SPANS = [
    (wl.name, span)
    for wl in workloads.WORKLOADS.values()
    for span in wl.expected_spans + wl.absent_spans
]


def test_every_benchmark_workload_is_defined():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert sorted(w["name"] for w in declared) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload, span", WORKLOAD_SPANS)
def test_workload_span_names_a_traced_function(workload, span):
    assert _traceable(span), f"{workload} names span {span}, which the package does not define"


@pytest.mark.parametrize("span", sorted(spans.PRIVATE))
def test_private_span_names_a_function(span):
    assert _traceable(span)


@pytest.mark.parametrize("short, cls, meth", spans.METHODS)
def test_method_span_names_a_method(short, cls, meth):
    assert _traceable(f"{short}.{cls}.{meth}")


def test_a_renamed_function_is_caught():
    assert not _traceable("landscape._newton_batch")
    assert not _traceable("landscape._lattice")  # private, and not in PRIVATE
    assert not _traceable("model.PotentialExpr.gradient")
