"""Every span name the benchmark relies on names something it can trace.

perfbench/spans.py wraps the public functions of each spikemap module, the
private functions listed in PRIVATE and the methods listed in METHODS; each
workload in perfbench/workloads.py then expects some spans to record calls
and others not to.  A renamed function would show up only as an incorrect
traced run, so the names are checked against the package here.  A name can
also stay defined and stop being called, so each workload also makes one
traced call here, as perfbench/run.py --trace 1 does, and must come out
correct with every expected span recording calls.  The benchmark files are
loaded and left as they are.
"""

import importlib
import importlib.util
import inspect
import json
import sys
import time
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


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """perfbench/run.py, loaded with perfbench/ on sys.path as it runs, and
    a snapshot cache the workloads share, so verify-48 reads the snapshot
    magnetic-48 made."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        run = _load("run")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return run, tmp_path_factory.mktemp("bench-cache")


@pytest.mark.parametrize("name", ["magnetic-48", "verify-48", "landscape-power"])
def test_traced_workload_call_records_every_expected_span(bench, tmp_path, name):
    run, cache_dir = bench
    runner = run.Runner(str(ROOT), str(tmp_path), time.monotonic() + 300.0)
    runner.env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave perfbench/ as it is
    wl = run.workloads.WORKLOADS[name](0, str(cache_dir), runner.run_cli)
    wl.prepare(runner.new_dir("prepare"))
    call = run.timed_call(runner, wl, trace=True)
    assert call.error is None
    assert run.span_errors(wl, call.info["trace"]) == []
