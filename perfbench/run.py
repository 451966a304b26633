"""spikemap benchmark: run one workload and print its metrics.

usage (from the root of a spikemap checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each CLI call runs in a fresh interpreter (perfbench/child.py) with an empty
output directory, because the canonical-profile cache lives in process
memory and every CLI user pays to refill it.  Calls repeat until S seconds
have passed, at least once; each call's outputs are checked.  Timings,
CPU time and peak memory of each call are read from outside the child with
wait4.  With --trace 1 the run first makes the same untraced calls, as the
reference for the tracing overhead, then one more call with the span tracer
installed; the per-layer metrics come from that call.

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
holding the end_to_end metrics of BENCHMARK.json (--trace 0) or its
per_layer metrics (--trace 1).  Other stdout lines describe the run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
# a run ends well inside the 180 s the benchmark contract allows
RUN_BUDGET_S = 170.0
SETUP_SAMPLES = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# minimum bytes one apply_link_kinetic call moves per node: read u and the
# nine complex phase arrays, write the result, 16 bytes each
KINETIC_BYTES_PER_NODE = 16 * (1 + 9 + 1)


class Call:
    """One child process: exit code, stderr, and what wait4 reported."""

    def __init__(self, code, stderr, wall, cpu, rss_mb, info):
        self.code, self.stderr, self.wall, self.cpu, self.rss_mb = code, stderr, wall, cpu, rss_mb
        self.info = info
        self.error = None
        self.result_err = 0.0
        self.out_bytes = 0


class Runner:
    def __init__(self, root, work_dir, deadline):
        self.work_dir = work_dir
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ)
        self.env.pop("SPIKEMAP_WORKERS", None)
        src = os.path.join(root, "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    def new_dir(self, label) -> str:
        self.count += 1
        path = os.path.join(self.work_dir, f"{self.count:03d}-{label}")
        os.makedirs(path)
        return path

    def child(self, call_dir, cli_args, trace=False) -> Call:
        info_path = os.path.join(call_dir, "info.json")
        argv = [sys.executable, CHILD, info_path, "1" if trace else "0", *cli_args]
        with open(os.path.join(call_dir, "stdout.txt"), "w") as out, \
                open(os.path.join(call_dir, "stderr.txt"), "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=call_dir, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                timer.join()
        with open(os.path.join(call_dir, "stderr.txt")) as fh:
            stderr = fh.read()
        info = {}
        if os.path.exists(info_path):
            with open(info_path) as fh:
                info = json.load(fh)
        return Call(proc.returncode, stderr, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, info)

    def run_cli(self, cli_args):
        """An untimed CLI call for set-up and checks: (exit code, stderr)."""
        call = self.child(self.new_dir("aux"), cli_args)
        code = call.code if "Traceback (most recent call last)" not in call.stderr else 1
        return code, call.stderr


def _dir_bytes(path) -> int:
    total = 0
    for base, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


def timed_call(runner, wl, trace=False) -> Call:
    call_dir = runner.new_dir("traced" if trace else "call")
    call = runner.child(call_dir, wl.args(call_dir), trace=trace)
    call.out_bytes = _dir_bytes(os.path.join(call_dir, "out"))
    if "Traceback (most recent call last)" in call.stderr:
        call.error = "Python traceback on stderr"
    elif call.code != 0:
        call.error = f"exit code {call.code}: {call.stderr.strip()[-300:]}"
    elif "import_s" not in call.info:
        call.error = "child wrote no info file"
    else:
        try:
            call.result_err = wl.check(call_dir)
        except (workloads.CheckFailed, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            call.error = f"check failed: {exc}"
    if call.error:
        print(f"{wl.name}: call failed: {call.error}", file=sys.stderr)
    return call


def end_to_end(calls, setup) -> dict:
    return {
        "wall_s": (statistics.median(c.wall for c in calls), "s"),
        "cpu_s": (statistics.median(c.cpu for c in calls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(c.rss_mb for c in calls), "MB"),
    }


def per_layer(tr, traced: Call, reference_wall, result_err) -> dict:
    names, edges, cnt = tr["names"], tr["edges"], tr["counters"]

    def calls(*ns):
        return sum(names.get(n, {}).get("calls", 0) for n in ns)

    def secs(*ns):
        return sum(names.get(n, {}).get("s", 0.0) for n in ns)

    def self_s(*ns):
        return sum(names.get(n, {}).get("self_s", 0.0) for n in ns)

    def edge(child, parent_prefix, key):
        return sum((v[key] for k, v in edges.items()
                    if k.endswith(">" + child) and k.startswith(parent_prefix)), 0)

    point = ("model.PotentialExpr.value", "model.PotentialExpr.value_and_gradient")
    kin = "fields.apply_link_kinetic"
    kin_s, nodes = secs(kin), cnt.get("fields.kinetic_nodes", 0)
    iters = cnt.get("magnetic.iterations", 0)
    newton = ("landscape.find_S", "landscape.find_Sp", "landscape.crit_K")
    descent_s = secs("magnetic.solve_magnetic") - secs("magnetic._seed_field")
    return {
        "model.expr_point_calls": (calls(*point), "count"),
        "model.expr_point_s": (secs(*point), "s"),
        "model.expr_grid_s": (secs("model.PotentialExpr.on_grid"), "s"),
        "model.link_phases_calls": (calls("model.ModelSpec.link_phases"), "count"),
        "model.link_phases_s": (secs("model.ModelSpec.link_phases"), "s"),
        "model.nonlin_s": (secs("model.Nonlinearity.f", "model.Nonlinearity.F"), "s"),
        "fields.kinetic_calls": (calls(kin), "count"),
        "fields.kinetic_s": (kin_s, "s"),
        "fields.kinetic_ns_per_node": (1e9 * kin_s / nodes if nodes else 0.0, "ns"),
        "fields.kinetic_gbps_computed": (
            KINETIC_BYTES_PER_NODE * nodes / kin_s / 1e9 if kin_s else 0.0, "GB/s"),
        "fields.snapshot_s": (secs("fields.write_snapshot", "fields.read_snapshot"), "s"),
        "fields.snapshot_bytes": (cnt.get("fields.snapshot_bytes", 0), "B"),
        "frozen.shoot_calls": (calls("frozen.shoot_radial"), "count"),
        "frozen.shoot_calls_canonical": (
            edge("frozen.shoot_radial", "frozen.canonical_", "calls"), "count"),
        "frozen.shoot_s": (secs("frozen.shoot_radial"), "s"),
        "frozen.explicit_sigma_calls": (calls("frozen.explicit_sigma_and_grad"), "count"),
        "frozen.explicit_sigma_self_s": (self_s("frozen.explicit_sigma_and_grad"), "s"),
        "magnetic.solve_s": (secs("magnetic.solve_magnetic"), "s"),
        "magnetic.seed_shoot_s": (
            edge("frozen.shoot_radial", "magnetic._seed_field>", "s"), "s"),
        "magnetic.iterations": (iters, "count"),
        "magnetic.descent_self_s": (self_s("magnetic.solve_magnetic"), "s"),
        "magnetic.ms_per_iter": (1e3 * descent_s / iters if iters else 0.0, "ms"),
        "landscape.sweep_s": (secs("landscape.sweep_sigma"), "s"),
        "landscape.sweep_points": (cnt.get("landscape.sweep_points", 0), "count"),
        "landscape.sstar_s": (secs("landscape.find_Sstar"), "s"),
        "landscape.newton_s": (secs(*newton), "s"),
        "landscape.newton_self_s": (self_s(*newton, "landscape._newton"), "s"),
        "landscape.roots_per_seed": (
            cnt.get("landscape.roots", 0) / calls("landscape._newton")
            if calls("landscape._newton") else 0.0, "ratio"),
        "diagnostics.report_s": (secs("diagnostics.run_diagnostics"), "s"),
        "diagnostics.report_self_s": (self_s("diagnostics.run_diagnostics"), "s"),
        "cli.self_s": (sum(v["self_s"] for k, v in names.items() if k.startswith("cli.")), "s"),
        "cli.output_bytes": (traced.out_bytes, "B"),
        "trace.overhead_s": (traced.wall - reference_wall, "s"),
        "trace.spans": (tr["spans"], "count"),
        "check.result_err": (result_err, "ratio"),
    }


def span_errors(wl, tr) -> list:
    names = tr["names"]
    errors = [f"expected span {n} recorded no calls" for n in wl.expected_spans
              if names.get(n, {}).get("calls", 0) == 0]
    errors += [f"span {n} must not run on {wl.name}" for n in wl.absent_spans
               if names.get(n, {}).get("calls", 0) > 0]
    return errors


def source_hash(root) -> str:
    """sha256 over the relative path and bytes of every file of the package,
    __pycache__ left out: it names the code under test."""
    pkg = os.path.join(root, "src", "spikemap")
    h = hashlib.sha256()
    for base, dirs, files in os.walk(pkg):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, pkg).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def environment(root) -> dict:
    sha = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas_env": {k: os.environ.get(k, "unset") for k in BLAS_ENV},
        "git_sha": sha,
        "loadavg_before": os.getloadavg(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "spikemap", "cli.py")):
        print("no spikemap source under ./src: run from the root of a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work_dir = os.path.join(root, ".perfbench_work", f"{args.workload}-s{args.seed}-{os.getpid()}")
    # the cached snapshots, solve reports and output checksums belong to the
    # code that made them: a changed package starts a cache of its own
    code = source_hash(root)
    cache_dir = os.path.join(root, ".perfbench_cache", code[:16])
    os.makedirs(cache_dir, exist_ok=True)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    env_info = environment(root)
    env_info["source_sha256"] = code
    try:
        # byte-compile up front so no timed import pays for writing .pyc files
        subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(root, "src", "spikemap")],
                       check=True, stdout=subprocess.DEVNULL)
        runner = Runner(root, work_dir, start + RUN_BUDGET_S)
        wl = workloads.WORKLOADS[args.workload](args.seed, cache_dir, runner.run_cli)
        try:
            wl.prepare(runner.new_dir("prepare"))
        except workloads.CheckFailed as exc:
            print(f"{args.workload}: set-up failed: {exc}", file=sys.stderr)
            return 1

        calls = []
        t_loop = time.perf_counter()
        while not calls or time.perf_counter() - t_loop < args.seconds:
            calls.append(timed_call(runner, wl))
        errors = []
        if args.trace:
            traced = timed_call(runner, wl, trace=True)
            calls.append(traced)
            tr = traced.info.get("trace", {"names": {}, "edges": {}, "counters": {}, "spans": 0})
            errors = span_errors(wl, tr)
            for e in errors:
                print(f"{args.workload}: {e}", file=sys.stderr)
            reference_wall = statistics.median(c.wall for c in calls[:-1])
            values = per_layer(tr, traced, reference_wall, max(c.result_err for c in calls))
        else:
            setup = [c.info["import_s"] for c in calls if "import_s" in c.info]
            while len(setup) < SETUP_SAMPLES:
                imp = runner.child(runner.new_dir("import"), [])
                if imp.code != 0 or "import_s" not in imp.info:
                    print(f"import-only child failed: {imp.stderr.strip()[-300:]}", file=sys.stderr)
                    return 1
                setup.append(imp.info["import_s"])
            values = end_to_end(calls, setup)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    mismatched = [m["name"] for m in wanted
                  if m["name"] not in values or values[m["name"]][1] != m["unit"]]
    if mismatched:
        print(f"metrics of BENCHMARK.json not computed with their unit: {mismatched}", file=sys.stderr)
        return 1
    failed = sum(1 for c in calls if c.error)
    env_info["loadavg_after"] = os.getloadavg()
    print("# environment " + json.dumps(env_info, sort_keys=True))
    print("# calls " + json.dumps([{"wall_s": c.wall, "cpu_s": c.cpu, "rss_mb": c.rss_mb,
                                    "error": c.error} for c in calls]))
    result = {
        "correct": failed == 0 and not errors,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
