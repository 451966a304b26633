"""The benchmark's workloads: CLI configs made from a seed, and the checks
that decide whether one call's outputs are correct.

Seed 0 is the fixed configuration of each workload.  On magnetic-48 and
verify-48 any other seed draws a field-strength factor b within +-20 % of 1,
which scales the vector potential A = b (-x2/4, x1/4, 0), and every check
derives its reference for that b.  On landscape-power every seed runs the
same config, with no vector potential: the candidate sets do not depend on
A, and the K-bump centre is not perturbed, because Newton's work on this
landscape is chaotic in its input (moving the bump by up to 20 % changed the
point evaluations from 240k to 387k, and even translating the whole problem
split them between 214k and 342k), which would read as run-to-run noise.

A check returns the worst normalised deviation of the outputs it inspects
(1.0 sits exactly on the tolerance) and raises CheckFailed when an output
is missing, malformed or out of tolerance.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
import shutil
import struct

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "reference.json")) as _fh:
    REFERENCE = json.load(_fh)

# the magnetic problem and its grid; verify reads a snapshot of this solve
GRID_RADIUS = 9.0
GRID_POINTS = REFERENCE["magnetic"]["grid_points"]
TOL = 1e-6
SNAPSHOT = "solution_eps1.0.spkf"

# the landscape problem
REGION = 2.0
BUMP = np.array([1.0, 0.0, 0.0])
P_LIST = (3.0, 4.0, 4.5, 4.9)
POINT_ATOL = 1e-6


class CheckFailed(Exception):
    """An output of the program is missing or wrong."""


def seed_params(seed: int) -> float:
    """Field-strength factor b; seed 0 is 1."""
    if seed == 0:
        return 1.0
    return 1.0 + 0.2 * (2.0 * random.Random(seed).random() - 1.0)


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _require(out_dir, *names):
    for name in names:
        if not os.path.isfile(os.path.join(out_dir, name)):
            raise CheckFailed(f"missing output {name}")


def _same_as_before(cache_path, sha, what):
    """Record sha on first sight; afterwards require it unchanged."""
    if os.path.exists(cache_path):
        with open(cache_path) as fh:
            if fh.read().strip() != sha:
                raise CheckFailed(f"{what} differs from an earlier run with this seed")
        return
    _atomic_write(cache_path, sha + "\n")


def _atomic_write(path, text):
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# magnetic

def magnetic_config(b: float, out_dir: str) -> str:
    a = 0.25 * b
    return (
        "[model]\nV = 1 + x1^2 + x2^2 + x3^2\nK = 1\np = 3\n"
        f"A1 = -{a!r}*x2\nA2 = {a!r}*x1\nA3 = 0\n\n"
        f"[solver]\ngrid_radius = {GRID_RADIUS!r}\ngrid_points = {GRID_POINTS}\n"
        f"eps = 1.0\ntol = {TOL!r}\n\n"
        "[diagnostics]\nreport = true\n\n"
        f"[output]\ndirectory = {out_dir}\n"
    )


def reference_energy(b: float) -> float:
    """Scaled energy on the benchmark grid: Lagrange interpolation in b^2
    through the values recorded in reference.json."""
    ref = REFERENCE["magnetic"]
    xs = [x * x for x in ref["b"]]
    x = b * b
    total = 0.0
    for i, (xi, yi) in enumerate(zip(xs, ref["scaled_energy"])):
        w = 1.0
        for j, xj in enumerate(xs):
            if j != i:
                w *= (x - xj) / (xi - xj)
        total += w * yi
    return total


def _snapshot_rms(path) -> float:
    """Root-mean-square |u| over the nodes, read with the documented layout."""
    head = struct.calcsize("<4sII3Id3d")
    with open(path, "rb") as fh:
        raw = fh.read()
    magic, _, flag, n1, n2, n3 = struct.unpack("<4sII3I", raw[: struct.calcsize("<4sII3I")])
    payload = np.frombuffer(raw[head:], dtype="<f8")
    if magic != b"SPKF" or flag != 1 or payload.size != 2 * n1 * n2 * n3:
        raise CheckFailed("snapshot is not a complex field of the configured size")
    if (n1, n2, n3) != (GRID_POINTS,) * 3:
        raise CheckFailed(f"snapshot grid {(n1, n2, n3)} is not {GRID_POINTS}^3")
    return math.sqrt(float(np.mean(payload * payload)) * 2.0)


class Magnetic:
    """solve-magnetic, one eps, report on."""

    name = "magnetic-48"
    expected_spans = (
        "cli.main",
        "cli.cmd_solve_magnetic",
        "magnetic.solve_magnetic",
        "magnetic._seed_field",
        "frozen.shoot_radial",
        "frozen.canonical_energy",
        "frozen.explicit_sigma_and_grad",
        "fields.apply_link_kinetic",
        "fields.write_snapshot",
        "model.ModelSpec.link_phases",
        "model.PotentialExpr.on_grid",
        "model.Nonlinearity.f",
        "model.Nonlinearity.F",
        "diagnostics.run_diagnostics",
    )
    absent_spans = ("landscape.sweep_sigma",)

    def __init__(self, seed, cache_dir, run_cli):
        self.seed = seed
        self.b = seed_params(seed)
        self.cache_dir = cache_dir
        self.run_cli = run_cli

    def cache(self, suffix) -> str:
        return os.path.join(self.cache_dir, f"magnetic-{GRID_POINTS}-s{self.seed}{suffix}")

    def prepare(self, work_dir):
        pass

    def args(self, call_dir) -> list:
        cfg = os.path.join(call_dir, "magnetic.ini")
        with open(cfg, "w") as fh:
            fh.write(magnetic_config(self.b, os.path.join(call_dir, "out")))
        return ["solve-magnetic", cfg]

    def check(self, call_dir) -> float:
        out = os.path.join(call_dir, "out")
        _require(out, SNAPSHOT, "trace_eps1.0.csv", "report_eps1.0.json", "manifest.json")
        with open(os.path.join(out, "trace_eps1.0.csv")) as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["iter", "energy", "residual", "nehari_slack"] or len(rows) < 2:
            raise CheckFailed("trace_eps1.0.csv has no iterations")
        energy, residual = float(rows[-1][1]), float(rows[-1][2])

        # the solver's stop rule: rms residual <= tol * max(1, max V) * rms |u|,
        # with max V = 1 + 3 R^2 at the box corners
        snap = os.path.join(out, SNAPSHOT)
        stop = TOL * max(1.0, 1.0 + 3.0 * GRID_RADIUS**2) * _snapshot_rms(snap)
        dev_residual = residual / stop
        if not dev_residual <= 1.0:
            raise CheckFailed(f"final residual {residual:.3e} misses the stop rule {stop:.3e}")

        e_ref = reference_energy(self.b)
        rtol = REFERENCE["magnetic"]["rtol"]
        dev_energy = abs(energy - e_ref) / (rtol * e_ref)
        if not dev_energy <= 1.0:
            raise CheckFailed(f"scaled energy {energy!r} is off the reference {e_ref!r}")

        cfg = os.path.join(call_dir, "verify.ini")
        with open(cfg, "w") as fh:
            fh.write(magnetic_config(self.b, os.path.join(call_dir, "verify-out")))
        code, stderr = self.run_cli(["verify", cfg, snap])
        if code != 0:
            raise CheckFailed(f"verify on the snapshot exited {code}: {stderr.strip()[-300:]}")

        _same_as_before(self.cache(".sha256"), _sha256(snap), "snapshot bytes")
        if not os.path.exists(self.cache(".spkf")):
            # the snapshot goes last: its presence marks the entry complete
            for src, suffix in ((os.path.join(out, "report_eps1.0.json"), ".report.json"), (snap, ".spkf")):
                shutil.copyfile(src, self.cache(suffix + ".tmp"))
                os.replace(self.cache(suffix + ".tmp"), self.cache(suffix))
        return max(dev_residual, dev_energy)


# ---------------------------------------------------------------------------
# verify

class Verify:
    """verify on the snapshot of the same-seed magnetic solve."""

    name = "verify-48"
    expected_spans = (
        "cli.main",
        "cli.cmd_verify",
        "fields.read_snapshot",
        "fields.apply_link_kinetic",
        "model.ModelSpec.link_phases",
        "magnetic.energy_J",
        "magnetic.pde_residual",
        "diagnostics.run_diagnostics",
    )
    absent_spans = ("frozen.shoot_radial", "magnetic.solve_magnetic")

    # report fields that verify recomputes from the same field and model as
    # the solve's own report.  nehari_slack is measured differently by the
    # two commands, the Pucci-Serrin residual and ratio are rounding over
    # rounding for a spike on the symmetry axis, and notes holds only the
    # denominators behind the ratios, so none of these is compared.
    SAME_KEYS = ("current_density_norm", "decay_rate_corrected", "decay_window",
                 "diamagnetic_slack_min")

    def __init__(self, seed, cache_dir, run_cli):
        self.seed = seed
        self.magnetic = Magnetic(seed, cache_dir, run_cli)
        self.run_cli = run_cli
        self.reference = None

    def prepare(self, work_dir):
        """Make the snapshot (once per seed and code under test) and check it
        with an untimed verify; none of this is timed or counted as set-up.
        A freshly made snapshot is verified inside Magnetic.check."""
        snap = self.magnetic.cache(".spkf")
        if not os.path.exists(snap):
            gen = os.path.join(work_dir, "snapshot")
            os.makedirs(gen)
            code, stderr = self.run_cli(self.magnetic.args(gen))
            if code != 0:
                raise CheckFailed(f"snapshot solve exited {code}: {stderr.strip()[-300:]}")
            self.magnetic.check(gen)
        else:
            _same_as_before(self.magnetic.cache(".sha256"), _sha256(snap), "cached snapshot")
            cfg = os.path.join(work_dir, "verify.ini")
            with open(cfg, "w") as fh:
                fh.write(magnetic_config(self.magnetic.b, os.path.join(work_dir, "untimed-verify")))
            code, stderr = self.run_cli(["verify", cfg, snap])
            if code != 0:
                raise CheckFailed(f"untimed verify of the snapshot exited {code}: {stderr.strip()[-300:]}")
        with open(self.magnetic.cache(".report.json")) as fh:
            self.reference = json.load(fh)

    def args(self, call_dir) -> list:
        cfg = os.path.join(call_dir, "verify.ini")
        with open(cfg, "w") as fh:
            fh.write(magnetic_config(self.magnetic.b, os.path.join(call_dir, "out")))
        return ["verify", cfg, self.magnetic.cache(".spkf")]

    def check(self, call_dir) -> float:
        out = os.path.join(call_dir, "out")
        _require(out, "verify_report.json", "manifest.json")
        path = os.path.join(out, "verify_report.json")
        _same_as_before(
            os.path.join(self.magnetic.cache_dir, f"verify-{GRID_POINTS}-s{self.seed}.sha256"),
            _sha256(path),
            "verify_report.json",
        )
        with open(path) as fh:
            report = json.load(fh)
        worst = 0.0
        for key in self.SAME_KEYS:
            got, want = np.atleast_1d(report[key]), np.atleast_1d(self.reference[key])
            if got.shape != want.shape:
                raise CheckFailed(f"verify_report.json {key} has the wrong shape")
            dev = np.abs(got - want) / (1e-9 * np.abs(want) + 1e-12)
            worst = max(worst, float(dev.max()))
        if not worst <= 1.0:
            raise CheckFailed("verify_report.json disagrees with the solve's own report")
        return worst


# ---------------------------------------------------------------------------
# landscape

def landscape_config(out_dir: str) -> str:
    r = REGION
    return (
        "[model]\nV = 1 + x1^2 + x2^2 + x3^2\n"
        "K = 1 + 0.5*exp(-((x1-1)^2 + x2^2 + x3^2))\np = 3\n\n"
        f"[landscape]\nregion = {-r!r}, {r!r}, {-r!r}, {r!r}, {-r!r}, {r!r}\n"
        f"resolution = 7\np_list = {', '.join(repr(p) for p in P_LIST)}\nseeds = 5\n\n"
        f"[output]\ndirectory = {out_dir}\n"
    )


def _coefficients(z):
    """V, grad V, K, grad K in closed form, independent of the program's parser."""
    x = np.asarray(z, dtype=np.float64)
    d = x - BUMP
    e = math.exp(-float(d @ d))
    return 1.0 + float(x @ x), 2.0 * x, 1.0 + 0.5 * e, -e * d


def _G(z, p):
    v, gv, k, gk = _coefficients(z)
    return (5.0 - p) * k * gv - 4.0 * v * gk, 1e-8 * (1.0 + np.linalg.norm(gv) + np.linalg.norm(gk))


def axis_roots(p: float) -> list:
    """Roots of G in the region, as points.  Off the x1 axis G_2 = x2 *
    (positive) and likewise G_3, so every root lies on the axis; there a sign
    scan over 4000 cells and bisection to rounding find them all."""
    g = lambda t: float(_G((t, 0.0, 0.0), p)[0][0])
    ts = np.linspace(-REGION, REGION, 4001)
    vals = [g(t) for t in ts]
    roots = []
    for i in range(len(ts) - 1):
        if vals[i] == 0.0:
            roots.append(float(ts[i]))
        elif vals[i] * vals[i + 1] < 0.0:
            lo, hi, flo = float(ts[i]), float(ts[i + 1]), vals[i]
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if mid in (lo, hi):
                    break
                fm = g(mid)
                if (fm < 0.0) == (flo < 0.0):
                    lo, flo = mid, fm
                else:
                    hi = mid
            roots.append(0.5 * (lo + hi))
    return [np.array([t, 0.0, 0.0]) for t in roots]


def _points(out, name) -> list:
    with open(os.path.join(out, name)) as fh:
        return [np.asarray(z, dtype=np.float64) for z in json.load(fh)["points"]]


def _match(got, want, what) -> float:
    """Worst distance between two point sets of equal size, over POINT_ATOL."""
    if len(got) != len(want):
        raise CheckFailed(f"{what}: {len(got)} points, expected {len(want)}")
    worst = 0.0
    for z in got:
        worst = max(worst, min(float(np.linalg.norm(z - w)) for w in want) / POINT_ATOL)
    if not worst <= 1.0:
        raise CheckFailed(f"{what} is {worst * POINT_ATOL:.3e} from its reference")
    return worst


class Landscape:
    """landscape with the power nonlinearity and a K bump at distance 1
    from the minimum of V."""

    name = "landscape-power"
    expected_spans = (
        "cli.main",
        "cli.cmd_landscape",
        "landscape.sweep_sigma",
        "landscape.find_S",
        "landscape.find_Sp",
        "landscape.crit_K",
        "landscape.find_Sstar",
        "landscape.p_to_5_study",
        "landscape._newton",
        "model.PotentialExpr.value_and_gradient",
        "frozen.shoot_radial",
        "frozen.canonical_energy",
        "frozen.explicit_sigma_and_grad",
    )
    absent_spans = ("fields.apply_link_kinetic", "magnetic.solve_magnetic")

    def __init__(self, seed, cache_dir, run_cli):
        pass  # every seed runs the same config; see the module docstring

    def prepare(self, work_dir):
        pass

    def args(self, call_dir) -> list:
        cfg = os.path.join(call_dir, "landscape.ini")
        with open(cfg, "w") as fh:
            fh.write(landscape_config(os.path.join(call_dir, "out")))
        return ["landscape", cfg]

    def check(self, call_dir) -> float:
        out = os.path.join(call_dir, "out")
        names = ("critical_CritK.json", "critical_S.json", "critical_Sp.json",
                 "critical_Sstar.json", "p_drift.csv", "sweep.csv")
        _require(out, *names)
        worst = _match(_points(out, "critical_CritK.json"), [BUMP], "Crit K")
        sp = _points(out, "critical_Sp.json")
        worst = max(worst, _match(sp, axis_roots(P_LIST[0]), "S_p"))
        worst = max(worst, _match(_points(out, "critical_S.json"), sp, "S against S_p"))
        worst = max(worst, _match(_points(out, "critical_Sstar.json"), sp, "S* against S_p"))
        for z in sp:
            g, tol = _G(z, P_LIST[0])
            worst = max(worst, float(np.linalg.norm(g)) / tol)
        if not worst <= 1.0:
            raise CheckFailed("G does not vanish at the reported S_p")

        with open(os.path.join(out, "p_drift.csv")) as fh:
            rows = list(csv.reader(fh))[1:]
        dist = [float(r[1]) for r in rows]
        if [float(r[0]) for r in rows] != list(P_LIST):
            raise CheckFailed("p_drift.csv does not list the configured p values")
        if not all(b < a for a, b in zip(dist, dist[1:])):
            raise CheckFailed(f"p-drift distances do not decrease: {dist}")
        for p, d in zip(P_LIST, dist):
            want = max(float(np.linalg.norm(z - BUMP)) for z in axis_roots(p))
            worst = max(worst, abs(d - want) / POINT_ATOL)
        if not worst <= 1.0:
            raise CheckFailed("p-drift distances are off their references")

        with open(os.path.join(out, "sweep.csv")) as fh:
            if sum(1 for _ in fh) != 1 + 7**3:
                raise CheckFailed("sweep.csv does not hold the 7^3 lattice")
        return worst


WORKLOADS = {cls.name: cls for cls in (Magnetic, Landscape, Verify)}
