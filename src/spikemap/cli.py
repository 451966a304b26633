"""Command-line orchestration: configs, subcommands, run manifests, and the
only code that writes output files.

The config format is INI.  [model] and [output] are always required; the
other sections carry per-command parameters.  Every run writes its artifacts
into the output directory next to a manifest.json that records the config
text as read, its hash, the toolkit version, seeds, and wall times, so a run
can be reproduced from the manifest alone.  The compute modules return plain
data, and one writer per format turns it into bytes: _write_table a CSV
from named columns, each number a decimal int or a shortest round-trip
float, and _write_json a JSON object with indent 2 and sorted keys, numpy
values included.  The solvers are deterministic, which is what makes re-runs
byte-comparable.

Importing it sets OPENBLAS_, OMP_ and MKL_NUM_THREADS to 1 by os.environ.setdefault
before numpy loads, so a caller's count wins: field sums use einsum, BLAS sees
only 3x3 systems, and an idle OpenBLAS thread spins, 0.12 s of CPU a command.

Exit codes: 0 success, 2 configuration problem, 3 solver failure or out of
memory, 4 non-convergence, 5 verification found an invariant violation.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import io
import json
import math
import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from . import __version__
from .diagnostics import (
    BoundaryMassError,
    DiagnosticsError,
    concentration_metrics,
    decay_fit,
    run_diagnostics,
)
from .fields import STENCIL_ROW_BOUND, ConvergenceError, Hamiltonian, make_grid, read_snapshot, write_snapshot
from .frozen_solver import (
    FrozenPoint,
    SolverError,
    explicit_sigma_and_grad,
    ground_state,
    radial_residual,
)
from .landscape import (
    CriticalSetResult,
    LandscapeError,
    crit_K,
    find_S,
    find_Sp,
    find_Sstar,
    p_to_5_study,
    sweep_sigma,
)
from .magnetic_solver import energy_J, pde_residual, solve_magnetic
from .model import (
    EvalError,
    ModelError,
    ModelSpec,
    Nonlinearity,
    ZERO_EXPR,
    parse_potential,
    validate_assumptions,
)


class ConfigError(Exception):
    """The run configuration cannot be used as written."""


_SCHEMA = {
    "model": ("V", "K", "A1", "A2", "A3", "lam", "p", "f", "F", "theta"),
    "solver": (
        "grid_radius",
        "grid_points",
        "eps",
        "tol",
        "max_iters",
        "seed",
        "rng_seed",
        "center",
    ),
    "diagnostics": ("report", "decay_window", "target"),
    "landscape": ("region", "resolution", "p_list", "seeds"),
    "output": ("directory",),
}


def _floats(text: str, key: str) -> list:
    try:
        vals = [float(tok) for tok in text.split(",")]
    except ValueError:
        raise ConfigError(f"{key} must be a comma-separated list of numbers, got {text!r}") from None
    if not all(math.isfinite(v) for v in vals):
        raise ConfigError(f"{key} must be finite, got {text!r}")
    return vals


def _one_float(text: str, key: str) -> float:
    vals = _floats(text, key)
    if len(vals) != 1:
        raise ConfigError(f"{key} must be a single number, got {text!r}")
    return vals[0]


def _one_int(text: str, key: str) -> int:
    v = _one_float(text, key)
    if v != int(v):
        raise ConfigError(f"{key} must be an integer, got {text!r}")
    return int(v)


def _bool(text: str, key: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "1"):
        return True
    if t in ("false", "no", "0"):
        return False
    raise ConfigError(f"{key} must be a boolean, got {text!r}")


def _triple(text: str, key: str) -> tuple:
    vals = _floats(text, key)
    if len(vals) != 3:
        raise ConfigError(f"{key} must be three numbers, got {text!r}")
    return tuple(vals)


def _expr_in_s(text: str):
    """Turn an expression in the scalar variable s into a vectorized callable."""
    expr = parse_potential(text, variables=("s",))

    def call(s):
        s = np.asarray(s, dtype=np.float64)
        # s[()] makes a 0-d s a numpy scalar, as PotentialExpr.value does a point
        return expr.on_coords((s[()],), s.shape)

    return call


def _reject_critical_growth(f, text: str) -> None:
    """Refuse an f that grows like s^2 or faster as s -> infinity.

    f(s) ~ s^2 makes f(|u|^2) u ~ |u|^4 u, the H^1-critical power in R^3.
    That is outside the subcritical growth f(s) = o(s^2) the problem
    assumes, and shooting loses its bracket there.  The test is a log-slope
    of at least 1.999 between s = 1e6 and 1e12; an f that overflows there
    counts as faster.
    """
    try:
        f1, f2 = float(f(1e6)), float(f(1e12))
    except EvalError:
        f1, f2 = 1.0, math.inf
    if f1 > 0.0 and f2 > 0.0:
        slope = math.log(f2 / f1) / math.log(1e6)
        if slope >= 1.999:
            raise ConfigError(
                f"f = {text} grows like s^{slope:.4g} at large s; shooting needs "
                "subcritical growth, f(s) = o(s^2)"
            )


def _build_nonlinearity(sec: dict) -> Nonlinearity:
    custom_keys = [k for k in ("f", "F", "theta") if k in sec]
    if custom_keys:
        if len(custom_keys) != 3:
            raise ConfigError("a custom nonlinearity needs all of f, F, and theta")
        if "p" in sec or "lam" in sec:
            raise ConfigError("give either p/lam or f/F/theta, not both")
        f = _expr_in_s(sec["f"])
        F = _expr_in_s(sec["F"])
        theta = _one_float(sec["theta"], "model.theta")
        s = np.linspace(1e-3, 30.0, 4000)
        fs, Fs = np.asarray(f(s)), np.asarray(F(s))
        if np.any(Fs <= 0.0) or np.any(theta * Fs > fs * s * (1.0 + 1e-9) + 1e-12):
            raise ConfigError("theta bound 0 < theta F(s) <= f(s) s fails on the sample range")
        half = np.concatenate([[0.0], np.cumsum((fs[1:] + fs[:-1]) * 0.5 * np.diff(s)) / 2.0])
        half += Fs[0] - half[0]
        if float(np.max(np.abs(half - Fs))) > 1e-5 * float(np.max(np.abs(Fs))):
            raise ConfigError("F is not the half-antiderivative of f (F' = f/2 fails)")
        _reject_critical_growth(f, sec["f"])
        try:
            return Nonlinearity.custom(f, F, theta)
        except ModelError as exc:
            raise ConfigError(str(exc)) from None
    if "p" not in sec:
        raise ConfigError("missing required key p in [model] (or a custom f/F/theta block)")
    lam = _one_float(sec.get("lam", "1"), "model.lam")
    try:
        return Nonlinearity.power(lam, _one_float(sec["p"], "model.p"))
    except ModelError as exc:
        raise ConfigError(str(exc)) from None


class RunConfig:
    """Parsed and validated run configuration; text is the INI text it was
    parsed from, which the run's manifest records."""

    def __init__(self, sections: dict, text: str):
        self.text = text
        model_sec = sections.get("model", {})
        for key in ("V", "K"):
            if key not in model_sec:
                raise ConfigError(f"missing required key {key} in [model]")
        if "output" not in sections or "directory" not in sections["output"]:
            raise ConfigError("missing required key directory in [output]")
        try:
            self.model = ModelSpec(
                V=parse_potential(model_sec["V"]),
                K=parse_potential(model_sec["K"]),
                A=tuple(
                    parse_potential(model_sec[a]) if a in model_sec else ZERO_EXPR
                    for a in ("A1", "A2", "A3")
                ),
                nonlin=_build_nonlinearity(model_sec),
            )
            validate_assumptions(self.model)
        except ModelError as exc:
            raise ConfigError(str(exc)) from None
        self.out_dir = sections["output"]["directory"]

        sol = sections.get("solver", {})
        self.grid_radius = _one_float(sol["grid_radius"], "solver.grid_radius") if "grid_radius" in sol else None
        if self.grid_radius is not None and self.grid_radius <= 0:
            raise ConfigError(f"solver.grid_radius must be positive, got {self.grid_radius}")
        self.grid_points = _one_int(sol["grid_points"], "solver.grid_points") if "grid_points" in sol else None
        if self.grid_points is not None and self.grid_points < 8:
            raise ConfigError(f"solver.grid_points must be at least 8, got {self.grid_points}")
        self.eps_list = _floats(sol["eps"], "solver.eps") if "eps" in sol else None
        # the scaled energy and mass divide by eps^3, which underflows to 0
        # below about 1e-108
        if self.eps_list is not None and not all(e * e * e > 0 for e in self.eps_list):
            raise ConfigError("solver.eps values must be positive, with eps^3 > 0 in floating point")
        if self.eps_list is not None and len(set(self.eps_list)) < len(self.eps_list):
            raise ConfigError(f"solver.eps repeats a value, and each eps names its own output files: {sol['eps']}")
        self.tol = _one_float(sol.get("tol", "1e-6"), "solver.tol")
        if self.tol <= 0:
            raise ConfigError(f"solver.tol must be positive, got {self.tol}")
        self.max_iters = _one_int(sol.get("max_iters", "20000"), "solver.max_iters")
        if self.max_iters < 1:
            raise ConfigError(f"solver.max_iters must be at least 1, got {self.max_iters}")
        self.seed = sol.get("seed", "frozen")
        self.rng_seed = _one_int(sol.get("rng_seed", "0"), "solver.rng_seed")
        if self.rng_seed < 0:
            raise ConfigError(f"solver.rng_seed must be nonnegative, got {self.rng_seed}")
        self.center = _triple(sol["center"], "solver.center") if "center" in sol else None

        diag = sections.get("diagnostics", {})
        self.report = _bool(diag.get("report", "true"), "diagnostics.report")
        self.decay_window = None
        if "decay_window" in diag and diag["decay_window"].strip().lower() != "auto":
            w = _floats(diag["decay_window"], "diagnostics.decay_window")
            if len(w) != 2 or not w[0] < w[1]:
                raise ConfigError("diagnostics.decay_window must be lo, hi with lo < hi")
            self.decay_window = tuple(w)
        self.target = _triple(diag["target"], "diagnostics.target") if "target" in diag else None

        land = sections.get("landscape", {})
        self.region = None
        if "region" in land:
            vals = _floats(land["region"], "landscape.region")
            self.region = tuple(zip(vals[::2], vals[1::2]))
            if len(vals) != 6 or not all(lo < hi for lo, hi in self.region):
                raise ConfigError("landscape.region must be six numbers lo1, hi1, lo2, hi2, lo3, hi3 with each lo < hi")
        self.resolution = None
        if "resolution" in land:
            r = _floats(land["resolution"], "landscape.resolution")
            if len(r) not in (1, 3) or any(v != int(v) or v < 1 for v in r):
                raise ConfigError("landscape.resolution must be one or three positive integers")
            self.resolution = tuple(int(v) for v in r) if len(r) == 3 else int(r[0])
        self.p_list = _floats(land["p_list"], "landscape.p_list") if "p_list" in land else None
        pl = self.p_list or []
        if not all(1.0 < p < 5.0 for p in pl) or any(a >= b for a, b in zip(pl, pl[1:])):
            raise ConfigError("landscape.p_list must increase strictly, with every p in (1, 5)")
        self.seeds = _one_int(land["seeds"], "landscape.seeds") if "seeds" in land else None
        if self.seeds is not None and self.seeds < 1:
            raise ConfigError(f"landscape.seeds must be at least 1, got {self.seeds}")

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        cp = configparser.ConfigParser(interpolation=None)
        cp.optionxform = str
        try:
            # universal newlines for the parser; text keeps the file's line ends
            cp.read_file(io.StringIO(text, newline=None), "<string>")
        except configparser.Error as exc:
            raise ConfigError(f"config does not parse: {exc}") from None
        sections = {}
        for name in cp.sections():
            if name not in _SCHEMA:
                raise ConfigError(f"unknown section [{name}]")
            sec = {}
            for key, value in cp.items(name):
                if key not in _SCHEMA[name]:
                    raise ConfigError(f"unknown key {key} in [{name}]")
                sec[key] = value.strip()
            sections[name] = sec
        return cls(sections, text)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path, encoding="utf-8", newline="") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        return cls.from_text(text)

    def require(self, *names):
        missing = [n for n in names if getattr(self, n) is None]
        if missing:
            raise ConfigError(f"this command needs config keys for: {', '.join(missing)}")

    def grid(self):
        self.require("grid_radius", "grid_points")
        h = 2.0 * self.grid_radius / (self.grid_points - 1)
        if not 0.0 < h < math.inf:
            raise ConfigError("solver.grid_radius and solver.grid_points give no finite positive spacing")
        # the descent's step and the stencil scale by STENCIL_ROW_BOUND eps^2 / h^2
        if not all(h * h > 0.0 and STENCIL_ROW_BOUND * e * e / (h * h) < math.inf for e in self.eps_list or ()):
            raise ConfigError(f"solver.eps {self.eps_list} makes the stencil scale {STENCIL_ROW_BOUND} eps^2 / h^2 "
                              f"overflow at spacing h = {h:.6g}")
        return make_grid(self.grid_radius, self.grid_points)


# ---------------------------------------------------------------------------
# output helpers

def _fmt(x) -> str:
    return repr(float(x))


def _cell(x) -> str:
    return x if isinstance(x, str) else str(x) if isinstance(x, int) else _fmt(x)


def _write_table(path, columns):
    """columns, header to values in order, as a CSV whose cell text this writer
    alone sets: a str as it is, a Python int in decimal and any other number
    its shortest round-trip float64.  Columns of unequal length raise ValueError."""
    lengths = {name: len(col) for name, col in columns.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"table columns differ in length: {lengths}")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([_cell(x) for x in row] for row in zip(*columns.values()))


def _json_default(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write_json(path, payload):
    """payload as JSON with indent 2 and sorted keys, numpy arrays and scalars
    as their .tolist(); any other object json.dump cannot write raises TypeError."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


class _Manifest:
    """A run's inputs, outputs and timings.  Entering makes the output
    directory, a ConfigError where it cannot; leaving writes manifest.json,
    success or not, with failure None or the one line that ended the run,
    and the keys a command adds in extra: descent, where each converged 3D
    solve records its iterations and final residual rms under its eps, and
    sweep_failures, set only by a sweep with failed nodes."""

    def __init__(self, cfg: RunConfig, command: str):
        self.t0 = time.perf_counter()
        self.command = command
        self.cfg = cfg
        self.inputs = []
        self.outputs = []
        self.timings = {}
        self.extra = {}
        self.failure = None

    def __enter__(self):
        try:
            os.makedirs(self.cfg.out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make output directory {self.cfg.out_dir}: {exc.strerror}") from None
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None:
            self.failure = f"{exc_type.__name__}: {exc}"
        text = self.cfg.text
        payload = {
            "version": __version__,
            "command": self.command,
            "config_sha256": hashlib.sha256(text.encode()).hexdigest(),
            "config_text": text,
            "inputs": sorted(self.inputs),
            "outputs": sorted(os.path.basename(p) for p in self.outputs),
            "seeds": {"seed": self.cfg.seed, "rng_seed": self.cfg.rng_seed},
            "wall_times_s": {**self.timings, "total": time.perf_counter() - self.t0},
            "failure": self.failure,
            **self.extra,
        }
        _write_json(os.path.join(self.cfg.out_dir, "manifest.json"), payload)

    def out(self, name) -> str:
        path = os.path.join(self.cfg.out_dir, name)
        self.outputs.append(path)
        return path


# ---------------------------------------------------------------------------
# subcommands

def cmd_solve_frozen(cfg: RunConfig) -> int:
    """Compute the frozen ground state at the target point and report on it.

    The decay fit runs before the output directory is made, so a window the
    profile cannot fill leaves no partial outputs behind.
    """
    man = _Manifest(cfg, "solve-frozen")
    z = np.asarray(cfg.target if cfg.target is not None else (0.0, 0.0, 0.0))
    point = FrozenPoint.from_model(cfg.model, z)
    t0 = time.perf_counter()
    prof = ground_state(point, cfg.model.nonlin)
    man.timings["ground_state"] = time.perf_counter() - t0
    fit = decay_fit(prof, cfg.decay_window)

    with man:
        _write_table(man.out("profile.csv"), {"r": prof.r, "u": prof.u, "du": prof.du})
        _write_json(man.out("sigma.json"),
                    {"z": z, "sigma": prof.energy, "grad_sigma": prof.grad_sigma, "method": prof.method})
        _write_json(
            man.out("frozen_report.json"),
            {
                "sigma": prof.energy,
                "decay_rate": fit.rate,
                "decay_rate_corrected": fit.corrected_rate,
                "decay_window": fit.window,
                "decay_points": fit.n_points,
                "sqrt_V_at_z": np.sqrt(point.Vz),
                "mass2": prof.moments["mass2"],
                "radial_residual": radial_residual(prof),
            },
        )
    return 0


def _read_field(path, grid, what: str):
    """The snapshot at path, read once and held to grid by Grid3.matches;
    an unreadable file or another grid is one ConfigError naming what."""
    try:
        u = read_snapshot(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from None
    if not grid.matches(u.grid):
        raise ConfigError(
            f"{what} grid {u.grid.dims} spacing {u.grid.spacing:.6g} origin {list(u.grid.origin)} "
            f"does not match the configured grid {grid.dims} spacing {grid.spacing:.6g} "
            f"origin {list(grid.origin)}"
        )
    return u


def _check_decay_reach(cfg: RunConfig, grid, eps: float) -> None:
    """Refuse a decay window the blow-up box at eps cannot reach, before any
    output exists.  The blow-up box is the solve box over eps; its corners
    lie sqrt(3) R / eps from the box centre, so a decay window starting
    beyond that leaves a centred spike's fit no shell."""
    reach = math.sqrt(3.0) * grid.half_extent() / eps
    if cfg.decay_window is not None and cfg.decay_window[0] >= reach:
        raise ConfigError(f"decay window starts beyond r = {reach:.6g}, the reach of the blow-up box")


def _require_in_box(grid, point, key: str) -> None:
    """Refuse a configured point outside the grid box, |x_k| <= R."""
    if point is not None and max(map(abs, point)) > grid.half_extent():
        raise ConfigError(f"{key} {list(point)} lies outside the grid box, |x_k| <= {grid.half_extent():.6g}")


def _family_grid(cfg: RunConfig):
    """The grid of an eps family, checked against the seed centre and, when
    the family is reported on, the decay window at its largest eps, where
    the blow-up box is smallest."""
    cfg.require("eps_list")
    grid = cfg.grid()
    # a seed centred off the box has no mass on any node
    _require_in_box(grid, cfg.center, "solver.center")
    if cfg.report:
        _check_decay_reach(cfg, grid, max(cfg.eps_list))
    return grid


def _family_seed(cfg: RunConfig, grid):
    """solver.seed as solve_magnetic takes it: frozen or random as written,
    any other value the snapshot it names, read before any output exists."""
    if cfg.seed in ("frozen", "random"):
        return cfg.seed
    return _read_field(cfg.seed, grid, f"solver.seed {cfg.seed!r}")


def _solve_family(cfg: RunConfig, grid, seed, man: _Manifest):
    family = []
    man.extra["descent"] = descent = {}
    for eps in cfg.eps_list:
        t0 = time.perf_counter()
        sol = solve_magnetic(cfg.model, grid, eps, tol=cfg.tol, max_iters=cfg.max_iters, seed=seed,
                             rng_seed=cfg.rng_seed, center=cfg.center)
        man.timings[f"solve_eps{_fmt(eps)}"] = time.perf_counter() - t0
        descent[_fmt(eps)] = {"iterations": sol.iterations, "residual_rms": sol.residual_rms}
        family.append(sol)
        write_snapshot(man.out(f"solution_eps{_fmt(eps)}.spkf"), sol.u)
        _write_table(man.out(f"trace_eps{_fmt(eps)}.csv"), {k: [t[k] for t in sol.trace] for k in sol.trace[0]})
        if cfg.report:
            report = run_diagnostics(sol.u, eps, cfg.model, window=cfg.decay_window)
            report.update(nehari_slack=sol.nehari_slack, diamagnetic_slack_min=sol.diamagnetic_slack)
            _write_json(man.out(f"report_eps{_fmt(eps)}.json"), report)
    return family


def cmd_solve_magnetic(cfg: RunConfig) -> int:
    """One magnetic solve per eps, each with snapshot, trace, and report."""
    grid = _family_grid(cfg)
    seed = _family_seed(cfg, grid)
    with _Manifest(cfg, "solve-magnetic") as man:
        _solve_family(cfg, grid, seed, man)
    return 0


def cmd_concentration_study(cfg: RunConfig) -> int:
    """Solve a strictly decreasing eps family and write, unreshaped, the
    columns and notes of concentration_metrics at diagnostics.target, or at
    the spike of the last member, the smallest eps, when none is given; a
    target off the grid box, where no member has a node, is refused."""
    if cfg.eps_list is None or len(cfg.eps_list) < 2:
        raise ConfigError("a concentration study needs at least two eps values")
    if not all(a > b for a, b in zip(cfg.eps_list, cfg.eps_list[1:])):
        raise ConfigError("solver.eps must be strictly decreasing for a concentration study")
    grid = _family_grid(cfg)
    _require_in_box(grid, cfg.target, "diagnostics.target")
    seed = _family_seed(cfg, grid)
    with _Manifest(cfg, "concentration-study") as man:
        family = _solve_family(cfg, grid, seed, man)
        target = cfg.target if cfg.target is not None else family[-1].spike
        columns, notes = concentration_metrics(family, target, cfg.model)
        _write_table(man.out("concentration_study.csv"), columns)
        _write_json(man.out("concentration_notes.json"), notes)
    return 0


def cmd_landscape(cfg: RunConfig) -> int:
    """Sweep sigma, extract the candidate sets, and run the drift study.

    Each set is searched once; the model's own S_p is its p_list entry.
    S* tests the points of S, or of S_p when S has none; when that set is
    degenerate, so is S*, since every point is a candidate.
    """
    cfg.require("region", "resolution")
    if cfg.p_list is not None and not cfg.model.nonlin.is_power:
        raise ConfigError("landscape.p_list needs the power nonlinearity")
    with _Manifest(cfg, "landscape") as man:
        t0 = time.perf_counter()
        emap = sweep_sigma(cfg.region, cfg.resolution, cfg.model)
        man.timings["sweep"] = time.perf_counter() - t0
        (z1, z2, z3), (g1, g2, g3) = emap.points.T, emap.grad.T
        _write_table(man.out("sweep.csv"), {
            "z1": z1, "z2": z2, "z3": z3, "sigma": emap.samples, "grad1": g1, "grad2": g2, "grad3": g3,
            "method": ["failed" if np.isnan(s) else emap.method for s in emap.samples],
        })
        if emap.failures:
            man.extra["sweep_failures"] = [{"index": i, "point": emap.points[i], "message": msg}
                                           for i, msg in emap.failures]

        # slices along each axis through the region's centre
        axes = np.stack([np.linspace(lo, hi, 101) for lo, hi in cfg.region], axis=-1)
        pts = np.tile(np.mean(cfg.region, axis=1), (101, 3, 1))
        pts[:, [0, 1, 2], [0, 1, 2]] = axes
        if cfg.model.nonlin.is_power:
            sig = explicit_sigma_and_grad(pts, cfg.model)[0]
        else:
            sig = np.full((101, 3), np.nan)
        slices = {}
        for k in range(3):
            slices[f"t{k + 1}"], slices[f"sigma_axis{k + 1}"] = axes[:, k], sig[:, k]
        _write_table(man.out("sigma_slices.csv"), slices)

        result_S = find_S(emap, cfg.model)
        _write_json(man.out("critical_S.json"), vars(result_S))
        result_CritK = crit_K(cfg.model, cfg.region, cfg.seeds)
        _write_json(man.out("critical_CritK.json"), vars(result_CritK))
        sp_results = [find_Sp(cfg.model, p, cfg.region, cfg.seeds) for p in cfg.p_list or ()]
        source = result_S
        if cfg.model.nonlin.is_power:
            p = cfg.model.nonlin.p
            same_p = [sp for sp in sp_results if sp.p == p]
            result_Sp = same_p[0] if same_p else find_Sp(cfg.model, p, cfg.region, cfg.seeds)
            _write_json(man.out("critical_Sp.json"), vars(result_Sp))
            if not source.points:
                source = result_Sp
        if source.degenerate:
            result_Sstar = CriticalSetResult("Sstar", [], [], degenerate=True, method="degenerate",
                                             notes=[f"the candidates come from {source.kind}, which is degenerate"])
        else:
            result_Sstar = find_Sstar(cfg.model, source.points)
        _write_json(man.out("critical_Sstar.json"), vars(result_Sstar))

        if cfg.p_list is not None:
            study = p_to_5_study(result_CritK, sp_results)
            _write_table(man.out("p_drift.csv"), {"p": study.p_list, "dist_Sp_to_CritK": study.distances})
    return 0


def cmd_verify(cfg: RunConfig, snapshot_path) -> int:
    """Re-run the identity checks on a stored field snapshot.

    Hard gates: diamagnetic slack at -1e-10, strong-form residual at the
    solver's own stop rule, translation-test relative residual at 1e-2.
    Any violation exits 5 with the failing checks named, in stderr and in
    the manifest's failure entry.  The diamagnetic gate passes every finite
    field, solution or not: see fields.Hamiltonian.diamagnetic_slack.
    """
    if cfg.eps_list is None or len(cfg.eps_list) != 1:
        raise ConfigError("verify needs exactly one eps in [solver]")
    eps = cfg.eps_list[0]
    grid = cfg.grid()
    _check_decay_reach(cfg, grid, eps)
    u = _read_field(snapshot_path, grid, "snapshot")
    with _Manifest(cfg, "verify") as man:
        man.inputs.append(str(snapshot_path))
        H = Hamiltonian.from_model(cfg.model, u.grid, eps)
        scaled_energy = energy_J(u, cfg.model, eps, H) / eps**3
        residual_rms = pde_residual(u, cfg.model, eps, H)[1]
        slacks = {"nehari_slack": H.nehari_slack(u.values),
                  "diamagnetic_slack_min": H.diamagnetic_slack(u.values)}
        level = H.stop_level(cfg.tol, np.abs(u.values) ** 2)
        # free H's three hop fields, V, K and mask before the diagnostics,
        # which read no hop: verify-48's peak falls by about 7 MB
        del H
        try:
            report = run_diagnostics(u, eps, cfg.model, window=cfg.decay_window)
        except BoundaryMassError as exc:
            man.failure = f"invariant failure: boundary_decay ({exc})"
            print(man.failure, file=sys.stderr)
            return 5
        report.update(slacks)
        _write_json(man.out("verify_report.json"), report)

        failures = []
        if report["diamagnetic_slack_min"] < -1e-10:
            failures.append("diamagnetic")
        if residual_rms > level:
            failures.append("pde_residual")
        # The translation-test ratio is the residual over the size of its four
        # terms, each term sized by the larger of its positive and negative
        # parts, so cancellation at a symmetric spike does not shrink it.  Gate
        # only when those sizes carry weight on the scale of the blown-up energy.
        ps_scale = report["notes"]["pucci_serrin_terms_sum"]
        ps_floor = 1e-9 * max(1.0, abs(scaled_energy))
        if report["pucci_serrin_rel"] >= 1e-2 and ps_scale > ps_floor:
            failures.append("pucci_serrin")
        if failures:
            man.failure = f"invariant failure: {', '.join(failures)}"
            print(man.failure, file=sys.stderr)
            return 5
    return 0


# ---------------------------------------------------------------------------
# entry point

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikemap",
        description="solver and verification toolkit for spike concentration studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve-frozen", "solve-magnetic", "landscape", "concentration-study"):
        p = sub.add_parser(name)
        p.add_argument("config")
    v = sub.add_parser("verify")
    v.add_argument("config")
    v.add_argument("snapshot")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = RunConfig.from_file(args.config)
        if args.command == "solve-frozen":
            return cmd_solve_frozen(cfg)
        if args.command == "solve-magnetic":
            return cmd_solve_magnetic(cfg)
        if args.command == "landscape":
            return cmd_landscape(cfg)
        if args.command == "concentration-study":
            return cmd_concentration_study(cfg)
        return cmd_verify(cfg, args.snapshot)
    except (ConfigError, ModelError, LandscapeError, DiagnosticsError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 4
    except (SolverError, MemoryError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
