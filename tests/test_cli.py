import hashlib
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from textwrap import dedent

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from spikemap.cli import ConfigError, RunConfig, _write_json, _write_table, main
from spikemap.fields import Field3, ResolutionWarning, make_grid, read_snapshot, write_snapshot
from spikemap.frozen_solver import FrozenPoint, SolverError, canonical_profile, shoot_radial
from spikemap.magnetic_solver import energy_J
from spikemap.model import ModelError, ModelSpec

# the p = 3 ground energy for V = K = 1: test_frozen_solver.py derives it
E3 = 18.897251302545

HARMONIC = "1 + x1^2 + x2^2 + x3^2"
BUMP_K = "1 + 0.5*exp(-((x1-1)^2 + x2^2 + x3^2))"


# configparser reads indented lines as value continuations, so the builders
# assemble sections at column zero instead of leaning on dedent
def frozen_config(out_dir, extra=""):
    return (
        f"[model]\nV = {HARMONIC}\nK = 1\np = 3\n\n"
        f"[solver]\ngrid_radius = 9.0\ngrid_points = 32\neps = 1.0\n{extra}\n"
        f"[output]\ndirectory = {out_dir}\n"
    )


def magnetic_config(out_dir, eps="1.0", gauge=True, grid_points="48", solver_extra="", sections=""):
    gauge_block = "A1 = -0.25*x2\nA2 = 0.25*x1\nA3 = 0\n" if gauge else ""
    return (
        f"[model]\nV = {HARMONIC}\nK = 1\np = 3\n{gauge_block}\n"
        f"[solver]\ngrid_radius = 9.0\ngrid_points = {grid_points}\n"
        f"eps = {eps}\ntol = 1e-6\n{solver_extra}\n"
        f"{sections}"
        f"[output]\ndirectory = {out_dir}\n"
    )


def write_config(path, text):
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# configuration parsing

def test_minimal_config_parses():
    cfg = RunConfig.from_text(frozen_config("/tmp/out"))
    assert cfg.model.nonlin.is_power
    assert cfg.model.nonlin.p == 3.0
    assert cfg.eps_list == [1.0]
    assert cfg.grid().dims == (32, 32, 32)
    assert cfg.out_dir == "/tmp/out"


def test_missing_required_keys_raise():
    with pytest.raises(ConfigError, match="V"):
        RunConfig.from_text("[model]\nK = 1\np = 3\n\n[output]\ndirectory = /tmp/x\n")
    with pytest.raises(ConfigError, match="directory"):
        RunConfig.from_text("[model]\nV = 1\nK = 1\np = 3\n")
    with pytest.raises(ConfigError, match="p"):
        RunConfig.from_text("[model]\nV = 1\nK = 1\n\n[output]\ndirectory = /tmp/x\n")


def test_unknown_keys_and_sections_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        RunConfig.from_text(frozen_config("/tmp/out") + "\n[extra]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        RunConfig.from_text(frozen_config("/tmp/out", extra="speed = fast\n"))


def test_exponent_range_is_enforced():
    bad = frozen_config("/tmp/out").replace("p = 3", "p = 5")
    with pytest.raises(ConfigError):
        RunConfig.from_text(bad)
    bad = frozen_config("/tmp/out").replace("p = 3", "p = 1")
    with pytest.raises(ConfigError):
        RunConfig.from_text(bad)


def test_custom_nonlinearity_block():
    text = frozen_config("/tmp/out").replace(
        "p = 3", "f = s\nF = s^2/4\ntheta = 4.0"
    )
    cfg = RunConfig.from_text(text)
    assert not cfg.model.nonlin.is_power
    assert cfg.model.nonlin.theta == 4.0


def test_custom_nonlinearity_guards():
    base = frozen_config("/tmp/out")
    with pytest.raises(ConfigError, match="all of f, F, and theta"):
        RunConfig.from_text(base.replace("p = 3", "f = s"))
    with pytest.raises(ConfigError, match="not both"):
        RunConfig.from_text(base.replace("p = 3", "p = 3\nf = s\nF = s^2/4\ntheta = 4.0"))
    # theta too large for this pair
    with pytest.raises(ConfigError, match="theta bound"):
        RunConfig.from_text(base.replace("p = 3", "f = s\nF = s^2/4\ntheta = 6.0"))
    # the bound holds but F' = f/2 does not
    with pytest.raises(ConfigError, match="half-antiderivative"):
        RunConfig.from_text(base.replace("p = 3", "f = s\nF = s^2/8\ntheta = 4.0"))


def test_solver_value_validation():
    with pytest.raises(ConfigError):
        RunConfig.from_text(frozen_config("/tmp/out").replace("eps = 1.0", "eps = -0.5"))
    with pytest.raises(ConfigError, match="decay_window"):
        RunConfig.from_text(frozen_config("/tmp/out", extra="") + "\n[diagnostics]\ndecay_window = 5, 2\n")
    with pytest.raises(ConfigError, match="region"):
        RunConfig.from_text(
            frozen_config("/tmp/out") + "\n[landscape]\nregion = -1, 1, -1, 1\n"
        )


# ---------------------------------------------------------------------------
# the writers

def test_write_table_formats_every_cell(tmp_path):
    path = tmp_path / "t.csv"
    _write_table(path, {"iter": [0, 7], "x": np.array([0.1, np.nan]), "y": [np.float32(0.5), 3.0],
                        "method": ["a", "failed"]})
    assert path.read_text().splitlines() == ["iter,x,y,method", "0,0.1,0.5,a", "7,nan,3.0,failed"]


def test_write_table_refuses_columns_of_unequal_length(tmp_path):
    with pytest.raises(ValueError, match="differ in length"):
        _write_table(tmp_path / "t.csv", {"a": [1.0, 2.0], "b": [1.0]})


def test_write_json_takes_numpy_values_and_refuses_other_objects(tmp_path):
    path = tmp_path / "t.json"
    _write_json(path, {"z": np.array([0.5, -1.0]), "n": np.int64(3), "ok": np.bool_(True), "s": np.float64(0.25)})
    assert json.loads(path.read_text()) == {"n": 3, "ok": True, "s": 0.25, "z": [0.5, -1.0]}
    with pytest.raises(TypeError, match="object is not JSON serializable"):
        _write_json(path, {"x": object()})


# ---------------------------------------------------------------------------
# solve-frozen

def test_solve_frozen_outputs(tmp_path):
    out = tmp_path / "run"
    cfg_path = write_config(tmp_path / "run.ini", frozen_config(out))
    assert main(["solve-frozen", cfg_path]) == 0

    sig = json.loads((out / "sigma.json").read_text())
    assert sig["z"] == [0.0, 0.0, 0.0]
    assert sig["sigma"] == pytest.approx(E3, abs=1e-9)
    assert np.allclose(sig["grad_sigma"], 0.0, atol=1e-9)
    assert sig["method"] == "rescaled"

    rep = json.loads((out / "frozen_report.json").read_text())
    assert rep["sigma"] == sig["sigma"]
    assert rep["sqrt_V_at_z"] == pytest.approx(1.0)
    assert rep["decay_rate_corrected"] == pytest.approx(1.0, rel=1e-3)
    assert rep["decay_points"] > 50
    assert 0.0 < rep["radial_residual"] < 1e-8  # the shooting contract, p = 3

    lines = (out / "profile.csv").read_text().strip().splitlines()
    assert lines[0] == "r,u,du"
    assert len(lines) > 100

    man = json.loads((out / "manifest.json").read_text())
    assert man["command"] == "solve-frozen"
    assert man["outputs"] == ["frozen_report.json", "profile.csv", "sigma.json"]
    assert man["config_text"].encode() == Path(cfg_path).read_bytes()
    assert man["config_sha256"] == hashlib.sha256(man["config_text"].encode()).hexdigest()
    assert "total" in man["wall_times_s"]


@pytest.mark.parametrize("eol", ["\r\n", "\r"])
def test_manifest_keeps_the_config_line_ends(tmp_path, eol):
    # the parser reads universal newlines; the manifest records the file as it is
    out = tmp_path / "run"
    path = tmp_path / "run.ini"
    path.write_bytes(frozen_config(out).replace("\n", eol).encode())
    assert main(["solve-frozen", str(path)]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["config_text"].encode() == path.read_bytes()
    assert man["config_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    assert json.loads((out / "sigma.json").read_text())["sigma"] == pytest.approx(E3, abs=1e-9)


def test_solve_frozen_at_target_point(tmp_path):
    out = tmp_path / "run"
    text = frozen_config(out) + "\n[diagnostics]\ntarget = 0.5, 0, 0\n"
    cfg_path = write_config(tmp_path / "run.ini", text)
    assert main(["solve-frozen", cfg_path]) == 0
    sig = json.loads((out / "sigma.json").read_text())
    assert sig["z"] == [0.5, 0.0, 0.0]
    assert sig["sigma"] == pytest.approx(E3 * 1.25**0.5, rel=1e-9)


@pytest.mark.parametrize("x1", [3.0, 10.0, 50.0])
def test_solve_frozen_default_decay_window_follows_the_decay_length(tmp_path, x1):
    # the profile at z shrinks like 1/sqrt(V(z)); a window fixed at r = 2
    # held no shell past V(z) of about 82
    out = tmp_path / "run"
    text = frozen_config(out) + f"\n[diagnostics]\ntarget = {x1}, 0, 0\n"
    assert main(["solve-frozen", write_config(tmp_path / "run.ini", text)]) == 0
    rep = json.loads((out / "frozen_report.json").read_text())
    assert rep["sqrt_V_at_z"] == pytest.approx((1.0 + x1 * x1) ** 0.5, rel=1e-15)
    assert rep["decay_window"][0] == 2.0 / rep["sqrt_V_at_z"]
    assert rep["decay_rate_corrected"] == pytest.approx(rep["sqrt_V_at_z"], rel=1e-4)


def test_solve_frozen_decay_window_beyond_profile_exits_2(tmp_path, capsys):
    # the profile ends near r = 26 at V = 1, so [40, 60] holds no shell; the
    # fit runs before any output is written
    out = tmp_path / "run"
    text = frozen_config(out) + "\n[diagnostics]\ndecay_window = 40, 60\n"
    cfg_path = write_config(tmp_path / "run.ini", text)
    assert main(["solve-frozen", cfg_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "decay window" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("where", ["a file", "under a file"])
def test_output_directory_that_cannot_be_made_exits_2(tmp_path, capsys, where):
    # makedirs raises FileExistsError on a file and NotADirectoryError under one
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    out = blocker if where == "a file" else blocker / "run"
    cfg_path = write_config(tmp_path / "run.ini", frozen_config(out))
    assert main(["solve-frozen", cfg_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot make output directory") and str(out) in err
    assert len(err.strip().splitlines()) == 1
    assert blocker.read_text() == "not a directory\n"


def test_too_few_grid_points_exits_2(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path / "coarse.ini", magnetic_config(tmp_path / "o", grid_points="4")
    )
    assert main(["solve-magnetic", cfg_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "grid_points" in err
    assert len(err.strip().splitlines()) == 1


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["solve-frozen", str(tmp_path / "absent.ini")]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_config_error_exits_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "bad.ini", frozen_config(tmp_path, extra="speed = fast\n"))
    assert main(["solve-frozen", cfg_path]) == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("V, what", [
    ("1/0", "divide by zero"),
    ("1 + 10^400", "overflow"),
    ("1 + 2^5000", "overflow"),
    ("1 + (0-1)^0.5", "invalid value"),
    ("1e400 + x1^2", "parse error at position 0"),
    # positive on the sampled box [-8, 8]^3, negative from the r = 32 ring on
    ("1 - x1^2/500", "V is not positive on the sample set (min -7.192)"),
])
def test_constant_subexpression_errors_exit_2(tmp_path, capsys, V, what):
    text = frozen_config(tmp_path / "out").replace(f"V = {HARMONIC}", f"V = {V}")
    assert main(["solve-frozen", write_config(tmp_path / "bad.ini", text)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and what in err[0]


@pytest.mark.parametrize("f, what", [
    ("s + x1", "unknown identifier 'x1'"),
    ("s + q", "position 4 in 's + q'"),
])
def test_custom_f_is_parsed_in_s(tmp_path, capsys, f, what):
    text = frozen_config(tmp_path / "out").replace("p = 3", f"f = {f}\nF = s^2/4\ntheta = 4.0")
    assert main(["solve-frozen", write_config(tmp_path / "bad.ini", text)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and what in err


@pytest.mark.parametrize("f, F", [
    ("s + 0.5*s^2", "s^2/4 + s^3/12"),
    ("s*exp(s)", "((s - 1)*exp(s) + 1)/2"),  # overflows at s = 1e6
])
def test_custom_f_of_critical_growth_exits_2(tmp_path, capsys, f, F):
    # f ~ s^2 is the H^1-critical |u|^4 u: shooting finds no ground state
    out = tmp_path / "out"
    text = frozen_config(out).replace("p = 3", f"f = {f}\nF = {F}\ntheta = 4.0")
    assert main(["solve-frozen", write_config(tmp_path / "crit.ini", text)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and "grows like s^" in err[0]
    assert not out.exists()


def test_custom_f_of_subcritical_growth_shoots():
    # s^1.5 in place of s^2 passes the growth check and shoots
    text = frozen_config("/tmp/out").replace(
        "p = 3", "f = s + 0.5*s^1.5\nF = s^2/4 + s^2.5/10\ntheta = 4.0"
    )
    nonlin = RunConfig.from_text(text).model.nonlin
    prof = shoot_radial(FrozenPoint((0.0, 0.0, 0.0), 1.0, 1.0), nonlin, n=600, refine=2)
    assert prof.energy > 0.0
    assert np.all(prof.u > 0.0) and np.all(np.diff(prof.u) <= 0.0)


# a config with every numeric key set to a usable value
def numeric_sections(out_dir):
    return {
        "model": {"V": HARMONIC, "K": "1", "lam": "1", "p": "3"},
        "solver": {"grid_radius": "9.0", "grid_points": "16", "eps": "1.0", "tol": "1e-6",
                   "max_iters": "50", "rng_seed": "0", "center": "0, 0, 0"},
        "diagnostics": {"decay_window": "2, 6", "target": "0, 0, 0"},
        "landscape": {"region": "-1, 1, -1, 1, -1, 1", "resolution": "3", "p_list": "3.0, 4.0",
                      "seeds": "2"},
        "output": {"directory": str(out_dir)},
    }


def config_text(sections):
    return "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in sec.items()) + "\n"
        for name, sec in sections.items()
    )


@pytest.mark.parametrize("command, section, key, value", [
    ("solve-magnetic", "solver", "grid_points", "nan"),
    ("solve-magnetic", "solver", "grid_points", "inf"),
    ("solve-magnetic", "solver", "grid_points", "1e400"),
    ("solve-magnetic", "solver", "max_iters", "inf"),
    ("solve-magnetic", "solver", "max_iters", "0"),
    ("solve-magnetic", "solver", "max_iters", "-5"),
    ("solve-magnetic", "solver", "rng_seed", "nan"),
    ("solve-magnetic", "solver", "rng_seed", "-1"),
    ("solve-magnetic", "solver", "grid_radius", "nan"),
    ("solve-magnetic", "solver", "grid_radius", "0"),
    ("solve-magnetic", "solver", "grid_radius", "-5"),
    ("solve-magnetic", "solver", "tol", "-1"),
    ("solve-magnetic", "solver", "eps", "nan"),
    ("solve-magnetic", "solver", "eps", "1e-300"),
    ("solve-magnetic", "solver", "eps", "1e300"),
    ("solve-magnetic", "solver", "center", "10, 0, 0"),
    ("landscape", "landscape", "resolution", "nan"),
    ("landscape", "landscape", "seeds", "inf"),
    ("landscape", "landscape", "seeds", "0"),
    ("landscape", "landscape", "seeds", "-3"),
    ("landscape", "landscape", "region", "1, -1, -1, 1, -1, 1"),
    ("solve-frozen", "diagnostics", "target", "nan, 0, 0"),
])
def test_bad_numbers_exit_2_naming_the_key(tmp_path, capsys, command, section, key, value):
    sections = numeric_sections(tmp_path / "out")
    sections[section][key] = value
    assert main([command, write_config(tmp_path / "bad.ini", config_text(sections))]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and f"{section}.{key}" in err[0]
    assert not (tmp_path / "out").exists()


NUMERIC_KEYS = [
    (name, key) for name, sec in numeric_sections("o").items() if name != "output"
    for key in sec if key not in ("V", "K")
]
NUMBER_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400", "", "x", "1e", "0x10", "--1", "1 2"]),
)


@given(st.dictionaries(st.sampled_from(NUMERIC_KEYS),
                       st.lists(NUMBER_TOKENS, min_size=1, max_size=6).map(", ".join), max_size=4))
@example({("solver", "grid_radius"): "5e-324"})
@example({("solver", "grid_radius"): "1e308"})
@settings(max_examples=300, deadline=None)
def test_config_numbers_fail_only_with_config_or_model_errors(picks):
    sections = numeric_sections("o")
    for (name, key), value in picks.items():
        sections[name][key] = value
    try:
        cfg = RunConfig.from_text(config_text(sections))
        cfg.grid()
    except (ConfigError, ModelError):
        pass


# ---------------------------------------------------------------------------
# solve-magnetic and verification
#
# Where the magnetic energies must lie.  Every magnetic case here is
# V = 1 + |x|^2, K = 1, p = 3 in the symmetric gauge A = (-x2/4, x1/4, 0).
# In the blow-up variable y = x/eps the scaled energy E(eps) = J(u)/eps^3 is
# the Nehari level of
#     1/2 int |(grad/i - eps A(y)) w|^2 + (1 + eps^2 |y|^2) |w|^2 - 1/4 int |w|^4.
# Lower bound: V >= 1, K = 1 and the diamagnetic inequality
# |grad |w|| <= |(grad/i - eps A) w| put E(eps) strictly above E3, the
# level of V = K = 1 without a field.  Upper bound: the Nehari projection of
# the real canonical profile Q.  For a real trial function the gauge adds
# exactly eps^2 int |A|^2 Q^2, with no cross term, and for a radial Q
#     int (|y|^2 + |A(y)|^2) Q^2 = (1 + 2/48) int |y|^2 Q^2 = W,
# so W = (25/24) int |y|^2 Q^2.  With N = int Q^4 = 4 E3 (Nehari identity)
# the projected level is (N + eps^2 W)^2 / (4 N), that is
#     E3 < E(eps) <= E3 + eps^2 W/2 + eps^4 W^2 / (16 E3).
# int |y|^2 Q^2 = 20.3155, so the bound reads 30.959 at eps = 1, 27.315 at
# eps = 0.85 and 24.438 at eps = 0.7.  The bracket holds for the continuum
# problem; each test below records the refinement study showing its grid
# resolves the energy well inside it.


def energy_upper_bound(eps):
    prof = canonical_profile(3.0)  # cached in-process: the solve has shot it already
    r = prof.r
    W = 25.0 / 24.0 * float(simpson(4.0 * np.pi * r**4 * prof.u**2, x=r))
    return E3 + eps**2 * W / 2.0 + eps**4 * W**2 / (16.0 * E3)


# Scaled energy at eps = 1, R = 9, tol 1e-6, by grid: 27.0027 (32^3),
# 23.9557 (48^3), 23.4792 (64^3), 23.4449 (72^3).  The 72-node value is the
# reference: it moved 0.15 % from 64 nodes, while the 48-node grid reads
# 2.2 % above it and the 32-node grid 15 %.
E_EPS1_REF = 23.4449


@pytest.fixture(scope="module")
def magnetic_run(tmp_path_factory):
    # the 48-node grid at R = 9 (h = 0.38) is the benchmark's magnetic-48
    # case; the 32-node grid reads the energy 15 % high
    base = tmp_path_factory.mktemp("mag")
    out = base / "run"
    text = magnetic_config(out, sections="[diagnostics]\nreport = true\n\n")
    cfg_path = write_config(base / "run.ini", text)
    rc = main(["solve-magnetic", cfg_path])
    assert rc == 0
    # verify runs on this config write their own manifest.json into out
    manifest = json.loads((out / "manifest.json").read_text())
    return {"cfg": cfg_path, "out": out, "snap": out / "solution_eps1.0.spkf", "text": text,
            "manifest": manifest}


def test_solve_magnetic_outputs(magnetic_run):
    out = magnetic_run["out"]
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "manifest.json",
        "report_eps1.0.json",
        "solution_eps1.0.spkf",
        "trace_eps1.0.csv",
    ]
    lines = (out / "trace_eps1.0.csv").read_text().strip().splitlines()
    assert lines[0] == "iter,energy,residual,nehari_slack"
    energy = float(lines[-1].split(",")[1])
    # the trace ends on the iterate the snapshot holds; it records J, which
    # at eps = 1 is also the scaled energy J / eps^3
    model = RunConfig.from_text(magnetic_run["text"]).model
    assert energy == pytest.approx(
        energy_J(read_snapshot(str(magnetic_run["snap"])), model, 1.0), rel=1e-12
    )
    # inside the derived bracket, and within the 48-node grid's measured
    # error of the converged reference
    assert E3 < energy <= energy_upper_bound(1.0)
    assert energy == pytest.approx(E_EPS1_REF, rel=3e-2)

    rep = json.loads((out / "report_eps1.0.json").read_text())
    assert rep["diamagnetic_slack_min"] >= -1e-10
    assert rep["nehari_slack"] < 1e-12
    # V is radial and A = B x x / 2 with B along e3, so the continuum ground
    # state is real in this gauge and the imaginary part is discretisation
    # error: 1.89e-3 at 32^3, 5.24e-4 at 48^3, 1.77e-4 at 64^3 (about h^3)
    assert rep["notes"]["phase_imag_fraction"] < 1e-3


def test_solve_magnetic_is_deterministic(magnetic_run, tmp_path):
    out2 = tmp_path / "again"
    cfg_path = write_config(
        tmp_path / "again.ini",
        magnetic_config(out2, sections="[diagnostics]\nreport = true\n\n"),
    )
    assert main(["solve-magnetic", cfg_path]) == 0
    for name in ("solution_eps1.0.spkf", "trace_eps1.0.csv", "report_eps1.0.json"):
        assert (out2 / name).read_bytes() == (magnetic_run["out"] / name).read_bytes()


def test_verify_accepts_solver_output(magnetic_run):
    assert main(["verify", magnetic_run["cfg"], str(magnetic_run["snap"])]) == 0
    rep = json.loads((magnetic_run["out"] / "verify_report.json").read_text())
    assert rep["diamagnetic_slack_min"] >= -1e-10


def test_symmetric_spike_reads_a_small_pucci_serrin_ratio(magnetic_run, tmp_path):
    # the spike sits at the symmetry centre of V and |A|, so every integral
    # of the translation identity vanishes and the ratio is rounding over the
    # size of its terms; over their own rounding sum it read 0.69
    assert main(["verify", magnetic_run["cfg"], str(magnetic_run["snap"])]) == 0
    for name in ("report_eps1.0.json", "verify_report.json"):
        rep = json.loads((magnetic_run["out"] / name).read_text())
        assert rep["pucci_serrin_rel"] < 1e-2
        assert rep["notes"]["pucci_serrin_terms_sum"] > 1.0


def test_verify_flags_corrupted_snapshot(magnetic_run, tmp_path, capsys):
    u = read_snapshot(str(magnetic_run["snap"]))
    rng = np.random.default_rng(3)
    u.values[...] *= 1.0 + 0.05 * rng.standard_normal(u.values.shape)
    bad = tmp_path / "bad.spkf"
    write_snapshot(str(bad), u)
    assert main(["verify", magnetic_run["cfg"], str(bad)]) == 5
    err = capsys.readouterr().err
    assert "invariant failure" in err
    assert "pucci_serrin" in err


def test_verify_flags_boundary_mass(magnetic_run, tmp_path, capsys):
    u = read_snapshot(str(magnetic_run["snap"]))
    rng = np.random.default_rng(7)
    u.values[...] += 0.03 * np.abs(u.values).max() * rng.standard_normal(u.values.shape)
    bad = tmp_path / "spread.spkf"
    write_snapshot(str(bad), u)
    assert main(["verify", magnetic_run["cfg"], str(bad)]) == 5
    assert "boundary_decay" in capsys.readouterr().err


def test_verify_records_its_verdict_in_the_manifest(magnetic_run, tmp_path, capsys):
    out = tmp_path / "v"
    cfg_path = write_config(tmp_path / "v.ini", magnetic_config(out))
    assert main(["verify", cfg_path, str(magnetic_run["snap"])]) == 0
    assert json.loads((out / "manifest.json").read_text())["failure"] is None

    u = read_snapshot(str(magnetic_run["snap"]))
    rng = np.random.default_rng(3)
    u.values[...] *= 1.0 + 0.05 * rng.standard_normal(u.values.shape)
    bad = tmp_path / "bad.spkf"
    write_snapshot(str(bad), u)
    assert main(["verify", cfg_path, str(bad)]) == 5
    err = capsys.readouterr().err.strip()
    man = json.loads((out / "manifest.json").read_text())
    assert man["failure"] == err
    assert man["failure"].startswith("invariant failure:") and "pucci_serrin" in man["failure"]
    assert man["outputs"] == ["verify_report.json"]


def test_verify_reads_a_real_snapshot_as_its_complex_twin(tmp_path):
    # without a field the solve's imaginary part is zero, so its real part,
    # stored with flag 0, is the same field; read_snapshot returns both in C
    # order, so every sum runs in one order and the reports agree to the bit
    out = tmp_path / "run"
    text = (
        f"[model]\nV = {HARMONIC}\nK = 1\np = 3\n\n"
        "[solver]\ngrid_radius = 9.0\ngrid_points = 24\neps = 1.0\ntol = 1e-6\n\n"
        f"[diagnostics]\nreport = false\n\n[output]\ndirectory = {out}\n"
    )
    cfg_path = write_config(tmp_path / "run.ini", text)
    assert main(["solve-magnetic", cfg_path]) == 0
    u = read_snapshot(str(out / "solution_eps1.0.spkf"))
    assert not np.any(u.values.imag)
    write_snapshot(str(tmp_path / "real.spkf"), Field3(u.grid, u.values.real.copy()))
    assert read_snapshot(str(tmp_path / "real.spkf")).values.dtype == np.float64
    reports = []
    for snap in (out / "solution_eps1.0.spkf", tmp_path / "real.spkf"):
        assert main(["verify", cfg_path, str(snap)]) == 0
        reports.append(json.loads((out / "verify_report.json").read_text()))
    assert reports[1] == reports[0]


@pytest.mark.parametrize("command, bad", [("verify", np.inf), ("verify", np.nan), ("solve-magnetic", np.inf)])
def test_non_finite_snapshot_exits_2_before_any_output(magnetic_run, tmp_path, capsys, command, bad):
    # no gate fails on a nan, so a verify of it would pass; the snapshot is
    # refused where it is read, as the field to verify or as solver.seed
    u = read_snapshot(str(magnetic_run["snap"]))
    u.values[3, 4, 5] = bad
    snap = tmp_path / "bad.spkf"
    write_snapshot(str(snap), u)
    out = tmp_path / "out"
    if command == "verify":
        argv = ["verify", write_config(tmp_path / "v.ini", magnetic_config(out)), str(snap)]
    else:
        text = magnetic_config(out, solver_extra=f"seed = {snap}\n")
        argv = ["solve-magnetic", write_config(tmp_path / "s.ini", text)]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    assert f"1 non-finite node values, the first ({bad}" in err[0] and "at node (3, 4, 5)" in err[0]
    assert not out.exists()


def test_verify_rejects_grid_mismatch(magnetic_run, tmp_path, capsys):
    cfg_path = write_config(
        tmp_path / "mismatch.ini", magnetic_config(tmp_path / "o", grid_points="24")
    )
    assert main(["verify", cfg_path, str(magnetic_run["snap"])]) == 2
    assert "does not match" in capsys.readouterr().err


def test_verify_needs_exactly_one_eps(magnetic_run, tmp_path):
    cfg_path = write_config(
        tmp_path / "two.ini", magnetic_config(tmp_path / "o", eps="1.0, 0.5")
    )
    assert main(["verify", cfg_path, str(magnetic_run["snap"])]) == 2


def test_each_command_builds_the_hops_once(tmp_path, monkeypatch):
    # the solve and verify each read the diamagnetic slack off the
    # Hamiltonian they build, so neither builds the link phases twice, and
    # both read the same slack off the same field
    calls = []
    build = ModelSpec.link_phases
    monkeypatch.setattr(ModelSpec, "link_phases", lambda self, grid, eps: calls.append(eps) or build(self, grid, eps))
    out = tmp_path / "run"
    text = magnetic_config(out, grid_points="24", sections="[diagnostics]\nreport = true\n\n")
    cfg_path = write_config(tmp_path / "run.ini", text.replace("grid_radius = 9.0", "grid_radius = 7.5"))
    assert main(["solve-magnetic", cfg_path]) == 0
    assert calls == [1.0]
    assert main(["verify", cfg_path, str(out / "solution_eps1.0.spkf")]) == 0
    assert calls == [1.0, 1.0]
    solve, verify = (json.loads((out / name).read_text())["diamagnetic_slack_min"]
                     for name in ("report_eps1.0.json", "verify_report.json"))
    assert solve == verify


def test_repeated_eps_exits_2_before_any_output(tmp_path, capsys):
    # each eps names its snapshot, trace and report, so a repeated eps would
    # overwrite its own outputs and the manifest would list them twice
    out = tmp_path / "run"
    text = magnetic_config(out, eps="1.0, 1", grid_points="24").replace("grid_radius = 9.0", "grid_radius = 7.5")
    with pytest.raises(ConfigError, match="solver.eps repeats"):
        RunConfig.from_text(text)
    assert main(["solve-magnetic", write_config(tmp_path / "run.ini", text)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and "solver.eps" in err[0]
    assert not out.exists()


def test_snapshot_seed_restarts_the_solve_where_it_ended(magnetic_run, tmp_path):
    out = tmp_path / "restart"
    text = magnetic_config(out, solver_extra=f"seed = {magnetic_run['snap']}\n",
                           sections="[diagnostics]\nreport = false\n\n")
    assert main(["solve-magnetic", write_config(tmp_path / "restart.ini", text)]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["descent"]["1.0"]["iterations"] == 0
    assert man["seeds"]["seed"] == str(magnetic_run["snap"])


@pytest.mark.parametrize("fault", ["missing", "empty", "shifted_origin", "other_dims"])
@pytest.mark.parametrize("command", ["solve-magnetic", "concentration-study"])
def test_bad_seed_snapshot_exits_2_before_any_output(tmp_path, capsys, command, fault):
    # the seed snapshot is read and held to the configured 16-node grid by
    # the rule verify uses, before the output directory exists
    grids = {"shifted_origin": make_grid(9.0, 16, origin=(0.5, 0.0, 0.0)), "other_dims": make_grid(9.0, 12)}
    seed = "" if fault == "empty" else str(tmp_path / "seed.spkf")
    if fault in grids:
        g = grids[fault]
        write_snapshot(seed, Field3(g, np.zeros(tuple(g.dims), complex)))
    out = tmp_path / "out"
    text = magnetic_config(out, eps="1.0, 0.5", grid_points="16", solver_extra=f"seed = {seed}\n")
    assert main([command, write_config(tmp_path / "run.ini", text)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and "solver.seed" in err[0]
    assert not out.exists()


def test_solve_magnetic_decay_window_beyond_the_box_exits_2(tmp_path, capsys):
    # on 24 nodes at R = 7 the eps = 1 blow-up box reaches sqrt(3) * 7 = 12.1,
    # so a [40, 60] window is refused before the solve writes anything
    out = tmp_path / "run"
    text = (
        f"[model]\nV = {HARMONIC}\nK = 1\np = 3\n\n"
        "[solver]\ngrid_radius = 7.0\ngrid_points = 24\neps = 1.0\n\n"
        "[diagnostics]\nreport = true\ndecay_window = 40, 60\n\n"
        f"[output]\ndirectory = {out}\n"
    )
    cfg_path = write_config(tmp_path / "run.ini", text)
    assert main(["solve-magnetic", cfg_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "decay window" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists() or list(out.iterdir()) == []


def test_verify_decay_window_beyond_the_box_exits_2_before_any_output(magnetic_run, tmp_path, capsys):
    # the eps = 1 blow-up box of the 48-node grid at R = 9 reaches
    # sqrt(3) * 9 = 15.6, so verify refuses a [100, 200] window by the rule
    # solve-magnetic uses, before it builds the Hamiltonian or makes out
    out = tmp_path / "v"
    text = magnetic_config(out, sections="[diagnostics]\ndecay_window = 100, 200\n\n")
    assert main(["verify", write_config(tmp_path / "v.ini", text), str(magnetic_run["snap"])]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and "decay window starts beyond" in err[0]
    assert not out.exists()


def _trace_ends(out, eps):
    """(iterations, final residual rms) from the last row of a trace csv."""
    last = (out / f"trace_eps{eps}.csv").read_text().strip().splitlines()[-1].split(",")
    return int(last[0]), float(last[2])


def test_solve_magnetic_manifest_records_the_descent(magnetic_run):
    iters, rms = _trace_ends(magnetic_run["out"], "1.0")
    assert magnetic_run["manifest"]["descent"] == {"1.0": {"iterations": iters, "residual_rms": rms}}
    assert 10 < iters <= 45


def test_failed_solve_magnetic_still_writes_its_manifest(tmp_path, capsys):
    # the eps = 1 box on 24 nodes at R = 7 reaches sqrt(3) * 7 = 12.1, so an
    # [11, 12] window passes the reach check and is refused by the decay fit
    # only after the solve has written its snapshot and trace
    out = tmp_path / "run"
    text = (
        f"[model]\nV = {HARMONIC}\nK = 1\np = 3\n\n"
        "[solver]\ngrid_radius = 7.0\ngrid_points = 24\neps = 1.0\n\n"
        "[diagnostics]\nreport = true\ndecay_window = 11, 12\n\n"
        f"[output]\ndirectory = {out}\n"
    )
    cfg_path = write_config(tmp_path / "run.ini", text)
    assert main(["solve-magnetic", cfg_path]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    man = json.loads((out / "manifest.json").read_text())
    assert man["outputs"] == ["solution_eps1.0.spkf", "trace_eps1.0.csv"]
    assert man["failure"].startswith("DiagnosticsError:") and "decay window" in man["failure"]
    assert "solve_eps1.0" in man["wall_times_s"]


def test_out_of_memory_exits_3_in_one_line(tmp_path, capsys):
    # 10^6 nodes a side asks for 6.94 EiB at the first grid array, which
    # fails at once without allocating anything
    out = tmp_path / "run"
    text = magnetic_config(out, grid_points="1000000")
    assert main(["solve-magnetic", write_config(tmp_path / "run.ini", text)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("solver failure: Unable to allocate")
    assert json.loads((out / "manifest.json").read_text())["failure"].startswith("MemoryError:")


def test_non_convergence_exits_4(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path / "short.ini",
        magnetic_config(tmp_path / "o", solver_extra="max_iters = 3\n"),
    )
    assert main(["solve-magnetic", cfg_path]) == 4
    assert capsys.readouterr().err.startswith("non-convergence:")


def test_eps_whose_descent_overflows_ends_in_one_line(tmp_path, capsys):
    # at h = 1.2 the stencil scale 18.14 eps^2 / h^2 is finite for eps = 1e100,
    # but the first steps overflow; the non-finite energy is the one report
    text = (
        f"[model]\nV = {HARMONIC}\nK = 1\np = 3\n\n"
        "[solver]\ngrid_radius = 9.0\ngrid_points = 16\neps = 1e100\nseed = random\n\n"
        f"[diagnostics]\nreport = false\n\n[output]\ndirectory = {tmp_path / 'out'}\n"
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["solve-magnetic", write_config(tmp_path / "run.ini", text)]) == 4
    assert capsys.readouterr().err.splitlines() == [
        "non-convergence: magnetic descent diverged to a non-finite energy"
    ]
    assert [str(w.message) for w in caught] == []


def test_frozen_seed_between_the_nodes_exits_3_naming_eps_over_h(tmp_path, capsys):
    # at eps = 1e-3 on h = 1.2 the frozen profile, sampled at scale eps, is
    # zero on every node; the one line names eps / h as the cause
    text = (
        f"[model]\nV = {HARMONIC}\nK = 1\np = 3\n\n"
        "[solver]\ngrid_radius = 9.0\ngrid_points = 16\neps = 1e-3\nseed = frozen\n\n"
        f"[diagnostics]\nreport = false\n\n[output]\ndirectory = {tmp_path / 'out'}\n"
    )
    assert main(["solve-magnetic", write_config(tmp_path / "run.ini", text)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("solver failure: frozen seed is zero on every node") and "eps / h = 0.000833" in err[0]


# the solver keys a whole run reads: usable edge values, and bad spellings
# that must end as config errors; grid_points stays at 16 or below, so no
# draw can ask for a large field
RUN_EDGE = {
    "grid_points": ["8", "12", "16"],
    "seed": ["random", "frozen"],
    "rng_seed": ["0", "1", "-0", "18446744073709551616"],
    "max_iters": ["1", "5"],
    "tol": ["1e-6", "1", "1e300", "1e-300", "5e-324"],
    "eps": ["1.0", "0.5", "3", "1e-3", "1e3", "1e-100", "1, 0.5"],
    "center": ["0, 0, 0", "1, -1, 0.5"],
}
RUN_BAD = [
    ("grid_points", "7"),
    *[("seed", v) for v in ("", "Random", "missing.spkf")],
    *[("rng_seed", v) for v in ("-1", "2.5", "nan", "x")],
    *[("max_iters", v) for v in ("0", "-5", "2.5", "inf", "")],
    *[("tol", v) for v in ("0", "-1", "nan")],
    *[("eps", v) for v in ("0", "-1", "inf", "1e-300", "1e300")],
    *[("center", v) for v in ("nan, 0, 0", "0, 0", "inf, 0, 0", "100, 0, 0", "1e300, 0, 0")],
]


@given(st.fixed_dictionaries({k: st.sampled_from(v) for k, v in RUN_EDGE.items()}),
       st.lists(st.sampled_from(RUN_BAD), max_size=2))
@example(dict(grid_points="16", seed="random", rng_seed="0", max_iters="5", tol="1e-6", eps="1.0",
              center="0, 0, 0"), [("rng_seed", "-1")])
@settings(max_examples=25, deadline=None)
def test_whole_solve_magnetic_runs_end_in_a_documented_exit_code(solver, bad):
    # no report: every run, converged or not, ends in a documented exit
    # code, never in an exception out of main, and no numpy warning; a
    # pinned spike's ResolutionWarning is the run's to give
    solver = {**solver, **dict(bad)}
    with tempfile.TemporaryDirectory() as tmp:
        text = (
            f"[model]\nV = {HARMONIC}\nK = 1\np = 3\n\n"
            "[solver]\ngrid_radius = 9.0\n"
            + "".join(f"{k} = {v}\n" for k, v in solver.items())
            + f"\n[diagnostics]\nreport = false\n\n[output]\ndirectory = {tmp}/out\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["solve-magnetic", write_config(Path(tmp) / "run.ini", text)])
    assert code in (0, 2, 3, 4, 5)
    if bad:
        assert code == 2


# ---------------------------------------------------------------------------
# concentration study

def test_concentration_study_family(tmp_path):
    out = tmp_path / "study"
    # Scaled energies at R = 7.5, tol 1e-6, for eps = 1, 0.85, 0.7, by grid:
    #   32^3: 25.149, 25.220, 25.946 (rising: h/eps grows from 0.48 to 0.69,
    #         and 25.946 breaks the eps = 0.7 bound of 24.438)
    #   48^3: 23.573, 22.918, 22.482
    #   64^3: 23.443, 22.609, 21.838
    # so 48 nodes is the coarsest grid that resolves the ladder.
    text = magnetic_config(out, eps="1.0, 0.85, 0.7", grid_points="48").replace(
        "grid_radius = 9.0", "grid_radius = 7.5"
    )
    cfg_path = write_config(tmp_path / "study.ini", text)
    assert main(["concentration-study", cfg_path]) == 0

    lines = (out / "concentration_study.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:7] == [
        "eps", "spike1", "spike2", "spike3", "scaled_energy", "pointwise", "energy_gap"
    ]
    assert header[7:] == [f"fixed_{name}_r{j}" for name in ("tail", "floor") for j in range(1, 5)]
    assert len(lines) == 4
    rows = [[float(tok) for tok in row.split(",")] for row in lines[1:]]
    assert np.isfinite(rows).all()
    eps_col = [r[0] for r in rows]
    assert eps_col == [1.0, 0.85, 0.7]
    energies = [r[4] for r in rows]
    gaps = [r[6] for r in rows]
    for eps, energy in zip(eps_col, energies):
        assert E3 < energy <= energy_upper_bound(eps)
    # Strict decrease is not a theorem at finite eps.  It is what the
    # expansion E3 + eps^2 W/2 + O(eps^4) predicts, and both the 48- and the
    # 64-node ladders show it with steps of at least 0.44.
    assert all(b < a for a, b in zip(energies, energies[1:]))

    notes = json.loads((out / "concentration_notes.json").read_text())
    assert set(notes) == {
        "target_z",
        "sigma_at_target",
        "fixed_tails_decreasing",
        "pointwise_bounded_away",
        "energy_gap_final",
    }
    # energetic concentration: the gap to the ground energy at the target
    # shrinks along the ladder (4.676, 4.021, 3.585 at 48^3)
    for energy, gap in zip(energies, gaps):
        assert gap == pytest.approx(energy - notes["sigma_at_target"], rel=1e-12)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert notes["energy_gap_final"] == gaps[-1]
    assert notes["fixed_tails_decreasing"] is True
    snapshots = sorted(p.name for p in out.iterdir() if p.suffix == ".spkf")
    assert snapshots == ["solution_eps0.7.spkf", "solution_eps0.85.spkf", "solution_eps1.0.spkf"]
    descent = json.loads((out / "manifest.json").read_text())["descent"]
    assert descent == {
        eps: dict(zip(("iterations", "residual_rms"), _trace_ends(out, eps)))
        for eps in ("1.0", "0.85", "0.7")
    }


def test_concentration_study_needs_decreasing_eps(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path / "one.ini", magnetic_config(tmp_path / "o", eps="0.5, 1.0")
    )
    assert main(["concentration-study", cfg_path]) == 2
    assert "strictly decreasing" in capsys.readouterr().err


def test_concentration_study_target_off_the_box_exits_2_before_any_solve(tmp_path, capsys, monkeypatch):
    # no member has a node at the target, so pointwise would read a clamped
    # wall value and every fixed tail the whole box; the study is refused by
    # the rule solver.center follows, while solve-frozen, which reads the
    # target with no grid, still takes it
    import spikemap.cli as cli

    solves = []

    def no_solve(*args, **kwargs):
        solves.append(args)
        raise SolverError("the study solved a member")

    monkeypatch.setattr(cli, "solve_magnetic", no_solve)
    out = tmp_path / "study"
    text = magnetic_config(out, eps="1.0, 0.9", grid_points="24",
                           sections="[diagnostics]\ntarget = 10, 0, 0\ndecay_window = 0.2, 1.5\n\n")
    cfg_path = write_config(tmp_path / "study.ini", text.replace("grid_radius = 9.0", "grid_radius = 7.5"))
    assert main(["concentration-study", cfg_path]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and "diagnostics.target" in err[0]
    assert solves == [] and not out.exists()
    assert main(["solve-frozen", cfg_path]) == 0
    assert json.loads((out / "sigma.json").read_text())["sigma"] == pytest.approx(E3 * 101**0.5, rel=1e-9)


# ---------------------------------------------------------------------------
# landscape

def test_landscape_command_end_to_end(tmp_path):
    out = tmp_path / "land"
    text = dedent(f"""
        [model]
        V = {HARMONIC}
        K = {BUMP_K}
        p = 3

        [landscape]
        region = -2, 2, -2, 2, -2, 2
        resolution = 7
        p_list = 3.0, 4.0, 4.5, 4.9
        seeds = 5

        [output]
        directory = {out}
    """)
    cfg_path = write_config(tmp_path / "land.ini", text)
    assert main(["landscape", cfg_path]) == 0

    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "critical_CritK.json",
        "critical_S.json",
        "critical_Sp.json",
        "critical_Sstar.json",
        "manifest.json",
        "p_drift.csv",
        "sigma_slices.csv",
        "sweep.csv",
    ]

    sweep = (out / "sweep.csv").read_text().strip().splitlines()
    assert sweep[0] == "z1,z2,z3,sigma,grad1,grad2,grad3,method"
    assert len(sweep) == 1 + 7**3

    slices = (out / "sigma_slices.csv").read_text().strip().splitlines()
    assert slices[0] == "t1,sigma_axis1,t2,sigma_axis2,t3,sigma_axis3"
    assert len(slices) == 1 + 101

    S = json.loads((out / "critical_S.json").read_text())
    Sp = json.loads((out / "critical_Sp.json").read_text())
    assert len(S["points"]) == len(Sp["points"]) == 1
    assert np.allclose(S["points"][0], Sp["points"][0], atol=1e-6)
    assert S["points"][0][0] == pytest.approx(0.360357, abs=1e-6)

    Sstar = json.loads((out / "critical_Sstar.json").read_text())
    assert np.allclose(Sstar["points"], S["points"], atol=1e-6)
    CritK = json.loads((out / "critical_CritK.json").read_text())
    assert np.allclose(CritK["points"], [[1.0, 0.0, 0.0]], atol=1e-6)

    drift = (out / "p_drift.csv").read_text().strip().splitlines()
    assert drift[0] == "p,dist_Sp_to_CritK"
    dist = [float(r.split(",")[1]) for r in drift[1:]]
    assert len(dist) == 4
    assert all(b < a for a, b in zip(dist, dist[1:]))
    assert dist[0] == pytest.approx(0.639643, abs=1e-5)


def test_landscape_is_deterministic(tmp_path):
    # every table and JSON output of a rerun, all but the manifest's timings
    outs = []
    for name in ("run", "again"):
        out = tmp_path / name
        text = (
            f"[model]\nV = {HARMONIC}\nK = {BUMP_K}\np = 3\n\n"
            "[landscape]\nregion = -2, 2, -2, 2, -2, 2\nresolution = 3\n"
            "p_list = 3.0, 4.0\nseeds = 2\n\n"
            f"[output]\ndirectory = {out}\n"
        )
        assert main(["landscape", write_config(tmp_path / f"{name}.ini", text)]) == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir() if p.name != "manifest.json")
    assert names == ["critical_CritK.json", "critical_S.json", "critical_Sp.json", "critical_Sstar.json",
                     "p_drift.csv", "sigma_slices.csv", "sweep.csv"]
    for name in names:
        assert (outs[1] / name).read_bytes() == (outs[0] / name).read_bytes(), name


def test_landscape_degenerate_model_writes_every_set_degenerate(tmp_path):
    # with V and K constant, Sigma, K and G = (5 - p) K grad V - 4 V grad K
    # are flat everywhere; for powers grad Sigma = Sigma G / (2 (p - 1) V K),
    # so S and S_p are one set, S* draws its candidates from it, and a
    # degenerate S_p lies in a degenerate Crit K at distance 0
    out = tmp_path / "flat"
    text = dedent(f"""
        [model]
        V = 1
        K = 1
        p = 3

        [landscape]
        region = -1, 1, -1, 1, -1, 1
        resolution = 5
        p_list = 2, 3, 4

        [output]
        directory = {out}
    """)
    assert main(["landscape", write_config(tmp_path / "flat.ini", text)]) == 0
    for kind in ("S", "Sp", "Sstar", "CritK"):
        data = json.loads((out / f"critical_{kind}.json").read_text())
        assert data["kind"] == kind
        assert data["degenerate"] is True
        assert data["points"] == [] and data["residuals"] == []
    drift = (out / "p_drift.csv").read_text().strip().splitlines()
    assert drift == ["p,dist_Sp_to_CritK", "2.0,0.0", "3.0,0.0", "4.0,0.0"]


def test_landscape_searches_each_set_once(tmp_path, monkeypatch):
    # the model's p = 3 is in p_list, so S_p is searched once per listed p
    # and Crit K once, shared by their JSON files and the drift study
    import spikemap.cli
    import spikemap.landscape

    # and each search is one batched Newton call: S, Crit K, S_p at 3 and 4
    calls = {"crit_K": 0, "find_Sp": 0, "_newton": 0}

    def counted(name):
        fn = getattr(spikemap.landscape, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        wrapped = counted(name)
        if hasattr(spikemap.cli, name):
            monkeypatch.setattr(spikemap.cli, name, wrapped)
        monkeypatch.setattr(spikemap.landscape, name, wrapped)
    out = tmp_path / "land"
    text = (
        f"[model]\nV = {HARMONIC}\nK = {BUMP_K}\np = 3\n\n"
        "[landscape]\nregion = -2, 2, -2, 2, -2, 2\nresolution = 3\n"
        "p_list = 3.0, 4.0\nseeds = 2\n\n"
        f"[output]\ndirectory = {out}\n"
    )
    assert main(["landscape", write_config(tmp_path / "land.ini", text)]) == 0
    assert calls == {"crit_K": 1, "find_Sp": 2, "_newton": 4}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failure"] is None
    assert "sweep_failures" not in manifest


def test_landscape_newton_iterate_past_the_float_range_ends_its_own_run(tmp_path, capsys):
    # V = exp(0.16 |x|^2) overflows where some S_p iterates wander; those
    # runs end unclean and the axis root of G still comes out
    out = tmp_path / "land"
    text = (
        "[model]\nV = exp(0.16*(x1^2 + x2^2 + x3^2))\n"
        f"K = {BUMP_K}\np = 3\n\n"
        "[landscape]\nregion = -2, 2, -2, 2, -2, 2\nresolution = 5\n"
        "p_list = 3.0, 4.9\nseeds = 4\n\n"
        f"[output]\ndirectory = {out}\n"
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["landscape", write_config(tmp_path / "land.ini", text)]) == 0
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""
    assert json.loads((out / "manifest.json").read_text())["failure"] is None

    # on the x1 axis G_1 / V = 0.64 x K + 4 (x - 1) exp(-(x - 1)^2) at p = 3
    def g(x):
        e = np.exp(-((x - 1.0) ** 2))
        return 0.64 * x * (1.0 + 0.5 * e) + 4.0 * (x - 1.0) * e

    lo, hi = 0.0, 1.0
    assert g(lo) < 0.0 < g(hi)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if g(mid) < 0.0 else (lo, mid)
    Sp = json.loads((out / "critical_Sp.json").read_text())
    assert Sp["p"] == 3.0 and len(Sp["points"]) == 1
    assert np.allclose(Sp["points"][0], [lo, 0.0, 0.0], rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("p_list", ["4.0, 3.0", "3.0, 3.0", "1.0, 3.0", "3.0, 5.0"])
def test_landscape_bad_p_list_exits_2_before_any_work(tmp_path, capsys, p_list):
    out = tmp_path / "land"
    text = (
        f"[model]\nV = {HARMONIC}\nK = {BUMP_K}\np = 3\n\n"
        f"[landscape]\nregion = -2, 2, -2, 2, -2, 2\nresolution = 7\np_list = {p_list}\n"
        "seeds = 2\n\n"
        f"[output]\ndirectory = {out}\n"
    )
    assert main(["landscape", write_config(tmp_path / "land.ini", text)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "p_list" in err
    assert not out.exists()


def test_landscape_that_solves_no_node_exits_3(tmp_path, capsys):
    # V / K = 1e30 is far beyond the shooting ladder at every node
    out = tmp_path / "land"
    text = (
        "[model]\nV = 1e30 + x1^2\nK = 1\nf = s\nF = s^2/4\ntheta = 4\n\n"
        "[landscape]\nregion = -1, 1, -1, 1, -1, 1\nresolution = 3\n\n"
        f"[output]\ndirectory = {out}\n"
    )
    assert main(["landscape", write_config(tmp_path / "land.ini", text)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("solver failure:") and "node 0" in err[0]
    failure = json.loads((out / "manifest.json").read_text())["failure"]
    assert failure.startswith("SolverError:") and "BracketError" in failure


def test_landscape_requires_region(tmp_path, capsys):
    text = frozen_config(tmp_path / "o") + "\n[landscape]\nresolution = 5\n"
    cfg_path = write_config(tmp_path / "noregion.ini", text)
    assert main(["landscape", cfg_path]) == 2
    assert "region" in capsys.readouterr().err


def test_landscape_p_list_needs_power(tmp_path, capsys):
    text = dedent(f"""
        [model]
        V = {HARMONIC}
        K = 1
        f = s
        F = s^2/4
        theta = 4.0

        [landscape]
        region = -1, 1, -1, 1, -1, 1
        resolution = 3
        p_list = 3.0, 4.0

        [output]
        directory = {tmp_path / "o"}
    """)
    cfg_path = write_config(tmp_path / "custom.ini", text)
    assert main(["landscape", cfg_path]) == 2
    assert "p_list" in capsys.readouterr().err


def test_power_model_commands_load_no_scipy(tmp_path):
    # scipy takes most of a power-model run's import time and only a custom
    # f's bracketed root solves need it; a fresh interpreter runs one of each
    # power-model command and must not have loaded it
    src = str(Path(__file__).resolve().parents[1] / "src")
    mag = write_config(tmp_path / "m.ini", (
        f"[model]\nV = {HARMONIC}\nK = 1\np = 3\nA1 = -0.25*x2\nA2 = 0.25*x1\nA3 = 0\n\n"
        "[solver]\ngrid_radius = 6.0\ngrid_points = 24\neps = 1.0\ntol = 1e-6\n\n"
        f"[diagnostics]\nreport = true\n\n[output]\ndirectory = {tmp_path / 'm'}\n"
    ))
    land = write_config(tmp_path / "l.ini", (
        f"[model]\nV = {HARMONIC}\nK = {BUMP_K}\np = 3\n\n"
        "[landscape]\nregion = -2, 2, -2, 2, -2, 2\nresolution = 5\np_list = 3.0, 4.0\n"
        f"seeds = 3\n\n[output]\ndirectory = {tmp_path / 'l'}\n"
    ))
    script = (
        "import sys\n"
        "import spikemap.cli as cli\n"
        f"codes = [cli.main(['solve-magnetic', {mag!r}]),\n"
        f"         cli.main(['verify', {mag!r}, {str(tmp_path / 'm' / 'solution_eps1.0.spkf')!r}]),\n"
        f"         cli.main(['landscape', {land!r}])]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split("\n")[-2] == "[0, 0, 0] []"
