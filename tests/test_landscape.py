import json

import numpy as np
import pytest
from scipy.optimize import brentq

from spikemap.cli import _write_json, main
from spikemap.fields import SolverError, make_grid
from spikemap.frozen_solver import BracketError, explicit_sigma_and_grad, ground_energy
import spikemap.landscape
from spikemap.landscape import (
    CriticalSetResult,
    GroundEnergyMap,
    LandscapeError,
    crit_K,
    find_S,
    find_Sp,
    find_Sstar,
    p_to_5_study,
    sweep_sigma,
)
from spikemap.magnetic_solver import solve_frozen_magnetic
from spikemap.model import EvalError, ModelSpec, Nonlinearity, ZERO_EXPR, parse_potential

E3 = 18.897251302545

BOX2 = ((-2.0, 2.0), (-2.0, 2.0), (-2.0, 2.0))


def mk_model(Vtxt="1", Ktxt="1", A=None, lam=1.0, p=3.0):
    Ae = tuple(parse_potential(t) for t in A) if A else (ZERO_EXPR, ZERO_EXPR, ZERO_EXPR)
    return ModelSpec(
        V=parse_potential(Vtxt),
        K=parse_potential(Ktxt),
        A=Ae,
        nonlin=Nonlinearity.power(lam, p),
    )


# the cubic power in disguise, as plain Python functions
def _plain_f(s):
    return np.asarray(s, dtype=np.float64)


def _plain_F(s):
    s = np.asarray(s, dtype=np.float64)
    return 0.25 * s**2


CUSTOM_V = "1 + 0.5*(x1^2 + x2^2 + x3^2)"
CUSTOM_K = "1 + 0.2*exp(-(x1^2 + x2^2 + x3^2)/4)"


def custom_model():
    return ModelSpec(
        V=parse_potential(CUSTOM_V),
        K=parse_potential(CUSTOM_K),
        A=(ZERO_EXPR, ZERO_EXPR, ZERO_EXPR),
        nonlin=Nonlinearity.custom(_plain_f, _plain_F, theta=4.0),
    )


@pytest.fixture(scope="module")
def custom_sweep():
    region = ((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0))
    emap = sweep_sigma(region, 3, custom_model(), n_shoot=250)
    return emap


# a smooth benchmark with one interior root of the balance equation on the
# x axis: harmonic well against a Gaussian bump of K at (1, 0, 0)
BUMP_V = "1 + x1^2 + x2^2 + x3^2"
BUMP_K = "1 + 0.5*exp(-((x1-1)^2 + x2^2 + x3^2))"


def bump_balance_root():
    def g(t):
        K = 1.0 + 0.5 * np.exp(-((t - 1.0) ** 2))
        dK = -(t - 1.0) * np.exp(-((t - 1.0) ** 2))
        return 4.0 * t * K - 4.0 * (1.0 + t**2) * dK

    return brentq(g, 0.0, 1.0, xtol=1e-14)


# ---------------------------------------------------------------------------
# sweeps

def test_sweep_constant_model_is_flat():
    emap = sweep_sigma(((-1, 1),) * 3, 3, mk_model())
    sig = emap.sigma_lattice()
    assert sig.shape == (3, 3, 3)
    assert np.allclose(sig, E3, rtol=0, atol=1e-9)
    assert np.allclose(emap.grad_lattice(), 0.0, atol=1e-12)
    assert emap.method == "explicit"
    assert emap.failures == []


def test_sweep_matches_closed_form_on_harmonic():
    model = mk_model(BUMP_V)
    emap = sweep_sigma(((-1.5, 1.5),) * 3, 5, model)
    pts = emap.points
    V = 1.0 + np.sum(pts**2, axis=1)
    want = E3 * np.sqrt(V)
    got = emap.samples
    assert np.allclose(got, want, rtol=1e-10)
    grads = emap.grad
    want_g = E3 * pts / np.sqrt(V)[:, None]
    assert np.allclose(grads, want_g, rtol=0, atol=1e-9 * E3)
    # the lattice minimum sits at the well bottom
    imin = int(np.argmin(got))
    assert np.allclose(pts[imin], 0.0)
    assert got[imin] == pytest.approx(E3, rel=1e-12)


def test_sweep_custom_nonlinearity_matches_power_twin(custom_sweep):
    # the custom pair is the cubic power written out by hand, so shooting
    # must land on the explicit formula at every lattice point
    twin = mk_model(CUSTOM_V, CUSTOM_K)
    pts = custom_sweep.points
    sig_want, grad_want = explicit_sigma_and_grad(pts, twin)
    sig_got = custom_sweep.samples
    assert custom_sweep.failures == []
    assert custom_sweep.method == "shooting"
    assert np.allclose(sig_got, sig_want, rtol=1e-6)
    grad_got = custom_sweep.grad
    assert np.allclose(grad_got, grad_want, rtol=0, atol=1e-6 * np.abs(grad_want).max())


def unsolvable_model(Vtxt, Ktxt):
    # K f(s) = V has no root on the ladder s in [1e-12, 1e12] where V/K > 1e12
    return ModelSpec(
        V=parse_potential(Vtxt),
        K=parse_potential(Ktxt),
        A=(ZERO_EXPR, ZERO_EXPR, ZERO_EXPR),
        nonlin=Nonlinearity.custom(_plain_f, _plain_F, theta=4.0),
    )


def run_landscape(out, text):
    cfg = out.parent / f"{out.name}.ini"
    cfg.write_text(f"{text}\n[output]\ndirectory = {out}\n")
    assert main(["landscape", str(cfg)]) == 0
    return out


@pytest.fixture(scope="module")
def unsolvable_run(tmp_path_factory):
    # unsolvable_model("1 + 1e13*x1^2", "2") as a config, on a 3 x 1 x 1 sweep
    return run_landscape(tmp_path_factory.mktemp("unsolvable") / "run", (
        "[model]\nV = 1 + 1e13*x1^2\nK = 2\nf = s\nF = s^2/4\ntheta = 4\n\n"
        "[landscape]\nregion = -1, 1, -1, 1, -1, 1\nresolution = 3, 1, 1\nseeds = 1\n"
    ))


def test_sweep_keeps_failed_nodes_as_nan_rows(unsolvable_run):
    # V/K = 5e12 at x1 = -1 and 1 cannot be shot; x1 = 0 is the cubic power
    # at V = 1, K = 2, whose ground energy is E3 / 2
    model = unsolvable_model("1 + 1e13*x1^2", "2")
    emap = sweep_sigma(((-1.0, 1.0),) * 3, (3, 1, 1), model, n_shoot=250)
    assert [i for i, _ in emap.failures] == [0, 2]
    assert all(msg.startswith("BracketError:") for _, msg in emap.failures)
    assert np.isnan(emap.samples[[0, 2]]).all() and np.isnan(emap.grad[[0, 2]]).all()
    assert emap.samples[1] == pytest.approx(E3 / 2.0, rel=1e-6)
    rows = (unsolvable_run / "sweep.csv").read_text().strip().splitlines()[1:]
    assert [r.split(",")[-1] for r in rows] == ["failed", "shooting", "failed"]
    assert rows[0].split(",")[3:7] == ["nan"] * 4
    # without a failures list the same shot raises
    with pytest.raises(BracketError):
        ground_energy(emap.points[0], model, 250)


def test_landscape_manifest_records_each_failed_node(unsolvable_run):
    man = json.loads((unsolvable_run / "manifest.json").read_text())
    assert man["failure"] is None
    failed = man["sweep_failures"]
    assert [f["index"] for f in failed] == [0, 2]
    # a one-node axis holds its lower end
    assert [f["point"] for f in failed] == [[-1.0, -1.0, -1.0], [1.0, -1.0, -1.0]]
    assert all(f["message"].startswith("BracketError: K f(s) never crosses V") for f in failed)


def test_sweep_that_solves_no_node_raises():
    model = unsolvable_model("1e30 + x1^2", "1")
    with pytest.raises(SolverError, match=r"node 0 at \[-1.0, -1.0, -1.0\]: BracketError"):
        sweep_sigma(((-1.0, 1.0),) * 3, 2, model, n_shoot=250)


def test_sweep_rejects_bad_region_and_resolution():
    with pytest.raises(LandscapeError):
        sweep_sigma(((1.0, -1.0), (-1.0, 1.0), (-1.0, 1.0)), 3, mk_model())
    with pytest.raises(LandscapeError):
        sweep_sigma(((-1.0, 1.0),) * 3, 0, mk_model())


def test_ground_energy_map_validates_samples():
    z, g = np.zeros((1, 3)), np.zeros((1, 3))
    with pytest.raises(LandscapeError):
        GroundEnergyMap(((-1, 1),) * 3, (2, 1, 1), z, np.array([E3]), g, "explicit")
    with pytest.raises(LandscapeError):
        GroundEnergyMap(((-1, 1),) * 3, (1, 1, 1), z, np.array([-1.0]), g, "explicit")


# ---------------------------------------------------------------------------
# critical set of the ground energy

def test_find_S_harmonic_single_minimum():
    model = mk_model(BUMP_V)
    emap = sweep_sigma(((-1.5, 1.5),) * 3, 9, model)
    out = find_S(emap, model)
    assert out.kind == "S"
    assert out.method == "newton-explicit"
    assert not out.degenerate
    assert len(out.points) == 1
    assert np.linalg.norm(out.points[0]) < 1e-9
    assert out.residuals[0] < 1e-8


def test_find_S_flat_potential_follows_the_bump():
    model = mk_model("1", "1 + 0.5*exp(-((x1-1)^2 + x2^2 + x3^2))")
    emap = sweep_sigma(BOX2, 9, model)
    out = find_S(emap, model)
    assert len(out.points) == 1
    assert np.allclose(out.points[0], (1.0, 0.0, 0.0), atol=1e-6)


def test_find_S_constant_sigma_is_degenerate():
    model = mk_model()
    emap = sweep_sigma(((-1, 1),) * 3, 5, model)
    out = find_S(emap, model)
    assert out.degenerate
    assert out.points == []
    assert any("constant" in n for n in out.notes)


def test_find_S_custom_route_reports_clarke_members(custom_sweep):
    # no closed form for a custom pair, so membership is decided by the
    # sampled Clarke test; sigma is the twin's exact one
    twin = mk_model(CUSTOM_V, CUSTOM_K)
    sigma = lambda z: explicit_sigma_and_grad(np.asarray(z, dtype=np.float64), twin)[0]
    out = find_S(custom_sweep, custom_model(), sigma=sigma)
    assert out.method == "clarke-sampled"
    assert len(out.points) == 1
    assert np.allclose(out.points[0], 0.0)
    assert out.residuals[0] == 0.0


# ---------------------------------------------------------------------------
# the balance set and critical points of K

@pytest.mark.parametrize("p", [3.0, 4.5])
def test_find_Sp_harmonic_origin(p):
    model = mk_model(BUMP_V)
    out = find_Sp(model, p, ((-1, 1),) * 3, seeds=3)
    assert out.kind == "Sp"
    assert out.p == p
    assert len(out.points) == 1
    assert np.linalg.norm(out.points[0]) < 1e-9


def test_find_Sp_flat_potential_reduces_to_crit_K():
    # with V flat the balance field is a multiple of grad K, so away from
    # the bump core it decays monotonically and Newton walks into the tail;
    # seed inside the core, plus one escaping and one tail seed to check
    # that both get rejected rather than reported
    model = mk_model("1", "1 + 0.5*exp(-((x1-0.5)^2 + (x2+0.25)^2 + x3^2))")
    seeds = [(0.4, -0.2, 0.1), (0.0, 0.0, 0.0), (1.2, 1.2, 1.2)]
    sp = find_Sp(model, 3.0, ((-1.5, 1.5),) * 3, seeds=seeds)
    ck = crit_K(model, ((-1.5, 1.5),) * 3, seeds=seeds)
    assert len(sp.points) == 1 and len(ck.points) == 1
    assert np.allclose(sp.points[0], ck.points[0], atol=1e-9)
    assert np.allclose(ck.points[0], (0.5, -0.25, 0.0), atol=1e-8)


def test_find_Sp_matches_scalar_bisection_oracle():
    model = mk_model(BUMP_V, BUMP_K)
    out = find_Sp(model, 3.0, BOX2, seeds=5)
    assert len(out.points) == 1
    root = bump_balance_root()
    assert out.points[0][0] == pytest.approx(root, abs=1e-8)
    assert abs(out.points[0][1]) < 1e-9 and abs(out.points[0][2]) < 1e-9
    # recompute the balance residual from the analytic gradients
    z = np.asarray(out.points[0])
    v, gv = model.V.value_and_gradient(z)
    k, gk = model.K.value_and_gradient(z)
    G = 2.0 * k * gv - 4.0 * v * gk
    assert np.linalg.norm(G) < 1e-8 * (1.0 + np.linalg.norm(gv) + np.linalg.norm(gk))


def test_find_Sp_guards():
    model = mk_model(BUMP_V)
    with pytest.raises(LandscapeError):
        find_Sp(model, 5.0, BOX2)
    with pytest.raises(LandscapeError):
        find_Sp(model, 1.0, BOX2)
    with pytest.raises(LandscapeError):
        find_Sp(custom_model(), 3.0, BOX2)


def test_crit_K_gaussian_bump():
    model = mk_model("1", BUMP_K)
    out = crit_K(model, BOX2, seeds=5)
    assert out.kind == "CritK"
    assert len(out.points) == 1
    assert np.allclose(out.points[0], (1.0, 0.0, 0.0), atol=1e-9)
    assert out.residuals[0] < 1e-10


def test_crit_K_constant_is_degenerate():
    out = crit_K(mk_model(), ((-1, 1),) * 3)
    assert out.degenerate
    assert out.points == []


def test_crit_K_two_bumps_finds_all_three():
    # two maxima and the saddle between them, and nothing from the flat
    # tails where the gradient is small without vanishing
    model = mk_model("1", "1 + 0.6*exp(-((x1-1)^2 + x2^2 + x3^2)) + 0.6*exp(-((x1+1)^2 + x2^2 + x3^2))")
    out = crit_K(model, BOX2, seeds=5)
    assert len(out.points) == 3
    xs = sorted(p[0] for p in out.points)

    def dK(x):
        return -1.2 * (x - 1.0) * np.exp(-((x - 1.0) ** 2)) - 1.2 * (x + 1.0) * np.exp(-((x + 1.0) ** 2))

    x_max = brentq(dK, 0.5, 1.5, xtol=1e-14)
    assert xs[0] == pytest.approx(-x_max, abs=1e-8)
    assert abs(xs[1]) < 1e-9
    assert xs[2] == pytest.approx(x_max, abs=1e-8)
    for pt in out.points:
        assert abs(pt[1]) < 1e-8 and abs(pt[2]) < 1e-8


def test_S_and_Sp_agree_on_smooth_model():
    model = mk_model(BUMP_V, BUMP_K)
    emap = sweep_sigma(BOX2, 9, model)
    s = find_S(emap, model)
    sp = find_Sp(model, 3.0, BOX2, seeds=5)
    assert len(s.points) == len(sp.points) == 1
    assert np.linalg.norm(np.asarray(s.points[0]) - sp.points[0]) < 1e-6


# ---------------------------------------------------------------------------
# the batched Newton kernel

def _search_fields(monkeypatch):
    """The vector fields find_S, crit_K and find_Sp hand to _newton on the
    bump model: grad Sigma, grad K, and G at p = 3 and at p = 4.9."""
    fields = []
    newton = spikemap.landscape._newton

    def record(grad_fn, z0, span, *args, **kwargs):
        fields.append(grad_fn)
        return newton(grad_fn, z0, span, *args, **kwargs)

    monkeypatch.setattr(spikemap.landscape, "_newton", record)
    model = mk_model(BUMP_V, BUMP_K)
    find_S(sweep_sigma(BOX2, 5, model), model)
    crit_K(model, BOX2, seeds=2)
    for p in (3.0, 4.9):
        find_Sp(model, p, BOX2, seeds=2)
    monkeypatch.setattr(spikemap.landscape, "_newton", newton)
    return dict(zip(["grad_sigma", "grad_K", "G_3", "G_4.9"], fields))


def _same_rows(batch, alone):
    assert all(np.array_equal(b, a, equal_nan=True) for b, a in zip(batch, alone))


def test_batched_newton_rows_equal_their_lone_runs(monkeypatch):
    span = float(np.linalg.norm([4.0, 4.0, 4.0]))
    starts = spikemap.landscape._lattice(np.asarray(BOX2), (5, 5, 5))
    fields = _search_fields(monkeypatch)
    assert len(fields) == 4
    unclean = {}
    for name, fn in fields.items():
        z, r, clean = spikemap.landscape._newton(fn, starts, span)
        for i, z0 in enumerate(starts):
            _same_rows((z[i : i + 1], r[i : i + 1], clean[i : i + 1]),
                       spikemap.landscape._newton(fn, z0[None], span))
        unclean[name] = int(np.count_nonzero(~clean))
    # near p = 5 most starts run off, so the batch mixes stopped and running rows
    assert unclean["G_4.9"] > 100 and unclean["G_3"] < unclean["G_4.9"]


def test_singular_jacobian_ends_only_its_row():
    # the difference Jacobian of (z1^2, z2, z3) is exactly singular at z1 = 0
    field = lambda z: np.stack([z[..., 0] ** 2, z[..., 1], z[..., 2]], axis=-1)
    starts = np.array([[0.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
    z, r, clean = spikemap.landscape._newton(field, starts, 1.0)
    assert not clean[0]
    assert np.array_equal(z[0], starts[0]) and r[0] == np.sqrt(2.0)
    _same_rows((z[1:], r[1:], clean[1:]), spikemap.landscape._newton(field, starts[1:], 1.0))
    assert clean[1] and r[1] < 1e-10


def test_evaluation_error_ends_only_its_row():
    def field(z):
        if np.any(np.abs(z) > 3.0):
            raise EvalError("outside the range of the stub")
        return z - np.array([0.5, -0.25, 0.0])

    starts = np.array([[5.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    z, r, clean = spikemap.landscape._newton(field, starts, 1.0)
    assert not clean[0] and np.isnan(r[0])
    _same_rows((z[1:], r[1:], clean[1:]), spikemap.landscape._newton(field, starts[1:], 1.0))
    assert clean[1] and np.allclose(z[1], (0.5, -0.25, 0.0), atol=1e-12)


# ---------------------------------------------------------------------------
# weak membership

def test_Sstar_accepts_the_origin_of_a_well():
    model = mk_model(BUMP_V)
    out = find_Sstar(model, [(0.0, 0.0, 0.0)])
    assert out.method == "moments"
    assert len(out.points) == 1
    assert out.residuals[0] == 0.0


def test_Sstar_rejects_off_balance_candidates():
    model = mk_model(BUMP_V, BUMP_K)
    root = bump_balance_root()
    out = find_Sstar(model, [(root, 0.0, 0.0), (0.5, 0.0, 0.0)])
    assert len(out.points) == 1
    assert out.points[0][0] == pytest.approx(root, abs=1e-12)
    assert out.residuals[0] < 1e-6
    assert any("rejected" in n for n in out.notes)


def test_Sstar_provider_route_uses_gamma_brackets():
    model = mk_model(BUMP_V, A=("-0.25*x2", "0.25*x1", "0"))
    sol = solve_frozen_magnetic((0.0, 0.0, 0.0), model, make_grid(9.0, 32), tol=1e-6)
    out = find_Sstar(model, [(0.0, 0.0, 0.0)], solutions_provider=lambda z: [sol.u])
    assert out.method == "gamma-pm"
    assert len(out.points) == 1
    assert out.residuals[0] < 1e-6


# ---------------------------------------------------------------------------
# drift toward critical points of K

def drift(model, p_list, region, seeds):
    """The drift study over one Crit K search and one S_p search per p."""
    sps = [find_Sp(model, p, region, seeds) for p in p_list]
    return p_to_5_study(crit_K(model, region, seeds), sps)


def test_drift_study_flat_potential_sits_at_zero():
    # same Newton iterates for the balance field and for grad K when V is
    # flat, so both sets land on identical floats and the distance is exact
    model = mk_model("1", BUMP_K)
    seeds = [(0.9, 0.1, -0.1), (1.1, 0.0, 0.0)]
    study = drift(model, [3.0, 4.5], BOX2, seeds)
    assert study.distances == [0.0, 0.0]
    assert study.monotone_decreasing


def test_drift_study_degenerate_K_reports_zero():
    study = drift(mk_model(BUMP_V), [3.0, 4.5], ((-1, 1),) * 3, 3)
    assert study.distances == [0.0, 0.0]


def test_drift_study_reads_a_degenerate_S_p_only_against_a_degenerate_crit_K():
    flat_sp = CriticalSetResult("Sp", [], [], p=3.0, degenerate=True)
    flat_ck = CriticalSetResult("CritK", [], [], degenerate=True)
    assert p_to_5_study(flat_ck, [flat_sp]).distances == [0.0]
    ck = CriticalSetResult("CritK", [np.array([1.0, 0.0, 0.0])], [0.0])
    study = p_to_5_study(ck, [flat_sp])
    assert study.gaps == [3.0] and np.isnan(study.distances[0])


def test_drift_study_regression_on_bump_model():
    model = mk_model(BUMP_V, BUMP_K)
    study = drift(model, [3.0, 4.0, 4.5, 4.9], BOX2, 5)
    want = [0.639643, 0.371253, 0.187907, 0.037508]
    assert study.distances == pytest.approx(want, abs=1e-5)
    assert study.monotone_decreasing
    assert study.gaps == []
    d = study.distances
    assert all(b < a for a, b in zip(d, d[1:]))
    assert d[-1] < d[0] / 2.0


def test_drift_study_with_empty_crit_K_records_gaps():
    # a 4-point seed lattice on [-2, 2] lands no Newton run on the bump at
    # (1, 0, 0); K is not constant, so there is nothing to measure to
    model = mk_model(BUMP_V, BUMP_K)
    ck = crit_K(model, BOX2, seeds=4)
    assert ck.points == [] and not ck.degenerate
    study = p_to_5_study(ck, [find_Sp(model, p, BOX2, seeds=4) for p in (3.0, 4.0)])
    assert study.gaps == [3.0, 4.0]
    assert all(np.isnan(d) for d in study.distances)
    assert study.monotone_decreasing is False


def test_drift_study_guards():
    ck = CriticalSetResult("CritK", [np.array([1.0, 0.0, 0.0])], [0.0])
    for p_list in ([3.0, 3.0], [4.0, 3.0]):
        sps = [CriticalSetResult("Sp", [], [], p=p) for p in p_list]
        with pytest.raises(LandscapeError):
            p_to_5_study(ck, sps)


# ---------------------------------------------------------------------------
# writers: the CLI's, on the results of this module

def test_write_sweep_csv_round_trip(tmp_path):
    model = mk_model(BUMP_V)
    emap = sweep_sigma(((-1, 1),) * 3, 3, model)
    text = (f"[model]\nV = {BUMP_V}\nK = 1\np = 3\n\n"
            "[landscape]\nregion = -1, 1, -1, 1, -1, 1\nresolution = 3\nseeds = 1\n")
    path = run_landscape(tmp_path / "run", text) / "sweep.csv"
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "z1,z2,z3,sigma,grad1,grad2,grad3,method"
    assert len(lines) == 1 + 27
    first = lines[1].split(",")
    assert float(first[3]) == emap.samples[0]
    again = run_landscape(tmp_path / "again", text) / "sweep.csv"
    assert again.read_bytes() == path.read_bytes()


def test_write_critical_json_round_trip(tmp_path):
    result = CriticalSetResult(
        kind="Sp",
        points=[np.array([0.25, 0.0, -0.5])],
        residuals=[1.5e-9],
        p=3.0,
        method="newton-analytic",
        notes=["one candidate kept"],
    )
    path = tmp_path / "crit.json"
    _write_json(path, vars(result))
    data = json.loads(path.read_text())
    assert data["kind"] == "Sp"
    assert data["p"] == 3.0
    assert data["degenerate"] is False
    assert data["points"] == [[0.25, 0.0, -0.5]]
    assert data["residuals"] == [1.5e-9]
    assert data["notes"] == ["one candidate kept"]
