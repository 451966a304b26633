import struct
import tracemalloc

import numpy as np
import pytest

from spikemap import fields, magnetic_solver
from spikemap.fields import (
    Field3,
    Grid3,
    Hamiltonian,
    apply_link_kinetic,
    boundary_fraction,
    const_link_phases,
    link_table,
    make_grid,
    read_snapshot,
    write_snapshot,
)
from spikemap.diagnostics import _grad4
from spikemap.magnetic_solver import solve_magnetic
from spikemap.model import ModelSpec, Nonlinearity, parse_potential


def gauss_field(grid, sigma=1.2):
    X1, X2, X3 = grid.meshgrid()
    return Field3(grid, np.exp(-(X1**2 + X2**2 + X3**2) / (2 * sigma**2)))


# ---------------------------------------------------------------------------
# grid and quadrature


def test_grid_rejects_tiny_axes():
    with pytest.raises(ValueError):
        Grid3(dims=(4, 16, 16), spacing=0.1)
    with pytest.raises(ValueError):
        Grid3(dims=(16, 16, 16), spacing=-0.1)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_field_keeps_a_real_or_complex_dtype(dtype):
    g = make_grid(radius=1.0, n=8)
    assert Field3(g, np.ones(g.dims, dtype=dtype)).values.dtype == dtype


@pytest.mark.parametrize("dtype", [np.int64, np.float32, np.complex64])
def test_field_rejects_any_other_dtype(dtype):
    g = make_grid(radius=1.0, n=8)
    with pytest.raises(ValueError, match="float64 or complex128"):
        Field3(g, np.ones(g.dims, dtype=dtype))


def test_make_grid_geometry():
    g = make_grid(radius=5.0, n=21)
    assert g.dims == (21, 21, 21)
    ax = g.axis(0)
    assert ax[0] == pytest.approx(-5.0)
    assert ax[-1] == pytest.approx(5.0)
    assert g.spacing == pytest.approx(0.5)


def test_boundary_fraction_counts_the_outer_shell():
    g = make_grid(radius=3.0, n=24)
    assert boundary_fraction(np.ones(g.dims)) == pytest.approx(1.0 - (22 / 24) ** 3, rel=1e-14)
    inner = np.zeros(g.dims)
    inner[1:-1, 1:-1, 1:-1] = 1.0
    assert boundary_fraction(inner) == 0.0
    assert boundary_fraction(np.zeros(g.dims)) == 0.0


# ---------------------------------------------------------------------------
# difference operators


def test_gradient_exact_on_affine():
    # the fourth-order interior and the second-order border, one-sided on
    # the faces, are both exact on an affine field
    g = make_grid(radius=2.0, n=16)
    X1, X2, X3 = g.meshgrid()
    grad = _grad4(3.0 * X1 - 2.0 * X2 + 0.5 * X3 + 7.0, g.spacing)
    assert np.allclose(grad[0], 3.0, rtol=0.0, atol=1e-12)
    assert np.allclose(grad[1], -2.0, rtol=0.0, atol=1e-12)
    assert np.allclose(grad[2], 0.5, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# link-phase kinetic operator


def test_link_kinetic_annihilates_matched_plane_wave():
    # with constant A the phased hops multiply to exactly the plane-wave
    # increments, so the matched wave is in the kernel up to rounding
    g = make_grid(radius=2.0, n=32)
    a = np.array([0.7, 0.2, -0.5])
    eps = 0.25
    X = g.meshgrid()
    phase = (a[0] * X[0] + a[1] * X[1] + a[2] * X[2]) / eps
    u = np.exp(1j * phase)
    out = apply_link_kinetic(u, link_table(g, const_link_phases(g, a, eps)), eps, g.spacing)
    inner = (slice(3, -3),) * 3
    assert np.max(np.abs(out[inner])) < 1e-12 * np.max(np.abs(u))


def test_link_kinetic_form_positive():
    rng = np.random.default_rng(11)
    g = make_grid(radius=1.5, n=16)
    phases = const_link_phases(g, np.array([0.3, -0.8, 0.1]), 0.7)
    # with V = 0 the quadratic form is the kinetic form alone
    H = Hamiltonian(g, 0.7, 0.0, 1.0, None, phases)
    for _ in range(5):
        u = rng.standard_normal(g.dims) + 1j * rng.standard_normal(g.dims)
        q = H.quad(u, H.apply(u))
        assert q >= 0.0


def test_link_kinetic_matches_free_laplacian_when_gauge_free():
    g = make_grid(radius=2.0, n=32)
    f = gauss_field(g, 0.5)
    links = link_table(g, const_link_phases(g, np.zeros(3), 1.0))
    out = apply_link_kinetic(f.values.astype(complex), links, 1.0, g.spacing)
    inner = (slice(3, -3),) * 3
    # compare against the continuum -Lap of the Gaussian
    X1, X2, X3 = g.meshgrid()
    r2 = X1**2 + X2**2 + X3**2
    s2 = 0.25
    cont = -(r2 / s2**2 - 3.0 / s2) * f.values
    assert np.max(np.abs(out[inner] - cont[inner])) < 2e-3 * np.max(np.abs(cont))


def test_phase_free_kinetic_keeps_real_fields_real():
    # the table without phases is the same stencil as unit phases, without
    # the complex detour
    g = make_grid(radius=2.0, n=24)
    f = gauss_field(g, 0.5).values
    free = apply_link_kinetic(f, link_table(g, None), 0.8, g.spacing)
    unit = apply_link_kinetic(f, link_table(g, const_link_phases(g, np.zeros(3), 0.8)), 0.8, g.spacing)
    assert free.dtype == np.float64
    assert np.allclose(free, unit.real, rtol=0.0, atol=1e-13 * np.abs(free).max())
    assert np.all(unit.imag == 0.0)


# ---------------------------------------------------------------------------
# the flat-offset stencil against the np.roll stencil and the slab kernel

_C0, _C1, _C2, _C3 = -49.0 / 18.0, 1.5, -3.0 / 20.0, 1.0 / 90.0


def _roll_hop(u, k, axis):
    """u shifted by k nodes along axis, zero where the source left the box."""
    v = np.roll(u, -k, axis=axis)
    sl = [slice(None)] * 3
    sl[axis] = slice(-k, None) if k > 0 else slice(None, -k)
    v[tuple(sl)] = 0.0
    return v


def _roll_stencil(u, links, eps, h):
    """The kinetic operator as whole-array wrapped shifts with the wrapped
    slots zeroed, an independent route to the same sums: it forms the double
    and triple hops as products of the walled single hops and their rolls,
    and reads them only where a hop stays in the box."""
    out = np.zeros(u.shape, dtype=np.result_type(u, links[0]))
    for m in range(3):
        p1 = links[m]
        p2 = p1 * np.roll(p1, -1, axis=m)
        p3 = p2 * np.roll(p1, -2, axis=m)
        t1 = p1 * _roll_hop(u, 1, m) + _roll_hop(np.conj(p1) * u, -1, m)
        t2 = p2 * _roll_hop(u, 2, m) + _roll_hop(np.conj(p2) * u, -2, m)
        t3 = p3 * _roll_hop(u, 3, m) + _roll_hop(np.conj(p3) * u, -3, m)
        out += (-_C0) * u - _C1 * t1 - _C2 * t2 - _C3 * t3
    return (eps * eps / (h * h)) * out


def _slab_stencil(u, phases, eps, h):
    """The slab-update stencil the flat-offset one replaced, as it stood:
    phases None for free hops, else the walled single hops, whose double and
    triple hops it forms whole and reads on the hops inside the box."""
    u = np.ascontiguousarray(u)
    out = (-3.0 * _C0) * (u if phases is None else u.astype(np.complex128, copy=False))
    for m in range(3):
        U, O = np.moveaxis(u, m, 2), np.moveaxis(out, m, 2)
        if phases is not None:
            p2 = phases[m] * np.roll(phases[m], -1, axis=m)
            hops = (phases[m], p2, p2 * np.roll(phases[m], -2, axis=m))
        for k, c in ((1, _C1), (2, _C2), (3, _C3)):
            P = None if phases is None else np.moveaxis(hops[k - 1], m, 2)
            for i in range(0, U.shape[0], 8):
                lo, hi = np.s_[i:i + 8, :, :-k], np.s_[i:i + 8, :, k:]
                if P is None:
                    O[lo] -= c * U[hi]
                    O[hi] -= c * U[lo]
                else:
                    O[lo] -= c * (P[lo] * U[hi])
                    O[hi] -= c * (np.conj(P[lo]) * U[lo])
    out *= eps * eps / (h * h)
    return out


def bench_model():
    """V = 1 + |x|^2, K = 1, p = 3, A = (-x2/4, x1/4, 0): a uniform field B = e3 / 2."""
    return ModelSpec(
        V=parse_potential("1 + x1^2 + x2^2 + x3^2"),
        K=parse_potential("1"),
        A=(parse_potential("-0.25*x2"), parse_potential("0.25*x1"), parse_potential("0")),
        nonlin=Nonlinearity.power(1.0, 3.0),
    )


def _stencil_case(kind, dims):
    """(grid, field, single-hop factors or None for free hops)."""
    g = Grid3(dims, 12.0 / (max(dims) - 1))
    rng = np.random.default_rng(sum(dims))
    u = rng.standard_normal(g.dims)
    if kind == "free-real":
        return g, u, None
    u = u + 1j * rng.standard_normal(g.dims)
    if kind == "free-complex":
        return g, u, None
    if kind == "const":
        return g, u, const_link_phases(g, np.array([0.3, -0.8, 0.1]), 0.7)
    return g, u, bench_model().link_phases(g, 0.7)


@pytest.mark.parametrize("order", ["C", "F"])
# the last box has three axis lengths, the first axis the shortest
@pytest.mark.parametrize("dims", [(12, 12, 12), (20, 20, 20), (9, 20, 13)])
@pytest.mark.parametrize("kind", ["free-real", "free-complex", "const", "bench"])
def test_slice_stencil_matches_roll_oracle(kind, dims, order):
    g, u, p1s = _stencil_case(kind, dims)
    links = link_table(g, p1s)
    u = np.asarray(u, order=order)
    out = apply_link_kinetic(u, links, 0.7, g.spacing)
    ref = _roll_stencil(u, links, 0.7, g.spacing)
    assert out.dtype == ref.dtype
    if kind == "free-real":
        assert out.dtype == np.float64
    assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))
    # the slab kernel makes the same multiplications in the same order, but
    # forms its longer hops as whole arrays, which at numpy 2.4.6 can move
    # the last bit of a complex product (157 nodes of a 48^3 stencil on the
    # bench phases), so it agrees to rounding; it never reads the walled hops
    slab = _slab_stencil(u, None if p1s is None else links, 0.7, g.spacing)
    assert out.dtype == slab.dtype
    assert np.max(np.abs(out - slab)) <= 1e-14 * np.max(np.abs(slab))


def _flat_stencil(u, links, eps, h):
    """The unblocked flat-offset kernel the blocked one replaced, as it
    stood: whole-field passes through one scratch and one hop buffer."""
    u = np.ascontiguousarray(u)
    out = (-3.0 * _C0) * u.astype(np.result_type(u, links[0]), copy=False)
    uf, of, buf = u.reshape(-1), out.reshape(-1), np.empty(out.size, out.dtype)
    hop = np.empty(u.size, links[0].dtype)
    for m in range(3):
        s = u.strides[m] // u.itemsize
        p1 = links[m].reshape(-1)
        for k, c in ((1, _C1), (2, _C2), (3, _C3)):
            o = k * s
            # p_k = p_(k-1) p1[(k-1) s:], formed in place in hop
            p = p1[:-o] if k == 1 else np.multiply(p1[:-o] if k == 2 else hop[:-o], p1[o - s:-s], out=hop[:-o])
            b = buf[:-o]
            np.multiply(p, uf[o:], out=b)
            of[:-o] -= np.multiply(b, c, out=b)
            np.multiply(np.conjugate(p, out=b), uf[:-o], out=b)
            of[o:] -= np.multiply(b, c, out=b)
    out *= eps * eps / (h * h)
    return out


@pytest.mark.parametrize("order", ["C", "F"])
# 26,970 nodes end in a part block; on axis 0 the triple hop of (9, 80, 80),
# 19,200 nodes, is longer than a block, so a block's hop window starts more
# than a block before it; the double hop of (9, 100, 100) is too, so the
# window also holds the gap between the forward and backward spans, and the
# single hop of (8, 130, 130) is too, so it holds the gap between the two
# backward spans as well
@pytest.mark.parametrize("dims", [(12, 12, 12), (20, 20, 20), (9, 20, 13), (30, 31, 29), (9, 80, 80),
                                  (9, 100, 100), (8, 130, 130)])
@pytest.mark.parametrize("kind", ["free-real", "free-complex", "const", "bench"])
def test_blocked_stencil_has_the_flat_kernels_bits(kind, dims, order):
    # every node's sum takes the flat kernel's operations in its order, so
    # blocking moves no bit
    g, u, p1s = _stencil_case(kind, dims)
    links = link_table(g, p1s)
    u = np.asarray(u, order=order)
    out = apply_link_kinetic(u, links, 0.7, g.spacing)
    ref = _flat_stencil(u, links, 0.7, g.spacing)
    assert out.dtype == ref.dtype
    assert np.array_equal(out, ref)


@pytest.mark.parametrize("kind", ["free-real", "const", "bench"])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_link_table_walls_exactly_the_hops_that_leave_the_box(kind, m):
    # the table is the single hops alone, each 0 on the last plane of its
    # axis and unchanged elsewhere; test_stencil_does_not_wrap_around_the_box
    # covers the longer hops the stencil forms from them
    g, _, p1s = _stencil_case(kind, (9, 20, 13))
    p1 = np.ones(g.dims) if p1s is None else p1s[m].copy()
    links = link_table(g, p1s)
    assert len(links) == 3
    n = g.dims[m]
    p = np.moveaxis(links[m], m, 0)
    assert np.all(p[n - 1] == 0.0)
    assert np.array_equal(p[:n - 1], np.moveaxis(p1, m, 0)[:n - 1])
    if p1s is None:
        assert links[m].dtype == np.float64
    else:
        # walled in place
        assert links[m] is p1s[m]


@pytest.mark.parametrize("kind", ["free-complex", "const", "bench"])
def test_stencil_is_self_adjoint(kind):
    g, _, p1s = _stencil_case(kind, (16, 16, 16))
    links = link_table(g, p1s)
    rng = np.random.default_rng(5)
    for _ in range(3):
        u, v = (rng.standard_normal(g.dims) + 1j * rng.standard_normal(g.dims) for _ in range(2))
        Tu, Tv = (apply_link_kinetic(w, links, 0.7, g.spacing) for w in (u, v))
        lhs, rhs = np.vdot(v, Tu).real, np.vdot(Tv, u).real
        # relative to the Cauchy-Schwarz bound: random fields make the
        # inner product itself a heavily cancelling sum
        assert abs(lhs - rhs) <= 1e-13 * np.linalg.norm(v) * np.linalg.norm(Tu)


@pytest.mark.parametrize("phased", [False, True])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_stencil_does_not_wrap_around_the_box(axis, phased):
    # a spike on the face i = 0 reaches three nodes inward and nothing on
    # the far side of the box
    g = make_grid(radius=6.0, n=12)
    n = g.dims[axis]
    u = np.zeros(g.dims, dtype=np.complex128)
    spot = [n // 2] * 3
    spot[axis] = 0
    u[tuple(spot)] = 1.0
    links = link_table(g, bench_model().link_phases(g, 0.7) if phased else None)
    out = apply_link_kinetic(u, links, 0.7, g.spacing)
    far = [slice(None)] * 3
    far[axis] = slice(n - 3, n)
    assert np.all(out[tuple(far)] == 0.0)
    near = list(spot)
    near[axis] = 3
    assert out[tuple(near)] != 0.0


def _traced_peak(fn, *args):
    """The peak of tracemalloc's traced memory over one call of fn."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dims", [(12, 12, 12), (24, 24, 24), (48, 48, 48), (9, 100, 100), (8, 130, 130)],
                         ids=["12", "24", "48", "9x100x100", "8x130x130"])
def test_stencil_holds_three_hops_and_allocates_the_result_and_two_block_buffers(dims):
    # the three single hops the Hamiltonian holds, and per call the result, a
    # scratch buffer of one block and a hop buffer of one window, the block
    # and the triple hop behind it, plus numpy's per-call bookkeeping: 4.36
    # fields at 48^3, where the unblocked kernel took 6.0; one block covers a
    # 24^3 box, and on axis 0 of the last two boxes 2 s, then s, exceeds a block
    g = Grid3(dims, 12.0 / (max(dims) - 1))
    H = Hamiltonian.from_model(bench_model(), g, 0.7)
    rng = np.random.default_rng(2)
    u = rng.standard_normal(g.dims) + 1j * rng.standard_normal(g.dims)
    held = sum(p.nbytes for p in H.links)
    blk = min(fields._BLOCK, u.size)
    buffers = (blk + min(u.size, blk + 3 * dims[1] * dims[2])) * u.itemsize
    assert held + _traced_peak(H.apply, u) <= 4 * u.nbytes + buffers + 4096


@pytest.mark.parametrize("n", [32, 48])
def test_descent_traces_at_most_nine_fields_above_its_input(n):
    # u, Tu, d, the last residual, Td and the real eta, |u|^2, b, c and a
    # trial's |u + a d|^2 with the pairing's temporaries: 8.5 complex fields,
    # where 12.5 were traced while z, kf and a trial's arrays outlived their
    # reads
    g = make_grid(radius=9.0, n=n)
    H = Hamiltonian.from_model(bench_model(), g, 1.0)
    seed = magnetic_solver._seed_field(bench_model(), g, 1.0, "frozen", 0, None)
    trace = []
    assert _traced_peak(H.descend, seed, 1e-6, 500, trace) <= 9 * seed.nbytes
    assert len(trace) > 10


def test_diamagnetic_slack_traces_at_most_one_field():
    # slabs of whole x1-planes: 0.77 fields at 48^3, where the whole-grid
    # pass held 3.91
    g = make_grid(radius=9.0, n=48)
    H = Hamiltonian.from_model(bench_model(), g, 1.0)
    rng = np.random.default_rng(4)
    u = rng.standard_normal(g.dims) + 1j * rng.standard_normal(g.dims)
    assert _traced_peak(H.diamagnetic_slack, u) <= u.nbytes


def test_from_model_traces_at_most_6_6_fields():
    # the three hops, V, K and the mask: 4.5 complex 48^3 fields held, and
    # 6.08 traced with each axis's phases built in one complex buffer and
    # each shifted coordinate freed after its node, where exp(-1j * theta)
    # traced 7.5
    g = make_grid(radius=9.0, n=48)
    field = 16 * g.dims[0] * g.dims[1] * g.dims[2]
    assert _traced_peak(Hamiltonian.from_model, bench_model(), g, 1.0) <= 6.6 * field


@pytest.mark.parametrize("dims", [(48, 48, 48), (37, 20, 61)])
def test_diamagnetic_slack_in_slabs_has_the_bits_of_one_whole_grid_pass(dims):
    g = Grid3(dims, 12.0 / (max(dims) - 1))
    H = Hamiltonian.from_model(bench_model(), g, 0.7)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    core = tuple(slice(0, d - 1) for d in dims)
    cov2, mod2, mag = np.zeros(tuple(d - 1 for d in dims)), np.zeros(tuple(d - 1 for d in dims)), np.abs(u)
    for m in range(3):
        up = core[:m] + (slice(1, dims[m]),) + core[m + 1:]
        cov2 += np.abs(H.links[m][core] * u[up] - u[core]) ** 2
        mod2 += (mag[up] - mag[core]) ** 2
    whole = float(((0.7 / g.spacing) * (np.sqrt(cov2) - np.sqrt(mod2))).min())
    assert H.diamagnetic_slack(u) == whole


def free_model():
    return ModelSpec(
        V=parse_potential("1 + x1^2 + x2^2 + x3^2"),
        K=parse_potential("1"),
        A=(parse_potential("0"),) * 3,
        nonlin=Nonlinearity.power(1.0, 3.0),
    )


@pytest.mark.parametrize("n", [12, 24])
def test_field_free_complex_solve_has_a_complex_table(n):
    # a real table would make every product cast it in numpy's 8,192-element
    # buffers (3.03 x u.nbytes at 12^3, measured); the real flow keeps its
    # real table, so a real field stays real
    g = make_grid(radius=6.0, n=n)
    H = Hamiltonian.from_model(free_model(), g, 0.7)
    assert len(H.links) == 3 and all(p.dtype == np.complex128 for p in H.links)
    rng = np.random.default_rng(2)
    u = rng.standard_normal(g.dims) + 1j * rng.standard_normal(g.dims)
    held = sum(p.nbytes for p in H.links)
    assert held + _traced_peak(H.apply, u) <= 6 * u.nbytes + 4096
    real = Hamiltonian(g, 0.7, 1.0, 1.0, Nonlinearity.power(1.0, 3.0), None)
    assert len(real.links) == 3 and all(p.dtype == np.float64 for p in real.links)
    assert real.apply(u.real).dtype == np.float64


@pytest.mark.parametrize("model", [bench_model, free_model])
def test_solve_linear_inverts_the_masked_operator(model):
    g = make_grid(radius=6.0, n=20)
    H = Hamiltonian.from_model(model(), g, 0.8)
    rng = np.random.default_rng(5)
    b = (rng.standard_normal(g.dims) + 1j * rng.standard_normal(g.dims)) * H.mask
    x = H.solve_linear(b)
    assert np.array_equal(x * H.mask, x)
    back = (H.apply(x) + H.V * x) * H.mask
    assert np.linalg.norm(back - b) <= 1e-10 * np.linalg.norm(b)
    assert not H.solve_linear(np.zeros_like(b)).any()


def test_solve_linear_raises_when_it_does_not_converge():
    # a NaN in the data never meets the stop rule: SolverError after the step
    # budget, not a NaN estimate
    g = make_grid(radius=6.0, n=12)
    H = Hamiltonian(g, 1.0, 1.0, 1.0, Nonlinearity.power(1.0, 3.0), None)
    b = np.zeros(g.dims)
    b[5, 6, 4] = np.nan
    with pytest.raises(fields.SolverError, match="did not reach"):
        H.solve_linear(b)


def test_solve_with_roll_oracle_agrees(monkeypatch):
    # the same descent with the oracle stencil: the same path to rounding
    model = bench_model()
    grid = make_grid(radius=6.0, n=20)
    new = solve_magnetic(model, grid, 1.0, tol=1e-6)
    monkeypatch.setattr(fields, "apply_link_kinetic", _roll_stencil)
    ref = solve_magnetic(model, grid, 1.0, tol=1e-6)
    assert new.iterations == ref.iterations
    assert abs(new.energy_J - ref.energy_J) <= 1e-12 * abs(ref.energy_J)
    assert np.max(np.abs(new.spike - ref.spike)) <= 1e-10


# ---------------------------------------------------------------------------
# snapshots


def test_snapshot_roundtrip_real(tmp_path):
    g = make_grid(radius=2.5, n=16, origin=(0.5, -1.0, 0.0))
    f = gauss_field(g)
    path = tmp_path / "f.spkf"
    write_snapshot(path, f)
    back = read_snapshot(path)
    assert back.grid.dims == g.dims
    assert back.grid.spacing == g.spacing
    assert back.grid.origin == pytest.approx(g.origin)
    assert np.array_equal(back.values, f.values)
    assert back.values.dtype == np.float64


def test_snapshot_roundtrip_complex(tmp_path):
    rng = np.random.default_rng(3)
    g = make_grid(radius=1.0, n=9)
    vals = rng.standard_normal(g.dims) + 1j * rng.standard_normal(g.dims)
    path = tmp_path / "c.spkf"
    write_snapshot(path, Field3(g, vals))
    back = read_snapshot(path)
    assert np.array_equal(back.values, vals)
    assert back.values.dtype == np.complex128


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_snapshot_reads_back_c_ordered_bytes_as_written(tmp_path, dtype):
    # both flags come back C-contiguous with the written bits, -0.0 included
    rng = np.random.default_rng(5)
    g = make_grid(radius=1.0, n=8)
    vals = rng.standard_normal(g.dims).astype(dtype)
    if dtype == np.complex128:
        vals = vals + 1j * rng.standard_normal(g.dims)
        vals[1, 2, 3] = complex(-0.0, 1.0)
        vals[2, 3, 4] = complex(1.0, -0.0)
    else:
        vals[1, 2, 3] = -0.0
    path = tmp_path / "z.spkf"
    write_snapshot(path, Field3(g, vals))
    back = read_snapshot(path).values
    assert back.dtype == dtype and back.flags.c_contiguous and back.flags.writeable
    assert back.tobytes() == vals.tobytes()


def test_snapshot_bytes_deterministic(tmp_path):
    g = make_grid(radius=2.0, n=12)
    f = gauss_field(g)
    p1, p2 = tmp_path / "a.spkf", tmp_path / "b.spkf"
    write_snapshot(p1, f)
    write_snapshot(p2, f)
    assert p1.read_bytes() == p2.read_bytes()


def test_snapshot_header_layout(tmp_path):
    g = make_grid(radius=1.0, n=8)
    f = Field3(g, np.zeros(g.dims))
    path = tmp_path / "h.spkf"
    write_snapshot(path, f)
    raw = path.read_bytes()
    magic, version, flag, d1, d2, d3, spacing, o1, o2, o3 = struct.unpack_from(
        "<4sII3Id3d", raw
    )
    assert magic == b"SPKF"
    assert version == 1
    assert flag == 0
    assert (d1, d2, d3) == (8, 8, 8)
    assert spacing == g.spacing


def test_snapshot_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.spkf"
    path.write_bytes(b"NOPE" + bytes(64))
    with pytest.raises(ValueError):
        read_snapshot(path)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_snapshot_rejects_non_finite_values(tmp_path, dtype):
    # every check compares with < or >, which a nan never fails, so a
    # non-finite node is refused where the field is read
    g = make_grid(radius=1.0, n=8)
    vals = np.ones(g.dims, dtype=dtype)
    vals[1, 2, 3] = np.inf
    vals[4, 5, 6] = np.nan
    path = tmp_path / "nonfinite.spkf"
    write_snapshot(path, Field3(g, vals))
    with pytest.raises(ValueError, match=r"2 non-finite node values, the first .*inf.* at node \(1, 2, 3\)"):
        read_snapshot(path)


def test_snapshot_rejects_an_unknown_field_flag(tmp_path):
    # flag 7 with a real-sized payload is neither a real nor a complex field
    head = struct.pack("<4sII3Id3d", b"SPKF", 1, 7, 8, 8, 8, 0.5, 0.0, 0.0, 0.0)
    path = tmp_path / "flag.spkf"
    path.write_bytes(head + np.zeros(8**3).astype("<f8").tobytes())
    with pytest.raises(ValueError, match="flag 7"):
        read_snapshot(path)
