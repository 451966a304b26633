import struct

import numpy as np
import pytest

from spikemap.fields import (
    ComplexField3,
    Grid3,
    Hamiltonian,
    RealField3,
    apply_link_kinetic,
    boundary_fraction,
    const_link_phases,
    gradient,
    make_grid,
    masked_hop,
    read_snapshot,
    write_snapshot,
)


def gauss_field(grid, sigma=1.2):
    X1, X2, X3 = grid.meshgrid()
    return RealField3(grid, np.exp(-(X1**2 + X2**2 + X3**2) / (2 * sigma**2)))


# ---------------------------------------------------------------------------
# grid and quadrature


def test_grid_rejects_tiny_axes():
    with pytest.raises(ValueError):
        Grid3(dims=(4, 16, 16), spacing=0.1)
    with pytest.raises(ValueError):
        Grid3(dims=(16, 16, 16), spacing=-0.1)


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
    g = make_grid(radius=2.0, n=16)
    X1, X2, X3 = g.meshgrid()
    f = RealField3(g, 3.0 * X1 - 2.0 * X2 + 0.5 * X3 + 7.0)
    grad = gradient(f)
    assert np.allclose(grad[0], 3.0, atol=1e-12)
    assert np.allclose(grad[1], -2.0, atol=1e-12)
    assert np.allclose(grad[2], 0.5, atol=1e-12)


def test_masked_hop_does_not_wrap():
    g = make_grid(radius=1.0, n=8)
    u = np.arange(8**3, dtype=float).reshape(8, 8, 8)
    h = masked_hop(u, 1, 0)
    assert np.all(h[-1] == 0.0)
    assert np.array_equal(h[:-1], u[1:])


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
    phases = const_link_phases(g, a, eps)
    out = apply_link_kinetic(u, phases, eps, g.spacing)
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
    phases = const_link_phases(g, np.zeros(3), 1.0)
    out = apply_link_kinetic(f.values.astype(complex), phases, 1.0, g.spacing)
    inner = (slice(3, -3),) * 3
    # compare against the continuum -Lap of the Gaussian
    X1, X2, X3 = g.meshgrid()
    r2 = X1**2 + X2**2 + X3**2
    s2 = 0.25
    cont = -(r2 / s2**2 - 3.0 / s2) * f.values
    assert np.max(np.abs(out[inner] - cont[inner])) < 2e-3 * np.max(np.abs(cont))


def test_phase_free_kinetic_keeps_real_fields_real():
    # no phases is the same stencil as unit phases, without the complex detour
    g = make_grid(radius=2.0, n=24)
    f = gauss_field(g, 0.5).values
    free = apply_link_kinetic(f, None, 0.8, g.spacing)
    unit = apply_link_kinetic(f, const_link_phases(g, np.zeros(3), 0.8), 0.8, g.spacing)
    assert free.dtype == np.float64
    assert np.allclose(free, unit.real, rtol=0.0, atol=1e-13 * np.abs(free).max())
    assert np.all(unit.imag == 0.0)


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
    write_snapshot(path, ComplexField3(g, vals))
    back = read_snapshot(path)
    assert np.array_equal(back.values, vals)
    assert back.values.dtype == np.complex128


def test_snapshot_bytes_deterministic(tmp_path):
    g = make_grid(radius=2.0, n=12)
    f = gauss_field(g)
    p1, p2 = tmp_path / "a.spkf", tmp_path / "b.spkf"
    write_snapshot(p1, f)
    write_snapshot(p2, f)
    assert p1.read_bytes() == p2.read_bytes()


def test_snapshot_header_layout(tmp_path):
    g = make_grid(radius=1.0, n=8)
    f = RealField3(g, np.zeros(g.dims))
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
