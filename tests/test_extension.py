"""Weighted half-space extension: lift, energy and trace identities, decay."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hartreebox.errors import DomainError
from hartreebox.extension import (DecayFitReport, _effective_abscissa,
                                  _extension_energy, _neumann_trace,
                                  decay_fit, decay_report_to_csv, dtn_check,
                                  dtn_report_to_csv, energy_identity_check,
                                  graded_nodes, lift, trace_inequality_check)
from hartreebox.profile import eval_profile, small_s_energy_integral
from hartreebox.spectral import Grid, TraceField, apply_multiplier

from conftest import SIGMAS
from oracles import (extension_values, full_multiplier, full_xi_sq,
                     spectral_weights)


def random_field(rng, n=64, L=5.0, decay=2.0):
    """Random smooth periodic field with algebraically decaying spectrum."""
    g = Grid(1, L, n)
    coeffs = (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    k = np.fft.fftfreq(n, d=1.0 / n)
    coeffs = coeffs / (1.0 + np.abs(k)) ** decay
    vals = np.fft.ifft(coeffs).real
    return TraceField(g, vals / np.max(np.abs(vals)))


# ---------------------------------------------------------------------------
# Lift

def test_lift_recovers_trace_at_zero(profiles, rng):
    h = random_field(rng)
    for sigma in SIGMAS:
        ext = lift(h, profiles[sigma], 1.0, x_max=12.0, K_x=200)
        assert ext.x_nodes[0] == 0.0
        assert np.max(np.abs(extension_values(ext, 0) - h.values)) < 1e-10


def test_lift_zero_field(profile_half):
    g = Grid(1, 5.0, 32)
    z = TraceField(g, np.zeros(32))
    ext = lift(z, profile_half, 1.0)
    assert np.all(extension_values(ext) == 0.0)


def test_lift_single_mode_closed_form(profile_half):
    # sigma = 1/2: per mode u(x, y) = e^(-c x) cos(2 pi xi y)
    g = Grid(1, 5.0, 64)
    xi = 2.0 / (2.0 * g.L)
    m = 1.3
    h = TraceField(g, np.cos(2 * np.pi * xi * g.axis))
    ext = lift(h, profile_half, m, x_max=12.0, K_x=150)
    c = np.sqrt(m ** 2 + 4 * np.pi ** 2 * xi ** 2)
    want = np.exp(-c * ext.x_nodes)[:, None] * h.values[None, :]
    assert np.max(np.abs(extension_values(ext) - want)) < 1e-7


def test_lift_is_linear(profiles, rng):
    p = profiles[0.7]
    a = random_field(rng)
    b = TraceField(a.grid, rng.standard_normal(a.grid.n))
    ea = lift(a, p, 1.0, x_max=11.0, K_x=100)
    eb = lift(b, p, 1.0, x_max=11.0, K_x=100)
    eab = lift(TraceField(a.grid, a.values + b.values), p, 1.0,
               x_max=11.0, K_x=100)
    assert np.max(np.abs(extension_values(eab) - extension_values(ea)
                         - extension_values(eb))) < 1e-10


def test_lift_validation(profile_half):
    g = Grid(1, 5.0, 32)
    h = TraceField(g, np.ones(32))
    with pytest.raises(DomainError, match="x_max"):
        lift(h, profile_half, 2.0, x_max=3.0)
    with pytest.raises(DomainError, match="K_x"):
        lift(h, profile_half, 1.0, K_x=4)
    with pytest.raises(DomainError, match="m must be positive"):
        lift(h, profile_half, 0.0)


def test_graded_nodes_shape():
    x = graded_nodes(8.0, 100)
    assert x[0] == 0.0 and x[-1] == 8.0
    assert np.all(np.diff(x) > 0)
    # cubic grading: first interior node is x_max / K^3
    assert abs(x[1] - 8.0 / 100 ** 3) < 1e-15


# ---------------------------------------------------------------------------
# Energy identity

@pytest.mark.parametrize("sigma", SIGMAS)
def test_energy_identity_random_fields(profiles, sigma, rng):
    p = profiles[sigma]
    for _ in range(3):
        h = random_field(rng)
        ext = lift(h, p, 1.0, x_max=12.0, K_x=400)
        err = energy_identity_check(ext)
        assert err < 0.01


def test_energy_identity_zero_field(profile_half):
    g = Grid(1, 5.0, 32)
    z = TraceField(g, np.zeros(32))
    ext = lift(z, profile_half, 1.0)
    assert energy_identity_check(ext) == 0.0


# ---------------------------------------------------------------------------
# Dirichlet-to-Neumann trace

def test_dtn_single_mode_half(profile_half):
    g = Grid(1, 5.0, 64)
    xi = 1.0 / (2.0 * g.L)
    h = TraceField(g, np.cos(2 * np.pi * xi * g.axis))
    ext = lift(h, profile_half, 1.0, x_max=12.0, K_x=400)
    err = dtn_check(ext)
    assert err < 1e-3


def test_dtn_constant_field(profiles):
    # constant trace: the Neumann datum is d_sigma m^(2 sigma) h
    for sigma in SIGMAS:
        p = profiles[sigma]
        g = Grid(1, 5.0, 32)
        h = TraceField(g, np.full(32, 0.8))
        ext = lift(h, p, 1.5, x_max=10.0, K_x=400)
        err = dtn_check(ext)
        assert err < 0.02


@pytest.mark.parametrize("sigma", SIGMAS)
def test_dtn_matches_fractional_multiplier(profiles, sigma, rng):
    # the Neumann map reproduces d_sigma (m^2 - Delta)^sigma on the trace
    p = profiles[sigma]
    h = random_field(rng)
    ext = lift(h, p, 1.0, x_max=12.0, K_x=400)
    err = dtn_check(ext)
    assert err < 0.02
    # cross-check the target itself: the fractional multiplier on the
    # retained modes
    frac = apply_multiplier(h.grid.multiplier(1.0, sigma), h.values, "dtn")
    assert np.all(np.isfinite(frac))


def test_dtn_requires_boundary_node(profile_half):
    g = Grid(1, 5.0, 32)
    h = TraceField(g, np.ones(32))
    ext = lift(h, profile_half, 1.0, K_x=100)
    shifted = replace(ext, x_nodes=ext.x_nodes[1:],
                      profile_table=ext.profile_table[1:])
    with pytest.raises(DomainError, match="start at 0"):
        dtn_check(shifted)


# ---------------------------------------------------------------------------
# Decay in x

def test_decay_zero_mode_rate(profile_half):
    # constant trace at sigma = 1/2 decays exactly like e^(-m x)
    g = Grid(1, 5.0, 32)
    m = 0.9
    h = TraceField(g, np.ones(32))
    ext = lift(h, profile_half, m, x_max=14.0, K_x=300)
    rep = decay_fit(ext, np.abs(h.values).max())
    assert abs(rep.rate - m) < 1e-6
    assert abs(rep.poly_exp) < 1e-4
    assert rep.residual < 1e-6


def test_decay_single_mode_rate(profile_half):
    g = Grid(1, 5.0, 64)
    xi = 1.0 / (2.0 * g.L)
    m = 1.0
    c = np.sqrt(m ** 2 + 4 * np.pi ** 2 * xi ** 2)
    h = TraceField(g, np.cos(2 * np.pi * xi * g.axis))
    ext = lift(h, profile_half, m, x_max=12.0, K_x=300)
    rep = decay_fit(ext, np.abs(h.values).max())
    assert abs(rep.rate - c) < 1e-4 * c


def test_decay_sup_monotone_single_mode(profile_half):
    g = Grid(1, 5.0, 64)
    h = TraceField(g, np.cos(np.pi * g.axis / g.L))
    ext = lift(h, profile_half, 1.0, x_max=12.0, K_x=200)
    sup = ext.sup_abs
    assert np.all(np.diff(sup) < 0)


def test_decay_zero_field_vacuous(profile_half):
    g = Grid(1, 5.0, 32)
    z = TraceField(g, np.zeros(32))
    ext = lift(z, profile_half, 1.0, x_max=12.0, K_x=100)
    rep = decay_fit(ext, 0.0)
    assert rep.envelope_const == 0.0 and rep.residual == 0.0


def test_decay_envelope_holds_on_window(profiles, rng):
    p = profiles[0.3]
    h = random_field(rng)
    ext = lift(h, p, 1.0, x_max=12.0, K_x=300)
    rep = decay_fit(ext, np.abs(h.values).max())
    x = ext.x_nodes
    sup = ext.sup_abs
    sel = (x >= rep.window[0]) & (x <= rep.window[1]) & (sup > 0)
    env = (rep.envelope_const * np.abs(h.values).max()
           * x[sel] ** (p.sigma - 0.5) * np.exp(-1.0 * x[sel]))
    assert np.all(sup[sel] <= env * (1 + 1e-12))


# ---------------------------------------------------------------------------
# Trace inequality

def trace_slack(h, p, m=1.0):
    """trace_inequality_check on the lift of h (its x-mesh plays no part)."""
    return trace_inequality_check(lift(h, p, m, K_x=8), h.norm_l2())


@pytest.mark.parametrize("sigma", SIGMAS)
def test_trace_inequality_random(profiles, sigma, rng):
    p = profiles[sigma]
    g = Grid(1, 5.0, 64)
    for _ in range(100):
        h = TraceField(g, rng.standard_normal(64))
        assert trace_slack(h, p) >= 0.0


def test_trace_inequality_near_equality(profiles):
    # a spectrally concentrated (nearly constant) field saturates the bound
    for sigma in SIGMAS:
        p = profiles[sigma]
        g = Grid(1, 200.0, 512)
        h = TraceField(g, np.exp(-g.axis ** 2 / 60.0 ** 2))
        slack = trace_slack(h, p)
        assert slack / h.norm_l2() ** 2 < 1e-3


@pytest.mark.parametrize("m", [0.7, 1.3])
def test_trace_inequality_any_m(profiles, rng, m):
    # the multiplier is >= m^(2 sigma): random fields keep a nonnegative
    # slack, and a spectrally concentrated field nearly saturates it
    g, gw = Grid(1, 5.0, 64), Grid(1, 200.0, 512)
    wide = TraceField(gw, np.exp(-gw.axis ** 2 / 60.0 ** 2))
    for sigma in SIGMAS:
        p = profiles[sigma]
        for _ in range(20):
            h = TraceField(g, rng.standard_normal(64))
            assert trace_slack(h, p, m) >= 0.0
        slack = trace_slack(wide, p, m)
        assert 0.0 <= slack < 1e-3 * wide.norm_l2() ** 2


def test_trace_inequality_zero(profile_half):
    g = Grid(1, 5.0, 32)
    z = TraceField(g, np.zeros(32))
    assert trace_slack(z, profile_half) == 0.0


# ---------------------------------------------------------------------------
# Report files

def test_report_csvs(tmp_path, profiles, rng):
    p = profiles[0.5]
    h = random_field(rng)
    ext = lift(h, p, 1.0, x_max=12.0, K_x=300)
    rep = decay_fit(ext, np.abs(h.values).max())
    assert isinstance(rep, DecayFitReport)
    d_path = tmp_path / "decay.csv"
    decay_report_to_csv(ext, rep, np.abs(h.values).max(), d_path)
    lines = d_path.read_text().strip().splitlines()
    assert lines[0] == "x,sup_abs,envelope"
    assert len(lines) == ext.x_nodes.size  # header + nodes past x = 0
    n_path = tmp_path / "dtn.csv"
    dtn_report_to_csv(ext, n_path)
    head = n_path.read_text().splitlines()[0]
    assert head.startswith("xi_abs,")


def test_dtn_csv_reports_the_checked_estimates(tmp_path, profiles, rng):
    # the verdict and the table come from the same estimator
    p = profiles[0.7]
    h = random_nd_field(rng, 3, 8)
    ext = lift(h, p, 1.0, x_max=12.0, K_x=400)
    path = tmp_path / "dtn.csv"
    dtn_report_to_csv(ext, path)
    rows = path.read_text().splitlines()[1:]
    assert max(float(r.split(",")[-1]) for r in rows) \
        == dtn_check(ext)


def test_dtn_zero_field_has_no_modes(tmp_path, profile_half):
    g = Grid(1, 5.0, 32)
    z = TraceField(g, np.zeros(32))
    ext = lift(z, profile_half, 1.0)
    assert dtn_check(ext) == 0.0
    path = tmp_path / "dtn.csv"
    dtn_report_to_csv(ext, path)
    assert len(path.read_text().splitlines()) == 1


# ---------------------------------------------------------------------------
# Mode-wise checks against the materialized extension

def random_nd_field(rng, dim, n, L=5.0):
    """Random smooth periodic field with algebraically decaying spectrum."""
    g = Grid(dim, L, n)
    k = np.sqrt(full_xi_sq(g)) * 2.0 * L
    coeffs = (rng.standard_normal(g.shape)
              + 1j * rng.standard_normal(g.shape)) / (1.0 + k) ** 2
    vals = np.fft.ifftn(coeffs).real
    return TraceField(g, vals / np.max(np.abs(vals)))


def dense_extension(h, p, m, x):
    """u(x_j, y) materialized: Phi at every (x-node, lattice mode), then an
    inverse FFT per node.  The oracle's transforms run in extended precision:
    in float64 the FFT round trip leaves rounding of eps max|h-hat| on every
    mode, which the Neumann slopes over x_2 - x_1 ~ 1e-6 amplify past 1e-7
    of a weak mode's target at sigma = 0.7."""
    g = h.grid
    c = np.sqrt(full_multiplier(g, m, 1.0))
    phi = eval_profile(p, np.multiply.outer(x, c))
    hhat = np.fft.fftn(h.values.astype(np.longdouble))
    return np.fft.ifftn(phi.astype(np.longdouble) * hhat,
                        axes=tuple(range(1, g.dim + 1))).real


def dense_energy(h, values, x, p, m):
    """Extension energy from the materialized field: spectral y-derivatives
    after an FFT per node, np.gradient in x, the analytic [0, x_1] head."""
    g = h.grid
    sigma = p.sigma
    axes = tuple(range(1, g.dim + 1))
    coeffs = np.fft.fftn(values, axes=axes)
    c_sq = full_multiplier(g, m, 1.0)
    y_part = (np.sum(np.abs(coeffs) ** 2 * c_sq, axis=axes)
              * g.box_volume / g.n ** (2 * g.dim))
    x_part = (np.sum(np.gradient(values, x, axis=0) ** 2, axis=axes)
              * g.cell_volume)
    body = np.trapezoid((y_part[1:] + x_part[1:])
                        * x[1:] ** (1.0 - 2.0 * sigma), x[1:])
    c = np.sqrt(c_sq)
    head = np.sum(spectral_weights(h) * c ** (2.0 * sigma)
                  * small_s_energy_integral(c * x[1], sigma,
                                            p.d_sigma / (2.0 * sigma)))
    return body + head


def dense_neumann(h, values, x, p):
    """Richardson-extrapolated Neumann trace per lattice mode from FFTs of
    the materialized field at the smallest nodes."""
    sigma = p.sigma
    coeffs = np.fft.fftn(values[:4], axes=tuple(range(1, h.grid.dim + 1)))
    ests, xeffs = [], []
    for j in (1, 2):
        xe = _effective_abscissa(x[j], x[j + 1], sigma)
        slope = (coeffs[j + 1] - coeffs[j]) / (x[j + 1] - x[j])
        ests.append(-xe ** (1.0 - 2.0 * sigma) * slope)
        xeffs.append(xe)
    r1, r2 = (xe ** (2.0 - 2.0 * sigma) for xe in xeffs)
    return ests[0] + (ests[0] - ests[1]) * r1 / (r2 - r1)


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 16), (3, 8)])
@pytest.mark.parametrize("sigma", SIGMAS)
def test_modewise_checks_match_dense_extension(profiles, sigma, dim, n, rng):
    p = profiles[sigma]
    h = random_nd_field(rng, dim, n)
    ext = lift(h, p, 1.0, x_max=12.0, K_x=400)
    x = ext.x_nodes
    values = dense_extension(h, p, 1.0, x)

    want = dense_energy(h, values, x, p, 1.0)
    assert abs(_extension_energy(ext) - want) <= 1e-12 * want

    sup = np.max(np.abs(values), axis=tuple(range(1, dim + 1)))
    assert np.all(np.abs(ext.sup_abs - sup) <= 1e-12 * sup)

    mask, est, target, _, _ = _neumann_trace(ext)
    weights = spectral_weights(h)
    half = (Ellipsis, slice(0, n // 2 + 1))
    assert np.array_equal(mask, (weights >= 1e-6 * weights.sum())[half])
    dense = dense_neumann(h, values, x, p)[half][mask]
    assert np.all(np.abs(est - dense) <= 1e-7 * np.abs(target))


def test_lift_and_checks_memory_bounded(profile_half):
    # 3D n = 32, K_x = 400: the materialized extension alone is 105 MB
    g = Grid(3, 10.0, 32)
    h = TraceField(g, np.exp(-g.radius_sq / 4.0))
    tracemalloc.start()
    try:
        ext = lift(h, profile_half, 1.0, K_x=400)
        energy_identity_check(ext)
        dtn_check(ext)
        decay_fit(ext, h.norm_l2())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_sup_abs_holds_one_field_at_a_time(profile_half):
    # 3D n = 32: sup_abs transforms node by node in two reused buffers
    # (half-lattice spectrum 272 KB, field 256 KB) plus one profile-table
    # column per node (139 KB), however many nodes there are
    g = Grid(3, 10.0, 32)
    h = TraceField(g, np.exp(-g.radius_sq / 4.0))
    ext = lift(h, profile_half, 1.0, K_x=400)
    tracemalloc.start()
    try:
        sup = ext.sup_abs
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert sup[0] == np.max(np.abs(extension_values(ext, 0)))
