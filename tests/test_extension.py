"""Weighted half-space extension: lift, energy and trace identities, decay."""

from dataclasses import replace

import numpy as np
import pytest

from hartreebox.cli import main
from hartreebox.errors import DomainError
from hartreebox.extension import (DecayFitReport, _effective_abscissa,
                                  _extension_energy, decay_fit, dtn_check,
                                  dtn_table, energy_identity_check, lift,
                                  trace_inequality_check)
from hartreebox.profile import (eval_profile, graded_nodes,
                                small_s_energy_integral)
from hartreebox.spectral import (Grid, TraceField, apply_multiplier,
                                 field_to_csv, inverse_spectrum)

from conftest import SIGMAS
from oracles import (decay_law, extension_values, full_multiplier,
                     full_xi_sq, half_multiplier, spectral_weights,
                     traced_peak)


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


@pytest.mark.parametrize("m,x_max", [(1.0, np.nan), (1.0, np.inf),
                                     (1e-310, None)])
def test_lift_rejects_a_non_finite_x_max(profile_half, m, x_max):
    # None stands for 10/m, which overflows at a subnormal m
    h = TraceField(Grid(1, 5.0, 32), np.ones(32))
    with pytest.raises(DomainError,
                       match="x_max must be finite and at least 10/m"):
        lift(h, profile_half, m, x_max=x_max)


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
    frac = apply_multiplier(half_multiplier(h.grid, 1.0, sigma), h.values)
    assert np.all(np.isfinite(frac))


@pytest.mark.parametrize("sigma", [0.5, 0.7])
def test_dtn_passes_a_fine_mesh_within_its_bound(tmp_path, sigma, capsys):
    # a width-2 Gaussian at K_x = 6400: the Neumann trace is off by 4.1e-7
    # (sigma 0.5) and 1.6e-3 (0.7), inside the 2 % bound, so verify passes
    g = Grid(1, 10.0, 64)
    field, config = tmp_path / "field.csv", tmp_path / "run.cfg"
    field_to_csv(TraceField(g, np.exp(-g.axis ** 2 / 4.0)), field)
    config.write_text(f"sigma = {sigma}\nm = 1.0\nN = 1\nL = 10.0\n"
                      "n = 64\nextension.K_x = 6400\n")
    assert main(["verify", "--config", str(config), "--field", str(field),
                 "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    report = (tmp_path / "out" / "verify_report.csv").read_text()
    name, status, value = report.splitlines()[2].split(",")
    assert (name, status) == ("dtn", "pass") and float(value) < 2e-2


def test_dtn_requires_boundary_node(profile_half):
    g = Grid(1, 5.0, 32)
    h = TraceField(g, np.ones(32))
    ext = lift(h, profile_half, 1.0, K_x=100)
    # the same field on the mesh without its node x = 0
    shifted = replace(ext, x_nodes=ext.x_nodes[1:])
    with pytest.raises(DomainError, match="start at 0"):
        dtn_check(shifted)


# ---------------------------------------------------------------------------
# Decay in x

def kept_rows(x, lo):
    """The mesh rows decay_fit transforms: at most 32 of the window
    [lo, x_max], evenly spaced in index, both window ends included."""
    rows = np.flatnonzero(x >= lo)
    if rows.size <= 32:
        return rows
    return rows[np.arange(32) * (rows.size - 1) // 31]


def test_decay_zero_mode_rate(profile_half):
    # constant trace at sigma = 1/2 decays exactly like e^(-m x)
    g = Grid(1, 5.0, 32)
    m = 0.9
    h = TraceField(g, np.ones(32))
    ext = lift(h, profile_half, m, x_max=14.0, K_x=300)
    rep = decay_fit(ext)
    assert abs(rep.rate - m) < 1e-6
    poly_exp, residual = decay_law(rep.x, rep.sup)
    assert abs(poly_exp) < 1e-4
    assert residual < 1e-6


def test_decay_single_mode_rate(profile_half):
    g = Grid(1, 5.0, 64)
    xi = 1.0 / (2.0 * g.L)
    m = 1.0
    c = np.sqrt(m ** 2 + 4 * np.pi ** 2 * xi ** 2)
    h = TraceField(g, np.cos(2 * np.pi * xi * g.axis))
    ext = lift(h, profile_half, m, x_max=12.0, K_x=300)
    rep = decay_fit(ext)
    assert abs(rep.rate - c) < 1e-4 * c


def test_decay_sup_monotone_single_mode(profile_half):
    g = Grid(1, 5.0, 64)
    h = TraceField(g, np.cos(np.pi * g.axis / g.L))
    ext = lift(h, profile_half, 1.0, x_max=12.0, K_x=200)
    rep = decay_fit(ext)
    assert np.all(np.diff(rep.sup) < 0)


def test_decay_zero_field_vacuous(profile_half):
    g = Grid(1, 5.0, 32)
    z = TraceField(g, np.zeros(32))
    ext = lift(z, profile_half, 1.0, x_max=12.0, K_x=100)
    rep = decay_fit(ext)
    assert rep.rate == 1.0
    assert rep.x.size == rep.sup.size == rep.envelope.size == 0


def test_decay_envelope_holds_on_window(profiles, rng):
    p = profiles[0.3]
    h = random_field(rng)
    ext = lift(h, p, 1.0, x_max=12.0, K_x=300)
    rep = decay_fit(ext)
    x = ext.x_nodes
    # the window [2/m, x_max] at m = 1
    assert np.array_equal(rep.x, x[kept_rows(x, 2.0)])
    assert np.all((rep.x >= 2.0) & (rep.x <= 12.0))
    power, decay = rep.x ** (p.sigma - 0.5), np.exp(-1.0 * rep.x)
    c_env = np.max(rep.sup / (power * decay))
    assert np.array_equal(rep.envelope, c_env * power * decay)
    assert np.all(rep.sup <= rep.envelope * (1 + 1e-12))


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

def test_report_csvs(tmp_path, profiles, rng, capsys):
    # decay.csv and dtn.csv as the verify command writes them for h
    p = profiles[0.5]
    h = random_field(rng)
    field, config = tmp_path / "field.csv", tmp_path / "run.cfg"
    field_to_csv(h, field)
    config.write_text("sigma = 0.5\nm = 1.0\nN = 1\nL = 5.0\nn = 64\n"
                      "extension.x_max = 12.0\nextension.K_x = 300\n")
    assert main(["verify", "--config", str(config), "--field", str(field),
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    ext = lift(h, p, 1.0, x_max=12.0, K_x=300)
    rep = decay_fit(ext)
    assert isinstance(rep, DecayFitReport)
    lines = (tmp_path / "decay.csv").read_text().strip().splitlines()
    assert lines[0] == "x,sup_abs,envelope"
    # one row per node of the fit, each inside the window and under the
    # envelope
    rows = np.array([[float(v) for v in r.split(",")] for r in lines[1:]])
    assert np.array_equal(rows[:, 0], rep.x)
    assert np.array_equal(rows[:, 1], rep.sup)
    assert np.all((rows[:, 0] >= 2.0) & (rows[:, 0] <= 12.0))
    assert np.all(rows[:, 2] >= rows[:, 1] * (1 - 1e-12))
    head = (tmp_path / "dtn.csv").read_text().splitlines()[0]
    assert head == "rate,estimate,target,rel_error"


def test_dtn_csv_reports_the_checked_estimates(profiles, rng):
    # the verdict and the table come from the same estimator
    p = profiles[0.7]
    h = random_nd_field(rng, 3, 8)
    ext = lift(h, p, 1.0, x_max=12.0, K_x=400)
    rows = dtn_table(ext)
    assert max(float(r[-1]) for r in rows) == dtn_check(ext)
    # one row per judged rate class, its target the multiplier at its rate
    rates = ext.rates[ext._neumann_trace[0]]
    assert np.array_equal([r[0] for r in rows], rates)
    assert np.array_equal([r[2] for r in rows], p.kappa * rates ** 1.4)


def test_dtn_zero_field_has_no_modes(profile_half):
    g = Grid(1, 5.0, 32)
    z = TraceField(g, np.zeros(32))
    ext = lift(z, profile_half, 1.0)
    assert dtn_check(ext) == 0.0
    assert dtn_table(ext) == []


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
              * (2.0 * g.L) ** g.dim / g.n ** (2 * g.dim))
    x_part = (np.sum(np.gradient(values, x, axis=0) ** 2, axis=axes)
              * g.cell_volume)
    body = np.trapezoid((y_part[1:] + x_part[1:])
                        * x[1:] ** (1.0 - 2.0 * sigma), x[1:])
    c = np.sqrt(c_sq)
    head = np.sum(spectral_weights(h) * c ** (2.0 * sigma)
                  * small_s_energy_integral(c * x[1], sigma,
                                            p.kappa / (2.0 * sigma)))
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

    # sup_y |u| at the decay fit's nodes, the only ones it is formed at
    rep = decay_fit(ext)
    rows = kept_rows(x, 2.0)
    assert np.array_equal(rep.x, x[rows])
    sup = np.max(np.abs(values[rows]), axis=tuple(range(1, dim + 1)))
    assert np.all(np.abs(rep.sup - sup) <= 1e-12 * sup)

    # the judged rate classes: those whose spectral mass, summed over the
    # full lattice, clears 1e-6 of the total
    k_sq = np.rint(full_xi_sq(h.grid) * (2.0 * h.grid.L) ** 2)
    mode_class = np.unique(k_sq, return_inverse=True)[1].reshape(k_sq.shape)
    mass = np.bincount(mode_class.ravel(),
                       weights=spectral_weights(h).ravel())
    classes, est, target, _ = ext._neumann_trace
    assert np.array_equal(classes, np.flatnonzero(mass >= 1e-6 * mass.sum()))
    # on every mode of a judged class, the dense estimate is the class's
    # estimate times h-hat
    per_class = np.zeros((2, mass.size))
    per_class[:, classes] = est, target
    hhat = np.fft.fftn(h.values.astype(np.longdouble))
    est_mode, target_mode = per_class[:, mode_class] * hhat
    judged = np.isin(mode_class, classes)
    err = np.abs(est_mode - dense_neumann(h, values, x, p))
    assert np.all((err <= 1e-7 * np.abs(target_mode))[judged])


def test_lift_and_checks_memory_bounded(profile_half):
    # 3D n = 32, K_x = 400: the materialized extension alone is 105 MB, a
    # table of Phi 1.4 MB (401 x 464)
    g = Grid(3, 10.0, 32)
    h = TraceField(g, np.exp(-g.radius_sq / 4.0))

    def lift_and_check():
        ext = lift(h, profile_half, 1.0, K_x=400)
        energy_identity_check(ext)
        dtn_check(ext)
        decay_fit(ext)
    assert traced_peak(lift_and_check)[1] < 5 * 2 ** 20


def test_lift_and_energy_identity_hold_no_profile_table(profile_half):
    # lift keeps no Phi table (401 x 464, 1.4 MB), and the energy quadrature
    # evaluates Phi in row blocks, adding up its two parts block by block
    g = Grid(3, 10.0, 32)
    h = TraceField(g, np.exp(-g.radius_sq / 4.0))
    ext, peak = traced_peak(lift, h, profile_half, 1.0, None, 400)
    assert peak < 1.5 * 2 ** 20
    rows = slice(100, 140)
    assert np.array_equal(ext.profile_rows(rows), eval_profile(
        profile_half, np.multiply.outer(ext.x_nodes[rows], ext.rates)))
    assert traced_peak(energy_identity_check, ext)[1] < 1.5 * 2 ** 20


def test_lift_and_checks_memory_does_not_grow_with_K_x(profile_half):
    # 3D n = 32: a table of Phi would grow from 1.4 MB at K_x = 400 to
    # 5.6 MB at K_x = 1600
    g = Grid(3, 10.0, 32)
    h = TraceField(g, np.exp(-g.radius_sq / 4.0))

    def lift_and_check(K_x):
        ext = lift(h, profile_half, 1.0, K_x=K_x)
        energy_identity_check(ext)
        dtn_check(ext)
        decay_fit(ext)
    lift_and_check(100)     # the grid's cached arrays, built once
    peaks = [traced_peak(lift_and_check, K_x)[1] for K_x in (400, 1600)]
    assert max(peaks) <= 1.1 * min(peaks)


def test_sup_abs_holds_one_field_at_a_time(profile_half):
    # 3D n = 32: the decay fit forms sup_y |u| node by node in two reused
    # buffers (half-lattice spectrum 272 KB, field 256 KB) plus Phi on a
    # few nodes and one node's Phi per mode (139 KB), however many nodes
    # there are
    g = Grid(3, 10.0, 32)
    h = TraceField(g, np.exp(-g.radius_sq / 4.0))
    ext = lift(h, profile_half, 1.0, K_x=400)
    rep, peak = traced_peak(decay_fit, ext)
    assert peak < 2 ** 20
    # bit for bit numpy's irfftn of the same node, at every kept node
    rows = kept_rows(ext.x_nodes, 2.0)
    assert np.array_equal(rep.x, ext.x_nodes[rows])
    sup = np.max(np.abs(extension_values(ext, rows)), axis=(1, 2, 3))
    assert np.array_equal(rep.sup, sup)


@pytest.mark.parametrize("K_x", [40, 300])
def test_decay_fit_keeps_at_most_32_window_nodes(profile_half, rng, K_x):
    # a window of 18 rows (K_x = 40) keeps them all; one of 135 keeps 32
    h = random_field(rng)
    ext = lift(h, profile_half, 1.0, x_max=12.0, K_x=K_x)
    rep = decay_fit(ext)
    window = ext.x_nodes[ext.x_nodes >= 2.0]
    assert rep.x.size == min(window.size, 32)
    assert rep.x[0] == window[0] and rep.x[-1] == window[-1]
    assert np.all(np.isin(rep.x, window)) and np.all(np.diff(rep.x) > 0)


def test_decay_fit_cost_does_not_grow_with_K_x(profile_half, monkeypatch):
    # 3D n = 32: as many nodes and inverse transforms at K_x = 1600 as at
    # K_x = 400
    from hartreebox import extension
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return inverse_spectrum(*args, **kwargs)
    monkeypatch.setattr(extension, "inverse_spectrum", counted)
    g = Grid(3, 10.0, 32)
    h = TraceField(g, np.exp(-g.radius_sq / 4.0))
    sizes = []
    for K_x in (400, 1600):
        ext = lift(h, profile_half, 1.0, K_x=K_x)
        calls.clear()
        sizes.append(decay_fit(ext).x.size)
        assert len(calls) <= 32
    assert sizes == [32, 32]
