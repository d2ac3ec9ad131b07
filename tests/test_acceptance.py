"""Acceptance gate: one test per headline claim, each printing a verdict.

Run with `pytest tests/test_acceptance.py -s` to see one line per criterion.
"""

import time

import numpy as np
import pytest

from hartreebox.extension import (decay_fit, dtn_check, energy_identity_check,
                                  lift, trace_inequality_check)
from hartreebox.model import (KernelSpec, ModelParams, NonlinearitySpec,
                              PotentialSpec, _nonlinearity)
from hartreebox.profile import eval_profile
from hartreebox.solver import compare_levels, multistart, solve_ground
from hartreebox.spectral import Grid, TraceField, apply_multiplier

from conftest import SIGMAS
from oracles import (dense_convolve, dense_frac_apply, linf_refinement_check,
                     quadratic_form)
from test_profile import ode_residual


def random_field(rng, n=64, L=5.0, decay=2.0):
    g = Grid(1, L, n)
    coeffs = (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    k = np.fft.fftfreq(n, d=1.0 / n)
    coeffs = coeffs / (1.0 + np.abs(k)) ** decay
    vals = np.fft.ifft(coeffs).real
    return TraceField(g, vals / np.max(np.abs(vals)))


def ground_params():
    return ModelParams(sigma=0.5, m=1.0, dim=1, L=20.0, n=256,
                       potential=PotentialSpec(V_inf=1.0, A=0.3, w=4.0),
                       kernel=KernelSpec(a=0.0, b=1.0, w2=3.0))


def decay_params(sigma, theta):
    return ModelParams(sigma=sigma, m=0.2, dim=1, L=5.0, n=64,
                      nonlinearity=NonlinearitySpec("log_linear", theta),
                      potential=PotentialSpec(V_inf=1.0, A=0.3, w=2.0),
                      kernel=KernelSpec(a=0.0, b=1.0, w2=2.0))


@pytest.fixture(scope="module")
def ground_state(profile_half):
    t0 = time.time()
    best, results = multistart(ground_params(), profile_half, [11, 12, 13])
    return best, results, time.time() - t0


def verdict(capsys, k, text):
    with capsys.disabled():
        print(f"\nACCEPTANCE {k} PASS: {text}")


def test_criterion_1_profile_exactness(profiles, profile_half, capsys):
    s = np.linspace(0.0, 10.0, 2001)
    phi = eval_profile(profile_half, s)
    err_half = float(np.max(np.abs(phi - np.exp(-s))))
    assert err_half < 1e-8
    err_kappa = abs(profile_half.kappa - 1.0)
    assert err_kappa < 1e-6
    res = max(float(np.max(ode_residual(profiles[s]))) for s in SIGMAS)
    assert res < 1e-6
    verdict(capsys, 1, f"sup|Phi - e^-s| = {err_half:.2e}, "
            f"|kappa - 1| = {err_kappa:.2e}, max ODE residual = {res:.2e}")


def test_criterion_2_spectral_oracles(rng, capsys):
    # the solver's two multiplier applications: the fractional operator
    # from the grid's multiplier and W * g from the kernel spectrum
    worst = 0.0
    for dim in (1, 2):
        params = ModelParams(sigma=0.5, m=1.0, dim=dim, L=1.3, n=8,
                             kernel=KernelSpec(a=0.5, mu=0.4, R_c=1.0,
                                               b=1.0, w2=0.8))
        g = params.grid
        h = TraceField(g, rng.standard_normal(g.shape))
        k = TraceField(g, params.kernel_values)
        got = apply_multiplier(g.multiplier(1.7, 0.6), h.values, "frac")
        want = dense_frac_apply(h, 0.6, 1.7)
        worst = max(worst, float(np.max(np.abs(got - want))
                                 / np.max(np.abs(want))))
        got_c = apply_multiplier(params.kernel_spectrum, h.values, "conv")
        want_c = dense_convolve(k, h)
        worst = max(worst, float(np.max(np.abs(got_c - want_c))
                                 / np.max(np.abs(want_c))))
    assert worst < 1e-10
    verdict(capsys, 2, f"dense DFT/convolution oracles agree to {worst:.2e} "
            "(N = 1 and N = 2)")


def test_criterion_3_energy_identity(profiles, rng, capsys):
    worst = 0.0
    for sigma in SIGMAS:
        p = profiles[sigma]
        for _ in range(10):
            h = random_field(rng)
            ext = lift(h, p, 1.0, x_max=12.0, K_x=400)
            worst = max(worst, energy_identity_check(ext))
    assert worst < 0.01
    verdict(capsys, 3, f"extension energy identity within {worst:.2e} "
            "over 30 random fields (allowed 1e-2)")


def test_criterion_4_dtn(profiles, profile_half, rng, capsys):
    worst = 0.0
    for sigma in SIGMAS:
        p = profiles[sigma]
        for _ in range(10):
            h = random_field(rng)
            ext = lift(h, p, 1.0, x_max=12.0, K_x=400)
            worst = max(worst, dtn_check(ext))
    assert worst < 0.02
    g = Grid(1, 5.0, 64)
    h = TraceField(g, np.cos(2 * np.pi * g.axis / (2 * g.L)))
    ext = lift(h, profile_half, 1.0, x_max=12.0, K_x=400)
    single = dtn_check(ext)
    assert single < 1e-3
    verdict(capsys, 4, f"Neumann trace within {worst:.2e} over 30 random "
            f"fields (allowed 2e-2); single mode {single:.2e}")


def test_criterion_5_trace_inequality(profiles, rng, capsys):
    g = Grid(1, 5.0, 64)
    min_slack = np.inf
    for sigma in SIGMAS:
        p = profiles[sigma]
        for _ in range(100):
            h = TraceField(g, rng.standard_normal(64))
            min_slack = min(min_slack, trace_inequality_check(
                lift(h, p, 1.0, K_x=8), h.norm_l2()))
    assert min_slack >= 0.0
    gw = Grid(1, 200.0, 512)
    h = TraceField(gw, np.exp(-gw.axis ** 2 / 60.0 ** 2))
    sat = max(trace_inequality_check(lift(h, profiles[s], 1.0, K_x=8),
                                     h.norm_l2()) for s in SIGMAS)
    sat /= h.norm_l2() ** 2
    assert sat < 1e-3
    verdict(capsys, 5, f"trace inequality slack >= {min_slack:.2e} over "
            f"300 fields; near-saturation residual {sat:.2e}")


def test_criterion_6_ground_state(ground_state, profile_half, capsys):
    best, results, elapsed = ground_state
    params = ground_params()
    quad = quadratic_form(best.u, params, profile_half)
    assert best.nehari_residual < 1e-8 * quad
    assert best.min_value > 0.0
    levels = [r.level for r in results]
    spread = (max(levels) - min(levels)) / min(levels)
    assert spread < 1e-4
    assert elapsed < 120.0
    verdict(capsys, 6, f"level = {best.level:.9f}, min value "
            f"{best.min_value:.1e} > 0, 3-seed spread {spread:.1e}, "
            f"{elapsed:.1f}s")


def test_criterion_7_level_ordering(ground_state, profile_half, capsys):
    best, _, _ = ground_state
    c_star, c_inf, margin = compare_levels(ground_params(), profile_half,
                                           best)
    assert 0.0 < c_star < c_inf
    assert margin > 1e-3
    flat = ModelParams(sigma=0.5, m=1.0, dim=1, L=20.0, n=256,
                       potential=PotentialSpec(V_inf=1.0, A=0.0, w=4.0),
                       kernel=KernelSpec(a=0.0, b=1.0, w2=3.0))
    e_star, e_inf, _ = compare_levels(flat, profile_half,
                                      solve_ground(flat, profile_half))
    agree = abs(e_star - e_inf) / e_inf
    assert agree < 1e-6
    verdict(capsys, 7, f"0 < c* = {c_star:.6f} < c_inf = {c_inf:.6f}, "
            f"margin {margin:.3f}; A = 0 levels agree to {agree:.1e}")


@pytest.mark.parametrize("sigma,theta", [(0.3, 2.8), (0.5, 2.5), (0.7, 2.5)])
def test_criterion_8_decay(profiles, sigma, theta, capsys):
    params = decay_params(sigma, theta)
    p = profiles[sigma]
    res = solve_ground(params, p)
    ext = lift(res.u, p, params.m, x_max=50.0, K_x=400)
    rep = decay_fit(ext, np.abs(res.u.values).max())
    assert rep.rate >= 0.95 * params.m
    target = (2 * sigma - 1) / 2
    assert abs(rep.poly_exp - target) < 0.2
    verdict(capsys, 8, f"sigma = {sigma}: decay rate {rep.rate:.4f} >= "
            f"0.95 m = {0.95 * params.m:.3f}, power {rep.poly_exp:+.3f} "
            f"within 0.2 of {target:+.2f}")


def test_criterion_9_hypotheses(capsys):
    t0 = time.time()
    t = np.logspace(-6, 3, 400)
    for spec in (NonlinearitySpec("log_linear", 2.5),
                 NonlinearitySpec("pure_power", 2.5)):
        F, f, _ = _nonlinearity(spec, t)
        q = f / t
        assert q[0] < 1e-2                               # (f1) at small t
        assert np.all(np.diff(q) > 0)                    # (f3)
        assert np.all(2 * F <= t * f + 1e-14)            # (AR)
        excess = np.maximum(f - 0.1 * t, 0.0)
        C = float(np.max(excess / t ** (spec.theta - 1.0)))
        assert np.isfinite(C)                            # (boundf)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    verdict(capsys, 9, "growth/monotonicity/superquadraticity hypotheses "
            f"hold for both nonlinearities ({elapsed:.2f}s)")


def test_criterion_10_refinement(ground_state, profile_half, capsys):
    best, _, _ = ground_state
    t0 = time.time()
    change, _ = linf_refinement_check(best, ground_params(), profile_half)
    assert change < 0.02
    verdict(capsys, 10, f"sup norm change {change:.1e} < 2e-2 under n -> 2n "
            f"({time.time() - t0:.1f}s)")
