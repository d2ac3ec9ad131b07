"""Nonlinearity hypotheses, energy functional, and Nehari projection."""

import numpy as np
import pytest
from scipy.integrate import quad as quadrature
from scipy.optimize import brentq

import hartreebox.model as model_mod
import hartreebox.solver as solver_mod
from hartreebox.errors import BracketError, DomainError
from hartreebox.model import (KernelSpec, ModelParams, NonlinearitySpec,
                              PotentialSpec, SolverSettings, F_eval, df_eval,
                              f_eval)
from hartreebox.solver import random_seed_field, solve_ground
from hartreebox.spectral import TraceField

import oracles
from test_acceptance import ground_params

LOG_LINEAR = NonlinearitySpec("log_linear", 2.5)
PURE_POWER = NonlinearitySpec("pure_power", 2.5)


def small_params(**kw):
    defaults = dict(sigma=0.5, m=1.0, dim=1, L=10.0, n=64,
                    potential=PotentialSpec(V_inf=1.0, A=0.3, w=2.0),
                    kernel=KernelSpec(a=0.0, b=1.0, w2=2.0))
    defaults.update(kw)
    return ModelParams(**defaults)


def interaction(u, params):
    """Psi(u) = 1/2 int (W * F(u)) F(u), as the evaluation core computes
    it: nehari_phi's terms at t = 1 (its Q argument enters only phi)."""
    return model_mod.nehari_phi(1.0, u.values, params, 1.0)[2][3]


def project(u, params, profile):
    """The Nehari scale of the field u and the core's terms at t u."""
    return model_mod._project(u.values, params, profile)


def bump(params, rng=None, width=1.0):
    g = params.grid
    vals = np.exp(-g.axis ** 2 / width ** 2)
    if rng is not None:
        vals = vals * (1.0 + 0.1 * rng.standard_normal(g.n))
    return TraceField(g, vals)


# ---------------------------------------------------------------------------
# f and F

@pytest.mark.parametrize("spec", [LOG_LINEAR, PURE_POWER])
def test_primitive_matches_quadrature(spec):
    for t in (0.05, 0.3, 1.0, 3.7, 10.0):
        ref, _ = quadrature(lambda s: f_eval(spec, s), 0.0, t,
                            epsabs=1e-12, epsrel=1e-12)
        assert abs(F_eval(spec, t) - ref) < 1e-8


def test_f_vanishes_at_zero_and_below():
    assert f_eval(LOG_LINEAR, 0.0) == 0.0
    assert f_eval(LOG_LINEAR, -1.0) == 0.0
    assert F_eval(LOG_LINEAR, -2.5) == 0.0
    t = np.array([-3.0, -0.1, 0.0, 0.5])
    assert np.all(f_eval(PURE_POWER, t)[:3] == 0.0)


@pytest.mark.parametrize("spec", [LOG_LINEAR, PURE_POWER])
def test_superlinear_limit_at_zero(spec):
    # (f1): f(t)/t -> 0, ratio decreasing below 1e-2
    ratios = [f_eval(spec, t) / t for t in (1e-3, 1e-4, 1e-5)]
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[2] < 1e-2


@pytest.mark.parametrize("spec", [LOG_LINEAR, PURE_POWER])
def test_quotient_increasing(spec):
    # (f3): f(t)/t strictly increasing on t > 0
    t = np.logspace(-4, 3, 200)
    q = f_eval(spec, t) / t
    assert np.all(np.diff(q) > 0)


@pytest.mark.parametrize("spec", [LOG_LINEAR, PURE_POWER])
def test_ambrosetti_rabinowitz(spec):
    t = np.logspace(-4, 3, 200)
    assert np.all(2.0 * F_eval(spec, t) <= t * f_eval(spec, t) + 1e-14)


def test_growth_bound_constant_exists():
    # (boundf): |f(t)| <= xi t + C_xi t^(theta-1) with a finite fitted C_xi
    xi = 0.1
    t = np.logspace(-6, 3, 300)
    excess = np.maximum(f_eval(LOG_LINEAR, t) - xi * t, 0.0)
    C = float(np.max(excess / t ** (LOG_LINEAR.theta - 1.0)))
    assert np.isfinite(C) and C > 0
    assert np.all(f_eval(LOG_LINEAR, t)
                  <= xi * t + C * t ** (LOG_LINEAR.theta - 1.0) + 1e-14)


def test_user_table_tracks_samples():
    t = np.logspace(-3, 1, 2000)
    table = np.column_stack([t, f_eval(LOG_LINEAR, t)])
    spec = NonlinearitySpec("user_table", 2.5, table=table)
    probe = np.array([0.01, 0.1, 1.0, 5.0])
    assert np.allclose(f_eval(spec, probe), f_eval(LOG_LINEAR, probe),
                       rtol=1e-3)
    ref = F_eval(LOG_LINEAR, 1.0)
    assert abs(F_eval(spec, 1.0) - ref) < 1e-2 * ref


TABLE_T = np.linspace(0.05, 4.0, 40)
USER_TABLE = NonlinearitySpec("user_table", 2.5, table=np.column_stack(
    [TABLE_T, f_eval(LOG_LINEAR, TABLE_T)]))


@pytest.mark.parametrize("spec", [LOG_LINEAR, PURE_POWER, USER_TABLE])
def test_derivative_matches_central_difference(spec):
    # probes between table nodes, and past the table end for its tail
    t = np.concatenate([0.5 * (TABLE_T[1:] + TABLE_T[:-1]), [5.0, 9.0]])
    h = 1e-6
    fd = (f_eval(spec, t + h) - f_eval(spec, t - h)) / (2 * h)
    assert np.allclose(df_eval(spec, t), fd, rtol=1e-7, atol=1e-9)
    assert df_eval(spec, -1.0) == 0.0


def test_user_table_primitive_and_slope_below_first_sample():
    # f is linear from (0, 0) to the first sample, so F' = f and f' = df
    # hold on (0, t_1) as well as inside the table and in the tail
    t = np.linspace(0.5, 4.0, 8)
    spec = NonlinearitySpec("user_table", 2.5, table=np.column_stack(
        [t, t ** 1.5]))
    probe = np.concatenate([[0.1, 0.25, 0.4], 0.5 * (t[1:] + t[:-1]),
                            [5.0, 9.0]])
    h = 1e-6
    dF = (F_eval(spec, probe + h) - F_eval(spec, probe - h)) / (2 * h)
    df = (f_eval(spec, probe + h) - f_eval(spec, probe - h)) / (2 * h)
    assert np.allclose(dF, f_eval(spec, probe), rtol=1e-7, atol=1e-9)
    assert np.allclose(df, df_eval(spec, probe), rtol=1e-7, atol=1e-9)
    assert abs(f_eval(spec, 0.25) - 0.5 ** 1.5 / 2) < 1e-15


def test_nonlinearity_validation():
    with pytest.raises(DomainError):
        NonlinearitySpec("cubic")
    with pytest.raises(DomainError):
        NonlinearitySpec("log_linear", theta=2.0)
    with pytest.raises(DomainError):
        NonlinearitySpec("user_table", 2.5, table=np.ones((2, 2)))


# ---------------------------------------------------------------------------
# Parameter validation

def test_theta_window_enforced():
    # N=3, sigma=0.7: window is (max(2, 1.875), 3.75)
    with pytest.raises(DomainError, match="window"):
        ModelParams(sigma=0.7, m=1.0, dim=3, L=5.0, n=8,
                    nonlinearity=NonlinearitySpec("log_linear", 4.0))
    ModelParams(sigma=0.7, m=1.0, dim=3, L=5.0, n=8)


def test_theta_window_open_when_subcritical():
    # N <= 2 sigma: any theta > 2 admissible
    ModelParams(sigma=0.5, m=1.0, dim=1, L=5.0, n=8,
                nonlinearity=NonlinearitySpec("log_linear", 7.0))


def test_kernel_exponent_bound():
    with pytest.raises(DomainError, match="mu"):
        ModelParams(sigma=0.5, m=1.0, dim=2, L=5.0, n=8,
                    kernel=KernelSpec(a=1.0, mu=1.8))
    ModelParams(sigma=0.5, m=1.0, dim=2, L=5.0, n=8,
                kernel=KernelSpec(a=1.0, mu=1.2))


def test_spec_validation():
    with pytest.raises(DomainError):
        PotentialSpec(V_inf=0.0)
    with pytest.raises(DomainError):
        PotentialSpec(A=-0.1)
    with pytest.raises(DomainError):
        KernelSpec(a=0.0, b=0.0)
    with pytest.raises(DomainError):
        SolverSettings(tol=0.0)


def test_coercivity_validation(profile_half):
    small_params().validate(profile_half)
    deep = small_params(potential=PotentialSpec(V_inf=1.0, A=0.3, w=2.0))
    deep.validate(profile_half)
    with pytest.raises(DomainError, match="sigma"):
        small_params(sigma=0.3).validate(profile_half)


def test_kernel_is_radial_and_nonnegative():
    params = small_params(kernel=KernelSpec(a=0.5, mu=0.4, R_c=2.0,
                                            b=1.0, w2=2.0))
    vals = params.kernel_values
    assert np.all(vals >= 0)
    # displacement symmetry: W(d) = W(-d)
    assert np.allclose(vals[1:], vals[1:][::-1])


# ---------------------------------------------------------------------------
# Energy and gradient

def test_energy_components(profile_half, rng):
    params = small_params()
    _, ev = project(bump(params, rng), params, profile_half)
    assert ev.level == 0.5 * ev.quad - ev.psi
    assert ev.quad > 0 and ev.psi > 0


def zero_field_terms(params):
    """nehari_phi at the zero field, which _project does not accept."""
    return model_mod.nehari_phi(1.0, np.zeros(params.n), params, 0.0)


def test_energy_zero_field(profile_half):
    params = small_params()
    z = np.zeros(params.n)
    assert model_mod._quad_terms(params, profile_half, z,
                                 np.fft.rfftn(z)) == (0.0, 0.0)
    phi, level, (_, conv, f, psi), _ = zero_field_terms(params)
    assert phi == 0.0 and level == 0.0 and psi == 0.0
    assert not np.any(conv) and not np.any(f)


def test_interaction_homogeneity_pure_power(profile_half, rng):
    params = small_params(nonlinearity=PURE_POWER)
    u = bump(params, rng)
    base = interaction(u, params)
    for t in (0.5, 2.0, 3.0):
        got = interaction(t * u, params)
        assert abs(got - t ** 5 * base) < 1e-12 * t ** 5 * base


def test_quadratic_part_coercive(profile_half, rng):
    # Q(v) > kappa |v|^2 / 2 at the projected point v of each random field
    params = small_params()
    for _ in range(10):
        u = TraceField(params.grid, rng.standard_normal(params.n))
        _, ev = project(u, params, profile_half)
        v = TraceField(params.grid, ev.values)
        assert ev.quad > 0.5 * profile_half.kappa * v.norm_l2() ** 2


def test_gradient_matches_directional_derivative(profile_half, rng):
    # the core's gradient at a projected point against central differences
    # of the oracle energy
    params = small_params()
    _, ev = project(bump(params, rng), params, profile_half)
    u = TraceField(params.grid, ev.values)
    v = TraceField(params.grid, rng.standard_normal(params.n))
    eps = 1e-5
    fd = (oracles.level(u + eps * v, params, profile_half)
          - oracles.level(u - eps * v, params, profile_half)) / (2 * eps)
    pair = TraceField(params.grid,
                      ev.gradient(params, profile_half)).inner(v)
    assert abs(pair - fd) < 1e-5 * abs(fd)


def test_gradient_zero_field(profile_half):
    params = small_params()
    _, _, (v, conv, f, psi), _ = zero_field_terms(params)
    ev = model_mod._Evaluation(v, np.fft.rfftn(v), 0.0, 0.0, psi, conv * f)
    assert np.all(ev.gradient(params, profile_half) == 0.0)


# ---------------------------------------------------------------------------
# Nehari projection

def test_nehari_fixed_point_and_scaling(profile_half, rng):
    params = small_params()
    u = bump(params, rng)
    t_u = project(u, params, profile_half)[0]
    assert t_u > 0
    assert abs(project(t_u * u, params, profile_half)[0] - 1.0) < 1e-8
    for c in (0.5, 2.0):
        got = project(c * u, params, profile_half)[0]
        assert abs(got - t_u / c) < 1e-8 * t_u / c


def oracle_nehari_scale(u, params, profile):
    """Dense log scan plus brentq on phi(t) = t Q - <Psi'(tu), tu>/t."""
    quad = oracles.quadratic_form(u, params, profile)

    def phi(t):
        return t * quad - oracles.interaction_pairing(t * u, params) / t

    ts = np.logspace(-6, 6, 481)
    vals = [phi(t) for t in ts]
    k = next(i for i in range(len(ts) - 1) if vals[i] > 0.0 >= vals[i + 1])
    return brentq(phi, ts[k], ts[k + 1], xtol=1e-300, rtol=8.9e-16)


@pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
def test_nehari_scale_matches_oracle(profile_half, rng, c):
    params = small_params()
    u = c * bump(params, rng)
    want = oracle_nehari_scale(u, params, profile_half)
    assert abs(project(u, params, profile_half)[0] - want) < 1e-12 * want


@pytest.mark.parametrize("c", [1e-7, 1e7])
def test_nehari_scale_root_outside_window(profile_half, rng, c):
    # the root scales like 1/c and leaves [1e-6, 1e6]
    params = small_params()
    with pytest.raises(BracketError, match="no sign change"):
        project(c * bump(params, rng), params, profile_half)


def test_nehari_evaluations_per_projection(profile_half, monkeypatch):
    params = ground_params()
    counts = {"phi": 0, "projections": 0}
    phi, project = model_mod.nehari_phi, solver_mod._project

    def counted_phi(*args):
        counts["phi"] += 1
        return phi(*args)

    def counted_project(*args):
        counts["projections"] += 1
        return project(*args)

    monkeypatch.setattr(model_mod, "nehari_phi", counted_phi)
    monkeypatch.setattr(solver_mod, "_project", counted_project)
    solve_ground(params, profile_half, random_seed_field(params, 11))
    assert counts["projections"] > 100
    assert counts["phi"] <= 8 * counts["projections"]


@pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("spec", [LOG_LINEAR, PURE_POWER, USER_TABLE])
def test_ray_levels_stay_below_projected_level(profile_half, rng,
                                               monkeypatch, spec, c):
    # the projected point maximizes I on its ray, so the level at every
    # Newton iterate, and anywhere on the ray, stays below the projected
    # level up to rounding; the projection's early rejection rests on this
    params = small_params(nonlinearity=spec)
    levels, phi = [], model_mod.nehari_phi

    def recorded_phi(*args):
        out = phi(*args)
        levels.append(out[1])
        return out
    monkeypatch.setattr(model_mod, "nehari_phi", recorded_phi)
    for _ in range(3):
        u = c * bump(params, rng, width=rng.uniform(0.5, 2.0))
        levels.clear()
        t, ev = model_mod._project(u.values, params, profile_half)
        assert bool(levels) == (spec is not PURE_POWER)
        levels += [oracles.level(s * t * u, params, profile_half)
                   for s in (0.5, 0.9, 0.999, 1.001, 1.1, 2.0)]
        assert ev.level > 0.0
        assert max(levels) <= ev.level * (1.0 + 1e-14)


@pytest.mark.parametrize("seed", [11, 15])
def test_early_rejection_keeps_the_solve(profile_half, monkeypatch, seed):
    # a projection that always runs to the root and leaves the Armijo test
    # to the level there gives the same solve, bit for bit; also from a
    # converged start (as compare_levels passes one in), where trial levels
    # differ from the current one by rounding only (at seed 15, rejecting
    # on the bare level > bound there changes the restart's history)
    params = ground_params()
    fast = [solve_ground(params, profile_half,
                         random_seed_field(params, seed))]
    fast.append(solve_ground(params, profile_half, fast[0].u))
    project = solver_mod._project

    def full_project(u, params, profile, bound=np.inf):
        t, ev = project(u, params, profile)
        return t, (ev if ev.level <= bound else None)
    monkeypatch.setattr(solver_mod, "_project", full_project)
    full = [solve_ground(params, profile_half,
                         random_seed_field(params, seed))]
    full.append(solve_ground(params, profile_half, full[0].u))
    for a, b in zip(full, fast):
        assert a.history == b.history
        assert np.array_equal(a.u.values, b.u.values)


@pytest.mark.parametrize("spec", [LOG_LINEAR, PURE_POWER, USER_TABLE])
def test_projection_core_matches_oracles(spec, profile_half, rng):
    # the solver reads Q, the sigma-form, Psi, the level and the gradient
    # at the projected point from the projection's terms; the full-lattice
    # oracles compute them afresh from t u
    params = small_params(nonlinearity=spec)

    def close(a, b):
        return abs(a - b) <= 1e-12 * abs(b)
    for _ in range(3):
        u = bump(params, rng, width=rng.uniform(0.5, 2.0))
        t, ev = project(u, params, profile_half)
        v = t * u
        assert np.array_equal(ev.values, v.values)
        assert close(ev.quad, oracles.quadratic_form(v, params, profile_half))
        form = profile_half.kappa * np.sum(
            oracles.full_multiplier(v.grid, params.m, params.sigma)
            * oracles.spectral_weights(v))
        assert close(ev.form, form)
        assert close(ev.psi, oracles.interaction(v, params))
        assert close(ev.level, oracles.level(v, params, profile_half))
        want = oracles.gradient(v, params, profile_half).values
        assert np.max(np.abs(ev.gradient(params, profile_half) - want)) \
            <= 1e-12 * np.max(np.abs(want))


def test_nehari_pure_power_closed_form(profile_half, rng):
    params = small_params(nonlinearity=PURE_POWER)
    u = bump(params, rng)
    theta = 2.5
    want = (oracles.quadratic_form(u, params, profile_half)
            / (2 * theta * oracles.interaction(u, params))) \
        ** (1 / (2 * theta - 2))
    assert abs(project(u, params, profile_half)[0] - want) < 1e-12 * want


def test_nehari_projected_field_is_critical(profile_half, rng):
    params = small_params()
    u = bump(params, rng)
    w = project(u, params, profile_half)[0] * u
    pair = abs(oracles.gradient(w, params, profile_half).inner(w))
    assert pair < 1e-10 * oracles.quadratic_form(w, params, profile_half)


def test_nehari_requires_positive_part(profile_half, rng):
    params = small_params()
    neg = TraceField(params.grid, -np.abs(rng.standard_normal(params.n)))
    with pytest.raises(DomainError, match="Nehari projection undefined"):
        project(neg, params, profile_half)


def test_interaction_quartic_growth(profile_half, rng):
    # Psi(t2 u)/Psi(t1 u) >= (t2/t1)^4 for t2 > t1 >= 1
    params = small_params()
    u = bump(params, rng)
    for t1, t2 in ((1.0, 2.0), (1.5, 4.0), (2.0, 9.0)):
        ratio = interaction(t2 * u, params) / interaction(t1 * u, params)
        assert ratio >= (t2 / t1) ** 4


def test_mountain_pass_geometry(profile_half, rng):
    # along each ray, I(tu) is positive for small t and negative for large t
    params = small_params()
    for _ in range(20):
        u = TraceField(params.grid,
                       np.abs(rng.standard_normal(params.n))
                       * np.exp(-params.grid.axis ** 2 / 4.0))
        ts = np.logspace(-2, 4, 64)
        quad = oracles.quadratic_form(u, params, profile_half)
        vals = np.array([model_mod.nehari_phi(t, u.values, params, quad)[1]
                         for t in ts])
        assert vals[0] > 0
        assert vals[-1] < 0


def test_pairing_consistency(profile_half, rng):
    # <Psi'(u), u> computed directly agrees with a finite difference of Psi
    params = small_params()
    u = bump(params, rng)
    eps = 1e-6
    fd = (interaction((1 + eps) * u, params)
          - interaction((1 - eps) * u, params)) / (2 * eps)
    assert abs(oracles.interaction_pairing(u, params) - fd) < 1e-6 * abs(fd)
