"""Nonlinearity hypotheses, energy functional, and Nehari projection."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad as quadrature
from scipy.optimize import brentq

import hartreebox.model as model_mod
import hartreebox.solver as solver_mod
from hartreebox.errors import DiagnosticError, DomainError
from hartreebox.model import (KernelSpec, ModelParams, NonlinearitySpec,
                              PotentialSpec)
from hartreebox.solver import multistart, random_seed_field, solve_ground
from hartreebox.spectral import TraceField, half_lattice_form

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


def nonlinearity(spec, t):
    """(F(t), f(t), f'(t)) as the evaluation core computes them."""
    F, f, df = model_mod._nonlinearity(spec, t)
    return F, f, df()


def f_of(spec, t):
    return nonlinearity(spec, t)[1]


def scaled(c, u):
    """The field c u."""
    return TraceField(u.grid, c * u.values)


def interaction(u, params):
    """Psi(u) = 1/2 int (W * F(u)) F(u), as the evaluation core computes
    it: nehari_phi's terms at t = 1 (its Q argument enters only phi)."""
    return model_mod.nehari_phi(1.0, u.values, params, 1.0)[2][3]


def project(u, params):
    """The Nehari scale of the field u and the core's terms at t u."""
    return model_mod._project(u.values, params)


def core_gradient(ev, params):
    """The core's gradient at its point, as a grid array."""
    shape = params.grid.shape
    return np.fft.irfftn(ev.gradient_spectrum(params), s=shape,
                         axes=tuple(range(len(shape))))


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
        ref, _ = quadrature(lambda s: f_of(spec, s), 0.0, t,
                            epsabs=1e-12, epsrel=1e-12)
        assert abs(nonlinearity(spec, t)[0] - ref) < 1e-8


def test_log_linear_primitive_keeps_its_digits_at_small_t():
    # F(t) = sum_k (-1)^(k+1) t^(k+2) / (k (k+2)); for t <= 0.1, 30 terms
    # summed smallest first leave a remainder below 1e-30 of the sum
    t = np.logspace(-8, -1, 141)
    k = np.arange(30, 0, -1)[:, None]
    series = np.sum((-1.0) ** (k + 1) * t ** (k + 2) / (k * (k + 2)), axis=0)
    F = nonlinearity(LOG_LINEAR, t)[0]
    assert np.all(np.abs(F - series) <= 1e-14 * series)


def test_f_vanishes_at_zero_and_below():
    assert f_of(LOG_LINEAR, 0.0) == 0.0
    assert f_of(LOG_LINEAR, -1.0) == 0.0
    assert nonlinearity(LOG_LINEAR, -2.5)[0] == 0.0
    t = np.array([-3.0, -0.1, 0.0, 0.5])
    assert np.all(f_of(PURE_POWER, t)[:3] == 0.0)


@pytest.mark.parametrize("spec", [LOG_LINEAR, PURE_POWER])
def test_superlinear_limit_at_zero(spec):
    # (f1): f(t)/t -> 0, ratio decreasing below 1e-2
    ratios = [f_of(spec, t) / t for t in (1e-3, 1e-4, 1e-5)]
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[2] < 1e-2


@pytest.mark.parametrize("spec", [LOG_LINEAR, PURE_POWER])
def test_quotient_increasing(spec):
    # (f3): f(t)/t strictly increasing on t > 0
    t = np.logspace(-4, 3, 200)
    q = f_of(spec, t) / t
    assert np.all(np.diff(q) > 0)


@pytest.mark.parametrize("spec", [LOG_LINEAR, PURE_POWER])
def test_ambrosetti_rabinowitz(spec):
    t = np.logspace(-4, 3, 200)
    F, f, _ = nonlinearity(spec, t)
    assert np.all(2.0 * F <= t * f + 1e-14)


def test_growth_bound_constant_exists():
    # (boundf): |f(t)| <= xi t + C_xi t^(theta-1) with a finite fitted C_xi
    xi = 0.1
    t = np.logspace(-6, 3, 300)
    excess = np.maximum(f_of(LOG_LINEAR, t) - xi * t, 0.0)
    C = float(np.max(excess / t ** (LOG_LINEAR.theta - 1.0)))
    assert np.isfinite(C) and C > 0
    assert np.all(f_of(LOG_LINEAR, t)
                  <= xi * t + C * t ** (LOG_LINEAR.theta - 1.0) + 1e-14)


@pytest.mark.parametrize("spec", [LOG_LINEAR, PURE_POWER])
def test_derivative_matches_central_difference(spec):
    t = np.concatenate([np.linspace(0.1, 3.95, 39), [5.0, 9.0]])
    h = 1e-6
    fd = (f_of(spec, t + h) - f_of(spec, t - h)) / (2 * h)
    assert np.allclose(nonlinearity(spec, t)[2], fd, rtol=1e-7, atol=1e-9)
    assert nonlinearity(spec, -1.0)[2] == 0.0


def test_nonlinearity_validation():
    with pytest.raises(DomainError):
        NonlinearitySpec("cubic")
    with pytest.raises(DomainError):
        NonlinearitySpec("log_linear", theta=2.0)


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
    for make, message in (
            (lambda: PotentialSpec(V_inf=0.0), "V_inf must be positive"),
            (lambda: PotentialSpec(A=-0.1), "well depth A"),
            (lambda: PotentialSpec(w=0.0), "well width w"),
            (lambda: KernelSpec(a=-0.1), "amplitudes must be nonnegative"),
            (lambda: KernelSpec(b=-0.1), "amplitudes must be nonnegative"),
            (lambda: KernelSpec(a=0.0, b=0.0), "identically zero"),
            (lambda: KernelSpec(mu=-0.1), "exponent mu"),
            (lambda: KernelSpec(R_c=0.0), "ranges must be positive"),
            (lambda: KernelSpec(w2=0.0), "ranges must be positive"),
            (lambda: ModelParams(sigma=0.5, m=1.0, dim=1, L=5.0, n=8,
                                 tol=0.0), "solver tolerance")):
        with pytest.raises(DomainError, match=message):
            make()


def test_coercivity_validation():
    # min V + V0 kappa >= 0 with V0 = 0.9 min(1, m^2) min(A / V_inf, 1): at
    # V_inf = m = 1 and sigma = 1/2 (kappa = 1) a well may reach min V = -0.9
    small_params(potential=PotentialSpec(V_inf=1.0, A=1.9, w=2.0)).validate()
    deep = small_params(potential=PotentialSpec(V_inf=1.0, A=1.91, w=2.0))
    with pytest.raises(DomainError, match="coercivity"):
        deep.validate()


def test_kernel_is_radial_and_nonnegative():
    params = small_params(kernel=KernelSpec(a=0.5, mu=0.4, R_c=2.0,
                                            b=1.0, w2=2.0))
    vals = params.kernel.sample(params.grid)
    assert np.all(vals >= 0)
    # displacement symmetry: W(d) = W(-d)
    assert np.allclose(vals[1:], vals[1:][::-1])


@pytest.mark.parametrize("dim,L,n,R_c", [
    (1, 20.0, 256, 1.25), (1, 4.0, 24, 1.0), (2, 10.0, 64, 1.25),
    (2, 4.0, 24, 1.0), (3, 10.0, 32, 1.25), (3, 4.0, 24, 1.0),
    (3, 4.0, 48, 1.0)])
def test_kernel_spectrum_is_real(dim, L, n, R_c):
    # the power core is cut at a lattice distance R_c, where a radius that
    # differs between y and -y in its last bit keeps one of the pair: W is
    # even only if the radius is, and then its spectrum is real to rounding
    params = small_params(dim=dim, L=L, n=n, kernel=KernelSpec(
        a=1.0, mu=0.5, R_c=R_c, b=1.0, w2=3.0))
    spec = params.kernel_spectrum
    assert np.max(np.abs(spec.imag)) <= 1e-13 * np.max(np.abs(spec.real))


# ---------------------------------------------------------------------------
# Energy and gradient

def test_energy_components(rng):
    params = small_params()
    _, ev = project(bump(params, rng), params)
    assert ev.level == 0.5 * ev.quad - ev.psi
    assert ev.quad > 0 and ev.psi > 0


def zero_field_terms(params):
    """nehari_phi at the zero field, which _project does not accept."""
    return model_mod.nehari_phi(1.0, np.zeros(params.n), params, 0.0)


def test_energy_zero_field():
    params = small_params()
    z = np.zeros(params.n)
    assert model_mod._quad_terms(params, z, np.fft.rfftn(z)) == 0.0
    phi, level, (_, conv, f, psi), _ = zero_field_terms(params)
    assert phi == 0.0 and level == 0.0 and psi == 0.0
    assert not np.any(conv) and not np.any(f)


def test_interaction_homogeneity_pure_power(rng):
    params = small_params(nonlinearity=PURE_POWER)
    u = bump(params, rng)
    base = interaction(u, params)
    for t in (0.5, 2.0, 3.0):
        got = interaction(scaled(t, u), params)
        assert abs(got - t ** 5 * base) < 1e-12 * t ** 5 * base


def test_quadratic_part_coercive(profile_half, rng):
    # Q(v) > kappa |v|^2 / 2 at the projected point v of each random field
    params = small_params()
    for _ in range(10):
        u = TraceField(params.grid, rng.standard_normal(params.n))
        _, ev = project(u, params)
        v = TraceField(params.grid, ev.values)
        assert ev.quad > 0.5 * profile_half.kappa * v.norm_l2() ** 2


def test_gradient_matches_directional_derivative(profile_half, rng):
    # the core's gradient at a projected point against central differences
    # of the oracle energy
    params = small_params()
    _, ev = project(bump(params, rng), params)
    u = TraceField(params.grid, ev.values)
    v = TraceField(params.grid, rng.standard_normal(params.n))
    eps = 1e-5
    fd = (oracles.level(TraceField(u.grid, u.values + eps * v.values),
                        params, profile_half)
          - oracles.level(TraceField(u.grid, u.values - eps * v.values),
                          params, profile_half)) / (2 * eps)
    pair = params.grid.cell_volume * np.sum(
        core_gradient(ev, params) * v.values)
    assert abs(pair - fd) < 1e-5 * abs(fd)


def test_gradient_zero_field():
    params = small_params()
    _, _, (v, conv, f, psi), _ = zero_field_terms(params)
    ev = model_mod._Evaluation(v, np.fft.rfftn(v), 0.0, psi, conv * f)
    assert np.all(core_gradient(ev, params) == 0.0)


# ---------------------------------------------------------------------------
# Nehari projection

def test_nehari_fixed_point_and_scaling(rng):
    params = small_params()
    u = bump(params, rng)
    t_u = project(u, params)[0]
    assert t_u > 0
    assert abs(project(scaled(t_u, u), params)[0] - 1.0) < 1e-8
    for c in (0.5, 2.0):
        got = project(scaled(c, u), params)[0]
        assert abs(got - t_u / c) < 1e-8 * t_u / c


def oracle_nehari_scale(u, params, profile):
    """Dense log scan plus brentq on phi(t) = t Q - <Psi'(tu), tu>/t."""
    quad = oracles.quadratic_form(u, params, profile)

    def phi(t):
        return t * quad - oracles.interaction_pairing(scaled(t, u),
                                                      params) / t

    ts = np.logspace(-6, 6, 481)
    vals = [phi(t) for t in ts]
    k = next(i for i in range(len(ts) - 1) if vals[i] > 0.0 >= vals[i + 1])
    return brentq(phi, ts[k], ts[k + 1], xtol=1e-300, rtol=8.9e-16)


@pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
def test_nehari_scale_matches_oracle(profile_half, rng, c):
    params = small_params()
    u = scaled(c, bump(params, rng))
    want = oracle_nehari_scale(u, params, profile_half)
    assert abs(project(u, params)[0] - want) < 1e-12 * want


@pytest.mark.parametrize("c", [1e-7, 1e7])
def test_nehari_scale_root_outside_window(rng, c):
    # the root scales like 1/c and leaves [1e-6, 1e6]
    params = small_params()
    with pytest.raises(DiagnosticError, match="no sign change"):
        project(scaled(c, bump(params, rng)), params)


def test_nehari_evaluations_per_projection(monkeypatch):
    params = ground_params()
    counts = {"phi": 0, "projections": 0}
    phi, project = model_mod.nehari_phi, solver_mod._project

    def counted_phi(*args):
        counts["phi"] += 1
        return phi(*args)

    def counted_project(*args, **kwargs):
        counts["projections"] += 1
        return project(*args, **kwargs)

    monkeypatch.setattr(model_mod, "nehari_phi", counted_phi)
    monkeypatch.setattr(solver_mod, "_project", counted_project)
    multistart(params, [11, 12, 13])
    # the three screened starts of the workload's config seed 11 and the
    # polish of the best make 54 projections (3.13 evaluations each); > 50
    # keeps the per-projection bound an average over many of them
    assert counts["projections"] > 50
    assert counts["phi"] <= 3.5 * counts["projections"]


@pytest.mark.parametrize("c", [1.0, 2.5])
def test_log_newton_reaches_power_root_in_one_step(rng, monkeypatch, c):
    # for a power nonlinearity G(s) = ln(P / (Q t^2)) is linear in
    # s = ln t, so one Newton step in s from t = 1 lands on the closed-form
    # root from either side (the field c u has its root at 1.5 / c), and
    # the second evaluation confirms it
    params = small_params(nonlinearity=PURE_POWER)
    u = bump(params, rng)
    u = scaled(c, scaled(project(u, params)[0] / 1.5, u))
    want = project(u, params)[0]
    assert abs(want - 1.5 / c) < 1e-12
    quad = model_mod._quad_terms(params, u.values, np.fft.rfftn(u.values))
    calls, phi = [], model_mod.nehari_phi

    def counted_phi(*args):
        calls.append(args[0])
        return phi(*args)
    monkeypatch.setattr(model_mod, "nehari_phi", counted_phi)
    t, terms = model_mod._nehari_root(u.values, params, quad, np.inf)
    assert calls[0] == 1.0 and len(calls) == 2
    assert terms is not None
    assert abs(t - want) < 1e-13 * want


@pytest.mark.parametrize("factor", [0.01, 100.0])
def test_log_newton_reaches_root_from_afar(monkeypatch, factor):
    # on the 1D workload's start at seed 11, G is nearly linear in ln t, so
    # Newton steps from t = 1 at a hundredth or a hundred times the root
    # land on it in a few evaluations, with the window as the only bracket:
    # the field c u, c = factor * t, has its root at t / c = 1 / factor
    params = ground_params()
    u = random_seed_field(params, 11).values
    c = factor * model_mod._project(u, params)[0]
    want = 1.0 / factor
    u = c * u
    quad = model_mod._quad_terms(params, u, np.fft.rfftn(u))
    calls, phi = [], model_mod.nehari_phi

    def counted_phi(*args):
        calls.append(args[0])
        return phi(*args)
    monkeypatch.setattr(model_mod, "nehari_phi", counted_phi)
    t, terms = model_mod._nehari_root(u, params, quad, np.inf)
    assert terms is not None
    assert abs(t - want) < 1e-13 * want
    assert len(calls) <= 6


def test_bisection_alone_finds_the_root(profile_half, rng, monkeypatch):
    # with G' = -1 < 0 from the slope nehari_phi hands back (phi' = Q), no
    # Newton step is taken: every step bisects the bracket in ln t, from the
    # window [1e-6, 1e6] down to the root
    params = small_params()
    u = bump(params, rng)
    calls, phi = [], model_mod.nehari_phi

    def flat_slope(t, v, params, quad):
        calls.append(t)
        return (*phi(t, v, params, quad)[:3], lambda: quad)
    monkeypatch.setattr(model_mod, "nehari_phi", flat_slope)
    t = project(u, params)[0]
    assert calls[:2] in ([1.0, 1e-3], [1.0, 1e3])
    want = oracle_nehari_scale(u, params, profile_half)
    assert abs(t - want) < 1e-12 * want


@pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("spec", [LOG_LINEAR, PURE_POWER])
def test_ray_levels_stay_below_projected_level(profile_half, rng,
                                               monkeypatch, spec, c):
    # the projected point maximizes I on its ray, so the level at every
    # Newton iterate, and anywhere on the ray, stays below the projected
    # level up to rounding; the projection's early rejection rests on this.
    # Every root search starts at t = 1
    params = small_params(nonlinearity=spec)
    levels, starts, phi = [], [], model_mod.nehari_phi

    def recorded_phi(*args):
        out = phi(*args)
        starts.append(args[0])
        levels.append(out[1])
        return out
    monkeypatch.setattr(model_mod, "nehari_phi", recorded_phi)
    for _ in range(3):
        u = scaled(c, bump(params, rng, width=rng.uniform(0.5, 2.0)))
        levels.clear()
        starts.clear()
        t, ev = model_mod._project(u.values, params)
        # pure_power's closed form makes no search
        assert starts[:1] == ([] if spec is PURE_POWER else [1.0])
        levels += [oracles.level(scaled(s * t, u), params, profile_half)
                   for s in (0.5, 0.9, 0.999, 1.001, 1.1, 2.0)]
        assert ev.level > 0.0
        assert max(levels) <= ev.level * (1.0 + 1e-14)


@pytest.mark.parametrize("seed", [11, 13, 15])
def test_early_rejection_keeps_the_solve(monkeypatch, seed):
    # a projection that always runs to the root and leaves the Armijo test
    # to the level there gives the same solve, bit for bit; also from a
    # converged start under a tighter tolerance (a caller may pass one in),
    # where trial levels differ from the current one by rounding only (at
    # seed 13, rejecting on the bare level > bound there stalls the solve
    # until max_iter)
    params = ground_params()
    tight = dataclasses.replace(params, tol=1e-9)
    fast = [solve_ground(params, random_seed_field(params, seed))]
    fast.append(solve_ground(tight, fast[0].u))
    project = solver_mod._project

    def full_project(u, params, bound=np.inf, spectrum=None):
        t, ev = project(u, params, spectrum=spectrum)
        return t, (ev if ev.level <= bound else None)
    monkeypatch.setattr(solver_mod, "_project", full_project)
    full = [solve_ground(params, random_seed_field(params, seed))]
    full.append(solve_ground(tight, full[0].u))
    for a, b in zip(full, fast):
        assert a.history == b.history
        assert np.array_equal(a.u.values, b.u.values)


@pytest.mark.parametrize("spec", [LOG_LINEAR, PURE_POWER])
def test_projection_core_matches_oracles(spec, profile_half, rng):
    # the solver reads Q, Psi, the level and the gradient at the projected
    # point from the projection's terms, and Q holds the sigma-form of the
    # projected spectrum; the full-lattice oracles compute them afresh from
    # t u
    params = small_params(nonlinearity=spec)

    def close(a, b):
        return abs(a - b) <= 1e-12 * abs(b)
    for _ in range(3):
        u = bump(params, rng, width=rng.uniform(0.5, 2.0))
        t, ev = project(u, params)
        v = scaled(t, u)
        assert np.array_equal(ev.values, v.values)
        assert close(ev.quad, oracles.quadratic_form(v, params, profile_half))
        form = profile_half.kappa * np.sum(
            oracles.full_multiplier(v.grid, params.m, params.sigma)
            * oracles.spectral_weights(v))
        assert close(params.kappa * half_lattice_form(
            params.grid, params.multiplier, ev.spectrum), form)
        assert close(ev.psi, oracles.interaction(v, params))
        assert close(ev.level, oracles.level(v, params, profile_half))
        want = oracles.gradient(v, params, profile_half).values
        assert np.max(np.abs(core_gradient(ev, params)
                              - want)) \
            <= 1e-12 * np.max(np.abs(want))


def test_nehari_pure_power_closed_form(profile_half, rng):
    params = small_params(nonlinearity=PURE_POWER)
    u = bump(params, rng)
    theta = 2.5
    want = (oracles.quadratic_form(u, params, profile_half)
            / (2 * theta * oracles.interaction(u, params))) \
        ** (1 / (2 * theta - 2))
    assert abs(project(u, params)[0] - want) < 1e-12 * want


def test_nehari_projected_field_is_critical(profile_half, rng):
    params = small_params()
    u = bump(params, rng)
    w = scaled(project(u, params)[0], u)
    pair = abs(w.grid.cell_volume * np.sum(
        oracles.gradient(w, params, profile_half).values * w.values))
    assert pair < 1e-10 * oracles.quadratic_form(w, params, profile_half)


def test_nehari_requires_positive_part(rng):
    params = small_params()
    neg = TraceField(params.grid, -np.abs(rng.standard_normal(params.n)))
    with pytest.raises(DomainError, match="Nehari projection undefined"):
        project(neg, params)


def test_interaction_quartic_growth(rng):
    # Psi(t2 u)/Psi(t1 u) >= (t2/t1)^4 for t2 > t1 >= 1
    params = small_params()
    u = bump(params, rng)
    for t1, t2 in ((1.0, 2.0), (1.5, 4.0), (2.0, 9.0)):
        ratio = (interaction(scaled(t2, u), params)
                 / interaction(scaled(t1, u), params))
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


def test_pairing_consistency(rng):
    # <Psi'(u), u> computed directly agrees with a finite difference of Psi
    params = small_params()
    u = bump(params, rng)
    eps = 1e-6
    fd = (interaction(scaled(1 + eps, u), params)
          - interaction(scaled(1 - eps, u), params)) / (2 * eps)
    assert abs(oracles.interaction_pairing(u, params) - fd) < 1e-6 * abs(fd)
