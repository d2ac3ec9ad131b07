"""Ground-state solver on small instances."""

import numpy as np
import pytest

from hartreebox.errors import (ConvergenceError, DomainError,
                               VerificationError)
from hartreebox.model import (KernelSpec, ModelParams, PotentialSpec,
                              SolverSettings)
from hartreebox.solver import (compare_levels, gaussian_bump, multistart,
                               solve_ground)
from hartreebox.spectral import Grid, TraceField

from oracles import gradient, linf_refinement_check, quadratic_form


def small_params(**kw):
    defaults = dict(sigma=0.5, m=1.0, dim=1, L=10.0, n=64,
                    potential=PotentialSpec(V_inf=1.0, A=0.3, w=2.0),
                    kernel=KernelSpec(a=0.0, b=1.0, w2=2.0))
    defaults.update(kw)
    return ModelParams(**defaults)


@pytest.fixture(scope="module")
def base_result(profile_half):
    return solve_ground(small_params(), profile_half)


def test_convergence_and_positivity(base_result, profile_half):
    params = small_params()
    res = base_result
    assert res.level > 0
    assert res.min_value > 0
    assert res.beta > 0
    quad = quadratic_form(res.u, params, profile_half)
    assert res.nehari_residual < params.solver.tol * quad


def test_energy_monotone_along_iterations(base_result):
    energies = [row[1] for row in base_result.history]
    assert all(b <= a + 1e-14 * abs(a)
               for a, b in zip(energies, energies[1:]))


def test_weak_form_residual(base_result, profile_half, rng):
    params = small_params()
    g = gradient(base_result.u, params, profile_half)
    scale = quadratic_form(base_result.u, params, profile_half)
    for _ in range(10):
        v = TraceField(params.grid, rng.standard_normal(params.n))
        v = (1.0 / v.norm_l2()) * v
        assert abs(g.inner(v)) < 10 * params.solver.tol * scale


def test_seeds_agree_on_level(profile_half):
    params = small_params()
    best, results = multistart(params, profile_half, [5, 6])
    a, b = (r.level for r in results)
    assert abs(a - b) < 1e-4 * min(a, b)


def test_translation_invariance_without_well(profile_half):
    params = small_params(potential=PotentialSpec(V_inf=1.0, A=0.0, w=2.0))
    centered = solve_ground(params, profile_half,
                            gaussian_bump(params.grid, 1.0, 1.5))
    shifted = solve_ground(params, profile_half,
                           gaussian_bump(params.grid, 1.0, 1.5, (3.0,)))
    assert abs(centered.level - shifted.level) < 1e-6 * centered.level


def test_shifted_start_converges_under_rounding_perturbations(profile_half):
    # from a shifted start at A = 0 the descent slides along the nearly flat
    # translation mode, where s.y <= 0 leaves Barzilai-Borwein without a
    # curvature estimate; with a fallback step of 1 there, about a third of
    # starts perturbed at 1e-15 crawl past max_iter
    params = small_params(potential=PotentialSpec(V_inf=1.0, A=0.0, w=2.0))
    centered = solve_ground(params, profile_half,
                            gaussian_bump(params.grid, 1.0, 1.5))
    shifted = gaussian_bump(params.grid, 1.0, 1.5, (3.0,)).values
    rng = np.random.default_rng(2026)
    for _ in range(3):
        seed = shifted * (1.0 + 1e-15 * rng.standard_normal(params.n))
        res = solve_ground(params, profile_half,
                           TraceField(params.grid, seed))
        assert abs(res.level - centered.level) < 1e-6 * centered.level


def test_asymptotic_solution_symmetric(profile_half):
    # the A = 0 problem compare_levels solves for c_inf
    params = small_params(potential=PotentialSpec(V_inf=1.0, A=0.0, w=2.0))
    res = solve_ground(params, profile_half)
    vals = res.u.values
    peak = int(np.argmax(vals))
    reflected = vals[(2 * peak - np.arange(params.n)) % params.n]
    asym = np.max(np.abs(vals - reflected)) / np.max(vals)
    assert asym < 1e-3


def test_asymptotic_ignores_well_depth(profile_half):
    deep = small_params(potential=PotentialSpec(V_inf=1.0, A=0.6, w=2.0))
    shallow = small_params(potential=PotentialSpec(V_inf=1.0, A=0.1, w=2.0))
    a = compare_levels(deep, profile_half)[1]
    b = compare_levels(shallow, profile_half)[1]
    assert abs(a - b) < 1e-8 * a


def test_compare_levels_ordering(profile_half):
    c_star, c_inf, margin = compare_levels(small_params(), profile_half)
    assert 0 < c_star < c_inf
    assert margin > 0


def test_compare_levels_equal_without_well(profile_half):
    params = small_params(potential=PotentialSpec(V_inf=1.0, A=0.0, w=2.0))
    c_star, c_inf, margin = compare_levels(params, profile_half)
    assert abs(c_star - c_inf) < 1e-6 * c_inf


def test_margin_monotone_in_well_depth(profile_half):
    margins = []
    for frac in (0.1, 0.2, 0.4):
        params = small_params(
            potential=PotentialSpec(V_inf=1.0, A=frac, w=2.0))
        margins.append(compare_levels(params, profile_half)[2])
    assert margins[0] < margins[1] < margins[2]


def test_refinement_check(base_result, profile_half):
    change, fine = linf_refinement_check(base_result, small_params(),
                                         profile_half)
    assert change < 0.02
    assert np.isfinite(fine.u.norm_lq(np.inf))
    with pytest.raises(VerificationError, match="grid refinement"):
        linf_refinement_check(base_result, small_params(), profile_half,
                              rtol=0.5 * change)


def test_seed_on_another_grid(profile_half):
    params = small_params()
    other = TraceField(Grid(1, 5.0, params.n), np.ones(params.n))
    with pytest.raises(DomainError, match="seed grid"):
        solve_ground(params, profile_half, other)


def test_seed_without_positive_part(profile_half):
    params = small_params()
    bad = TraceField(params.grid, -np.ones(params.n))
    with pytest.raises(DomainError, match="positive part"):
        solve_ground(params, profile_half, bad)


def test_iteration_budget_exhaustion(profile_half):
    params = small_params(solver=SolverSettings(tol=1e-8, max_iter=2))
    with pytest.raises(ConvergenceError) as exc:
        solve_ground(params, profile_half)
    history = exc.value.history
    assert [row[0] for row in history] == [0, 1, 2]
    # the message reports the last row's residuals
    _, _, nehari, gnorm, _ = history[-1]
    assert np.isfinite(nehari) and np.isfinite(gnorm)
    assert (f"no convergence in 2 iterations (nehari_residual={nehari:.3e}, "
            f"grad_residual={gnorm:.3e})") == str(exc.value)


def test_history_schema(base_result):
    it, e, nr, gr, step = base_result.history[-1]
    assert it == base_result.iters
    assert e == base_result.level


def test_gaussian_bump_shape():
    params = small_params()
    b = gaussian_bump(params.grid, 2.0, 1.5)
    assert abs(b.norm_lq(np.inf) - 2.0) < 1e-12
    assert np.argmax(b.values) == params.n // 2
