"""Ground-state solver on small instances."""

import collections
import dataclasses
import logging

import numpy as np
import pytest

import hartreebox.solver as solver_mod
from hartreebox.errors import (ConvergenceError, DomainError,
                               VerificationError)
from hartreebox.model import (KernelSpec, ModelParams, NonlinearitySpec,
                              PotentialSpec)
from hartreebox.solver import (compare_levels, gaussian_bump, multistart,
                               random_seed_field, solve_ground)
from hartreebox.spectral import Grid, TraceField

from oracles import (centred_seed, full_multiplier, gradient,
                     linf_refinement_check, quadratic_form, spectral_weights)
from test_acceptance import ground_params


def small_params(**kw):
    defaults = dict(sigma=0.5, m=1.0, dim=1, L=10.0, n=64,
                    potential=PotentialSpec(V_inf=1.0, A=0.3, w=2.0),
                    kernel=KernelSpec(a=0.0, b=1.0, w2=2.0))
    defaults.update(kw)
    return ModelParams(**defaults)


@pytest.fixture(scope="module")
def base_result():
    params = small_params()
    return solve_ground(params, centred_seed(params))


def test_convergence_and_positivity(base_result, profile_half):
    params = small_params()
    res = base_result
    assert res.level > 0
    assert res.min_value > 0
    assert res.beta > 0
    quad = quadratic_form(res.u, params, profile_half)
    assert res.nehari_residual < params.tol * quad


def stationarity(result, params, profile):
    """r = sqrt(<g, P g> / Q) at the result's field, with P = (kappa (m^2 +
    4 pi^2 |xi|^2)^sigma + V_inf)^(-1), from the full-lattice oracles."""
    u = result.u
    precond = 1.0 / (profile.kappa * full_multiplier(u.grid, params.m,
                                                     params.sigma)
                     + params.potential.V_inf)
    g = gradient(u, params, profile)
    return (np.sum(precond * spectral_weights(g))
            / quadratic_form(u, params, profile)) ** 0.5


def test_workload_starts_end_stationary(profile_half):
    # the three starts of the 1D n = 256 workload at config seed 11, each
    # solved to solver.tol (multistart drives only the best one that far)
    params = ground_params()
    results = [solve_ground(params, random_seed_field(params, seed))
               for seed in (11, 12, 13)]
    for res in results:
        assert res.stationarity <= params.tol
        assert stationarity(res, params, profile_half) <= params.tol
    levels = [res.level for res in results]
    assert (max(levels) - min(levels)) / min(levels) < 1e-12


@pytest.fixture(scope="module")
def workload_multistart():
    # `solve`'s three starts on the 1D workload at config seed 11
    return multistart(ground_params(), [11, 12, 13])


def test_multistart_polishes_only_the_best_start(workload_multistart,
                                                 profile_half):
    # the best start alone reaches solver.tol, at the level a full-tol
    # solve of the same start reaches, and its result covers the screen
    # and the polish from the screened field
    params = ground_params()
    best, results = workload_multistart
    start = random_seed_field(params, 11 + [r is best for r in results]
                              .index(True))
    assert best.stationarity <= params.tol
    assert stationarity(best, params, profile_half) <= params.tol
    full = solve_ground(params, start)
    assert abs(best.level - full.level) <= 1e-12 * full.level
    screen = solve_ground(params, start, tol=solver_mod._SCREEN_TOL)
    polish = solve_ground(params, screen.u)
    assert best.history[:len(screen.history)] == screen.history
    assert [row[0] for row in best.history] == list(range(best.iters + 1))
    assert best.iters == screen.iters + polish.iters > screen.iters
    assert best.translation_steps == (screen.translation_steps
                                      + polish.translation_steps)
    assert best.beta == min(screen.beta, polish.beta)


def test_multistart_screens_the_other_starts(workload_multistart,
                                             profile_half):
    # the other two stop at r <= _SCREEN_TOL, short of solver.tol, within
    # 1e-4 of the best level
    params = ground_params()
    best, results = workload_multistart
    screened = [r for r in results if r is not best]
    assert len(screened) == 2
    for res in screened:
        assert params.tol < res.stationarity <= solver_mod._SCREEN_TOL
        r = stationarity(res, params, profile_half)
        assert r <= solver_mod._SCREEN_TOL
        assert abs(r - res.stationarity) <= 1e-6 * r
        assert 0.0 < (res.level - best.level) / best.level < 1e-4


def test_multistart_logs_each_start(caplog):
    # one INFO line per screened start, then one for the polish of the best
    params = small_params()
    with caplog.at_level(logging.INFO, logger="hartreebox.solver"):
        best, results = multistart(params, [5, 6])
    screens = [solve_ground(params, random_seed_field(params, seed),
                            tol=solver_mod._SCREEN_TOL) for seed in (5, 6)]
    k = [r is best for r in results].index(True)
    lines = [f"screened start {seed}: level {r.level:.12g}, {r.iters} "
             f"iterations, r {r.stationarity:.2e}"
             for seed, r in zip((5, 6), screens)]
    lines.append(f"polished start {5 + k}: level {best.level:.12g}, "
                 f"{best.iters - screens[k].iters} iterations, "
                 f"r {best.stationarity:.2e}")
    assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] \
        == [("hartreebox.solver", "INFO", line) for line in lines]


def test_converged_start_stops_at_its_first_check(base_result):
    params = small_params()
    res = solve_ground(params, base_result.u)
    assert res.iters == 0 and len(res.history) == 1
    assert res.stationarity <= params.tol
    assert abs(res.level - base_result.level) <= 1e-14 * base_result.level


def bench_physics(dim, L, n, kind):
    """The benchmark's problem (sigma 1/2, theta 5/2, the A = 0.3, w = 4
    well, the w2 = 3 Gaussian kernel) on another grid."""
    return ModelParams(sigma=0.5, m=1.0, dim=dim, L=L, n=n,
                       nonlinearity=NonlinearitySpec(kind, 2.5),
                       potential=PotentialSpec(V_inf=1.0, A=0.3, w=4.0),
                       kernel=KernelSpec(a=0.0, b=1.0, w2=3.0))


# 3D n = 16 pins the field to lattice sites; 2D n = 64 resolves it, and at
# seed 12 the gate opens (at seed 11 the seed's own tail, 1.4e-6, shuts it)
@pytest.mark.parametrize("params, seed, moves", [
    (ground_params(), 11, True),
    (bench_physics(3, 10.0, 16, "pure_power"), 11, False),
    (bench_physics(2, 10.0, 64, "pure_power"), 12, True)],
    ids=["1d", "3d", "2d"])
def test_trial_spectra_track_their_fields(params, seed, moves, monkeypatch):
    # each trial's spectrum is the current one plus the step times the
    # direction's, and a shifted point's is the current one times the phase
    # ramp, neither a transform of the field; after a whole solve the last
    # projected point's spectrum is still rfftn of its values
    accepted, project = [], solver_mod._project

    def recorded(*args):
        t, ev = project(*args)
        if ev is not None:
            accepted.append(ev)
        return t, ev
    monkeypatch.setattr(solver_mod, "_project", recorded)
    res = solve_ground(params, random_seed_field(params, seed))
    assert (res.translation_steps > 0) == moves
    ev = accepted[-1]
    assert np.array_equal(ev.values, res.u.values)
    want = np.fft.rfftn(ev.values)
    assert np.max(np.abs(ev.spectrum - want)) <= 1e-13 * np.max(np.abs(want))


def test_resolved_start_shifts_to_the_well():
    # the 1D workload's start at seed 11 lies 3.7 off the well; L-BFGS
    # alone took 68 iterations to carry it there, with 5 shifts it takes 17
    params = ground_params()
    res = solve_ground(params, random_seed_field(params, 11))
    centred = solve_ground(params, centred_seed(params))
    assert res.stationarity <= params.tol
    assert res.iters <= 35
    assert res.translation_steps >= 1
    assert abs(res.level - centred.level) <= 1e-12 * centred.level


@pytest.mark.parametrize("params", [
    bench_physics(3, 10.0, 16, "pure_power"),
    bench_physics(1, 20.0, 64, "log_linear"),
    dataclasses.replace(ground_params(),
                        potential=PotentialSpec(V_inf=1.0, A=0.0, w=4.0))],
    ids=["3d-pinned", "1d-coarse", "1d-no-well"])
def test_gate_keeps_unresolved_and_flat_solves(params, monkeypatch):
    # on a grid that pins the field to its sites (3D n = 16), or leaves 5e-4
    # of it on the outer shell (1D n = 64), and without a well, the gate
    # never opens, and the solve is the one without the step, bit for bit
    tried, shift = [], solver_mod._shift

    def recorded(*args):
        tried.append(args)
        return shift(*args)
    monkeypatch.setattr(solver_mod, "_shift", recorded)
    seeds = [random_seed_field(params, seed) for seed in (11, 12)]
    runs = [solve_ground(params, seed) for seed in seeds]
    assert tried == []
    monkeypatch.setattr(solver_mod, "_shift", lambda *args: None)
    for seed, run in zip(seeds, runs):
        bare = solve_ground(params, seed)
        assert run.translation_steps == 0
        assert run.history == bare.history
        assert np.array_equal(run.u.values, bare.u.values)


def test_workload_config_seeds_end_stationary():
    # the 60 starts of `solve` at the 1D workload's config seeds 0-19, each
    # solved to solver.tol, and the A = 0 solve from the best of each three.
    # The solver runs at the rounding floor of the level, where a change in
    # its rounding can stop a start on the line search
    params = ground_params()
    solved = {seed: solve_ground(params, random_seed_field(params, seed))
              for seed in range(22)}
    levels, flat_levels = [], []
    for config_seed in range(20):
        results = [solved[s] for s in range(config_seed, config_seed + 3)]
        assert all(r.stationarity <= params.tol for r in results)
        levels += [r.level for r in results]
        best = min(results, key=lambda r: r.level)
        flat_levels.append(compare_levels(params, best)[1])
    for values in (levels, flat_levels):
        assert max(values) - min(values) <= 1e-9 * min(values)


def test_tighter_resolves_pass_the_rounding_floor():
    # at tol 1e-9 the Armijo decrease r^2 Q is about 1e-18 of the level,
    # below its rounding; without the noise-tolerant rule at the floor,
    # start 0 ended on the line search at tol 1e-8 already, and 4 of the
    # other 19 re-solves did
    params = ground_params()
    tight = dataclasses.replace(params, tol=1e-9)
    for seed in range(20):
        start = solve_ground(params, random_seed_field(params, seed))
        res = solve_ground(tight, start.u)
        assert res.stationarity <= tight.tol
        assert abs(res.level - start.level) <= 1e-13 * start.level


def a_zero_params(params, base_result, monkeypatch):
    """The parameter set of the one solve compare_levels makes."""
    solved, solve = [], solver_mod.solve_ground

    def recorded(params, *args):
        solved.append(params)
        return solve(params, *args)
    monkeypatch.setattr(solver_mod, "solve_ground", recorded)
    compare_levels(params, base_result)
    (flat,) = solved
    assert flat.potential.A == 0.0
    return flat


def test_a_zero_problem_shares_the_grid(base_result, monkeypatch):
    # the grid and the multiplier on it, which only m and sigma shape
    params = small_params()
    flat = a_zero_params(params, base_result, monkeypatch)
    for name in ("grid", "multiplier"):
        assert getattr(flat, name) is getattr(params, name), name


def test_a_zero_problem_shares_the_kernel_spectrum(base_result, monkeypatch):
    # the kernel does not depend on the potential: no second sampling and
    # transform of W
    params = small_params()
    spectrum = params.kernel_spectrum   # as the ground solve of params made it
    samples, sample = [], KernelSpec.sample

    def counted(kernel, grid):
        samples.append(kernel)
        return sample(kernel, grid)
    monkeypatch.setattr(KernelSpec, "sample", counted)
    flat = a_zero_params(params, base_result, monkeypatch)
    assert flat.kernel_spectrum is spectrum
    assert samples == []


@pytest.mark.parametrize("factor", [1.0, 0.5], ids=["at", "below"])
def test_level_ordering_violation_raises(base_result, monkeypatch, factor):
    # an A = 0 level at or below c_star breaks 0 < c_star < c_inf
    def flat_solve(params, seed_field):
        return dataclasses.replace(base_result,
                                   level=factor * base_result.level)
    monkeypatch.setattr(solver_mod, "solve_ground", flat_solve)
    with pytest.raises(VerificationError, match="level ordering violated"):
        compare_levels(small_params(), base_result)


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
        pair = params.grid.cell_volume * np.sum(g.values * v.values)
        assert abs(pair) / v.norm_l2() < 10 * params.tol * scale


def test_seeds_agree_on_level():
    params = small_params()
    best, results = multistart(params, [5, 6])
    a, b = (r.level for r in results)
    assert abs(a - b) < 1e-4 * min(a, b)


def test_translation_invariance_without_well():
    params = small_params(potential=PotentialSpec(V_inf=1.0, A=0.0, w=2.0))
    centered = solve_ground(params,
                            gaussian_bump(params.grid, 1.0, 1.5, (0.0,)))
    shifted = solve_ground(params,
                           gaussian_bump(params.grid, 1.0, 1.5, (3.0,)))
    assert abs(centered.level - shifted.level) < 1e-6 * centered.level


def test_shifted_start_converges_under_rounding_perturbations():
    # from a shifted start at A = 0 the descent slides along the nearly flat
    # translation mode, where a step can show no positive curvature (s.y
    # <= 0); L-BFGS keeps no such pair (a Barzilai-Borwein descent that
    # fell back to a step of 1 there let about a third of starts perturbed
    # at 1e-15 crawl past max_iter)
    params = small_params(potential=PotentialSpec(V_inf=1.0, A=0.0, w=2.0))
    centered = solve_ground(params,
                            gaussian_bump(params.grid, 1.0, 1.5, (0.0,)))
    shifted = gaussian_bump(params.grid, 1.0, 1.5, (3.0,)).values
    rng = np.random.default_rng(2026)
    for _ in range(3):
        seed = shifted * (1.0 + 1e-15 * rng.standard_normal(params.n))
        res = solve_ground(params, TraceField(params.grid, seed))
        assert abs(res.level - centered.level) < 1e-6 * centered.level


def test_asymptotic_solution_symmetric():
    # the A = 0 problem compare_levels solves for c_inf
    params = small_params(potential=PotentialSpec(V_inf=1.0, A=0.0, w=2.0))
    res = solve_ground(params, centred_seed(params))
    vals = res.u.values
    peak = int(np.argmax(vals))
    reflected = vals[(2 * peak - np.arange(params.n)) % params.n]
    asym = np.max(np.abs(vals - reflected)) / np.max(vals)
    assert asym < 1e-3


def test_asymptotic_ignores_well_depth():
    deep = small_params(potential=PotentialSpec(V_inf=1.0, A=0.6, w=2.0))
    shallow = small_params(potential=PotentialSpec(V_inf=1.0, A=0.1, w=2.0))
    # the A = 0 solves start from the two different ground states
    a = compare_levels(deep, solve_ground(deep, centred_seed(deep)))[1]
    b = compare_levels(shallow,
                       solve_ground(shallow, centred_seed(shallow)))[1]
    assert abs(a - b) < 1e-8 * a


def test_compare_levels_ordering(base_result):
    c_star, c_inf, margin = compare_levels(small_params(), base_result)
    assert c_star == base_result.level
    assert 0 < c_star < c_inf
    assert margin > 0


def test_compare_levels_equal_without_well():
    params = small_params(potential=PotentialSpec(V_inf=1.0, A=0.0, w=2.0))
    c_star, c_inf, margin = compare_levels(
        params, solve_ground(params, centred_seed(params)))
    assert abs(c_star - c_inf) < 1e-6 * c_inf


def test_margin_monotone_in_well_depth():
    margins = []
    for frac in (0.1, 0.2, 0.4):
        params = small_params(
            potential=PotentialSpec(V_inf=1.0, A=frac, w=2.0))
        ground = solve_ground(params, centred_seed(params))
        margins.append(compare_levels(params, ground)[2])
    assert margins[0] < margins[1] < margins[2]


def test_refinement_check(base_result):
    change, fine = linf_refinement_check(base_result, small_params())
    assert change < 0.02
    assert np.isfinite(np.abs(fine.u.values).max())
    with pytest.raises(VerificationError, match="grid refinement"):
        linf_refinement_check(base_result, small_params(),
                              rtol=0.5 * change)


def test_seed_on_another_grid():
    params = small_params()
    other = TraceField(Grid(1, 5.0, params.n), np.ones(params.n))
    with pytest.raises(DomainError, match="seed grid"):
        solve_ground(params, other)


def test_seed_without_positive_part():
    params = small_params()
    bad = TraceField(params.grid, -np.ones(params.n))
    with pytest.raises(DomainError, match="positive part"):
        solve_ground(params, bad)


def test_iteration_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(solver_mod, "_MAX_ITER", 2)
    params = small_params()
    with pytest.raises(ConvergenceError) as exc:
        solve_ground(params, centred_seed(params))
    history = exc.value.history
    assert [row[0] for row in history] == [0, 1, 2]
    # the message names the stop reason and reports the last row's
    # residuals
    _, _, nehari, stat, _ = history[-1]
    assert np.isfinite(nehari) and np.isfinite(stat)
    assert (f"no convergence in 2 iterations (max_iter: "
            f"nehari_residual={nehari:.3e}, stationarity={stat:.3e})"
            ) == str(exc.value)


def test_unreachable_tolerance_stops_on_the_line_search():
    # below the rounding floor of the level no trial passes the Armijo test,
    # nor lowers r under the relaxed one: the solve stops at the first
    # restart that fails both, not at max_iter
    params = small_params(tol=1e-16)
    with pytest.raises(ConvergenceError, match=r"\(line_search: ") as exc:
        solve_ground(params, centred_seed(params))
    history = exc.value.history
    assert history[-1][4] == 0.0
    assert len(history) - 1 < solver_mod._MAX_ITER


def test_no_start_below_the_rounding_floor_creeps_to_max_iter():
    # tol 1e-16 is below the rounding floor of r: every start of seeds 0-19
    # stops stationary or on a failed line search, none by lowering r a
    # rounding's worth per step until max_iter
    params = small_params(tol=1e-16)
    reasons = []
    for seed in range(20):
        try:
            solve_ground(params, random_seed_field(params, seed))
            reasons.append("stationary")
        except ConvergenceError as exc:
            reasons.append(str(exc).split("(")[1].split(":")[0])
    assert set(reasons) <= {"stationary", "line_search"}, reasons


def test_history_schema(base_result):
    it, e, nr, r, step = base_result.history[-1]
    assert it == base_result.iters
    assert e == base_result.level
    assert r == base_result.stationarity


def dense_inverse_hessian(pairs, precond):
    """The L-BFGS inverse Hessian as a matrix: H0 = gamma diag(P), gamma =
    <s, y>/<y, P y> of the newest pair (1 with none), then one BFGS inverse
    update H <- (I - rho s y^T) H (I - rho y s^T) + rho s s^T per pair,
    oldest first."""
    H = np.diag(precond)
    if pairs:
        s, y = pairs[-1]
        H *= (s @ y) / (y @ (precond * y))
    eye = np.eye(precond.size)
    for s, y in pairs:
        rho = 1.0 / (s @ y)
        H = ((eye - rho * np.outer(s, y)) @ H @ (eye - rho * np.outer(y, s))
             + rho * np.outer(s, s))
    return H


@pytest.mark.parametrize("count", [0, 1, 2, 3])
def test_direction_is_the_dense_bfgs_step(count, rng):
    # with no pairs the step is -P g itself
    size = 24
    precond = rng.uniform(0.1, 1.0, size)
    pairs = []
    while len(pairs) < count:
        s, y = rng.standard_normal(size), rng.standard_normal(size)
        if s @ y > 0.0:
            pairs.append((s, y))
    g = rng.standard_normal(size)
    want = dense_inverse_hessian(pairs, precond) @ g
    memory = collections.deque(((s.copy(), y.copy(), 1.0 / (s @ y))
                                for s, y in pairs), maxlen=solver_mod._MEMORY)
    d = solver_mod._direction(g, memory, precond, np.empty(size))
    assert np.linalg.norm(-d - want) <= 1e-12 * np.linalg.norm(want)
    assert len(memory) == count
    if not pairs:
        assert np.array_equal(d, -(precond * g))


def test_direction_resets_on_a_pair_that_does_not_descend(rng):
    # with <s, y> < 0 both gamma P and the update are negative (semi)
    # definite, so the two-loop step -H g ascends: _direction returns -P g
    # and clears the pairs
    size = 24
    precond = rng.uniform(0.1, 1.0, size)
    g = rng.standard_normal(size)
    s, y = rng.standard_normal(size), rng.standard_normal(size)
    if s @ y > 0.0:
        y = -y
    assert g @ (dense_inverse_hessian([(s, y)], precond) @ g) < 0.0
    memory = collections.deque([(s, y, 1.0 / (s @ y))],
                               maxlen=solver_mod._MEMORY)
    d = solver_mod._direction(g, memory, precond, np.empty(size))
    assert np.array_equal(d, -(precond * g))
    assert len(memory) == 0


def test_gaussian_bump_shape():
    params = small_params()
    b = gaussian_bump(params.grid, 2.0, 1.5, (0.0,))
    assert abs(np.abs(b.values).max() - 2.0) < 1e-12
    assert np.argmax(b.values) == params.n // 2
