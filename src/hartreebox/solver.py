"""Ground-state computation by Nehari-constrained preconditioned descent.

Each iterate is kept exactly on the Nehari manifold: after every descent
step the field is rescaled by its Nehari factor.  The descent direction is
the gradient preconditioned by (kappa (m^2 + 4 pi^2 |xi|^2)^sigma +
V_inf)^(-1) in frequency space, which removes the stiffness of the
fractional operator.  Armijo backtracking keeps the energy monotone.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, VerificationError
from .model import ModelParams, _project
from .profile import BesselProfile
from .spectral import Grid, TraceField, apply_multiplier, refine


@dataclass(frozen=True)
class GroundStateResult:
    u: TraceField
    level: float
    nehari_residual: float
    grad_residual: float
    iters: int
    min_value: float
    beta: float                # smallest sigma-norm of any projected iterate
    history: tuple             # rows (iter, energy, nehari_res, grad_res, step)


def gaussian_bump(grid: Grid, amplitude: float = 1.0, width: float = 1.0,
                  center=None) -> TraceField:
    """Centered (or shifted) Gaussian seed of the given sup amplitude."""
    if center is None:
        center = (0.0,) * grid.dim
    r2 = sum((c - c0) ** 2 for c, c0 in zip(grid.coords, center))
    return TraceField(grid, amplitude * np.exp(-r2 / width ** 2))


def _residuals(u, ev, params, profile):
    """Gradient at u, from the core's terms ev at u, and the Nehari and
    gradient residuals."""
    g = TraceField(u.grid, ev.gradient(params, profile))
    return g, abs(g.inner(u)), g.norm_l2()


def solve_ground(params: ModelParams, profile: BesselProfile,
                 seed_field: TraceField | None = None) -> GroundStateResult:
    """Minimize I over the Nehari manifold from the given (or default) seed."""
    params.validate(profile)
    if seed_field is None:
        seed_field = gaussian_bump(params.grid, 1.0,
                                   max(1.0, params.potential.w))
    if seed_field.grid != params.grid:
        raise DomainError("seed grid does not match params grid")
    if not np.any(seed_field.values > 0.0):
        raise DomainError("seed field has no positive part")

    settings = params.solver
    precond = 1.0 / (profile.kappa * params.grid.multiplier(params.m,
                                                            params.sigma)
                     + params.potential.V_inf)

    _, ev = _project(seed_field, params, profile)
    u = TraceField(params.grid, ev.values)
    g, nehari, gnorm = _residuals(u, ev, params, profile)
    beta = np.sqrt(ev.form)
    history = [(0, ev.level, nehari, gnorm, 0.0)]
    flat, stalled = 0, 0
    prev_vals = prev_precond_grad = None

    for it in range(1, settings.max_iter + 1):
        precond_grad = apply_multiplier(precond, g.values, "preconditioner")
        direction = TraceField(u.grid, -precond_grad)
        slope = g.inner(direction)          # negative: SPD preconditioner

        # Barzilai-Borwein trial step: adapts to the local curvature and
        # lets nearly flat modes (e.g. translation drift at A = 0) move in
        # steps far larger than 1; Armijo backtracking keeps it safe.  With
        # s.y <= 0 (negative curvature along the last step, as when sliding
        # down such a mode) the step is the largest allowed, as in the
        # spectral projected gradient method (Birgin, Martinez & Raydan,
        # SIAM J. Optim. 10, 2000)
        step = settings.step
        if prev_vals is not None:
            s_diff = u.values - prev_vals
            y_diff = precond_grad - prev_precond_grad
            sy = float(np.sum(s_diff * y_diff))
            step = 1e4 * settings.step
            if sy > 0.0:
                step = float(np.clip(np.sum(s_diff * s_diff) / sy,
                                     1e-2 * settings.step, step))
        accepted = False
        for _ in range(40):
            trial = u + step * direction
            if not np.any(trial.values > 0.0):
                step *= 0.5
                continue
            _, cand = _project(trial, params, profile)
            if cand.level <= ev.level + 1e-4 * step * slope:
                accepted = True
                break
            step *= 0.5

        if accepted:
            prev_vals, prev_precond_grad = u.values, precond_grad
            prev_level = ev.level
            u, ev = TraceField(u.grid, cand.values), cand
            g, nehari, gnorm = _residuals(u, ev, params, profile)
            beta = min(beta, np.sqrt(ev.form))
            history.append((it, ev.level, nehari, gnorm, step))
            rel_change = abs(ev.level - prev_level) / max(abs(ev.level),
                                                          1e-300)
            flat = flat + 1 if rel_change < 1e-10 else 0
            stalled = 0
        else:
            prev_vals = prev_precond_grad = None   # restart the step memory
            history.append((it, ev.level, nehari, gnorm, 0.0))
            stalled += 1
            flat += 1

        if nehari < settings.tol * ev.quad and flat >= 5:
            return GroundStateResult(
                u=u, level=ev.level, nehari_residual=nehari,
                grad_residual=gnorm, iters=it,
                min_value=float(np.min(u.values)), beta=float(beta),
                history=tuple(history))
        if stalled >= 10:
            break

    raise ConvergenceError(
        f"no convergence in {len(history) - 1} iterations "
        f"(nehari_residual={nehari:.3e}, grad_residual={gnorm:.3e})",
        nehari_residual=nehari, grad_residual=gnorm, iters=len(history) - 1,
        history=tuple(history))


def asymptotic_params(params: ModelParams) -> ModelParams:
    """The same problem with the constant background potential V_inf."""
    return dataclasses.replace(
        params, potential=dataclasses.replace(params.potential, A=0.0))


def solve_asymptotic(params: ModelParams, profile: BesselProfile,
                     seed_field: TraceField | None = None
                     ) -> GroundStateResult:
    return solve_ground(asymptotic_params(params), profile, seed_field)


def random_seed_field(params: ModelParams, seed: int) -> TraceField:
    """Reproducible random bump: shifted center, jittered width/amplitude."""
    rng = np.random.default_rng(seed)
    grid = params.grid
    center = rng.uniform(-grid.L / 4, grid.L / 4, size=grid.dim)
    width = max(1.0, params.potential.w) * rng.uniform(0.6, 1.6)
    amp = rng.uniform(0.5, 2.0)
    return gaussian_bump(grid, amp, width, center)


def multistart(params: ModelParams, profile: BesselProfile, seeds,
               threads: int = 1):
    """Solve from several random seeds; returns (best_result, all_results).

    The best result is the lowest level; ties and ordering are deterministic
    for a fixed seed list.
    """
    fields = [random_seed_field(params, s) for s in seeds]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(
                lambda f: solve_ground(params, profile, f), fields))
    else:
        results = [solve_ground(params, profile, f) for f in fields]
    best = min(range(len(results)), key=lambda i: results[i].level)
    return results[best], results


def compare_levels(params: ModelParams, profile: BesselProfile,
                   seed_field: TraceField | None = None):
    """Ground level with the well vs. the constant-potential level.

    Returns (c_star, c_inf, margin) with margin = (c_inf - c_star)/c_inf.
    For A > 0 the strict ordering 0 < c_star < c_inf is asserted.
    """
    star = solve_ground(params, profile, seed_field)
    inf_ = solve_asymptotic(params, profile, seed_field)
    c_star, c_inf = star.level, inf_.level
    margin = (c_inf - c_star) / c_inf
    if params.potential.A > 0:
        if not 0.0 < c_star < c_inf:
            raise VerificationError(
                f"level ordering violated: c_star={c_star:.6e}, "
                f"c_inf={c_inf:.6e}")
    return c_star, c_inf, margin


def linf_refinement_check(result: GroundStateResult, params: ModelParams,
                          profile: BesselProfile, rtol: float = 0.02):
    """Re-solve with n doubled from the interpolated coarse solution and
    compare sup norms; returns (relative change, fine result)."""
    sup_coarse = result.u.norm_lq(np.inf)
    if sup_coarse == 0.0:
        return 0.0, result
    fine_params = dataclasses.replace(params, n=2 * params.n)
    seed = refine(result.u, 2 * params.n)
    fine = solve_ground(fine_params, profile, seed)
    sup_fine = fine.u.norm_lq(np.inf)
    change = abs(sup_coarse - sup_fine) / sup_fine
    if change >= rtol:
        raise VerificationError(
            f"sup norm changed by {change:.2%} under grid refinement "
            f"(allowed {rtol:.0%})")
    return change, fine


def history_to_csv(history, path) -> None:
    import csv
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iter", "energy", "nehari_residual", "grad_residual",
                    "step"])
        for it, e, nr, gr, st in history:
            w.writerow([it, repr(float(e)), repr(float(nr)),
                        repr(float(gr)), repr(float(st))])
