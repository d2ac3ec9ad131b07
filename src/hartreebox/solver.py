"""Ground-state computation by preconditioned L-BFGS on the Nehari manifold.

Limited-memory BFGS (Liu & Nocedal, Math. Program. 45, 1989) with the Nehari
projection as retraction (Huang, Gallivan & Absil, SIAM J. Optim. 25, 2015)
and initial inverse Hessian gamma P, P = (kappa (m^2 + 4 pi^2 |xi|^2)^sigma +
V_inf)^(-1), which removes the stiffness of the fractional operator.  Armijo
backtracking keeps the energy monotone up to its rounding; the loop stops
when r = sqrt(<g, P g> / Q) <= tol (params.tol by default).  It works on
spectra scaled by sqrt(Grid.mode_weight), where the L^2 pairing is a sum.

P misses the translations of a state in a weak well, a near-zero mode of
the Hessian (Weinstein, SIAM J. Math. Anal. 16, 1985): on a resolved grid a
Newton shift on the potential term, the one term a shift changes, follows it.
"""

from __future__ import annotations

import collections
import dataclasses
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, VerificationError
from .model import _LEVEL_RTOL, ModelParams, _project
from .spectral import Grid, TraceField, inverse_spectrum, phase_ramp

# L-BFGS memory: 5 steps save 7 % of 1D iterations for 5/3 the memory
_MEMORY = 3
# Shift gate: at most _SHELL_TAIL of the mass on the shell |k| >= n/2 - 1 (a
# grid that pins the field fails for good), and |v^| settled to _SHAPE_MOVE
_SHELL_TAIL = 1e-6
_SHAPE_MOVE = 0.1
_R_DECREASE = 1e-3  # share of r a trial at the level's rounding must cut
_SCREEN_TOL = 1e-3  # r of a screened start: in 1D its level within 2e-5
_MAX_ITER = 2000    # iteration budget, far above any measured solve's

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class GroundStateResult:
    u: TraceField
    level: float
    nehari_residual: float
    iters: int
    min_value: float
    history: tuple             # rows (iter, energy, nehari_res, r, step)
    translation_steps: int     # accepted shifts toward the well
    stationarity: float        # r = sqrt(<g, P g> / Q) at u


def gaussian_bump(grid: Grid, amplitude: float, width: float,
                  center) -> TraceField:
    """Gaussian seed of the given sup amplitude, width and center."""
    r2 = sum((c - c0) ** 2 for c, c0 in zip(grid.coords, center))
    return TraceField(grid, amplitude * np.exp(-r2 / width ** 2))


def _dot(a, b, work):
    """sum(a * b), the product formed in the buffer `work`."""
    return float(np.multiply(a, b, out=work).sum())


def _direction(grad, pairs, precond, work):
    """-H grad by the two-loop recursion over pairs (s, y, 1/<s, y>), newest
    last, H0 = gamma P with gamma = <s, y>/<y, P y> of the newest, products
    in `work`; or -P grad, clearing the pairs, when they give none."""
    if pairs:
        q, alphas = -grad, []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * _dot(s, q, work))
            q -= np.multiply(y, alphas[-1], out=work)
        _, y, rho = pairs[-1]
        q *= precond
        q /= rho * _dot(np.multiply(y, precond, out=work), y, work)
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            q += np.multiply(s, alpha - rho * _dot(y, q, work), out=work)
        if _dot(grad, q, work) < 0.0:
            return q
        pairs.clear()
    return -(precond * grad)


def _resolved_magnitude(ev, grid):
    """|v^| of the point, scaled so that its squares sum to ||v||^2, or
    None when more than _SHELL_TAIL of that sum lies on the outer shell."""
    mag = np.abs(ev.spectrum)
    mag *= np.sqrt(grid.mode_weight)
    power = mag * mag
    tail = power[grid.k_sq >= (grid.n // 2 - 1) ** 2].sum()
    return mag if tail <= _SHELL_TAIL * power.sum() else None


def _shift(ev, params, gain, pairs):
    """The point moved toward the well and projected, the pairs moved along
    in place; None if that promises no more than `gain` or the level's
    rounding, or does not lower the level.  Per axis, a Newton step on
    E(s) = 1/2 int V(. + s) v^2, or w/2 down E' where E'' does not bound it."""
    pot, grid = params.potential, params.grid
    density = np.square(ev.values) * (pot.V_inf - params.potential_values)
    reach, shift, promise = 0.5 * pot.w, [], 0.0
    for g, h in pot.shift_derivatives(grid, density):
        s = -g / h if h * reach > abs(g) else -math.copysign(reach, g)
        shift.append(s)
        promise -= grid.cell_volume * (0.5 * g + 0.25 * h * s) * s
    if promise <= max(gain, _LEVEL_RTOL * ev.level):
        return None
    ramp = phase_ramp(grid, shift)
    spectrum = ev.spectrum * ramp
    _, cand = _project(inverse_spectrum(spectrum, grid.shape), params,
                       ev.level, spectrum)
    if cand is None or cand.level >= ev.level:
        return None
    # <s, y> keeps its value but on the Nyquist entries
    for vec in (vec.view(np.complex128) for pair in pairs for vec in pair[:2]):
        np.multiply(vec, ramp, out=vec)
    return cand


def _no_convergence(reason, history):
    """The ConvergenceError of a solve stopped on `reason`, with the count
    and residuals of the trace's last row."""
    it, _, nehari, stat, _ = history[-1]
    exc = ConvergenceError(
        f"no convergence in {it} iterations ({reason}: "
        f"nehari_residual={nehari:.3e}, stationarity={stat:.3e})", history)
    exc.reason = reason
    return exc


def solve_ground(params: ModelParams, seed_field: TraceField, *,
                 tol: float | None = None) -> GroundStateResult:
    """Minimize I over the Nehari manifold from the seed, to r <= tol
    (default params.tol)."""
    params.validate()
    if seed_field.grid != params.grid:
        raise DomainError("seed grid does not match params grid")

    grid, tol = params.grid, (params.tol if tol is None else tol)
    weight = np.sqrt(np.repeat(grid.mode_weight, 2))
    precond = np.repeat(1.0 / (params.kappa * params.multiplier
                               + params.potential.V_inf), 2, axis=-1)

    work = np.empty_like(precond)
    trial = np.empty(grid.shape)

    def state(ev):
        """Scaled spectrum of g, |<g, v>| and r, by Parseval."""
        grad = weight * ev.gradient_spectrum(params).view(np.float64)
        pos = np.multiply(ev.spectrum.view(np.float64), weight, out=work)
        nehari = abs(_dot(grad, pos, work))
        gpg = _dot(np.multiply(grad, precond, out=work), grad, work)
        return grad, nehari, (gpg / ev.quad) ** 0.5

    # the loop works on arrays: every field it forms is finite by
    # construction, and the gradient's own check guards the rest
    _, ev = _project(seed_field.values, params)
    grad, nehari, stat = state(ev)
    history = [(0, ev.level, nehari, stat, 0.0)]
    pairs = collections.deque(maxlen=_MEMORY)
    it, reason, shifts = 0, "max_iter", 0
    mag = _resolved_magnitude(ev, grid) if params.potential.A > 0 else None
    while stat > tol and it < _MAX_ITER:
        it += 1
        direction = _direction(grad, pairs, precond, work)
        slope = _dot(grad, direction, work)
        d_hat = np.divide(direction, weight, out=direction).view(np.complex128)
        d_vals = inverse_spectrum(d_hat, grid.shape)
        # Armijo, but a level within 2 eps of the bound, its rounding, must
        # lower r by _R_DECREASE of it (Shi, Xie, Byrd & Nocedal, SIAM J.
        # Optim. 32, 2022); the projection gives None above bound + noise
        noise = 2.0 * np.finfo(float).eps * abs(ev.level)
        step = 1.0
        for _ in range(40):
            np.multiply(d_vals, step, out=trial)
            trial += ev.values
            if trial.max() > 0.0:
                bound = ev.level + 1e-4 * step * slope
                _, cand = _project(trial, params, bound + noise,
                                   ev.spectrum + step * d_hat)
                if cand is not None:
                    cand_state = state(cand)
                    if (cand.level < bound - noise
                            or cand_state[2] < (1.0 - _R_DECREASE) * stat):
                        break
            step *= 0.5
        else:
            history.append((it, ev.level, nehari, stat, 0.0))
            if not pairs:               # a search from -P g failed
                reason = "line_search"
                break
            pairs.clear()
            continue
        # s and y take the buffers of ev's spectrum and gradient, which
        # the loop no longer reads
        old = ev.spectrum.view(np.float64)
        s = np.subtract(cand.spectrum.view(np.float64), old, out=old)
        s *= weight
        grad_old, drop = grad, ev.level - cand.level
        ev, (grad, nehari, stat) = cand, cand_state
        y = np.subtract(grad, grad_old, out=grad_old)
        sy = _dot(s, y, work)
        if sy > 0.0:
            pairs.append((s, y, 1.0 / sy))
        if mag is not None:
            mag_old, mag = mag, _resolved_magnitude(ev, grid)
            if mag is not None and (np.square(mag - mag_old).sum() <=
                                    _SHAPE_MOVE ** 2 * np.square(mag).sum()):
                shifted = _shift(ev, params, drop, pairs)
                if shifted is not None:
                    ev, (grad, nehari, stat) = shifted, state(shifted)
                    shifts += 1
        history.append((it, ev.level, nehari, stat, step))
    if stat <= tol:
        return GroundStateResult(
            u=TraceField(grid, ev.values), level=ev.level,
            nehari_residual=nehari, iters=it,
            min_value=float(np.min(ev.values)), stationarity=stat,
            history=tuple(history), translation_steps=shifts)
    raise _no_convergence(reason, tuple(history))


def random_seed_field(params: ModelParams, seed: int) -> TraceField:
    """Reproducible random bump: shifted center, jittered width/amplitude."""
    rng = np.random.default_rng(seed)
    grid = params.grid
    center = rng.uniform(-grid.L / 4, grid.L / 4, size=grid.dim)
    width = max(1.0, params.potential.w) * rng.uniform(0.6, 1.6)
    amp = rng.uniform(0.5, 2.0)
    return gaussian_bump(grid, amp, width, center)


def multistart(params: ModelParams, seeds):
    """Solve from several random seeds, in order; returns (best_result,
    all_results).

    Each start is screened to r <= max(_SCREEN_TOL, params.tol); only the
    first with the lowest screened level is polished on to params.tol, with
    a fresh memory (Rinnooy Kan & Timmer, 1987), its result covering both.
    A screen that ran to params.tol itself is the result.
    """
    seeds, tol = list(seeds), max(_SCREEN_TOL, params.tol)

    def logged(phase, seed, res):
        log.info("%s start %d: level %.12g, %d iterations, r %.2e", phase,
                 seed, res.level, res.iters, res.stationarity)
        return res
    results = [logged("screened", seed, solve_ground(
        params, random_seed_field(params, seed), tol=tol)) for seed in seeds]
    best = min(range(len(results)), key=lambda i: results[i].level)
    screen = results[best]
    if tol == params.tol:
        return screen, results

    def joined(history):    # the screen's rows, then the polish's after them
        return screen.history + tuple((screen.iters + it, *row)
                                      for it, *row in history[1:])
    try:
        polish = logged("polished", seeds[best],
                        solve_ground(params, screen.u))
    except ConvergenceError as exc:     # its trace starts with the screen's
        raise _no_convergence(exc.reason, joined(exc.history)) from exc
    results[best] = dataclasses.replace(
        polish, iters=screen.iters + polish.iters,
        history=joined(polish.history),
        translation_steps=screen.translation_steps + polish.translation_steps)
    return results[best], results


def compare_levels(params: ModelParams, ground: GroundStateResult):
    """Ground level with the well vs. the level of the same problem with
    the constant background potential V_inf (A = 0).

    `ground` is the converged ground state of `params`; its level is c_star,
    and its field starts the one solve made here, that of the A = 0 problem.
    Returns (c_star, c_inf, margin) with margin = (c_inf - c_star)/c_inf.
    For A > 0 the strict ordering 0 < c_star < c_inf is asserted.
    """
    flat = dataclasses.replace(
        params, potential=dataclasses.replace(params.potential, A=0.0))
    # only V differs: the A = 0 problem takes params' grid, multiplier and
    # kernel spectrum, cached properties of a frozen dataclass, not its own
    for name in ("grid", "multiplier", "kernel_spectrum"):
        object.__setattr__(flat, name, getattr(params, name))
    c_star = ground.level
    c_inf = solve_ground(flat, ground.u).level
    margin = (c_inf - c_star) / c_inf
    if params.potential.A > 0:
        if not 0.0 < c_star < c_inf:
            raise VerificationError(
                f"level ordering violated: c_star={c_star:.6e}, "
                f"c_inf={c_inf:.6e}")
    return c_star, c_inf, margin
