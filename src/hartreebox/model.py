"""Model data: nonlinearity, potential, interaction kernel, and the energy.

The variational problem lives on the boundary trace h = u(0, .): the
canonical extension is optimal for the quadratic part, so the energy

    I(h) = 1/2 ( kappa * <(m^2 - Lap)^sigma h, h> + int V h^2 )
           - 1/2 int (W * F(h)) F(h)

is computed entirely on the N-dimensional periodic box.  The nonlinearity f
vanishes on t < 0, so negativity is handled through f, never by clipping the
field itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BracketError, DiagnosticError, DomainError, NumericError
from .profile import BesselProfile
from .spectral import (Grid, _kappa_value, apply_multiplier,
                       half_lattice_form, multiply_spectrum)


# ---------------------------------------------------------------------------
# Nonlinearity

@dataclass(frozen=True)
class NonlinearitySpec:
    """Superlinear source term f and its primitive F; f = 0 on t < 0.

    Kinds:
      log_linear  -- f(t) = t ln(1+t); theta bounds its polynomial growth.
      pure_power  -- f(t) = t^(theta-1).
      user_table  -- f sampled on a positive grid, piecewise linear
                     through (0, 0) and the samples, and continued past
                     the last one by the power law through the last two
                     samples; F is its exact primitive (piecewise
                     quadratic on the table).
    """

    kind: str = "log_linear"
    theta: float = 2.5
    table: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("log_linear", "pure_power", "user_table"):
            raise DomainError(f"unknown nonlinearity kind {self.kind!r}")
        if self.theta <= 2.0:
            raise DomainError("theta must exceed 2")
        if self.kind == "user_table":
            t = np.asarray(self.table, dtype=float)
            if t.ndim != 2 or t.shape[1] != 2 or t.shape[0] < 4:
                raise DomainError("user_table needs >= 4 rows of (t, f(t))")
            if np.any(t[:, 0] <= 0) or np.any(np.diff(t[:, 0]) <= 0):
                raise DomainError("user_table abscissae must be positive "
                                  "and increasing")
            if np.any(t[:, 1] < 0):
                raise DomainError("user_table values must be nonnegative")
            object.__setattr__(self, "table", t)


def _nonlinearity(spec: NonlinearitySpec, t):
    """(F(t), f(t), f') from one transcendental pass, vectorized; all three
    vanish on t < 0, and f'() forms f'(t) on demand.

    log_linear: f = t ln(1+t), and integrating by parts gives
    F(t) = (t^2-1)/2 ln(1+t) - t^2/4 + t/2 (cross-checked against
    quadrature in the tests); f' = ln(1+t) + t/(1+t).
    pure_power: f = t^(theta-1), F = t f / theta, f' = (theta-1) t^(theta-2).
    """
    pos = np.maximum(np.asarray(t, dtype=float), 0.0)
    if spec.kind == "log_linear":
        lg = np.log1p(pos)
        f = pos * lg
        return (0.5 * (pos * f - lg + pos * (1.0 - 0.5 * pos)), f,
                lambda: lg + pos / (1.0 + pos))
    if spec.kind == "pure_power":
        f = pos ** (spec.theta - 1.0)
        F = pos * f
        F /= spec.theta
        return F, f, lambda: (spec.theta - 1.0) * pos ** (spec.theta - 2.0)
    return _table(spec, pos)


def f_eval(spec: NonlinearitySpec, t):
    """f(t), vectorized; zero on t < 0."""
    out = _nonlinearity(spec, t)[1]
    return out if out.ndim else float(out)


def F_eval(spec: NonlinearitySpec, t):
    """F(t) = int_0^t f, the exact primitive; zero on t < 0."""
    out = _nonlinearity(spec, t)[0]
    return out if out.ndim else float(out)


def df_eval(spec: NonlinearitySpec, t):
    """f'(t), vectorized; zero on t < 0."""
    out = _nonlinearity(spec, t)[2]()
    return out if out.ndim else float(out)


def _table(spec: NonlinearitySpec, pos: np.ndarray):
    """(F, f, f') of user_table at pos >= 0, from one search of the linear
    pieces through (0, 0) and the samples (the last piece holds the points
    at and past the table end, where the tail takes over).  f' is the slope
    of each piece, and past the table that of the power-law tail."""
    tt, ff = spec.table[:, 0], spec.table[:, 1]
    nodes = np.concatenate([[0.0], tt])
    vals = np.concatenate([[0.0], ff])
    slopes = np.diff(vals) / np.diff(nodes)
    seg = np.clip(np.searchsorted(nodes, pos, side="right") - 1,
                  0, slopes.size - 1)
    # integral of f up to each breakpoint (trapezoids are exact on lines)
    cum = np.concatenate([[0.0], np.cumsum(np.diff(nodes)
                                           * 0.5 * (vals[1:] + vals[:-1]))])
    d = pos - nodes[seg]
    f = vals[seg] + slopes[seg] * d
    F = cum[seg] + vals[seg] * d + 0.5 * slopes[seg] * d ** 2
    df = np.where(pos > 0.0, slopes[seg], 0.0)  # f' = 0 where f = 0
    hi = pos > tt[-1]
    if np.any(hi):
        # extend past the table with the power law through the last two
        # samples
        p = np.log(ff[-1] / max(ff[-2], 1e-300)) / np.log(tt[-1] / tt[-2])
        r = pos / tt[-1]
        f = np.where(hi, ff[-1] * r ** p, f)
        F = np.where(hi, cum[-1] + ff[-1] * tt[-1] / (p + 1.0)
                     * (r ** (p + 1.0) - 1.0), F)
        df = np.where(hi, p * ff[-1] / tt[-1] * r ** (p - 1.0), df)
    return F, f, lambda: df


# ---------------------------------------------------------------------------
# Potential and kernel

@dataclass(frozen=True)
class PotentialSpec:
    """V(y) = V_inf - A exp(-|y|^2 / w^2): constant background minus a well."""

    V_inf: float = 1.0
    A: float = 0.0
    w: float = 1.0

    def __post_init__(self):
        if self.V_inf <= 0:
            raise DomainError("V_inf must be positive")
        if self.A < 0:
            raise DomainError("well depth A must be nonnegative")
        if self.w <= 0:
            raise DomainError("well width w must be positive")

    def sample(self, grid: Grid) -> np.ndarray:
        return self.V_inf - self.A * np.exp(-grid.radius_sq / self.w ** 2)


@dataclass(frozen=True)
class KernelSpec:
    """W = W1 + W2 >= 0, radial.

    W1 is a truncated power core a * max(|y|, rho)^(-mu) * 1_{|y| <= R_c}
    with the singularity capped at one cell width rho (the grid cannot
    represent it, and only the L^r membership of the core enters the
    estimates).  W2 = b exp(-|y|^2 / w2^2) is the bounded part.  Distances
    are minimal-image so the kernel is genuinely radial on the torus, and
    sampling is in displacement coordinates (zero shift at index 0), the
    convention FFT convolution expects.
    """

    a: float = 0.0
    mu: float = 0.5
    R_c: float = 1.0
    b: float = 1.0
    w2: float = 1.0

    def __post_init__(self):
        if self.a < 0 or self.b < 0:
            raise DomainError("kernel amplitudes must be nonnegative")
        if self.a == 0 and self.b == 0:
            raise DomainError("kernel is identically zero")
        if self.mu < 0:
            raise DomainError("kernel exponent mu must be nonnegative")
        if self.R_c <= 0 or self.w2 <= 0:
            raise DomainError("kernel ranges must be positive")

    def sample(self, grid: Grid) -> np.ndarray:
        r = grid.displacement_radius
        out = self.b * np.exp(-r ** 2 / self.w2 ** 2)
        if self.a > 0:
            rho = 2.0 * grid.L / grid.n
            out = out + np.where(r <= self.R_c,
                                 self.a * np.maximum(r, rho) ** -self.mu,
                                 0.0)
        return out


@dataclass(frozen=True)
class SolverSettings:
    tol: float = 1e-8
    max_iter: int = 2000
    step: float = 1.0

    def __post_init__(self):
        if self.tol <= 0 or self.step <= 0 or self.max_iter < 1:
            raise DomainError("solver settings must be positive")


# ---------------------------------------------------------------------------
# Full parameter set

@dataclass(frozen=True)
class ModelParams:
    sigma: float
    m: float
    dim: int
    L: float
    n: int
    nonlinearity: NonlinearitySpec = field(default_factory=NonlinearitySpec)
    potential: PotentialSpec = field(default_factory=PotentialSpec)
    kernel: KernelSpec = field(default_factory=KernelSpec)
    solver: SolverSettings = field(default_factory=SolverSettings)

    def __post_init__(self):
        if not 0.0 < self.sigma < 1.0:
            raise DomainError("sigma out of (0,1)")
        if self.m <= 0:
            raise DomainError("m must be positive")
        _ = self.grid  # validates dim, L, n
        self._check_theta_window()
        self._check_kernel_integrability()

    def _check_theta_window(self):
        """Enforce max{2, N/(N-2 sigma)} < theta < 2N/(N-2 sigma).

        The window only constrains theta from above when N > 2 sigma; for
        N <= 2 sigma the critical exponent is infinite and any theta > 2
        is admissible; NonlinearitySpec already holds theta > 2.
        """
        N, s, th = self.dim, self.sigma, self.nonlinearity.theta
        if N > 2.0 * s:
            lo = max(2.0, N / (N - 2.0 * s))
            hi = 2.0 * N / (N - 2.0 * s)
            if not lo < th < hi:
                raise DomainError(
                    f"theta={th} outside the admissible window "
                    f"({lo:.6g}, {hi:.6g}) for N={N}, sigma={s}")

    def _check_kernel_integrability(self):
        """Power-core exponent must keep W1 in L^r with mu*r < N for some
        r > N/(N(2-theta) + 2 sigma theta)."""
        if self.kernel.a == 0:
            return
        th = self.nonlinearity.theta
        bound = self.dim * (2.0 - th) + 2.0 * self.sigma * th
        if bound <= 0:
            raise DomainError(
                "power-core kernel inadmissible: N(2-theta) + 2 sigma theta "
                f"= {bound:.6g} <= 0")
        if self.kernel.mu >= min(self.dim, bound):
            raise DomainError(
                f"kernel exponent mu={self.kernel.mu} too large; need "
                f"mu < min(N, N(2-theta)+2 sigma theta) = "
                f"{min(self.dim, bound):.6g}")

    @cached_property
    def grid(self) -> Grid:
        return Grid(self.dim, self.L, self.n)

    @cached_property
    def potential_values(self) -> np.ndarray:
        return self.potential.sample(self.grid)

    @cached_property
    def kernel_values(self) -> np.ndarray:
        return self.kernel.sample(self.grid)

    @cached_property
    def kernel_spectrum(self) -> np.ndarray:
        """cell_volume * rfftn(W): the multiplier of g -> W * g, transformed
        once per parameter set."""
        spec = self.grid.cell_volume * np.fft.rfftn(self.kernel_values)
        spec.flags.writeable = False
        return spec

    @property
    def v0(self) -> float:
        """Configured coercivity offset: a fraction of the well depth,
        scaled to sit strictly under min{1, m^2} kappa at kappa ~ 1."""
        frac = min(self.potential.A / self.potential.V_inf, 1.0)
        return 0.9 * min(1.0, self.m ** 2) * frac

    def validate(self, profile: BesselProfile) -> None:
        """Coercivity checks that need the extension constant kappa."""
        if abs(profile.sigma - self.sigma) > 1e-12:
            raise DomainError(f"profile built for sigma={profile.sigma}, "
                              f"params use sigma={self.sigma}")
        v0 = self.v0 * profile.kappa
        if float(np.min(self.potential_values)) + v0 < 0.0:
            raise DomainError("potential violates the coercivity bound "
                              "min V + V0 >= 0")


# ---------------------------------------------------------------------------
# Energy, first variation, Nehari projection
#
# One evaluation core, entered through _project: it forms rfftn(v), F(v),
# W * F(v) and f(v) once per field v and derives Q, the sigma-form, Psi, I
# and the gradient from them.

def _check_finite(value: float, component: str) -> float:
    if not np.isfinite(value):
        raise NumericError(f"non-finite value in {component}")
    return float(value)


@dataclass(frozen=True)
class _Evaluation:
    """The core's terms at one field v: its half-lattice spectrum rfftn(v),
    the sigma-form kappa <(m^2 - Lap)^sigma v, v>, Q(v), Psi(v) and the
    L^2 gradient of Psi, (W * F(v)) f(v)."""

    values: np.ndarray
    spectrum: np.ndarray
    form: float
    quad: float
    psi: float
    psi_grad: np.ndarray

    @property
    def level(self) -> float:
        """I(v) = Q(v)/2 - Psi(v)."""
        return 0.5 * self.quad - self.psi

    def gradient(self, params: ModelParams,
                 profile: BesselProfile) -> np.ndarray:
        """kappa (m^2 - Lap)^sigma v + V v - (W * F(v)) f(v): one inverse
        transform, of the spectrum already at hand."""
        lin = profile.kappa * multiply_spectrum(
            params.grid.multiplier(params.m, params.sigma), self.spectrum,
            self.values.shape, "gradient")
        vals = lin + params.potential_values * self.values - self.psi_grad
        if not np.all(np.isfinite(vals)):
            raise NumericError("non-finite value in gradient")
        return vals


def _quad_terms(params: ModelParams, profile: BesselProfile,
                values: np.ndarray, spectrum: np.ndarray):
    """(sigma-form, Q) of the field `values` with rfftn `spectrum`."""
    kappa = _kappa_value(profile, params.sigma)
    form = kappa * half_lattice_form(
        params.grid, params.grid.multiplier(params.m, params.sigma), spectrum)
    pot = params.grid.cell_volume * (params.potential_values
                                     * values ** 2).sum()
    return form, _check_finite(form + pot, "quadratic form")


def _convolve_kernel(params: ModelParams, g: np.ndarray) -> np.ndarray:
    """W * g on the grid, from the kernel spectrum cached on params."""
    return apply_multiplier(params.kernel_spectrum, g, "convolve")


def _nonlinear_terms(params: ModelParams, values: np.ndarray):
    """(F(v), W * F(v), f(v)) at v = values: one transcendental pass and
    two transforms."""
    F, f = _nonlinearity(params.nonlinearity, values)[:2]
    return F, _convolve_kernel(params, F), f


def _interaction(params: ModelParams, F: np.ndarray,
                 conv: np.ndarray) -> float:
    """Psi = 1/2 int (W * F) F."""
    return _check_finite(0.5 * params.grid.cell_volume * (conv * F).sum(),
                         "interaction")


def nehari_phi(t: float, u: np.ndarray, params: ModelParams,
               quad: float) -> tuple:
    """phi(t) = <I'(tu), tu>/t = t*Q(u) - (1/t) <Psi'(tu), tu> and the level
    I(tu) = t^2 Q(u)/2 - Psi(tu), from F(v), W * F(v) and f(v) at v = tu.

    phi'(t) costs one more transform, so it is formed on demand: with W
    even, so that int (W * a) b = int a (W * b),
    phi'(t) = Q(u) - (int (W * (f(v) v)) f(v) v
                      + int (W * F(v)) f'(v) v^2) / t^2.
    Returns (phi, I(v), (v, W * F(v), f(v), Psi(v)), dphi), the terms for
    the core and dphi() giving phi'(t).
    """
    v = t * u
    F, f, df = _nonlinearity(params.nonlinearity, v)
    conv = _convolve_kernel(params, F)
    psi = _interaction(params, F, conv)
    dv = params.grid.cell_volume
    fv = f * v
    pairing = _check_finite(dv * (conv * fv).sum(), "interaction pairing")

    def dphi():
        slope = _check_finite(
            dv * ((_convolve_kernel(params, fv) * fv).sum()
                  + (conv * df() * v * v).sum()), "Nehari derivative")
        return quad - slope / t ** 2
    return (t * quad - pairing / t, 0.5 * (t * t * quad) - psi,
            (v, conv, f, psi), dphi)


# Projection window, and the residual |phi(t)| / (t Q(u)) below which the
# Newton iteration stops; 1e-13 sits two orders above the rounding noise of
# the interaction sums, so the root is found to about 1e-13 relative.
_T_MIN, _T_MAX = 1e-6, 1e6
_NEWTON_RTOL = 1e-13
# Relative rounding by which an iterate's computed level may exceed the one
# computed at the root (test_ray_levels_stay_below_projected_level holds it
# at field scales 1e-3 to 1e3)
_LEVEL_RTOL = 1e-14


def _nehari_root(u: np.ndarray, params: ModelParams, quad: float,
                 bound: float):
    """The Nehari scale: the unique t > 0 with phi(t) = 0, and nehari_phi's
    terms there, or (t, None) at the first iterate t whose level I(tu)
    exceeds `bound` by more than the rounding that can put it above the
    level computed at the root (_LEVEL_RTOL).

    Safeguarded Newton iteration on the analytic phi', started at t = 1:
    descent iterates are perturbations of fields already on the manifold,
    so the root is near 1.  Under (f3) phi(t)/t is strictly decreasing, so
    phi > 0 below the root and phi <= 0 above it, and every evaluation
    moves one end of a bracket [lo, hi] around the root.  Until both ends
    are known, the open end grows by doubling or halving inside
    [1e-6, 1e6]; a Newton step that leaves the bracket is replaced by
    bisection."""
    lo = hi = None                      # phi(lo) > 0 >= phi(hi)
    t, best_t, best_res, best_terms = 1.0, 1.0, np.inf, None
    for _ in range(100):
        phi, level, terms, dphi = nehari_phi(t, u, params, quad)
        if level - bound > _LEVEL_RTOL * abs(level):
            return t, None
        res = abs(phi) / (t * quad)
        if res < best_res:
            best_t, best_res, best_terms = t, res, terms
        if res < _NEWTON_RTOL:
            break
        if phi > 0.0:
            lo = t
        else:
            hi = t
        if (lo is not None and lo >= _T_MAX) or (hi is not None
                                                 and hi <= _T_MIN):
            raise BracketError("no sign change of the Nehari function on "
                               "[1e-6, 1e6]")
        if hi is None:                  # root above lo: double
            a, b = lo, min(2.0 * lo, _T_MAX)
            fallback = b
        elif lo is None:                # root below hi: halve
            a, b = max(0.5 * hi, _T_MIN), hi
            fallback = a
        else:
            a, b = lo, hi
            fallback = 0.5 * (lo + hi)
        slope = dphi()
        step = t - phi / slope if slope < 0.0 else np.nan
        t_next = step if a < step < b else fallback
        if t_next in (lo, hi):          # the bracket cannot shrink further
            break
        t = t_next
    if best_res >= 1e-10:
        raise DiagnosticError("Nehari root residual exceeds 1e-10 of the "
                              "quadratic scale")
    return float(best_t), best_terms


def _project(u: np.ndarray, params: ModelParams, profile: BesselProfile,
             bound: float = np.inf):
    """The Nehari scale t of the field u (an array on params.grid) and the
    core at v = t u, or (t, None) once a level I(t_k u) exceeds `bound`.

    Under (f3), t is the unique maximizer of s -> I(s u), so every Newton
    iterate's level bounds I(t u) from below: a descent trial that fails
    its Armijo bound at an iterate fails it at the root as well, and its
    root search stops there.  rfftn(t u) = t rfftn(u) and Q(t u) = t^2 Q(u)
    come from u's own transform; F(v), W * F(v) and f(v) from the closed
    form or the best Newton evaluation, so v costs no transform of its own.
    """
    if not np.any(u > 0.0):
        raise DomainError("Nehari projection undefined: field has no "
                          "positive part")
    spectrum = np.fft.rfftn(u)
    form, quad = _quad_terms(params, profile, u, spectrum)

    nl = params.nonlinearity
    if nl.kind == "pure_power":
        # I(tu) = t^2 Q/2 - t^(2 theta) Psi(u): the stationary t in closed
        # form; (W * F(tu)) f(tu) = t^(2 theta - 1) (W * F(u)) f(u), so f,
        # this call's own array, takes the whole factor in place
        F, conv, f = _nonlinear_terms(params, u)
        psi = _interaction(params, F, conv)
        if psi <= 0:
            raise BracketError("interaction vanishes on this ray")
        t = float((quad / (2.0 * nl.theta * psi))
                  ** (1.0 / (2.0 * nl.theta - 2.0)))
        f *= t ** (2.0 * nl.theta - 1.0)
        terms = (t * u, conv, f, t ** (2.0 * nl.theta) * psi)
    else:
        t, terms = _nehari_root(u, params, quad, bound)
        if terms is None:
            return t, None
    v, conv, f, psi = terms
    spectrum *= t
    ev = _Evaluation(v, spectrum, t * t * form, t * t * quad, psi, conv * f)
    return t, (ev if ev.level <= bound else None)
