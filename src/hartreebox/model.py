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
from .spectral import (Grid, TraceField, apply_multiplier,
                       convolution_multiplier, sobolev_form)


# ---------------------------------------------------------------------------
# Nonlinearity

@dataclass(frozen=True)
class NonlinearitySpec:
    """Superlinear source term f and its primitive F; f = 0 on t < 0.

    Kinds:
      log_linear  -- f(t) = t ln(1+t); theta bounds its polynomial growth.
      pure_power  -- f(t) = t^(theta-1).
      user_table  -- f sampled on a positive grid, interpolated linearly
                     between the samples (np.interp), zero below the first
                     sample, and continued past the last one by the power
                     law through the last two samples; F by cumulative
                     trapezoid.
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


def f_eval(spec: NonlinearitySpec, t):
    """f(t), vectorized; zero on t < 0."""
    t = np.asarray(t, dtype=float)
    pos = np.maximum(t, 0.0)
    if spec.kind == "log_linear":
        out = pos * np.log1p(pos)
    elif spec.kind == "pure_power":
        out = pos ** (spec.theta - 1.0)
    else:
        out = _table_f(spec, pos)
    return out if out.ndim else float(out)


def F_eval(spec: NonlinearitySpec, t):
    """F(t) = int_0^t f, the exact primitive; zero on t < 0.

    log_linear: integrating t ln(1+t) by parts gives
    F(t) = (t^2-1)/2 ln(1+t) - t^2/4 + t/2 (cross-checked against
    quadrature in the tests).
    """
    t = np.asarray(t, dtype=float)
    pos = np.maximum(t, 0.0)
    if spec.kind == "log_linear":
        out = 0.5 * (pos ** 2 - 1.0) * np.log1p(pos) - 0.25 * pos ** 2 \
            + 0.5 * pos
    elif spec.kind == "pure_power":
        out = pos ** spec.theta / spec.theta
    else:
        out = _table_F(spec, pos)
    return out if out.ndim else float(out)


def df_eval(spec: NonlinearitySpec, t):
    """f'(t), vectorized; zero on t < 0.

    log_linear: ln(1+t) + t/(1+t); pure_power: (theta-1) t^(theta-2);
    user_table: the slope of the linear interpolant on each sample
    interval, and the derivative of the power-law tail past the table.
    """
    t = np.asarray(t, dtype=float)
    pos = np.maximum(t, 0.0)
    if spec.kind == "log_linear":
        out = np.log1p(pos) + pos / (1.0 + pos)
    elif spec.kind == "pure_power":
        out = (spec.theta - 1.0) * pos ** (spec.theta - 2.0)
    else:
        out = _table_df(spec, pos)
    return out if out.ndim else float(out)


def _tail_power(tt: np.ndarray, ff: np.ndarray) -> float:
    """Exponent of the power law through the last two table samples."""
    return np.log(ff[-1] / max(ff[-2], 1e-300)) / np.log(tt[-1] / tt[-2])


def _table_f(spec: NonlinearitySpec, pos: np.ndarray) -> np.ndarray:
    tt, ff = spec.table[:, 0], spec.table[:, 1]
    out = np.interp(pos, tt, ff, left=0.0)
    # extend past the table with the last local power law
    hi = pos > tt[-1]
    if np.any(hi):
        out = np.where(hi, ff[-1] * (pos / tt[-1]) ** _tail_power(tt, ff),
                       out)
    return out


def _table_df(spec: NonlinearitySpec, pos: np.ndarray) -> np.ndarray:
    tt, ff = spec.table[:, 0], spec.table[:, 1]
    slopes = np.diff(ff) / np.diff(tt)
    seg = np.searchsorted(tt, pos, side="right") - 1
    inside = (seg >= 0) & (seg < len(tt) - 1)
    out = np.where(inside, slopes[np.clip(seg, 0, len(slopes) - 1)], 0.0)
    hi = pos > tt[-1]
    if np.any(hi):
        p = _tail_power(tt, ff)
        out = np.where(hi, p * ff[-1] / tt[-1] * (pos / tt[-1]) ** (p - 1.0),
                       out)
    return out


def _table_F(spec: NonlinearitySpec, pos: np.ndarray) -> np.ndarray:
    tt, ff = spec.table[:, 0], spec.table[:, 1]
    nodes = np.concatenate([[0.0], tt])
    vals = np.concatenate([[0.0], ff])
    cum = np.concatenate([[0.0], np.cumsum(np.diff(nodes)
                                           * 0.5 * (vals[1:] + vals[:-1]))])
    out = np.interp(pos, nodes, cum)
    hi = pos > tt[-1]
    if np.any(hi):
        p = _tail_power(tt, ff)
        tail = ff[-1] * tt[-1] / (p + 1.0) * ((pos / tt[-1]) ** (p + 1.0)
                                              - 1.0)
        out = np.where(hi, cum[-1] + tail, out)
    return out


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
    theta: float = 2.5
    nonlinearity: NonlinearitySpec | None = None
    potential: PotentialSpec = field(default_factory=PotentialSpec)
    kernel: KernelSpec = field(default_factory=KernelSpec)
    solver: SolverSettings = field(default_factory=SolverSettings)

    def __post_init__(self):
        if not 0.0 < self.sigma < 1.0:
            raise DomainError("sigma out of (0,1)")
        if self.m <= 0:
            raise DomainError("m must be positive")
        if self.nonlinearity is None:
            object.__setattr__(self, "nonlinearity",
                               NonlinearitySpec(theta=self.theta))
        if abs(self.nonlinearity.theta - self.theta) > 1e-12:
            raise DomainError("theta disagrees with nonlinearity spec")
        self._check_theta_window()
        self._check_kernel_integrability()
        _ = self.grid  # validates dim, L, n

    def _check_theta_window(self):
        """Enforce max{2, N/(N-2 sigma)} < theta < 2N/(N-2 sigma).

        The window only constrains theta from above when N > 2 sigma; for
        N <= 2 sigma the critical exponent is infinite and any theta > 2
        is admissible.
        """
        N, s, th = self.dim, self.sigma, self.theta
        if th <= 2.0:
            raise DomainError("theta must exceed 2")
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
        bound = self.dim * (2.0 - self.theta) + 2.0 * self.sigma * self.theta
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
        """Multiplier of g -> W * g, transformed once per parameter set."""
        spec = convolution_multiplier(TraceField(self.grid,
                                                 self.kernel_values))
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

@dataclass(frozen=True)
class EnergyReport:
    quad: float
    interaction: float
    total: float


def _check_finite(value: float, component: str) -> float:
    if not np.isfinite(value):
        raise NumericError(f"non-finite value in {component}")
    return float(value)


def quadratic_form(u: TraceField, params: ModelParams,
                   profile: BesselProfile) -> float:
    """Q(u) = kappa * sum multiplier |hat u|^2 dxi + int V u^2."""
    form = sobolev_form(u, params.sigma, params.m, profile)
    pot = u.grid.cell_volume * np.sum(params.potential_values
                                      * u.values ** 2)
    return _check_finite(form + pot, "quadratic form")


def _convolve_kernel(params: ModelParams, g: np.ndarray) -> np.ndarray:
    """W * g on the grid, from the kernel spectrum cached on params."""
    return apply_multiplier(params.kernel_spectrum, g, "convolve")


def interaction(u: TraceField, params: ModelParams) -> float:
    """Psi(u) = 1/2 int (W * F(u)) F(u)."""
    Fu = F_eval(params.nonlinearity, u.values)
    conv = _convolve_kernel(params, Fu)
    val = 0.5 * u.grid.cell_volume * np.sum(conv * Fu)
    return _check_finite(val, "interaction")


def interaction_pairing(u: TraceField, params: ModelParams) -> float:
    """<Psi'(u), u> = int (W * F(u)) f(u) u."""
    nl = params.nonlinearity
    conv = _convolve_kernel(params, F_eval(nl, u.values))
    fu = f_eval(nl, u.values)
    val = u.grid.cell_volume * np.sum(conv * fu * u.values)
    return _check_finite(val, "interaction pairing")


def energy(u: TraceField, params: ModelParams,
           profile: BesselProfile) -> EnergyReport:
    """I(u) = Q(u)/2 - Psi(u), componentwise."""
    if u.grid != params.grid:
        raise DomainError("field grid does not match params grid")
    quad = 0.5 * quadratic_form(u, params, profile)
    psi = interaction(u, params)
    return EnergyReport(quad=quad, interaction=psi, total=quad - psi)


def gradient(u: TraceField, params: ModelParams,
             profile: BesselProfile) -> TraceField:
    """L^2 representation of I'(u):
    kappa (m^2 - Lap)^sigma u + V u - (W * F(u)) f(u)."""
    if u.grid != params.grid:
        raise DomainError("field grid does not match params grid")
    nl = params.nonlinearity
    lin = profile.kappa * apply_multiplier(
        u.grid.multiplier(params.m, params.sigma), u.values, "gradient")
    conv = _convolve_kernel(params, F_eval(nl, u.values))
    fu = f_eval(nl, u.values)
    vals = lin + params.potential_values * u.values - conv * fu
    if not np.all(np.isfinite(vals)):
        raise NumericError("non-finite value in gradient")
    return TraceField(u.grid, vals)


def nehari_phi(t: float, u: TraceField, params: ModelParams,
               quad: float) -> tuple[float, float]:
    """phi(t) = <I'(tu), tu>/t = t*Q(u) - (1/t) <Psi'(tu), tu>, and phi'(t).

    With v = tu, and W even so that int (W * a) b = int a (W * b),
    phi'(t) = Q(u) - (int (W * (f(v) v)) f(v) v
                      + int (W * F(v)) f'(v) v^2) / t^2.
    """
    nl = params.nonlinearity
    v = t * u.values
    fv = f_eval(nl, v)
    conv = _convolve_kernel(params, F_eval(nl, v))
    dv = u.grid.cell_volume
    pairing = _check_finite(dv * np.sum(conv * fv * v), "interaction pairing")
    fvv = fv * v
    slope = _check_finite(
        dv * (np.sum(_convolve_kernel(params, fvv) * fvv)
              + np.sum(conv * df_eval(nl, v) * v * v)),
        "Nehari derivative")
    return t * quad - pairing / t, quad - slope / t ** 2


# Projection window, and the residual |phi(t)| / (t Q(u)) below which the
# Newton iteration stops; 1e-13 sits two orders above the rounding noise of
# the interaction sums, so the root is found to about 1e-13 relative.
_T_MIN, _T_MAX = 1e-6, 1e6
_NEWTON_RTOL = 1e-13


def nehari_scale(u: TraceField, params: ModelParams,
                 profile: BesselProfile) -> float:
    """Unique t > 0 with I'(t u) orthogonal to the ray, i.e. phi(t) = 0.

    Safeguarded Newton iteration on the analytic phi', started at t = 1:
    descent iterates are perturbations of fields already on the manifold,
    so the root is near 1.  Under (f3) phi(t)/t is strictly decreasing, so
    phi > 0 below the root and phi <= 0 above it, and every evaluation
    moves one end of a bracket [lo, hi] around the root.  Until both ends
    are known, the open end grows by doubling or halving inside
    [1e-6, 1e6]; a Newton step that leaves the bracket is replaced by
    bisection.
    """
    if not np.any(u.values > 0.0):
        raise DomainError("Nehari projection undefined: field has no "
                          "positive part")
    quad = quadratic_form(u, params, profile)

    nl = params.nonlinearity
    if nl.kind == "pure_power":
        # I(tu) = t^2 Q/2 - t^(2 theta) Psi(u): the stationary t in closed form
        psi = interaction(u, params)
        if psi <= 0:
            raise BracketError("interaction vanishes on this ray")
        return float((quad / (2.0 * nl.theta * psi))
                     ** (1.0 / (2.0 * nl.theta - 2.0)))

    lo = hi = None                      # phi(lo) > 0 >= phi(hi)
    t, best_t, best_res = 1.0, 1.0, np.inf
    for _ in range(100):
        phi, dphi = nehari_phi(t, u, params, quad)
        res = abs(phi) / (t * quad)
        if res < best_res:
            best_t, best_res = t, res
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
        step = t - phi / dphi if dphi < 0.0 else np.nan
        t_next = step if a < step < b else fallback
        if t_next in (lo, hi):          # the bracket cannot shrink further
            break
        t = t_next
    if best_res >= 1e-10:
        raise DiagnosticError("Nehari root residual exceeds 1e-10 of the "
                              "quadratic scale")
    return float(best_t)
