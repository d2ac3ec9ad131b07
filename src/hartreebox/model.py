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

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DiagnosticError, DomainError, NumericError
from .profile import flux_constant
from .spectral import Grid, apply_multiplier, half_lattice_form, half_spectrum


# ---------------------------------------------------------------------------
# Nonlinearity

@dataclass(frozen=True)
class NonlinearitySpec:
    """Superlinear source term f and its primitive F; f = 0 on t < 0.

    Kinds:
      log_linear  -- f(t) = t ln(1+t); theta bounds its polynomial growth.
      pure_power  -- f(t) = t^(theta-1).
    """

    kind: str = "log_linear"
    theta: float = 2.5

    def __post_init__(self):
        if self.kind not in ("log_linear", "pure_power"):
            raise DomainError(f"unknown nonlinearity kind {self.kind!r}")
        if self.theta <= 2.0:
            raise DomainError("theta must exceed 2")


# log_linear F: the closed form cancels O(t) terms down to t^3/3, so its
# relative error grows like eps/t^2 (4e-14 at t = 0.1, 8e-15 at 0.2).  Below
# _F_QUAD_BELOW, F(t) = t^2 int_0^1 x ln(1 + t x) dx by 7-point Gauss-Legendre
# instead: the integrand is positive, so nothing cancels, and the first
# monomial the rule misses, -t^13 x^14 / 13, it gets wrong by 5.7e-9 t^13/13,
# under 1e-17 of the integral (about t/3) there.
_F_QUAD_BELOW = 0.2
# leggauss(7) of numpy.polynomial.legendre, whose import costs 1.4-1.8 MB
_F_QUAD_NODES, _F_QUAD_WEIGHTS = np.array([
    [-0.9491079123427586, -0.7415311855993945, -0.4058451513773972, 0.0,
     0.4058451513773972, 0.7415311855993945, 0.9491079123427586],
    [0.12948496616886973, 0.27970539148927687, 0.3818300505051187,
     0.4179591836734693, 0.3818300505051187, 0.27970539148927687,
     0.12948496616886973]])
# the rule on [0, 1], as columns: weight w_i x_i at node x_i
_F_QUAD_NODES = 0.5 * (_F_QUAD_NODES[:, None] + 1.0)
_F_QUAD_WEIGHTS = 0.5 * _F_QUAD_WEIGHTS[:, None] * _F_QUAD_NODES


def _nonlinearity(spec: NonlinearitySpec, t):
    """(F(t), f(t), f') from one transcendental pass, vectorized; all three
    vanish on t < 0, and f'() forms f'(t) on demand.

    log_linear: f = t ln(1+t), and integrating by parts gives
    F(t) = (t^2-1)/2 ln(1+t) - t^2/4 + t/2 (cross-checked against
    quadrature in the tests), replaced below _F_QUAD_BELOW by a quadrature
    that takes a second pass over those t; f' = ln(1+t) + t/(1+t).
    pure_power: f = t^(theta-1), F = t f / theta, f' = (theta-1) t^(theta-2).
    """
    pos = np.maximum(np.asarray(t, dtype=float), 0.0)
    if spec.kind == "log_linear":
        lg = np.log1p(pos)
        f = pos * lg
        # an array even at a scalar t, so that the small t can be set
        F = np.asarray(0.5 * (pos * f - lg + pos * (1.0 - 0.5 * pos)))
        small = pos < _F_QUAD_BELOW
        s = pos[small]
        quad = np.log1p(_F_QUAD_NODES * s)
        quad *= _F_QUAD_WEIGHTS
        F[small] = quad.sum(axis=0) * (s * s)
        return F, f, lambda: lg + pos / (1.0 + pos)
    f = pos ** (spec.theta - 1.0)
    F = pos * f
    F /= spec.theta
    return F, f, lambda: (spec.theta - 1.0) * pos ** (spec.theta - 2.0)


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

    def shift_derivatives(self, grid: Grid, well_density: np.ndarray):
        """Per axis, (sum rho dV/dy_j, sum rho d^2V/dy_j^2) over the grid
        from well_density = (V_inf - V) rho: dV/dy_j = c y_j (V_inf - V)
        and d^2V/dy_j^2 = (c - c^2 y_j^2) (V_inf - V), c = 2 / w^2."""
        c, total = 2.0 / self.w ** 2, well_density.sum()
        return [(c * (well_density * y).sum(),
                 c * total - c * c * (well_density * y * y).sum())
                for y in grid.coords]


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
    tol: float = 1e-8       # stationarity r at which a solve stops

    def __post_init__(self):
        if not 0.0 < self.sigma < 1.0:
            raise DomainError("sigma out of (0,1)")
        if self.m <= 0:
            raise DomainError("m must be positive")
        if self.tol <= 0:
            raise DomainError("solver tolerance must be positive")
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
        # positive inside the theta window, which _check_theta_window holds
        bound = self.dim * (2.0 - th) + 2.0 * self.sigma * th
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
    def kernel_spectrum(self) -> np.ndarray:
        """cell_volume * rfftn(W): the multiplier of g -> W * g; read-only."""
        spec = self.grid.cell_volume * half_spectrum(
            self.kernel.sample(self.grid))
        spec.flags.writeable = False
        return spec

    @cached_property
    def multiplier(self) -> np.ndarray:
        """(m^2 + 4 pi^2 |xi|^2)^sigma on the rfftn half lattice; read-only."""
        xi_sq = sum(x ** 2 for x in self.grid.xi)
        mult = (self.m ** 2 + 4.0 * np.pi ** 2 * xi_sq) ** self.sigma
        mult.flags.writeable = False
        return mult

    @cached_property
    def kappa(self) -> float:
        """The extension constant of (m^2 - Lap)^sigma."""
        return flux_constant(self.sigma)

    def validate(self) -> None:
        """Coercivity check min V + V0 kappa >= 0 on the grid, with V0 =
        0.9 min{1, m^2} min{A / V_inf, 1} a fraction of the well depth."""
        frac = min(self.potential.A / self.potential.V_inf, 1.0)
        v0 = 0.9 * min(1.0, self.m ** 2) * frac * self.kappa
        if float(np.min(self.potential_values)) + v0 < 0.0:
            raise DomainError("potential violates the coercivity bound "
                              "min V + V0 kappa >= 0")


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

    def gradient_spectrum(self, params: ModelParams) -> np.ndarray:
        """rfftn of the gradient kappa (m^2 - Lap)^sigma v + V v - (W * F(v))
        f(v): one forward transform, the sigma part from the spectrum."""
        out = half_spectrum(params.potential_values * self.values
                            - self.psi_grad)
        out += (params.kappa * self.spectrum) * params.multiplier
        if not np.all(np.isfinite(out)):
            raise NumericError("non-finite value in gradient")
        return out


def _quad_terms(params: ModelParams, values: np.ndarray, spectrum: np.ndarray):
    """(sigma-form, Q) of the field `values` with rfftn `spectrum`."""
    form = params.kappa * half_lattice_form(params.grid, params.multiplier,
                                            spectrum)
    pot = params.grid.cell_volume * (params.potential_values
                                     * values ** 2).sum()
    return form, _check_finite(form + pot, "quadratic form")


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
    conv = apply_multiplier(params.kernel_spectrum, F)
    psi = _interaction(params, F, conv)
    dv = params.grid.cell_volume
    fv = f * v
    pairing = _check_finite(dv * (conv * fv).sum(), "interaction pairing")

    def dphi():
        slope = _check_finite(
            dv * ((apply_multiplier(params.kernel_spectrum, fv) * fv).sum()
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

    Safeguarded Newton iteration in s = ln t on
    G(s) = ln(P(t) / (Q t^2)) = ln(1 - phi(t) / (t Q)), started at t = 1,
    where P = <Psi'(tu), tu> = t (t Q - phi) is the pairing.  With
    S = t^2 (Q - phi'(t)), G'(s) = (S - P) / P
    = (phi - t phi') / (t Q - phi), and the step is t exp(-G / G').  G is
    linear for a power nonlinearity and nearly so for log_linear, so the
    step lands close to the root from afar.  Under (f3) P / t^2 is
    increasing, so G' > 0, phi > 0 below the root and phi <= 0 above it:
    the window [1e-6, 1e6] is a bracket [lo, hi] around the root, and every
    evaluation moves one of its ends to t.  A Newton step outside
    (lo, hi), tested in ln t so that exp stays finite, gives way to the
    bisection sqrt(lo hi) (Press et al., Numerical Recipes, 3rd ed., 2007,
    sec. 9.4), and the search ends once no step is strictly inside."""
    lo, hi = _T_MIN, _T_MAX             # phi(lo) > 0 >= phi(hi) once set
    t = 1.0
    best_t, best_res, best_terms = t, np.inf, None
    for _ in range(100):
        phi, level, terms, dphi = nehari_phi(t, u, params, quad)
        if level - bound > _LEVEL_RTOL * abs(level):
            return t, None
        rel = phi / (t * quad)          # 1 - P / (Q t^2)
        res = abs(rel)
        if res < best_res:
            best_t, best_res, best_terms = t, res, terms
        if res < _NEWTON_RTOL:
            break
        if phi > 0.0:
            lo = t
        else:
            hi = t
        t_next = math.sqrt(lo * hi)
        if rel < 1.0:                   # P > 0, so G is finite
            g_prime = (rel - dphi() / quad) / (1.0 - rel)
            if g_prime > 0.0:
                ds = -math.log1p(-rel) / g_prime
                if math.log(lo / t) < ds < math.log(hi / t):
                    t_next = t * math.exp(ds)
        if not lo < t_next < hi:        # the bracket cannot shrink further
            break
        t = t_next
    if best_res >= 1e-10:
        if lo == _T_MIN or hi == _T_MAX:
            raise DiagnosticError("no sign change of the Nehari function on "
                                  "[1e-6, 1e6]")
        raise DiagnosticError("Nehari root residual exceeds 1e-10 of the "
                              "quadratic scale")
    return float(best_t), best_terms


def _project(u: np.ndarray, params: ModelParams, bound: float = np.inf,
             spectrum: np.ndarray | None = None):
    """The Nehari scale t of the field u (an array on params.grid) and the
    core at v = t u, or (t, None) once a level I(t_k u) exceeds `bound`.
    `spectrum`, when given, is rfftn(u), and the projection takes it over.
    For log_linear the root search starts at t = 1.

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
    spectrum = half_spectrum(u) if spectrum is None else spectrum
    form, quad = _quad_terms(params, u, spectrum)

    nl = params.nonlinearity
    if nl.kind == "pure_power":
        # I(tu) = t^2 Q/2 - t^(2 theta) Psi(u): the stationary t in closed
        # form; (W * F(tu)) f(tu) = t^(2 theta - 1) (W * F(u)) f(u), so f,
        # this call's own array, takes the whole factor in place
        F, f = _nonlinearity(nl, u)[:2]
        conv = apply_multiplier(params.kernel_spectrum, F)
        psi = _interaction(params, F, conv)
        if psi <= 0:
            raise DiagnosticError("interaction vanishes on this ray")
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
