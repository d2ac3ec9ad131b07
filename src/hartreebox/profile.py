"""Decaying radial kernel of the weighted half-space extension.

The kernel solves the modified-Bessel-type boundary value problem

    -phi(s) + ((1 - 2*sigma)/s) * phi'(s) + phi''(s) = 0,
    phi(0) = 1,    phi(s) -> 0  as  s -> infinity,

for 0 < sigma < 1.  In closed form phi(s) = (2/Gamma(sigma)) (s/2)^sigma
K_sigma(s) and phi'(s) = -(2/Gamma(sigma)) (s/2)^sigma K_(1-sigma)(s); here
both are tabulated by the trapezoid rule on the integral representation of
K_nu (build_profile).

The flux constant d_sigma = -lim_{s->0+} s^(1-2*sigma) phi'(s) is the
closed form 2^(1-2*sigma) Gamma(1-sigma) / Gamma(sigma) of flux_constant.
The weighted Dirichlet energy

    kappa = int_0^inf (phi^2 + phi'^2) s^(1-2*sigma) ds = d_sigma,

which converts extension energies into boundary Sobolev forms, equals the
flux (multiply the ODE by phi s^(1-2*sigma) and integrate by parts: only
the boundary term at s = 0 remains).  The endpoint expansions are

    phi(s) ~ 1 - c1 * s^(2*sigma)                (s -> 0),
    phi(s) ~ c2 * s^((2*sigma-1)/2) * exp(-s)    (s -> infinity),

with c1 = kappa / (2*sigma) and c2 = sqrt(pi) 2^(1/2-sigma) / Gamma(sigma)
from the large-s asymptotics of K_sigma: all four constants are closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DiagnosticError, DomainError

_S_MAX, _M = 40.0, 2000  # the table's nodes, graded_nodes(_S_MAX, _M)[1:]
_SMALL_S_TERMS = 4       # eval_profile's series below s = 0.01
_HANKEL_TERMS = 20       # eval_profile's Hankel series beyond _S_MAX
_QUAD_RTOL = 1e-17       # build_profile's sums stop at terms below this share


def flux_constant(sigma: float) -> float:
    """d_sigma = kappa = 2^(1-2 sigma) Gamma(1-sigma) / Gamma(sigma), the
    extension constant of (-Delta + m^2)^sigma (Caffarelli & Silvestre,
    Comm. PDE 32, 2007); exactly 1 at sigma = 1/2."""
    return (2.0 ** (1.0 - 2.0 * sigma) * math.gamma(1.0 - sigma)
            / math.gamma(sigma))


def _frobenius(sigma, terms):
    """Coefficients a, `terms` of each, of the Frobenius pair of the kernel
    ODE about s = 0: u1 = 1 + sum a_k s^(2k) (regular) and
    u2 = s^(2*sigma) * (1 + ...) (singular derivative), both entire.
    Term k has exponent q = 2k + e, with e = 0 for u1 and 2 sigma for u2,
    and coefficient ratio 1 / (q (q - 2 sigma)) to term k - 1.
    """
    branches = []
    for e, e_shift in ((0.0, -2.0 * sigma), (2.0 * sigma, 0.0)):
        a = np.ones(terms)
        for k in range(1, terms):
            a[k] = a[k - 1] / ((2.0 * k + e) * (2.0 * k + e_shift))
        branches.append(a)
    return branches


@dataclass(frozen=True)
class BesselProfile:
    """Tabulated extension kernel for one value of sigma.

    nodes are graded toward 0 (graded_nodes(_S_MAX, _M) without s_0 = 0)
    so the s^(1-2*sigma) weight is resolved.  phi/dphi are the kernel and
    its derivative at the nodes, from build_profile, its one constructor.
    kappa, c1 and c2 are closed forms in sigma, as in the module docstring.
    """

    sigma: float
    nodes: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray

    @property
    def kappa(self):
        return flux_constant(self.sigma)

    @property
    def c1(self):
        return self.kappa / (2.0 * self.sigma)

    @property
    def c2(self):
        # 1/Gamma(sigma) as sigma/Gamma(1 + sigma), which cannot overflow
        return (math.sqrt(math.pi) * 2.0 ** (0.5 - self.sigma)
                * self.sigma / math.gamma(1.0 + self.sigma))

    @cached_property
    def _cubic(self):
        """eval_profile's Hermite coefficients (c2, c3) per node interval."""
        dx = np.diff(self.nodes)
        secant = np.diff(self.phi) / dx
        return ((3.0 * secant - 2.0 * self.dphi[:-1] - self.dphi[1:]) / dx,
                (self.dphi[:-1] + self.dphi[1:] - 2.0 * secant) / dx ** 2)


def graded_nodes(x_max: float, K: int) -> np.ndarray:
    """x_j = x_max (j/K)^3, j = 0..K; cubic grading toward x = 0."""
    return x_max * (np.arange(K + 1) / K) ** 3


def build_profile(sigma: float) -> BesselProfile:
    """Tabulate phi and dphi by the trapezoid rule on K_nu(s) = int_0^inf
    e^(-s cosh t) cosh(nu t) dt (DLMF 10.32.9) for nu = sigma and 1 - sigma.

    Each node's integrals are scaled by e^s and take steps h = 0.2 /
    max(1, sqrt(s)); the rule converges exponentially for this analytic
    integrand (Trefethen & Weideman, SIAM Rev. 56, 2014).  A node is done
    once its latest terms are below _QUAD_RTOL of its sums.

    Raises DomainError for sigma out of (0, 1) and DiagnosticError for sums
    still open where every integrand is 0 in floating point.
    """
    if not 0.0 < sigma < 1.0:
        raise DomainError("sigma out of (0,1)")

    nodes = graded_nodes(_S_MAX, _M)[1:]
    h = 0.2 / np.sqrt(np.maximum(nodes, 1.0))
    # e^(-746) is 0 in floating point, so past s (cosh t - 1) = 746 no term
    # adds anything
    steps = int(np.max(np.arccosh(1.0 + 746.0 / nodes) / h)) + 1
    k_sigma, k_dual = np.full(_M, 0.5), np.full(_M, 0.5)  # the t = 0 terms
    live = _M     # the nodes past the last unconverged one are done
    for k in range(1, steps + 1):
        t = k * h[:live]
        # e^(-s (cosh t - 1)), with cosh t - 1 = 2 sinh(t/2)^2 exact at small t
        decay = np.exp(-2.0 * nodes[:live] * np.sinh(0.5 * t) ** 2)
        a, b = decay * np.cosh(sigma * t), decay * np.cosh((1.0 - sigma) * t)
        k_sigma[:live] += a
        k_dual[:live] += b
        open_ = np.flatnonzero(~((a < _QUAD_RTOL * k_sigma[:live])
                                 & (b < _QUAD_RTOL * k_dual[:live])))
        if not open_.size:
            break
        live = open_[-1] + 1
    else:
        raise DiagnosticError(f"Bessel quadrature did not converge in {steps} "
                              "steps")
    # 2/Gamma(sigma) as 2 sigma/Gamma(1 + sigma), which cannot overflow
    scale = (2.0 * sigma / math.gamma(1.0 + sigma) * (nodes / 2.0) ** sigma
             * np.exp(-nodes) * h)
    return BesselProfile(sigma=sigma, nodes=nodes, phi=scale * k_sigma,
                         dphi=-scale * k_dual)


def small_s_energy_integral(s1, sigma, c1):
    """int_0^s1 (phi^2 + phi'^2) s^(1-2*sigma) ds from the two-term
    expansion phi = 1 - c1 s^(2*sigma); accurate to O(s1^2) absolute."""
    s1 = np.asarray(s1, dtype=float)
    return (s1 ** (2.0 - 2.0 * sigma) / (2.0 - 2.0 * sigma)
            - c1 * s1 ** 2
            + c1 ** 2 * s1 ** (2.0 + 2.0 * sigma) / (2.0 + 2.0 * sigma)
            + 2.0 * sigma * c1 ** 2 * s1 ** (2.0 * sigma))


def eval_profile(p: BesselProfile, s) -> np.ndarray:
    """Phi at s >= 0, as an array of s's shape (at least 1-D).

    For s < 0.01 the Frobenius series u1 - c1 u2 is summed to
    _SMALL_S_TERMS terms per branch, by Horner in s^2; a cubic interpolant
    cannot follow the s^(2 sigma) cusp there.  On [0.01, _S_MAX] the Hermite
    interpolant of the tabulated (phi, dphi) applies, and beyond _S_MAX the
    Hankel series of K_sigma, c2 s^((2*sigma-1)/2) e^-s (1 + ...), by Horner.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if (s < 0.0).any():
        raise DomainError("profile argument must be nonnegative")

    sigma = p.sigma
    phi = np.empty_like(s)
    lo, hi = s < 1e-2, s > _S_MAX
    mid = ~(lo | hi)
    c2, c3 = p._cubic
    sm = s[mid]
    i = _interval(p.nodes, sm)
    t = sm - p.nodes[i]
    phi[mid] = p.phi[i] + t * (p.dphi[i] + t * (c2[i] + t * c3[i]))
    if lo.any():
        sl = s[lo]
        a1, a2 = _frobenius(sigma, _SMALL_S_TERMS)
        phi[lo] = (np.polyval(a1[::-1], sl ** 2) - p.c1 * sl ** (2.0 * sigma)
                   * np.polyval(a2[::-1], sl ** 2))
    if hi.any():
        sh, tail, nu_sq = s[hi], 1.0, 4 * sigma ** 2
        for k in range(_HANKEL_TERMS - 1, 0, -1):
            tail = 1.0 + (nu_sq - (2 * k - 1) ** 2) / (8 * k) * tail / sh
        phi[hi] = p.c2 * sh ** ((2.0 * sigma - 1.0) / 2.0) * np.exp(-sh) * tail
    return phi


def _interval(x, s):
    """Index, clipped to the table, of the node interval holding s, for the
    nodes graded_nodes(x_max, M)[1:], x_i = x_max ((i + 1)/M)^3:
    floor(M cbrt(s/x_max)) - 1, then a step each way where cbrt's rounding
    crossed a node."""
    M = len(x)
    i = np.floor(M * np.cbrt(s / x[-1])).astype(np.intp).clip(1, M - 1) - 1
    i -= x[i] > s
    i += x[i + 1] <= s
    return i.clip(0, M - 2)

