"""Decaying radial kernel of the weighted half-space extension.

The kernel solves the modified-Bessel-type boundary value problem

    -phi(s) + ((1 - 2*sigma)/s) * phi'(s) + phi''(s) = 0,
    phi(0) = 1,    phi(s) -> 0  as  s -> infinity,

for 0 < sigma < 1.  In closed form phi(s) = (2/Gamma(sigma)) (s/2)^sigma
K_sigma(s); here it is tabulated by shooting on the decaying branch from
s_max inward (the growing solution dies in that direction, so the branch is
stable) and matching a Frobenius series about s = 0 at a small pivot.  The
shooting sums the ODE's Taylor series about each step's start, at most half
its radius (the distance to s = 0) away; it also gives the values in between.

The flux constant d_sigma = -lim_{s->0+} s^(1-2*sigma) phi'(s) is the
closed form 2^(1-2*sigma) Gamma(1-sigma) / Gamma(sigma) of flux_constant; the
series matching checks the table against it.  The weighted Dirichlet energy

    kappa = int_0^inf (phi^2 + phi'^2) s^(1-2*sigma) ds = d_sigma,

which converts extension energies into boundary Sobolev forms, equals the
flux (multiply the ODE by phi s^(1-2*sigma) and integrate by parts: only
the boundary term at s = 0 remains).  The endpoint expansions are

    phi(s) ~ 1 - c1 * s^(2*sigma)                (s -> 0),
    phi(s) ~ c2 * s^((2*sigma-1)/2) * exp(-s)    (s -> infinity),

with c1 = d_sigma / (2*sigma) and c2 = sqrt(pi) 2^(1/2-sigma) / Gamma(sigma)
from the large-s asymptotics of K_sigma: all four constants are closed forms.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DiagnosticError, DomainError

_SERIES_TERMS = 40
_SMALL_S_TERMS = 4       # eval_profile's series below s = 0.01
_HANKEL_TERMS = 20       # eval_profile's Hankel series beyond s_max >= 20
_TAYLOR_TERMS = 60      # terms per inward Taylor step (ratio |h|/c <= 1/2)
_S_MATCH = 0.5          # pivot where the inward solve hands over to the series
# Largest s_max: Taylor rows near the pivot reach e^s_max 2^59 (s_max/s)^(1/2),
# which overflows (ln max float = 709.78) at s_max ~ 666; first seen at 667
_S_MAX_LIMIT = 600.0


def flux_constant(sigma: float) -> float:
    """d_sigma = kappa = 2^(1-2 sigma) Gamma(1-sigma) / Gamma(sigma), the
    extension constant of (-Delta + m^2)^sigma (Caffarelli & Silvestre,
    Comm. PDE 32, 2007); exactly 1 at sigma = 1/2."""
    return (2.0 ** (1.0 - 2.0 * sigma) * math.gamma(1.0 - sigma)
            / math.gamma(sigma))


def _frobenius(sigma, terms):
    """Exponents q and coefficients a, `terms` of each, of the Frobenius
    pair of the kernel ODE about s = 0: u1 = 1 + sum a_k s^(2k) (regular)
    and u2 = s^(2*sigma) * (1 + ...) (singular derivative), both entire.
    Term k has q = 2k + e, with e = 0 for u1 and 2 sigma for u2, and
    coefficient ratio 1 / (q (q - 2 sigma)) to term k - 1.
    """
    branches = []
    for e, e_shift in ((0.0, -2.0 * sigma), (2.0 * sigma, 0.0)):
        q, a = 2.0 * np.arange(terms) + e, np.ones(terms)
        for k in range(1, terms):
            a[k] = a[k - 1] / (q[k] * (2.0 * k + e_shift))
        branches.append((q, a))
    return branches


def _series_basis(sigma, s):
    """Both Frobenius branches, each as (u, u'), at s > 0."""
    s = np.asarray(s, dtype=float)
    branches = []
    for q, a in _frobenius(sigma, _SERIES_TERMS):
        u, du = np.zeros_like(s), np.zeros_like(s)
        for qk, ak in zip(q, a):
            u = u + ak * s ** qk
            du = du + qk * ak * s ** (qk - 1.0)
        branches.append((u, du))
    return branches


def _taylor_steps(sigma, s_max, s_match, phi0, dphi0):
    """Step the kernel ODE from (phi0, dphi0) at s_max inward to s_match.

    About a centre c, phi = sum a_k (s - c)^k with a_{k+2} = (c a_k + a_{k-1}
    - (k+1)(k+1-2 sigma) a_{k+1}) / (c (k+1)(k+2)), convergent for |s-c| < c;
    each step goes min(1, c/2).  Returns the centres (increasing), their
    coefficient rows (each for the step down from its centre) and the pivot.
    """
    centres, rows = [], []
    c, a0, a1 = s_max, phi0, dphi0
    while c > s_match:
        a = np.zeros(_TAYLOR_TERMS + 1)         # a[-1] = 0 stands for a_{-1}
        a[0], a[1] = a0, a1
        for j in range(_TAYLOR_TERMS - 2):
            a[j + 2] = ((c * a[j] + a[j - 1]
                         - (j + 1) * (j + 1 - 2.0 * sigma) * a[j + 1])
                        / (c * (j + 1) * (j + 2)))
        step = min(1.0, 0.5 * c, c - s_match)
        a0, a1 = _horner(a.__getitem__, -step)
        centres.append(c)
        rows.append(a)
        c = s_match if step == c - s_match else c - step
    return np.array(centres[::-1]), np.array(rows[::-1]), a0, a1


def _horner(coef, h):
    """sum_k coef(k) h^k over k < _TAYLOR_TERMS, and its derivative in h."""
    p = dp = 0.0
    for k in range(_TAYLOR_TERMS - 1, -1, -1):
        dp = dp * h + p
        p = p * h + coef(k)
    return p, dp


@dataclass(frozen=True)
class BesselProfile:
    """Tabulated extension kernel for one value of sigma.

    nodes are graded toward 0 (s_j = s_max * (j/M)^3) so the s^(1-2*sigma)
    weight is resolved.  phi/dphi are the kernel and its derivative at the
    nodes.  d_sigma, kappa, c1 and c2 are closed forms in sigma, as in the
    module docstring; build_profile, its one constructor, checks the table's
    series matching against them.
    """

    sigma: float
    nodes: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray

    @property
    def s_max(self):
        return float(self.nodes[-1])

    @property
    def kappa(self):
        return flux_constant(self.sigma)

    d_sigma = kappa

    @property
    def c1(self):
        return self.d_sigma / (2.0 * self.sigma)

    @property
    def c2(self):
        # 1/Gamma(sigma) as sigma/Gamma(1 + sigma), which cannot overflow
        return (math.sqrt(math.pi) * 2.0 ** (0.5 - self.sigma)
                * self.sigma / math.gamma(1.0 + self.sigma))


def build_profile(sigma: float, s_max: float = 40.0, M: int = 2000) -> BesselProfile:
    """Tabulate the kernel by inward shooting plus series matching.

    Raises DomainError for sigma, s_max or M out of range and
    DiagnosticError when the decaying branch cannot be normalized or its
    matched c1 disagrees with the closed form.
    """
    if not 0.0 < sigma < 1.0:
        raise DomainError("sigma out of (0,1)")
    if not 20.0 <= s_max <= _S_MAX_LIMIT:
        raise DomainError(f"s_max must lie in [20, {_S_MAX_LIMIT:g}]")
    if M < 1000:
        raise DomainError("M must be >= 1000")

    s_match = min(_S_MATCH, s_max / 4.0)

    # Decaying-branch start with one asymptotic correction; the overall scale
    # is arbitrary and removed by the matching below.
    p_exp = (2.0 * sigma - 1.0) / 2.0
    mu1 = 4.0 * sigma ** 2 - 1.0
    phi0 = 1.0
    dphi0 = phi0 * (p_exp / s_max - 1.0
                    - (mu1 / (8.0 * s_max ** 2)) / (1.0 + mu1 / (8.0 * s_max)))
    centres, rows, phi_m, dphi_m = _taylor_steps(sigma, s_max, s_match,
                                                 phi0, dphi0)
    if not np.isfinite([phi_m, dphi_m]).all():
        raise DiagnosticError("inward shooting solve failed: non-finite "
                              f"value ({phi_m!r}, {dphi_m!r}) at the pivot")

    (u1, du1), (u2, du2) = _series_basis(sigma, s_match)
    det = u1 * du2 - du1 * u2
    if not (np.isfinite(det) and det != 0.0):
        raise DiagnosticError("shooting failed to bracket the decaying branch "
                              f"(series Wronskian {float(det)!r})")
    A = (phi_m * du2 - dphi_m * u2) / det
    B = (dphi_m * u1 - phi_m * du1) / det
    if not np.isfinite(A) or A <= 0.0:
        raise DiagnosticError("shooting failed to bracket the decaying branch "
                              f"(matched amplitude {A!r})")
    # the table's self-check; measured gaps stay below 1.1e-15 of c1 over
    # sigma in [1e-12, 1 - 1e-12], s_max in [20, 600] and M in {1000, 2000}
    c1 = flux_constant(sigma) / (2.0 * sigma)
    if not abs(-B / A - c1) <= 1e-12 * c1:
        raise DiagnosticError(f"matched small-s coefficient {-B / A!r} "
                              f"disagrees with the closed form c1 = {c1!r}")

    # Frobenius series below the pivot, the inward Taylor steps above; the
    # nodes increase, so the series takes a prefix of them
    nodes = s_max * (np.arange(1, M + 1) / M) ** 3
    lo = nodes < s_match
    (v1, dv1), (v2, dv2) = _series_basis(sigma, nodes[lo])
    j = np.minimum(np.searchsorted(centres, nodes[~lo]), len(rows) - 1)
    v, dv = _horner(lambda k: rows[j, k], nodes[~lo] - centres[j])
    return BesselProfile(sigma=sigma, nodes=nodes,
                         phi=np.concatenate([v1 - c1 * v2, v / A]),
                         dphi=np.concatenate([dv1 - c1 * dv2, dv / A]))


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
    cannot follow the s^(2 sigma) cusp there.  On [0.01, s_max] the Hermite
    interpolant of the tabulated (phi, dphi) applies, and beyond s_max the
    Hankel series of K_sigma, c2 s^((2*sigma-1)/2) e^-s (1 + ...), by Horner.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if (s < 0.0).any():
        raise DomainError("profile argument must be nonnegative")

    sigma = p.sigma
    phi = np.empty_like(s)
    lo, hi = s < 1e-2, s > p.s_max
    mid = ~(lo | hi)
    sl, sh = s[lo], s[hi]
    (_, a1), (_, a2) = _frobenius(sigma, _SMALL_S_TERMS)
    phi[lo] = (np.polyval(a1[::-1], sl ** 2) - p.c1 * sl ** (2.0 * sigma)
               * np.polyval(a2[::-1], sl ** 2))
    phi[mid] = _hermite(p.nodes, p.phi, p.dphi, s[mid])
    tail = 1.0
    for k in range(_HANKEL_TERMS - 1, 0, -1):
        tail = 1.0 + (4 * sigma ** 2 - (2 * k - 1) ** 2) / (8 * k) * tail / sh
    phi[hi] = p.c2 * sh ** ((2.0 * sigma - 1.0) / 2.0) * np.exp(-sh) * tail
    return phi


def _hermite(x, y, dy, s):
    """Cubic Hermite interpolant of (y, dy) on nodes x, at s."""
    dx = np.diff(x)
    secant = np.diff(y) / dx
    c2 = (3.0 * secant - 2.0 * dy[:-1] - dy[1:]) / dx
    c3 = (dy[:-1] + dy[1:] - 2.0 * secant) / dx ** 2
    i = np.clip(np.searchsorted(x, s, side="right") - 1, 0, len(x) - 2)
    t = s - x[i]
    return y[i] + t * (dy[i] + t * (c2[i] + t * c3[i]))


# ---------------------------------------------------------------------------
# CSV output: header row with the scalar constants, then s/phi/dphi.

def profile_to_csv(p: BesselProfile, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["sigma", "kappa", "c1", "c2", "d_sigma"])
        w.writerow([repr(float(p.sigma)), repr(float(p.kappa)),
                    repr(float(p.c1)), repr(float(p.c2)),
                    repr(float(p.d_sigma))])
        w.writerow(["s", "phi", "dphi"])
        for s, phi, dphi in zip(p.nodes, p.phi, p.dphi):
            w.writerow([repr(float(s)), repr(float(phi)),
                        repr(float(dphi))])

