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

The tabulation also carries the weighted Dirichlet energy

    kappa = int_0^inf (phi^2 + phi'^2) s^(1-2*sigma) ds,

which converts extension energies into boundary Sobolev forms, plus the
endpoint constants of the expansions

    phi(s) ~ 1 - c1 * s^(2*sigma)                   (s -> 0),
    phi(s) ~ c2 * s^((2*sigma-1)/2) * exp(-s)       (s -> infinity),

and the flux constant d_sigma = -lim_{s->0+} s^(1-2*sigma) phi'(s)
= 2*sigma*c1.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DiagnosticError, DomainError

_SERIES_TERMS = 40
_TAYLOR_TERMS = 60      # terms per inward Taylor step (ratio |h|/c <= 1/2)
_S_MATCH = 0.5          # pivot where the inward solve hands over to the series
_GAUSS_POINTS = 5
# Largest s_max: Taylor rows near the pivot reach e^s_max 2^59 (s_max/s)^(1/2),
# which overflows (ln max float = 709.78) at s_max ~ 666; first seen at 667
_S_MAX_LIMIT = 600.0


def _series_basis(sigma, s):
    """Frobenius pair of the kernel ODE about s = 0, each branch as (u, u').

    u1 = 1 + sum a_k s^(2k) (regular branch), u2 = s^(2*sigma) * (1 + ...)
    (singular-derivative branch).  Valid for s > 0; both series are entire.
    The k-th term of either has exponent q = 2k + e and coefficient ratio
    1 / (q (q - 2 sigma)), with e = 0 for u1 and e = 2 sigma for u2.
    """
    s = np.asarray(s, dtype=float)
    branches = []
    for e, e_shift in ((0.0, -2.0 * sigma), (2.0 * sigma, 0.0)):
        u, du = np.zeros_like(s), np.zeros_like(s)
        a = 1.0
        for k in range(_SERIES_TERMS):
            q = 2.0 * k + e
            if k:
                a /= q * (2.0 * k + e_shift)
            u = u + a * s ** q
            du = du + q * a * s ** (q - 1.0)
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
    nodes; kappa, c1, c2, d_sigma as in the module docstring (c1, c2 are the
    fitted endpoint constants, d_sigma comes from the series matching).
    build_profile is its one constructor.
    """

    sigma: float
    nodes: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    kappa: float
    c1: float
    c2: float
    d_sigma: float

    @property
    def s_max(self):
        return float(self.nodes[-1])


def build_profile(sigma: float, s_max: float = 40.0, M: int = 2000) -> BesselProfile:
    """Tabulate the kernel by inward shooting plus series matching.

    Raises DomainError for sigma, s_max or M out of range and
    DiagnosticError when the decaying branch cannot be normalized.
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
    A = (phi_m * du2 - dphi_m * u2) / det
    B = (dphi_m * u1 - phi_m * du1) / det
    if not np.isfinite(A) or A <= 0.0:
        raise DiagnosticError("shooting failed to bracket the decaying branch "
                              f"(matched amplitude {A!r})")
    c1_series = -B / A
    if c1_series <= 0.0:
        raise DiagnosticError("matched small-s coefficient has the wrong sign")

    def raw(s):
        """Normalized kernel on (0, s_max]: Frobenius series below the
        pivot, the inward Taylor steps above."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        phi = np.empty_like(s)
        dphi = np.empty_like(s)
        lo = s < s_match
        if lo.any():
            (v1, dv1), (v2, dv2) = _series_basis(sigma, s[lo])
            phi[lo] = v1 - c1_series * v2
            dphi[lo] = dv1 - c1_series * dv2
        if (~lo).any():
            j = np.minimum(np.searchsorted(centres, s[~lo]), len(rows) - 1)
            v, dv = _horner(lambda k: rows[j, k], s[~lo] - centres[j])
            phi[~lo] = v / A
            dphi[~lo] = dv / A
        return phi, dphi

    nodes = s_max * (np.arange(1, M + 1) / M) ** 3
    phi_tab, dphi_tab = raw(nodes)

    kappa = _weighted_energy(raw, nodes, sigma, c1_series)
    d_sigma = 2.0 * sigma * c1_series

    c1_fit, c2_fit = fit_asymptotics(sigma, nodes, phi_tab)
    return BesselProfile(sigma=sigma, nodes=nodes, phi=phi_tab, dphi=dphi_tab,
                         kappa=kappa, c1=c1_fit, c2=c2_fit, d_sigma=d_sigma)


def small_s_energy_integral(s1, sigma, c1):
    """int_0^s1 (phi^2 + phi'^2) s^(1-2*sigma) ds from the two-term
    expansion phi = 1 - c1 s^(2*sigma); accurate to O(s1^2) absolute."""
    s1 = np.asarray(s1, dtype=float)
    return (s1 ** (2.0 - 2.0 * sigma) / (2.0 - 2.0 * sigma)
            - c1 * s1 ** 2
            + c1 ** 2 * s1 ** (2.0 + 2.0 * sigma) / (2.0 + 2.0 * sigma)
            + 2.0 * sigma * c1 ** 2 * s1 ** (2.0 * sigma))


def _weighted_energy(raw, nodes, sigma, c1):
    """kappa by graded quadrature: analytic head on [0, s_0], per-interval
    Gauss-Legendre on [s_0, s_max], exponential-tail estimate beyond."""
    gx, gw = np.polynomial.legendre.leggauss(_GAUSS_POINTS)
    a = nodes[:-1]
    b = nodes[1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    pts = mid[:, None] + half[:, None] * gx[None, :]
    phi, dphi = raw(pts.ravel())
    g = (phi ** 2 + dphi ** 2) * pts.ravel() ** (1.0 - 2.0 * sigma)
    body = float(np.sum(g.reshape(pts.shape) @ gw * half))

    head = float(small_s_energy_integral(nodes[0], sigma, c1))

    phi_end, dphi_end = raw(nodes[-1])
    g_end = float((phi_end[0] ** 2 + dphi_end[0] ** 2)
                  * nodes[-1] ** (1.0 - 2.0 * sigma))
    tail = 0.5 * g_end          # integrand ~ g_end * exp(-2(s - s_max))

    kappa = head + body + tail
    if not np.isfinite(kappa) or kappa <= 0.0:
        raise DiagnosticError("weighted energy quadrature produced "
                              f"kappa = {kappa!r}")
    return kappa


def fit_asymptotics(sigma, nodes, phi) -> tuple[float, float]:
    """Fit the endpoint constants (c1, c2) from the kernel phi tabulated at
    the increasing nodes.

    c1: least squares of 1 - phi against s^(2*sigma) on the smallest usable
    decade of nodes (usable = defect above cancellation noise, s < 0.1).
    c2: least squares of phi / (s^((2*sigma-1)/2) e^-s) against [1, 1/s] on
    the largest decade; the 1/s column absorbs the next asymptotic
    correction.  Raises DiagnosticError when a fit residual exceeds 2%.
    """
    defect = 1.0 - phi
    usable = (defect > 1e-10) & (nodes < 0.1)
    if not usable.any():
        raise DiagnosticError("no nodes usable for the small-s fit")
    s_lo = nodes[usable][0]
    win = usable & (nodes <= 10.0 * s_lo)
    x = nodes[win] ** (2.0 * sigma)
    y = defect[win]
    c1 = float(np.dot(x, y) / np.dot(x, x))
    res1 = float(np.linalg.norm(y - c1 * x) / np.linalg.norm(y))
    if not np.isfinite(c1) or c1 <= 0.0 or res1 > 0.02:
        raise DiagnosticError(f"small-s fit ill-conditioned (c1={c1!r}, "
                              f"relative residual {res1:.3g})")

    win2 = nodes >= nodes[-1] / 10.0
    s2 = nodes[win2]
    ratio = phi[win2] / (s2 ** ((2.0 * sigma - 1.0) / 2.0) * np.exp(-s2))
    design = np.column_stack([np.ones_like(s2), 1.0 / s2])
    coef, *_ = np.linalg.lstsq(design, ratio, rcond=None)
    c2 = float(coef[0])
    res2 = float(np.linalg.norm(ratio - design @ coef) / np.linalg.norm(ratio))
    if not np.isfinite(c2) or c2 <= 0.0 or res2 > 0.02:
        raise DiagnosticError(f"large-s fit ill-conditioned (c2={c2!r}, "
                              f"relative residual {res2:.3g})")
    return c1, c2


def eval_profile(p: BesselProfile, s):
    """Evaluate (phi, dphi) at s >= 0 (scalar or array).

    For s < 0.01 the four-term Frobenius expansion is used (with the series
    coefficient d_sigma/(2*sigma)); a cubic interpolant cannot follow the
    s^(2 sigma) cusp there.  On [0.01, s_max] the Hermite interpolant of
    the tabulation applies, and beyond s_max the fitted exponential
    asymptote c2 * s^((2*sigma-1)/2) * e^-s.
    """
    scalar = np.isscalar(s) or np.asarray(s).ndim == 0
    phi, dphi = _profile_values(p, s, slope=True)
    if scalar:
        return float(phi[0]), float(dphi[0])
    return phi, dphi


def _profile_values(p: BesselProfile, s, slope: bool):
    """eval_profile's (phi, dphi) as arrays; without `slope`, dphi is None
    and no branch forms it (lift needs phi alone)."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if (s < 0.0).any():
        raise DomainError("profile argument must be nonnegative")

    sigma = p.sigma
    c1s = p.d_sigma / (2.0 * sigma)
    phi = np.empty_like(s)
    dphi = np.empty_like(s) if slope else None

    lo = s < 1e-2
    hi = s > p.s_max
    mid = ~(lo | hi)
    if lo.any():
        sl = s[lo]
        a1 = 1.0 / (2.0 * (2.0 - 2.0 * sigma))
        b1 = 1.0 / (2.0 * (2.0 + 2.0 * sigma))
        phi[lo] = (1.0 + a1 * sl ** 2
                   - c1s * sl ** (2.0 * sigma) * (1.0 + b1 * sl ** 2))
        if slope:
            with np.errstate(divide="ignore"):
                dphi_lo = (2.0 * a1 * sl
                           - p.d_sigma * sl ** (2.0 * sigma - 1.0)
                           - c1s * (2.0 * sigma + 2.0) * b1
                           * sl ** (2.0 * sigma + 1.0))
            if sigma > 0.5:
                dphi_lo = np.where(sl == 0.0, 0.0, dphi_lo)
            dphi[lo] = dphi_lo
    if mid.any():
        phi[mid], dphi_mid = _hermite(p.nodes, p.phi, p.dphi, s[mid], slope)
        if slope:
            dphi[mid] = dphi_mid
    if hi.any():
        sh = s[hi]
        pe = (2.0 * sigma - 1.0) / 2.0
        env = p.c2 * sh ** pe * np.exp(-sh)
        phi[hi] = env
        if slope:
            dphi[hi] = env * (pe / sh - 1.0)
    return phi, dphi


def _hermite(x, y, dy, s, slope: bool):
    """Cubic Hermite interpolant of (y, dy) on nodes x, and its derivative
    (None without `slope`)."""
    i = np.clip(np.searchsorted(x, s, side="right") - 1, 0, len(x) - 2)
    dx = x[i + 1] - x[i]
    secant = (y[i + 1] - y[i]) / dx
    c2 = (3.0 * secant - 2.0 * dy[i] - dy[i + 1]) / dx
    c3 = (dy[i] + dy[i + 1] - 2.0 * secant) / dx ** 2
    t = s - x[i]
    value = y[i] + t * (dy[i] + t * (c2 + t * c3))
    if not slope:
        return value, None
    return value, dy[i] + t * (2.0 * c2 + 3.0 * t * c3)


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

