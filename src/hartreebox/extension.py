"""Canonical extension of a trace to the weighted half-space and the
structural checks attached to it.

The extension of h is diagonal in frequency: per lattice mode,
u-hat(x, xi) = h-hat(xi) * Phi(c x) with c = sqrt(m^2 + 4 pi^2 |xi|^2).
`lift` keeps it in that form on a graded x-mesh x_j = x_max (j/K_x)^3
(dense near the degenerate boundary): the half-lattice spectrum rfftn(h),
the |k|^2 class of every mode and the distinct rates c, but no table of
Phi(x_j c): each check evaluates Phi on the x-rows it reads, a few at a
time, and compares against an independent discretization: per rate class,
graded-quadrature energy vs. the spectral quadratic form and
finite-difference Neumann traces vs. the multiplier kappa c^(2 sigma); on
the field, the sup-norm decay law in x.  Only sup_y |u(x, .)| needs
physical space, and only on at most 32 nodes of the decay fit's window
[2/m, x_max], one x-node at a time, so no check holds more than one field
of n^N values, and memory does not grow with K_x.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, NumericError, VerificationError
from .profile import (BesselProfile, eval_profile, graded_nodes,
                      small_s_energy_integral)
from .spectral import Grid, TraceField, half_spectrum, inverse_spectrum

# lift's floor on x_max, in decay lengths 1/m of the slowest mode
MIN_DECAY_LENGTHS = 10

# check bounds; a rate class is judged by the Neumann trace when it carries
# at least _MASS_FLOOR of the spectral mass
_ENERGY_RTOL = 0.01
_DTN_RTOL = 0.02
_MASS_FLOOR = 1e-6
_DECAY_RATE_RTOL = 0.05
_DECAY_RESIDUAL_TOL = 0.05
_DECAY_NODES = 32   # most window nodes the decay fit transforms
_BLOCK = 16     # x-rows of Phi per eval_profile call
_SUP_ROWS = 8   # the same in _sup_abs, whose two n^N buffers stay live


@dataclass(frozen=True)
class ExtensionField:
    """Extension u(x, y) of a trace on x_nodes x grid, held mode-wise.

    profile and m are those the trace was lifted with.  spectrum is rfftn(h)
    on the half lattice, mode_class the index of each half-lattice mode's
    |k|^2 among the distinct values, rates the rate c of each class and
    mass its spectral mass, the sum of |rfftn(h)|^2 mode_weight over its
    modes, so u-hat(x_j, k) = Phi(x_j rates[mode_class[k]]) spectrum[k].
    The energy and Neumann checks read only rates and mass; spectrum and
    mode_class serve the decay fit's sup_y |u|.  Phi is not stored;
    profile_rows evaluates it for the rows a check reads.  lift is its one
    constructor.
    """

    grid: Grid
    x_nodes: np.ndarray
    profile: BesselProfile
    m: float
    spectrum: np.ndarray
    mode_class: np.ndarray
    rates: np.ndarray
    mass: np.ndarray

    def profile_rows(self, rows) -> np.ndarray:
        """Phi(x_nodes[rows] (x) rates): x-rows by rate classes."""
        return eval_profile(self.profile,
                            np.multiply.outer(self.x_nodes[rows], self.rates))

    @cached_property
    def _neumann_trace(self):
        """The one Neumann-trace estimator behind dtn_check and dtn_table,
        formed on the first read, so `verify` forms it once.

        A mode's Neumann trace and its target are its class's times h-hat,
        so the estimate runs per rate class c, over the classes carrying at
        least _MASS_FLOOR of the spectral mass (none for a zero field):
        -x^(1-2 sigma) d Phi(c x)/dx from two-point slopes of the real Phi
        at power-adapted abscissae, extrapolated to x -> 0 by one Richardson
        step at order 2-2 sigma.  Returns (classes, estimate, target =
        kappa c^(2 sigma), relative error).
        """
        sigma = self.profile.sigma
        x = self.x_nodes
        if x.size < 4 or x[0] != 0.0:
            raise DomainError("extension mesh must start at 0 with >= 4 nodes")
        classes = np.flatnonzero((self.mass > 0) & (
            self.mass >= _MASS_FLOOR * float(self.mass.sum())))
        target = self.profile.kappa * self.rates[classes] ** (2.0 * sigma)
        phi = self.profile_rows(slice(0, 4))[:, classes]
        ests, powers = [], []
        for j in (1, 2):
            xe = _effective_abscissa(x[j], x[j + 1], sigma)
            slope = (phi[j + 1] - phi[j]) / (x[j + 1] - x[j])
            ests.append(-xe ** (1.0 - 2.0 * sigma) * slope)
            powers.append(xe ** (2.0 - 2.0 * sigma))
        r1, r2 = powers
        estimate = ests[0] + (ests[0] - ests[1]) * r1 / (r2 - r1)
        return classes, estimate, target, np.abs(estimate - target) / target


def lift(h: TraceField, profile: BesselProfile, m: float,
         x_max: float | None = None, K_x: int = 400) -> ExtensionField:
    """Extend the trace h into x > 0 mode by mode."""
    if m <= 0:
        raise DomainError("m must be positive")
    if x_max is None:
        x_max = MIN_DECAY_LENGTHS / m
    if not MIN_DECAY_LENGTHS / m <= x_max < np.inf:
        raise DomainError("x_max must be finite and at least "
                          f"{MIN_DECAY_LENGTHS}/m")
    if K_x < 8:
        raise DomainError("K_x too small")
    grid = h.grid
    class_k_sq, mode_class = np.unique(grid.k_sq, return_inverse=True)
    xi_sq = class_k_sq / (2.0 * grid.L) ** 2
    rates = np.sqrt(m ** 2 + 4.0 * np.pi ** 2 * xi_sq)
    spectrum = half_spectrum(h.values)
    power = np.abs(spectrum) ** 2 * grid.mode_weight
    mass = np.bincount(mode_class.ravel(), weights=power.ravel(),
                       minlength=rates.size)
    return ExtensionField(grid=grid, x_nodes=graded_nodes(x_max, K_x),
                          profile=profile, m=m, spectrum=spectrum,
                          mode_class=mode_class.reshape(grid.k_sq.shape),
                          rates=rates, mass=mass)


def _extension_energy(ext: ExtensionField) -> float:
    """int_0^x_max int (|grad u|^2 + m^2 u^2) x^(1-2 sigma) dy dx.

    Finite differences in x and spectral derivatives in y on the graded
    mesh; by Parseval both parts are sums over rate classes weighted by the
    class's spectral mass.  np.gradient, being linear, acts on Phi alone,
    _BLOCK rows at a time from windows a row wider per side; Phi's series
    gives the [0, x_1] head, where the weight is 0 or singular.
    """
    sigma = ext.profile.sigma
    x = ext.x_nodes
    c, mass = ext.rates, ext.mass

    parts = np.empty(x.size)    # the y part plus the x part, per x-row
    for i in range(0, x.size, _BLOCK):
        rows = slice(max(i - 1, 0), i + _BLOCK + 1)
        phi = ext.profile_rows(rows)
        grad = np.gradient(phi, x[rows], axis=0)
        part = (np.square(phi) * c ** 2) @ mass + np.square(grad) @ mass
        parts[i:i + _BLOCK] = part[i - rows.start:][:_BLOCK]
    integrand = parts[1:] * x[1:] ** (1.0 - 2.0 * sigma)
    body = np.trapezoid(integrand, x[1:])

    head = float(np.sum(mass * c ** (2.0 * sigma)
                        * small_s_energy_integral(c * x[1], sigma,
                                                  ext.profile.c1)))
    return body + head


def _sigma_form(ext: ExtensionField) -> float:
    """kappa sum (m^2 + 4 pi^2 |xi|^2)^sigma |hat(h)|^2 dxi^N of the
    lifted trace h, per rate class: kappa mass . rates^(2 sigma)."""
    return float(ext.profile.kappa
                 * (ext.mass @ ext.rates ** (2.0 * ext.profile.sigma)))


def energy_identity_check(ext: ExtensionField) -> float:
    """Weighted extension energy vs. the spectral quadratic form.

    The left side is the graded-mesh quadrature of the weighted Dirichlet
    energy of ext; the right side is the sigma-form of its trace.  Returns
    the relative discrepancy and asserts it is below _ENERGY_RTOL.
    """
    lhs = _extension_energy(ext)
    rhs = _sigma_form(ext)
    if not np.isfinite(lhs):
        raise NumericError("extension energy quadrature is non-finite")
    if rhs == 0.0:
        return 0.0
    err = abs(lhs - rhs) / rhs
    if err >= _ENERGY_RTOL:
        raise VerificationError(f"extension energy identity off by {err:.2%} "
                                f"(allowed {_ENERGY_RTOL:.0%})")
    return err


def _effective_abscissa(x1: float, x2: float, sigma: float) -> float:
    """Abscissa at which a two-point slope of x^(2 sigma) is exact."""
    if abs(sigma - 0.5) < 1e-12:
        return 0.5 * (x1 + x2)
    val = (x2 ** (2 * sigma) - x1 ** (2 * sigma)) / (2 * sigma * (x2 - x1))
    return val ** (1.0 / (2 * sigma - 1.0))


def dtn_check(ext: ExtensionField) -> float:
    """Neumann trace -x^(1-2 sigma) du/dx at x -> 0 vs. the multiplier.

    Per rate class carrying at least _MASS_FLOOR of the spectral mass, the
    extrapolated finite-difference estimate must match kappa c^(2 sigma)
    within _DTN_RTOL; every mode of the class has that relative error.
    Returns the worst relative error (0 for a zero field), the largest
    rel_error in dtn_table.
    """
    err = float(np.max(ext._neumann_trace[3], initial=0.0))
    if err >= _DTN_RTOL:
        raise VerificationError(
            f"Neumann trace off by {err:.2%} (allowed {_DTN_RTOL:.0%})")
    return err


def dtn_table(ext: ExtensionField) -> list:
    """Rows (rate c, estimate, target, relative error), one per rate class
    that dtn_check judges; a mode's Neumann trace and target are its
    class's times its h-hat."""
    classes, estimate, target, rel = ext._neumann_trace
    return list(zip(ext.rates[classes], estimate, target, rel))


def _sup_abs(ext: ExtensionField, rows: np.ndarray) -> np.ndarray:
    """sup_y |u(x_j, .)| at the x-nodes x_nodes[rows], one node at a time,
    transformed in place into two buffers reused across the nodes."""
    hat, u = np.empty_like(ext.spectrum), np.empty(ext.grid.shape)
    sup = np.empty(rows.size)
    for start in range(0, rows.size, _SUP_ROWS):
        phi = ext.profile_rows(rows[start:start + _SUP_ROWS])
        for i, row in enumerate(phi, start):
            np.multiply(row[ext.mode_class], ext.spectrum, out=hat)
            inverse_spectrum(hat, u.shape, out=u, overwrite=True)
            sup[i] = max(u.max(), -u.min())
    return sup


@dataclass(frozen=True)
class DecayFitReport:
    """The fitted law, and its nodes x with sup = sup_y |u(x, .)| there and
    the envelope C_env x^((2 sigma - 1)/2) e^(-m x) above it."""
    rate: float
    x: np.ndarray
    sup: np.ndarray
    envelope: np.ndarray


def decay_fit(ext: ExtensionField) -> DecayFitReport:
    """Fit sup_y |u(x, .)| ~ C x^p e^(-r x) on at most _DECAY_NODES mesh
    nodes of the window [2/m, x_max], evenly spaced in index with both ends
    kept: the only nodes at which sup_y |u| is formed, however large K_x.

    Asserts r >= m (1 - _DECAY_RATE_RTOL) and reports the envelope at the
    constant C_env = max of sup / (x^((2 sigma - 1)/2) e^(-m x))
    over the window, which makes the decay-law envelope hold on the window
    by construction.
    """
    sigma, m = ext.profile.sigma, ext.m
    x = ext.x_nodes
    lo = 2.0 / m
    if not np.any(ext.spectrum):     # a zero field: no nodes to fit
        return DecayFitReport(rate=m, x=np.empty(0), sup=np.empty(0),
                              envelope=np.empty(0))

    rows = np.flatnonzero(x >= lo)
    if rows.size > _DECAY_NODES:    # in integers: np.unique maps 1.6 MB
        rows = rows[np.arange(_DECAY_NODES) * (rows.size - 1)
                    // (_DECAY_NODES - 1)]
    xs, sup = x[rows], _sup_abs(ext, rows)
    sel = sup > 0.0
    if not np.all(sel):
        hi = float(np.max(xs[sel])) if np.any(sel) else lo
        logging.getLogger(__name__).warning(
            "field underflows inside the decay window; shrinking to "
            "[%.3g, %.3g]", lo, hi)
    if np.count_nonzero(sel) < 8:
        raise DomainError("too few usable nodes in the decay window")

    xs, sup = xs[sel], sup[sel]
    ys = np.log(sup)
    design = np.column_stack([np.ones_like(xs), np.log(xs), -xs])
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    fitted = design @ coef
    residual = float(np.sqrt(np.mean((ys - fitted) ** 2))
                     / max(np.sqrt(np.mean(ys ** 2)), 1e-300))
    rate = float(coef[2])

    power, decay = xs ** (sigma - 0.5), np.exp(-m * xs)
    c_env = float(np.max(sup / (power * decay)))
    report = DecayFitReport(rate=rate, x=xs, sup=sup,
                            envelope=c_env * power * decay)
    if rate < m * (1.0 - _DECAY_RATE_RTOL):
        raise VerificationError(
            f"fitted decay rate {rate:.4f} below {1 - _DECAY_RATE_RTOL:.2f} "
            f"m = {m * (1 - _DECAY_RATE_RTOL):.4f}")
    if residual >= _DECAY_RESIDUAL_TOL:
        raise VerificationError(f"decay fit residual {residual:.2%} "
                                f"(allowed {_DECAY_RESIDUAL_TOL:.0%})")
    return report


def trace_inequality_check(ext: ExtensionField, h_norm: float) -> float:
    """Slack of m^(2 sigma) |h|_2^2 <= ||h||_sigma^2 / kappa, h_norm = |h|_2.
    Through _sigma_form, with h_norm^2 = sum mass, it is sum mass (c^(2 sigma)
    - m^(2 sigma)) >= 0 for every field, as every rate c is at least m: it
    fails only if h_norm and the spectral mass disagree beyond rounding."""
    norm_sq = _sigma_form(ext)
    slack = (norm_sq / ext.profile.kappa
             - ext.m ** (2.0 * ext.profile.sigma) * h_norm ** 2)
    if slack < -1e-12 * max(norm_sq, 1.0):
        raise VerificationError(f"trace inequality violated: slack={slack:.3e}")
    return float(slack)
