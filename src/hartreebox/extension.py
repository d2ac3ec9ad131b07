"""Canonical extension of a trace to the weighted half-space and the
structural checks attached to it.

The extension of h is diagonal in frequency: per lattice mode,
u-hat(x, xi) = h-hat(xi) * Phi(c x) with c = sqrt(m^2 + 4 pi^2 |xi|^2).
`lift` keeps it in that form on a graded x-mesh x_j = x_max (j/K_x)^3
(dense near the degenerate boundary): the half-lattice spectrum rfftn(h),
the |k|^2 class of every mode, and Phi(x_j c) once per distinct rate c.
The checks then compare it against independent discretizations, per rate
class where they can: graded-quadrature energy vs. the spectral quadratic
form, finite-difference Neumann traces vs. the fractional multiplier, and
the sup-norm decay law in x.  Each check reads the profile, m and spectrum
from the lifted field.  Only sup_y |u(x, .)| needs physical space;
it is transformed one x-node at a time, so no check holds more than one
field of n^N values.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DiagnosticError, DomainError, NumericError, \
    VerificationError
from .profile import BesselProfile, eval_profile, small_s_energy_integral
from .spectral import (Grid, TraceField, half_spectrum, inverse_spectrum,
                       mode_power, sobolev_form)

# lift's floor on x_max, in decay lengths 1/m of the slowest mode
MIN_DECAY_LENGTHS = 10

# check bounds; a mode is judged by the Neumann trace when it carries at
# least _MASS_FLOOR of the spectral mass
_ENERGY_RTOL = 0.01
_DTN_RTOL = 0.02
_MASS_FLOOR = 1e-6
_DECAY_RATE_RTOL = 0.05
_DECAY_RESIDUAL_TOL = 0.05


@dataclass(frozen=True)
class ExtensionField:
    """Extension u(x, y) of a trace on x_nodes x grid, held mode-wise.

    profile and m are those the trace was lifted with.  spectrum is rfftn(h)
    on the half lattice, mode_class the index of each half-lattice mode's
    |k|^2 among the distinct values, rates the rate c of each class and
    profile_table[j, u] = Phi(x_nodes[j] rates[u]), so
    u-hat(x_j, k) = profile_table[j, mode_class[k]] spectrum[k].
    lift is its one constructor.
    """

    grid: Grid
    x_nodes: np.ndarray
    profile: BesselProfile
    m: float
    spectrum: np.ndarray
    mode_class: np.ndarray
    rates: np.ndarray
    profile_table: np.ndarray

    @cached_property
    def sup_abs(self) -> np.ndarray:
        """sup_y |u(x_j, .)| at every x-node, one node at a time: the
        node's half-lattice spectrum and its field each reuse one buffer,
        and the transform runs in place."""
        hat = np.empty_like(self.spectrum)
        u = np.empty(self.grid.shape)
        sup = np.empty(self.x_nodes.size)
        for j, phi in enumerate(self.profile_table):
            np.multiply(phi[self.mode_class], self.spectrum, out=hat)
            inverse_spectrum(hat, u.shape, out=u, overwrite=True)
            sup[j] = max(u.max(), -u.min())
        sup.flags.writeable = False
        return sup


def graded_nodes(x_max: float, K_x: int) -> np.ndarray:
    """x_j = x_max (j/K_x)^3, j = 0..K_x; cubic grading toward x = 0."""
    return x_max * (np.arange(K_x + 1) / K_x) ** 3


def lift(h: TraceField, profile: BesselProfile, m: float,
         x_max: float | None = None, K_x: int = 400) -> ExtensionField:
    """Extend the trace h into x > 0 mode by mode."""
    if m <= 0:
        raise DomainError("m must be positive")
    if x_max is None:
        x_max = MIN_DECAY_LENGTHS / m
    if x_max < MIN_DECAY_LENGTHS / m:
        raise DomainError(f"x_max must be at least {MIN_DECAY_LENGTHS}/m")
    if K_x < 8:
        raise DomainError("K_x too small")
    grid = h.grid
    class_k_sq, mode_class = np.unique(grid.k_sq, return_inverse=True)
    xi_sq = class_k_sq / (2.0 * grid.L) ** 2
    rates = np.sqrt(m ** 2 + 4.0 * np.pi ** 2 * xi_sq)
    x = graded_nodes(x_max, K_x)
    # Phi once per (x-node, distinct rate)
    table = eval_profile(profile, np.multiply.outer(x, rates))
    return ExtensionField(grid=grid, x_nodes=x, profile=profile, m=m,
                          spectrum=half_spectrum(h.values),
                          mode_class=mode_class.reshape(grid.k_sq.shape),
                          rates=rates, profile_table=table)


def _extension_energy(ext: ExtensionField) -> float:
    """int_0^x_max int (|grad u|^2 + m^2 u^2) x^(1-2 sigma) dy dx.

    Finite differences in x and spectral derivatives in y on the graded
    mesh; by Parseval both parts are sums over rate classes weighted by the
    class's spectral mass, and np.gradient, being linear, acts on the
    profile table alone.  The analytic series for Phi supplies the [0, x_1]
    head, where the weight is singular or zero.
    """
    sigma = ext.profile.sigma
    x = ext.x_nodes
    c = ext.rates
    power, count = mode_power(ext.grid, ext.spectrum)
    mass = np.bincount(ext.mode_class.ravel(), weights=(power * count).ravel(),
                       minlength=c.size)

    y_part = (ext.profile_table ** 2 * c ** 2) @ mass
    x_part = np.gradient(ext.profile_table, x, axis=0) ** 2 @ mass
    integrand = (y_part[1:] + x_part[1:]) * x[1:] ** (1.0 - 2.0 * sigma)
    body = np.trapezoid(integrand, x[1:])

    head = float(np.sum(mass * c ** (2.0 * sigma)
                        * small_s_energy_integral(c * x[1], sigma,
                                                  ext.profile.c1)))
    return body + head


def energy_identity_check(ext: ExtensionField) -> float:
    """Weighted extension energy vs. the spectral quadratic form.

    The left side is the graded-mesh quadrature of the weighted Dirichlet
    energy of ext; the right side is the sigma-form of its trace.  Returns
    the relative discrepancy and asserts it is below _ENERGY_RTOL.
    """
    lhs = _extension_energy(ext)
    rhs = sobolev_form(ext.grid, ext.spectrum, ext.m, ext.profile)
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


def _neumann_trace(ext: ExtensionField):
    """The one Neumann-trace estimator behind dtn_check and dtn.csv.

    Over the half-lattice modes carrying at least _MASS_FLOOR of the
    spectral mass (none for a zero field), -x^(1-2 sigma) du/dx from
    two-point slopes at power-adapted abscissae, extrapolated to x -> 0 by
    one Richardson step at order 2-2 sigma.  Returns (mask, estimate,
    target = d_sigma c^(2 sigma) h-hat, relative error, monotone), where
    monotone says whether the first three slope estimates approach their
    limit without the growing, direction-flipping increments of an x-mesh
    too coarse for the boundary layer.
    """
    sigma = ext.profile.sigma
    x = ext.x_nodes
    if x.size < 5 or x[0] != 0.0:
        raise DomainError("extension mesh must start at 0 with >= 5 nodes")
    power, count = mode_power(ext.grid, ext.spectrum)
    mask = (power >= _MASS_FLOOR * float(np.sum(power * count))) & (power > 0)
    hhat = ext.spectrum[mask]
    cls = ext.mode_class[mask]
    target = ext.profile.d_sigma * ext.rates[cls] ** (2.0 * sigma) * hhat

    # Phi at the five smallest nodes; differencing the real profile before
    # scaling by h-hat keeps the O(x_1^(2 sigma)) increments free of the
    # spectrum's rounding
    phi = ext.profile_table[:5, cls]
    ests, xeffs = [], []
    for j in range(1, 4):
        xe = _effective_abscissa(x[j], x[j + 1], sigma)
        slope = (phi[j + 1] - phi[j]) / (x[j + 1] - x[j]) * hhat
        ests.append(-xe ** (1.0 - 2.0 * sigma) * slope)
        xeffs.append(xe)

    d1 = np.abs(ests[1] - ests[0])
    d2 = np.abs(ests[2] - ests[1])
    flip = np.real((ests[1] - ests[0]) * np.conj(ests[2] - ests[1])) < 0
    scale = np.abs(target) + 1e-300
    noisy = (d1 < 1e-9 * scale) | (d2 < 1e-9 * scale)
    monotone = not np.any(flip & (d2 > d1) & ~noisy)

    p = 2.0 - 2.0 * sigma
    r1, r2 = xeffs[0] ** p, xeffs[1] ** p
    extrap = ests[0] + (ests[0] - ests[1]) * r1 / (r2 - r1)
    rel = np.abs(extrap - target) / np.abs(target)
    return mask, extrap, target, rel, monotone


def dtn_check(ext: ExtensionField) -> float:
    """Neumann trace -x^(1-2 sigma) du/dx at x -> 0 vs. the multiplier.

    Per mode carrying at least _MASS_FLOOR of the spectral mass, the
    extrapolated finite-difference estimate must match d_sigma c^(2 sigma)
    h-hat within _DTN_RTOL.  Returns the worst relative error (0 for a zero
    field), the largest rel_error that dtn_report_to_csv writes.
    """
    _, _, _, rel, monotone = _neumann_trace(ext)
    if not monotone:
        raise DiagnosticError("Neumann-trace extrapolation non-monotone; "
                              "use a denser x-grading (larger K_x)")
    err = float(np.max(rel, initial=0.0))
    if err >= _DTN_RTOL:
        raise VerificationError(
            f"Neumann trace off by {err:.2%} (allowed {_DTN_RTOL:.0%})")
    return err


@dataclass(frozen=True)
class DecayFitReport:
    rate: float
    poly_exp: float
    residual: float
    window: tuple
    envelope_const: float


def decay_fit(ext: ExtensionField, h_norm: float) -> DecayFitReport:
    """Fit sup_y |u(x, .)| ~ C x^p e^(-r x) on the window [2/m, x_max].

    Asserts r >= m (1 - _DECAY_RATE_RTOL) and reports the envelope constant
    C_env = max of sup / (h_norm x^((2 sigma - 1)/2) e^(-m x)) over the
    window, which makes the decay-law envelope hold on the window by
    construction.
    """
    sigma, m = ext.profile.sigma, ext.m
    x = ext.x_nodes
    sup = ext.sup_abs
    if np.all(sup == 0.0):
        return DecayFitReport(rate=m, poly_exp=sigma - 0.5, residual=0.0,
                              window=(2.0 / m, float(x[-1])),
                              envelope_const=0.0)

    lo, hi = 2.0 / m, float(x[-1])
    sel = (x >= lo) & (x <= hi) & (sup > 0.0)
    if np.any((x >= lo) & (x <= hi) & (sup == 0.0)):
        hi = float(np.max(x[sel])) if np.any(sel) else lo
        sel = (x >= lo) & (x <= hi) & (sup > 0.0)
        warnings.warn("field underflows inside the decay window; "
                      f"shrinking to [{lo:.3g}, {hi:.3g}]")
    if np.count_nonzero(sel) < 8:
        raise DomainError("too few usable nodes in the decay window")

    xs, ys = x[sel], np.log(sup[sel])
    design = np.column_stack([np.ones_like(xs), np.log(xs), -xs])
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    fitted = design @ coef
    residual = float(np.sqrt(np.mean((ys - fitted) ** 2))
                     / max(np.sqrt(np.mean(ys ** 2)), 1e-300))
    rate, poly_exp = float(coef[2]), float(coef[1])

    env = sup[sel] / (h_norm * xs ** (sigma - 0.5) * np.exp(-m * xs))
    report = DecayFitReport(rate=rate, poly_exp=poly_exp, residual=residual,
                            window=(lo, hi),
                            envelope_const=float(np.max(env)))
    if rate < m * (1.0 - _DECAY_RATE_RTOL):
        raise VerificationError(
            f"fitted decay rate {rate:.4f} below {1 - _DECAY_RATE_RTOL:.2f} "
            f"m = {m * (1 - _DECAY_RATE_RTOL):.4f}")
    if residual >= _DECAY_RESIDUAL_TOL:
        raise VerificationError(f"decay fit residual {residual:.2%} "
                                f"(allowed {_DECAY_RESIDUAL_TOL:.0%})")
    return report


def trace_inequality_check(ext: ExtensionField, h_norm: float) -> float:
    """Slack of m^(2 sigma) |h|_2^2 <= (1/kappa) ||u||_sigma^2 for the
    trace h of ext, with h_norm = |h|_2; nonnegative at every m because the
    multiplier (m^2 + 4 pi^2 |xi|^2)^sigma is at least m^(2 sigma)."""
    norm_sq = sobolev_form(ext.grid, ext.spectrum, ext.m, ext.profile)
    slack = (norm_sq / ext.profile.kappa
             - ext.m ** (2.0 * ext.profile.sigma) * h_norm ** 2)
    if slack < -1e-12 * max(norm_sq, 1.0):
        raise VerificationError(f"trace inequality violated: slack={slack:.3e}")
    return float(slack)


# ---------------------------------------------------------------------------
# Report CSVs

def decay_report_to_csv(ext: ExtensionField, report: DecayFitReport,
                        h_norm: float, path) -> None:
    sigma, m = ext.profile.sigma, ext.m
    x = ext.x_nodes
    sup = ext.sup_abs
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "sup_abs", "envelope"])
        for xi, s in zip(x[1:], sup[1:]):
            env = (report.envelope_const * h_norm
                   * xi ** (sigma - 0.5) * np.exp(-m * xi))
            w.writerow([repr(float(xi)), repr(float(s)), repr(float(env))])


def dtn_report_to_csv(ext: ExtensionField, path) -> None:
    """Per-mode table of the extrapolated Neumann trace vs. its target:
    one row per half-lattice mode that dtn_check judges (a mode's
    conjugate partner has the conjugate estimate and the same error)."""
    mask, extrap, target, rel, _ = _neumann_trace(ext)
    xi_abs = np.sqrt(ext.grid.k_sq[mask]) / (2.0 * ext.grid.L)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["xi_abs", "estimate_re", "estimate_im",
                    "target_re", "target_im", "rel_error"])
        for q, e, t, r in zip(xi_abs, extrap, target, rel):
            w.writerow([repr(float(q)), repr(float(e.real)),
                        repr(float(e.imag)), repr(float(t.real)),
                        repr(float(t.imag)), repr(float(r))])
