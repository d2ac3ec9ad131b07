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
the sup-norm decay law in x.  Only sup_y |u(x, .)| needs physical space;
it is transformed a few x-nodes at a time, so no check holds an array of
(K_x + 1) n^N values.
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
from .spectral import Grid, TraceField, sobolev_form

# (x, y) points per inverse transform in ExtensionField.sup_abs: about
# 20 MB of transform buffers, whatever the grid
_CHUNK_POINTS = 1 << 19


@dataclass(frozen=True)
class ExtensionField:
    """Extension u(x, y) of a trace on x_nodes x grid, held mode-wise.

    spectrum is rfftn(h) on the half lattice, mode_class the index of each
    half-lattice mode's |k|^2 among the distinct values, rates the rate c
    of each class and profile_table[j, u] = Phi(x_nodes[j] rates[u]), so
    u-hat(x_j, k) = profile_table[j, mode_class[k]] spectrum[k].
    weight_exponent = 1 - 2 sigma.
    """

    grid: Grid
    x_nodes: np.ndarray
    weight_exponent: float
    spectrum: np.ndarray
    mode_class: np.ndarray
    rates: np.ndarray
    profile_table: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x_nodes, dtype=float)
        spec = np.asarray(self.spectrum, dtype=complex)
        cls = np.asarray(self.mode_class, dtype=np.intp)
        rates = np.asarray(self.rates, dtype=float)
        table = np.asarray(self.profile_table, dtype=float)
        if x.ndim != 1 or np.any(np.diff(x) <= 0) or x[0] < 0:
            raise DomainError("x_nodes must be increasing and nonnegative")
        half = self.grid.shape[:-1] + (self.grid.n // 2 + 1,)
        if spec.shape != half or cls.shape != half:
            raise DomainError("spectrum or mode_class shape does not match "
                              "the grid's half lattice")
        if rates.ndim != 1 or table.shape != (x.size, rates.size):
            raise DomainError("profile_table shape does not match "
                              "x_nodes x rates")
        if cls.min() < 0 or cls.max() >= rates.size:
            raise DomainError("mode_class indexes past the rates")
        if not (np.all(np.isfinite(spec)) and np.all(np.isfinite(table))):
            raise NumericError("extension field contains non-finite values")
        for name, value in (("x_nodes", x), ("spectrum", spec),
                            ("mode_class", cls), ("rates", rates),
                            ("profile_table", table)):
            object.__setattr__(self, name, value)

    @property
    def sigma(self) -> float:
        return 0.5 * (1.0 - self.weight_exponent)

    def values(self, rows) -> np.ndarray:
        """u(x_j, y) at the x-nodes x_nodes[rows] (an index or a slice),
        shape x_nodes[rows].shape + grid.shape."""
        coeffs = self.profile_table[rows][..., self.mode_class] * self.spectrum
        return np.fft.irfftn(coeffs, s=self.grid.shape,
                             axes=tuple(range(-self.grid.dim, 0)))

    @cached_property
    def sup_abs(self) -> np.ndarray:
        """sup_y |u(x_j, .)| at every x-node, transformed in x-chunks of
        about _CHUNK_POINTS points."""
        rows = max(1, _CHUNK_POINTS // self.grid.n ** self.grid.dim)
        axes = tuple(range(1, self.grid.dim + 1))
        sup = np.empty(self.x_nodes.size)
        for j in range(0, sup.size, rows):
            sup[j:j + rows] = np.max(
                np.abs(self.values(slice(j, j + rows))), axis=axes)
        sup.flags.writeable = False
        return sup


def graded_nodes(x_max: float, K_x: int) -> np.ndarray:
    """x_j = x_max (j/K_x)^3, j = 0..K_x; cubic grading toward x = 0."""
    return x_max * (np.arange(K_x + 1) / K_x) ** 3


def _half_lattice_ksq(grid: Grid) -> np.ndarray:
    """Integer |k|^2 (k = 2L xi) at every mode of the rfftn half lattice."""
    k_sq = np.fft.fftfreq(grid.n, 1.0 / grid.n).astype(np.int64) ** 2
    k_half_sq = np.arange(grid.n // 2 + 1, dtype=np.int64) ** 2
    axes = [k_sq] * (grid.dim - 1) + [k_half_sq]
    return sum(np.meshgrid(*axes, indexing="ij", sparse=True))


def lift(h: TraceField, profile: BesselProfile, m: float,
         x_max: float | None = None, K_x: int = 400) -> ExtensionField:
    """Extend the trace h into x > 0 mode by mode."""
    if m <= 0:
        raise DomainError("m must be positive")
    if x_max is None:
        x_max = 10.0 / m
    if x_max < 10.0 / m:
        raise DomainError("x_max must be at least 10/m")
    if K_x < 8:
        raise DomainError("K_x too small")
    grid = h.grid
    k_sq = _half_lattice_ksq(grid)
    class_k_sq, mode_class = np.unique(k_sq, return_inverse=True)
    xi_sq = class_k_sq / (2.0 * grid.L) ** 2
    rates = np.sqrt(m ** 2 + 4.0 * np.pi ** 2 * xi_sq)
    x = graded_nodes(x_max, K_x)
    # Phi once per (x-node, distinct rate)
    table = eval_profile(profile, np.multiply.outer(x, rates))[0]
    return ExtensionField(grid=grid, x_nodes=x,
                          weight_exponent=1.0 - 2.0 * profile.sigma,
                          spectrum=np.fft.rfftn(h.values),
                          mode_class=mode_class.reshape(k_sq.shape),
                          rates=rates, profile_table=table)


def _mode_power(ext: ExtensionField) -> tuple[np.ndarray, np.ndarray]:
    """Plancherel summands |h-hat|^2 dxi^N per half-lattice mode, and the
    number of full-lattice modes each one stands for (2 off the
    self-conjugate planes of the last axis, whose partners it omits)."""
    g = ext.grid
    power = np.abs(ext.spectrum) ** 2 * (g.box_volume / g.n ** (2 * g.dim))
    count = np.full(power.shape, 2.0)
    count[..., 0] = 1.0
    count[..., g.n // 2] = 1.0
    return power, count


def _extension_energy(ext: ExtensionField, profile: BesselProfile) -> float:
    """int_0^x_max int (|grad u|^2 + m^2 u^2) x^(1-2 sigma) dy dx.

    Finite differences in x and spectral derivatives in y on the graded
    mesh; by Parseval both parts are sums over rate classes weighted by the
    class's spectral mass, and np.gradient, being linear, acts on the
    profile table alone.  The analytic series for Phi supplies the [0, x_1]
    head, where the weight is singular or zero.
    """
    sigma = profile.sigma
    x = ext.x_nodes
    c = ext.rates
    power, count = _mode_power(ext)
    mass = np.bincount(ext.mode_class.ravel(), weights=(power * count).ravel(),
                       minlength=c.size)

    y_part = (ext.profile_table ** 2 * c ** 2) @ mass
    x_part = np.gradient(ext.profile_table, x, axis=0) ** 2 @ mass
    integrand = (y_part[1:] + x_part[1:]) * x[1:] ** (1.0 - 2.0 * sigma)
    body = np.trapezoid(integrand, x[1:])

    c1s = profile.d_sigma / (2.0 * sigma)
    head = float(np.sum(mass * c ** (2.0 * sigma)
                        * small_s_energy_integral(c * x[1], sigma, c1s)))
    return body + head


def energy_identity_check(h: TraceField, ext: ExtensionField,
                          profile: BesselProfile, m: float,
                          rtol: float = 0.01) -> float:
    """Weighted extension energy vs. the spectral quadratic form.

    The left side is the graded-mesh quadrature of the weighted Dirichlet
    energy of ext; the right side is sobolev_form(h).  Returns the relative
    discrepancy and asserts it is below rtol.
    """
    lhs = _extension_energy(ext, profile)
    rhs = sobolev_form(h, profile.sigma, m, profile)
    if not np.isfinite(lhs):
        raise NumericError("extension energy quadrature is non-finite")
    if rhs == 0.0:
        return 0.0
    err = abs(lhs - rhs) / rhs
    if err >= rtol:
        raise VerificationError(
            f"extension energy identity off by {err:.2%} (allowed {rtol:.0%})")
    return err


def _effective_abscissa(x1: float, x2: float, sigma: float) -> float:
    """Abscissa at which a two-point slope of x^(2 sigma) is exact."""
    if abs(sigma - 0.5) < 1e-12:
        return 0.5 * (x1 + x2)
    val = (x2 ** (2 * sigma) - x1 ** (2 * sigma)) / (2 * sigma * (x2 - x1))
    return val ** (1.0 / (2 * sigma - 1.0))


def _neumann_trace(ext: ExtensionField, profile: BesselProfile,
                   mass_floor: float):
    """The one Neumann-trace estimator behind dtn_check and dtn.csv.

    Over the half-lattice modes carrying at least mass_floor of the
    spectral mass (none for a zero field), -x^(1-2 sigma) du/dx from
    two-point slopes at power-adapted abscissae, extrapolated to x -> 0 by
    one Richardson step at order 2-2 sigma.  Returns (mask, estimate,
    target = d_sigma c^(2 sigma) h-hat, relative error, monotone), where
    monotone says whether the first three slope estimates approach their
    limit without the growing, direction-flipping increments of an x-mesh
    too coarse for the boundary layer.
    """
    sigma = profile.sigma
    x = ext.x_nodes
    if x.size < 5 or x[0] != 0.0:
        raise DomainError("extension mesh must start at 0 with >= 5 nodes")
    power, count = _mode_power(ext)
    mask = (power >= mass_floor * float(np.sum(power * count))) & (power > 0)
    hhat = ext.spectrum[mask]
    cls = ext.mode_class[mask]
    target = profile.d_sigma * ext.rates[cls] ** (2.0 * sigma) * hhat

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


def dtn_check(h: TraceField, ext: ExtensionField, profile: BesselProfile,
              m: float, rtol: float = 0.02, mass_floor: float = 1e-6
              ) -> float:
    """Neumann trace -x^(1-2 sigma) du/dx at x -> 0 vs. the multiplier.

    Per mode carrying at least mass_floor of the spectral mass, the
    extrapolated finite-difference estimate must match d_sigma c^(2 sigma)
    h-hat within rtol.  Returns the worst relative error (0 for a zero
    field), the largest rel_error that dtn_report_to_csv writes.  The
    estimate reads the spectrum and rates that lift(h, profile, m) stored
    in ext.
    """
    _, _, _, rel, monotone = _neumann_trace(ext, profile, mass_floor)
    if not monotone:
        raise DiagnosticError("Neumann-trace extrapolation non-monotone; "
                              "use a denser x-grading (larger K_x)")
    err = float(np.max(rel, initial=0.0))
    if err >= rtol:
        raise VerificationError(
            f"Neumann trace off by {err:.2%} (allowed {rtol:.0%})")
    return err


@dataclass(frozen=True)
class DecayFitReport:
    rate: float
    poly_exp: float
    residual: float
    window: tuple
    envelope_const: float


def decay_fit(ext: ExtensionField, h_norm: float, m: float,
              rate_rtol: float = 0.05, residual_tol: float = 0.05
              ) -> DecayFitReport:
    """Fit sup_y |u(x, .)| ~ C x^p e^(-r x) on the window [2/m, x_max].

    Asserts r >= m (1 - rate_rtol) and reports the envelope constant
    C_env = max of sup / (h_norm x^((2 sigma - 1)/2) e^(-m x)) over the
    window, which makes the decay-law envelope hold on the window by
    construction.
    """
    sigma = ext.sigma
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
    if rate < m * (1.0 - rate_rtol):
        raise VerificationError(
            f"fitted decay rate {rate:.4f} below {1 - rate_rtol:.2f} m = "
            f"{m * (1 - rate_rtol):.4f}")
    if residual >= residual_tol:
        raise VerificationError(
            f"decay fit residual {residual:.2%} (allowed {residual_tol:.0%})")
    return report


def trace_inequality_check(h: TraceField, profile: BesselProfile,
                           sigma: float, m: float = 1.0) -> float:
    """Slack of m^(2 sigma) |h|_2^2 <= (1/kappa) ||u||_sigma^2, nonnegative
    at every m because the multiplier (m^2 + 4 pi^2 |xi|^2)^sigma is at
    least m^(2 sigma)."""
    norm_sq = sobolev_form(h, sigma, m, profile)
    slack = norm_sq / profile.kappa - m ** (2.0 * sigma) * h.norm_l2() ** 2
    if slack < -1e-12 * max(norm_sq, 1.0):
        raise VerificationError(f"trace inequality violated: slack={slack:.3e}")
    return float(slack)


# ---------------------------------------------------------------------------
# Report CSVs

def decay_report_to_csv(ext: ExtensionField, report: DecayFitReport,
                        h_norm: float, m: float, path) -> None:
    sigma = ext.sigma
    x = ext.x_nodes
    sup = ext.sup_abs
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "sup_abs", "envelope"])
        for xi, s in zip(x[1:], sup[1:]):
            env = (report.envelope_const * h_norm
                   * xi ** (sigma - 0.5) * np.exp(-m * xi))
            w.writerow([repr(float(xi)), repr(float(s)), repr(float(env))])


def dtn_report_to_csv(h: TraceField, ext: ExtensionField,
                      profile: BesselProfile, m: float, path,
                      mass_floor: float = 1e-6) -> None:
    """Per-mode table of the extrapolated Neumann trace vs. its target:
    one row per half-lattice mode that dtn_check judges (a mode's
    conjugate partner has the conjugate estimate and the same error)."""
    mask, extrap, target, rel, _ = _neumann_trace(ext, profile, mass_floor)
    xi_abs = np.sqrt(_half_lattice_ksq(ext.grid)[mask]) / (2.0 * ext.grid.L)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["xi_abs", "estimate_re", "estimate_im",
                    "target_re", "target_im", "rel_error"])
        for q, e, t, r in zip(xi_abs, extrap, target, rel):
            w.writerow([repr(float(q)), repr(float(e.real)),
                        repr(float(e.imag)), repr(float(t.real)),
                        repr(float(t.imag)), repr(float(r))])
