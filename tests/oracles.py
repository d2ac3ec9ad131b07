"""Independent oracles for the tests, on the full frequency lattice.

The package evaluates everything on the rfftn half lattice through one core
(`model._project`).  The oracles here share none of that code: they work
with dense DFT matrices and direct sums, or with complex `fftn`/`ifftn` on
the full lattice, and compute each quantity afresh at the field given.
The file writer and reader the package does not ship, but the round-trip
tests need, sit at the end.
"""

import csv
import dataclasses

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma, kv

from hartreebox.errors import DomainError, VerificationError
from hartreebox.profile import BesselProfile
from hartreebox.solver import solve_ground
from hartreebox.spectral import Grid, TraceField


# ---------------------------------------------------------------------------
# Lattice, multipliers and convolution

def full_xi_sq(g):
    """|xi|^2 on the full FFT-ordered frequency lattice."""
    f = np.fft.fftfreq(g.n, d=2.0 * g.L / g.n)
    mesh = np.meshgrid(*([f] * g.dim), indexing="ij")
    return sum(x ** 2 for x in mesh)


def full_multiplier(g, m, sigma):
    """(m^2 + 4 pi^2 |xi|^2)^sigma on the full FFT-ordered lattice."""
    return (m ** 2 + 4.0 * np.pi ** 2 * full_xi_sq(g)) ** sigma


def spectral_weights(h):
    """|hat(h)(xi_k)|^2 * dxi^N on the full lattice, i.e. the summands of
    the Plancherel sum."""
    g = h.grid
    return (np.abs(np.fft.fftn(h.values)) ** 2
            * g.box_volume / g.n ** (2 * g.dim))


def dense_frac_apply(h, sigma, m):
    """O(n^2) DFT-matrix evaluation of the fractional multiplier."""
    g = h.grid
    n, dim = g.n, g.dim
    freqs = np.fft.fftfreq(n, d=2.0 * g.L / n)
    idx = np.arange(n)
    dft = np.exp(-2j * np.pi * np.outer(idx, idx) / n)
    coeff = h.values
    for ax in range(dim):
        coeff = np.moveaxis(np.tensordot(dft, np.moveaxis(coeff, ax, 0),
                                         axes=(1, 0)), 0, ax)
    mesh = np.meshgrid(*([freqs] * dim), indexing="ij")
    mult = (m ** 2 + 4 * np.pi ** 2 * sum(f ** 2 for f in mesh)) ** sigma
    coeff = coeff * mult
    idft = np.conj(dft) / n
    for ax in range(dim):
        coeff = np.moveaxis(np.tensordot(idft, np.moveaxis(coeff, ax, 0),
                                         axes=(1, 0)), 0, ax)
    return coeff.real


def dense_convolve(k, g):
    n, dim = k.grid.n, k.grid.dim
    shape = k.grid.shape
    out = np.zeros(shape)
    for i in np.ndindex(shape):
        acc = 0.0
        for j in np.ndindex(shape):
            d = tuple((a - b) % n for a, b in zip(i, j))
            acc += k.values[d] * g.values[j]
        out[i] = acc * k.grid.cell_volume
    return out


def kernel_convolve(params, g):
    """W * g, the periodic convolution with the sampled kernel of params,
    by complex transforms on the full lattice."""
    return params.grid.cell_volume * np.fft.ifftn(
        np.fft.fftn(params.kernel_values) * np.fft.fftn(g)).real


# ---------------------------------------------------------------------------
# The extension, materialized

def extension_values(ext, rows=slice(None)):
    """u(x_j, y) of a lifted field at the x-nodes x_nodes[rows] (an index or
    a slice), shape x_nodes[rows].shape + grid.shape: its mode-wise form
    Phi(x_j c) rfftn(h) put on every node at once and inverted by numpy's
    own irfftn."""
    g = ext.grid
    table = ext.profile_table[rows][..., ext.mode_class]
    return np.fft.irfftn(table * ext.spectrum, s=g.shape,
                         axes=tuple(range(-g.dim, 0)))


# ---------------------------------------------------------------------------
# The nonlinearity, from its closed forms

def f_and_F(spec, t):
    """(f(t), F(t)) at an array t, both zero on t <= 0.

    log_linear: f = t ln(1+t), F = (t^2 - 1)/2 ln(1+t) - t^2/4 + t/2.
    pure_power: f = t^(theta-1), F = t^theta / theta.
    """
    t = np.maximum(np.asarray(t, dtype=float), 0.0)
    if spec.kind == "log_linear":
        lg = np.log1p(t)
        return t * lg, 0.5 * (t ** 2 - 1.0) * lg - 0.25 * t ** 2 + 0.5 * t
    return t ** (spec.theta - 1.0), t ** spec.theta / spec.theta


# ---------------------------------------------------------------------------
# The energy I(u) = Q(u)/2 - Psi(u) and its first variation

def quadratic_form(u, params, profile):
    """Q(u) = kappa sum_k (m^2 + 4 pi^2 |xi_k|^2)^sigma |hat u|^2 dxi^N
    + int V u^2, the sum over the full lattice."""
    mult = full_multiplier(u.grid, params.m, params.sigma)
    return (profile.kappa * float(np.sum(mult * spectral_weights(u)))
            + u.grid.cell_volume
            * float(np.sum(params.potential_values * u.values ** 2)))


def interaction(u, params):
    """Psi(u) = 1/2 int (W * F(u)) F(u)."""
    F = f_and_F(params.nonlinearity, u.values)[1]
    return 0.5 * u.grid.cell_volume * float(
        np.sum(kernel_convolve(params, F) * F))


def interaction_pairing(u, params):
    """<Psi'(u), u> = int (W * F(u)) f(u) u."""
    f, F = f_and_F(params.nonlinearity, u.values)
    return u.grid.cell_volume * float(
        np.sum(kernel_convolve(params, F) * f * u.values))


def level(u, params, profile):
    """I(u) = Q(u)/2 - Psi(u)."""
    return 0.5 * quadratic_form(u, params, profile) - interaction(u, params)


def gradient(u, params, profile):
    """L^2 representation of I'(u):
    kappa (m^2 - Lap)^sigma u + V u - (W * F(u)) f(u)."""
    f, F = f_and_F(params.nonlinearity, u.values)
    mult = full_multiplier(u.grid, params.m, params.sigma)
    lin = np.fft.ifftn(mult * np.fft.fftn(u.values)).real
    return TraceField(u.grid, profile.kappa * lin
                      + params.potential_values * u.values
                      - kernel_convolve(params, F) * f)


# ---------------------------------------------------------------------------
# Grid refinement

def refine(h, n_new):
    """Trigonometric interpolation onto a finer grid (n_new >= n, even)."""
    g = h.grid
    if n_new < g.n or n_new % 2:
        raise DomainError("n_new must be even and >= n")
    if n_new == g.n:
        return h
    fine = Grid(g.dim, g.L, n_new)
    c = np.fft.fftshift(np.fft.fftn(h.values))
    pad = (n_new - g.n) // 2
    cpad = np.pad(c, [(pad, pad)] * g.dim)
    # split the Nyquist plane symmetrically between -n/2 and +n/2 so the
    # padded spectrum stays Hermitian for real input (a plain copy works:
    # the original Nyquist plane is self-conjugate under xi -> -xi)
    for ax in range(g.dim):
        idx_lo = [slice(None)] * g.dim
        idx_hi = [slice(None)] * g.dim
        idx_lo[ax] = pad
        idx_hi[ax] = pad + g.n
        cpad[tuple(idx_lo)] *= 0.5
        cpad[tuple(idx_hi)] = cpad[tuple(idx_lo)]
    vals = np.fft.ifftn(np.fft.ifftshift(cpad)).real * (n_new / g.n) ** g.dim
    return TraceField(fine, vals)


def linf_refinement_check(result, params, profile, rtol=0.02):
    """Re-solve with n doubled from the interpolated coarse solution and
    compare sup norms; returns (relative change, fine result)."""
    sup_coarse = np.abs(result.u.values).max()
    if sup_coarse == 0.0:
        return 0.0, result
    fine_params = dataclasses.replace(params, n=2 * params.n)
    seed = refine(result.u, 2 * params.n)
    fine = solve_ground(fine_params, profile, seed)
    sup_fine = np.abs(fine.u.values).max()
    change = abs(sup_coarse - sup_fine) / sup_fine
    if change >= rtol:
        raise VerificationError(
            f"sup norm changed by {change:.2%} under grid refinement "
            f"(allowed {rtol:.0%})")
    return change, fine


# ---------------------------------------------------------------------------
# Profile

def weighted_energy(sigma):
    """int_0^inf (Phi^2 + Phi'^2) s^(1-2 sigma) ds by adaptive quadrature of
    the closed forms Phi = (2/Gamma(sigma)) (s/2)^sigma K_sigma(s) and
    Phi' = -(2/Gamma(sigma)) (s/2)^sigma K_(1-sigma)(s).  On [0, 1] the
    substitution s = y^q, q = 1/min(sigma, 1-sigma), leaves an integrand
    without a power singularity at y = 0; [1, 60] is integrated directly
    (beyond 60 the integrand is below e^-120)."""
    def integrand(s):
        # (2/Gamma(sigma)) (s/2)^sigma s^((1-2 sigma)/2) = w sqrt(s)
        w = 2.0 ** (1.0 - sigma) / gamma(sigma) * np.sqrt(s)
        return (w * kv(sigma, s)) ** 2 + (w * kv(1.0 - sigma, s)) ** 2

    q = 1.0 / min(sigma, 1.0 - sigma)
    opts = dict(epsabs=0.0, epsrel=1e-13, limit=200)
    head, _ = quad(lambda y: integrand(y ** q) * q * y ** (q - 1.0), 0.0, 1.0,
                   **opts)
    body, _ = quad(integrand, 1.0, 60.0, **opts)
    return head + body


# ---------------------------------------------------------------------------
# Files: the package reads `.bin` fields and writes profile CSVs only

def field_to_binary(h, path):
    """Write h in the field binary format: eight little-endian int64
    (magic "HBXF", dim, n, the float64 bits of L, format tag 2, three
    zeros), then the values as float64 in row-major order."""
    g = h.grid
    header = np.array([0x46584248, g.dim, g.n, 0, 2, 0, 0, 0], dtype="<i8")
    header[3:4] = np.array([g.L], dtype="<f8").view("<i8")
    with open(path, "wb") as fh:
        fh.write(header.tobytes())
        fh.write(h.values.astype("<f8").ravel(order="C").tobytes())


def profile_from_csv(path):
    """The BesselProfile of a profile CSV: a header row of the constants,
    their values, an s/phi/dphi header and one row per node."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["sigma", "kappa", "c1", "c2", "d_sigma"]
    assert rows[2] == ["s", "phi", "dphi"]
    sigma, kappa, c1, c2, d_sigma = (float(v) for v in rows[1])
    nodes, phi, dphi = np.array([[float(v) for v in r]
                                 for r in rows[3:]]).T
    p = BesselProfile(sigma=sigma, nodes=nodes, phi=phi, dphi=dphi,
                      d_sigma=d_sigma)
    # the derived constants are written for readers, not read back
    assert [kappa, c1, c2] == [p.kappa, p.c1, p.c2]
    return p
