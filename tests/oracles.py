"""Independent oracles for the tests, on the full frequency lattice.

The package evaluates everything on the rfftn half lattice through one core
(`model._project`).  The oracles here share none of that code: they work
with dense DFT matrices and direct sums, or with complex `fftn`/`ifftn` on
the full lattice, and compute each quantity afresh at the field given.
"""

import dataclasses

import numpy as np

from hartreebox.errors import DomainError, VerificationError
from hartreebox.model import F_eval, f_eval
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
    F = F_eval(params.nonlinearity, u.values)
    return 0.5 * u.grid.cell_volume * float(
        np.sum(kernel_convolve(params, F) * F))


def interaction_pairing(u, params):
    """<Psi'(u), u> = int (W * F(u)) f(u) u."""
    nl = params.nonlinearity
    conv = kernel_convolve(params, F_eval(nl, u.values))
    return u.grid.cell_volume * float(
        np.sum(conv * f_eval(nl, u.values) * u.values))


def level(u, params, profile):
    """I(u) = Q(u)/2 - Psi(u)."""
    return 0.5 * quadratic_form(u, params, profile) - interaction(u, params)


def gradient(u, params, profile):
    """L^2 representation of I'(u):
    kappa (m^2 - Lap)^sigma u + V u - (W * F(u)) f(u)."""
    nl = params.nonlinearity
    mult = full_multiplier(u.grid, params.m, params.sigma)
    lin = np.fft.ifftn(mult * np.fft.fftn(u.values)).real
    conv = kernel_convolve(params, F_eval(nl, u.values))
    return TraceField(u.grid, profile.kappa * lin
                      + params.potential_values * u.values
                      - conv * f_eval(nl, u.values))


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
    sup_coarse = result.u.norm_lq(np.inf)
    if sup_coarse == 0.0:
        return 0.0, result
    fine_params = dataclasses.replace(params, n=2 * params.n)
    seed = refine(result.u, 2 * params.n)
    fine = solve_ground(fine_params, profile, seed)
    sup_fine = fine.u.norm_lq(np.inf)
    change = abs(sup_coarse - sup_fine) / sup_fine
    if change >= rtol:
        raise VerificationError(
            f"sup norm changed by {change:.2%} under grid refinement "
            f"(allowed {rtol:.0%})")
    return change, fine
