"""Spectral toolbox against dense DFT/convolution oracles."""

import numpy as np
import pytest

from hartreebox.errors import DomainError, NumericError
from hartreebox.spectral import (Grid, TraceField, convolve, field_from_binary,
                                 field_from_csv, field_to_binary, field_to_csv,
                                 frac_apply, from_spectral, refine,
                                 sobolev_form, spectral_weights, to_spectral)


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


@pytest.mark.parametrize("dim", [1, 2])
def test_frac_apply_matches_dense_oracle(dim, rng):
    g = Grid(dim, 1.3, 8)
    h = TraceField(g, rng.standard_normal(g.shape))
    got = frac_apply(h, 0.6, 1.7).values
    want = dense_frac_apply(h, 0.6, 1.7)
    assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("dim", [1, 2])
def test_convolve_matches_dense_oracle(dim, rng):
    g = Grid(dim, 1.3, 8)
    k = TraceField(g, rng.standard_normal(g.shape))
    f = TraceField(g, rng.standard_normal(g.shape))
    got = convolve(k, f).values
    want = dense_convolve(k, f)
    assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(want))


def test_frac_apply_eigenfunction():
    g = Grid(1, 5.0, 64)
    xi = 3.0 / (2.0 * g.L)
    h = TraceField(g, np.cos(2 * np.pi * xi * g.axis))
    lam = (1.21 + 4 * np.pi ** 2 * xi ** 2) ** 0.4
    out = frac_apply(h, 0.4, 1.1)
    assert np.max(np.abs(out.values - lam * h.values)) < 1e-12 * lam


def test_frac_apply_translation_equivariance(rng):
    g = Grid(1, 5.0, 64)
    h = TraceField(g, rng.standard_normal(g.n))
    shifted = TraceField(g, np.roll(h.values, 7))
    a = np.roll(frac_apply(h, 0.5, 1.0).values, 7)
    b = frac_apply(shifted, 0.5, 1.0).values
    assert np.max(np.abs(a - b)) < 1e-12


def test_parseval_exact(rng):
    g = Grid(2, 3.0, 16)
    h = TraceField(g, rng.standard_normal(g.shape))
    assert abs(h.norm_l2() ** 2 - np.sum(spectral_weights(h))) \
        < 1e-12 * h.norm_l2() ** 2


def test_young_inequality(rng):
    # |k * g|_2 <= |k|_1 |g|_2 for 100 random pairs
    g = Grid(1, 2.0, 16)
    for _ in range(100):
        k = TraceField(g, np.abs(rng.standard_normal(g.n)))
        f = TraceField(g, rng.standard_normal(g.n))
        lhs = convolve(k, f).norm_l2()
        assert lhs <= k.norm_lq(1) * f.norm_l2() * (1 + 1e-12)


def test_sobolev_form_constant_closed_form(profile_half):
    g = Grid(1, 5.0, 32)
    a, m, sigma = 0.7, 1.4, 0.5
    h = TraceField(g, np.full(g.shape, a))
    want = profile_half.kappa * m ** (2 * sigma) * a ** 2 * g.box_volume
    got = sobolev_form(h, sigma, m, profile_half)
    assert abs(got - want) < 1e-12 * want


def test_sobolev_form_profile_sigma_mismatch(profile_half):
    g = Grid(1, 5.0, 32)
    h = TraceField(g, np.ones(g.shape))
    with pytest.raises(DomainError, match="sigma"):
        sobolev_form(h, 0.3, 1.0, profile_half)


def test_grid_validation():
    with pytest.raises(DomainError):
        Grid(4, 1.0, 8)
    with pytest.raises(DomainError):
        Grid(1, 1.0, 7)
    with pytest.raises(DomainError):
        Grid(1, 1.0, 4)
    with pytest.raises(DomainError):
        Grid(1, -1.0, 8)


def test_frac_apply_domain_errors():
    g = Grid(1, 1.0, 8)
    h = TraceField(g, np.ones(8))
    with pytest.raises(DomainError):
        frac_apply(h, 1.2, 1.0)
    with pytest.raises(DomainError):
        frac_apply(h, 0.5, 0.0)


def test_field_validation(rng):
    g = Grid(1, 1.0, 8)
    with pytest.raises(DomainError):
        TraceField(g, np.ones(9))
    bad = np.ones(8)
    bad[3] = np.nan
    with pytest.raises(NumericError):
        TraceField(g, bad)


def test_grid_mismatch(rng):
    a = TraceField(Grid(1, 1.0, 8), rng.standard_normal(8))
    b = TraceField(Grid(1, 2.0, 8), rng.standard_normal(8))
    with pytest.raises(DomainError, match="grid mismatch"):
        convolve(a, b)


def test_spectral_roundtrip(rng):
    g = Grid(2, 2.0, 8)
    h = TraceField(g, rng.standard_normal(g.shape))
    s = to_spectral(h)
    assert s.is_hermitian()
    back = from_spectral(s)
    assert np.max(np.abs(back.values - h.values)) < 1e-12


def test_refine_band_limited_exact():
    g = Grid(1, 3.0, 16)
    f = lambda y: np.sin(2 * np.pi * y * 2 / (2 * g.L)) \
        + 0.3 * np.cos(2 * np.pi * y * 5 / (2 * g.L))
    h = TraceField(g, f(g.axis))
    fine = refine(h, 48)
    assert np.max(np.abs(fine.values - f(fine.grid.axis))) < 1e-12


def test_refine_matches_at_coarse_nodes(rng):
    g = Grid(1, 3.0, 16)
    h = TraceField(g, rng.standard_normal(16))
    fine = refine(h, 32)
    assert np.max(np.abs(fine.values[::2] - h.values)) < 1e-12


def test_refine_preserves_norm_below_nyquist(rng):
    g = Grid(1, 3.0, 16)
    coeffs = np.zeros(16, dtype=complex)
    coeffs[:6] = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    coeffs[0] = coeffs[0].real
    coeffs[-5:] = np.conj(coeffs[1:6])[::-1]
    h = TraceField(g, np.fft.ifft(coeffs).real)
    fine = refine(h, 32)
    assert abs(fine.norm_l2() - h.norm_l2()) < 1e-12


def test_refine_2d(rng):
    g = Grid(2, 2.0, 8)
    X, Y = g.coords
    h = TraceField(g, np.sin(np.pi * X / g.L) * np.cos(2 * np.pi * Y / g.L))
    fine = refine(h, 16)
    Xf, Yf = fine.grid.coords
    want = np.sin(np.pi * Xf / g.L) * np.cos(2 * np.pi * Yf / g.L)
    assert np.max(np.abs(fine.values - want)) < 1e-12


def test_refine_validation(rng):
    g = Grid(1, 3.0, 16)
    h = TraceField(g, rng.standard_normal(16))
    with pytest.raises(DomainError):
        refine(h, 8)
    with pytest.raises(DomainError):
        refine(h, 33)


def test_field_csv_roundtrip(tmp_path, rng):
    g = Grid(2, 2.5, 8)
    h = TraceField(g, rng.standard_normal(g.shape))
    path = tmp_path / "field.csv"
    field_to_csv(h, path)
    back = field_from_csv(path)
    assert back.grid == g
    assert np.array_equal(back.values, h.values)


def test_field_binary_roundtrip(tmp_path, rng):
    g = Grid(1, 7.5, 16)
    h = TraceField(g, rng.standard_normal(g.shape))
    path = tmp_path / "field.bin"
    field_to_binary(h, path)
    back = field_from_binary(path)
    assert back.grid == g
    assert np.array_equal(back.values, h.values)


@pytest.mark.parametrize("L", [10.0 / 3.0, 4e-7])
def test_field_binary_roundtrip_keeps_L_exact(tmp_path, rng, L):
    g = Grid(2, L, 8)
    h = TraceField(g, rng.standard_normal(g.shape))
    path = tmp_path / "field.bin"
    field_to_binary(h, path)
    back = field_from_binary(path)
    assert back.grid == g
    assert np.array_equal(back.values, h.values)


def test_field_binary_rejects_old_format_and_ragged_size(tmp_path, rng):
    g = Grid(1, 1.0, 8)
    path = tmp_path / "field.bin"
    field_to_binary(TraceField(g, rng.standard_normal(8)), path)
    raw = path.read_bytes()
    old = np.array([0x46584248, 1, 8, 1000000, 1, 0, 0, 0], dtype="<i8")
    path.write_bytes(old.tobytes() + raw[64:])
    with pytest.raises(DomainError, match="format 1"):
        field_from_binary(path)
    path.write_bytes(raw[:-3])
    with pytest.raises(DomainError, match="truncated"):
        field_from_binary(path)


def test_field_io_rejects_corruption(tmp_path, rng):
    g = Grid(1, 1.0, 8)
    h = TraceField(g, rng.standard_normal(8))
    csv_path = tmp_path / "field.csv"
    field_to_csv(h, csv_path)
    csv_path.write_text(csv_path.read_text()[:40])
    with pytest.raises(DomainError):
        field_from_csv(csv_path)
    bin_path = tmp_path / "field.bin"
    field_to_binary(h, bin_path)
    bin_path.write_bytes(bin_path.read_bytes()[:80])
    with pytest.raises(DomainError):
        field_from_binary(bin_path)
    bin_path.write_bytes(b"\0" * 128)
    with pytest.raises(DomainError, match="magic"):
        field_from_binary(bin_path)
