"""Spectral toolbox against dense DFT/convolution oracles."""

import csv

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hartreebox.errors import DomainError, NumericError
from hartreebox.model import KernelSpec, ModelParams
from hartreebox.spectral import (Grid, TraceField, apply_multiplier,
                                 field_from_binary, field_from_csv,
                                 field_to_binary, field_to_csv, sobolev_form)

from oracles import (dense_convolve, dense_frac_apply, full_multiplier,
                     refine, spectral_weights)


def kernel_params(g, **kernel):
    """Parameters on the grid g whose kernel spectrum the tests probe; the
    default kernel has a power core, so it is not smooth."""
    return ModelParams(sigma=0.5, m=1.0, dim=g.dim, L=g.L, n=g.n,
                       kernel=KernelSpec(**(kernel or dict(
                           a=0.5, mu=0.4, R_c=1.0, b=1.0, w2=0.8))))


def frac_apply(h, sigma, m):
    """(m^2 - Lap)^sigma h along the package's path: apply_multiplier with
    the grid's cached multiplier."""
    return apply_multiplier(h.grid.multiplier(m, sigma), h.values,
                            "fractional")


@pytest.mark.parametrize("dim", [1, 2])
def test_frac_apply_matches_dense_oracle(dim, rng):
    g = Grid(dim, 1.3, 8)
    h = TraceField(g, rng.standard_normal(g.shape))
    got = frac_apply(h, 0.6, 1.7)
    want = dense_frac_apply(h, 0.6, 1.7)
    assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("dim", [1, 2])
def test_convolve_matches_dense_oracle(dim, rng):
    g = Grid(dim, 1.3, 8)
    params = kernel_params(g)
    k = TraceField(g, params.kernel_values)
    f = TraceField(g, rng.standard_normal(g.shape))
    got = apply_multiplier(params.kernel_spectrum, f.values, "convolve")
    want = dense_convolve(k, f)
    assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(want))


def half_and_full_multipliers(dim, kind):
    """One of the solver's multipliers on the half lattice, as the package
    builds it, and on the full lattice, built here."""
    params = ModelParams(sigma=0.5, m=1.3, dim=dim, L=4.0, n=8 if dim == 3
                         else 16,
                         kernel=KernelSpec(a=0.5, mu=0.4, R_c=2.0, b=1.0,
                                           w2=2.0))
    g = params.grid
    if kind == "kernel":
        return (params.kernel_spectrum,
                g.cell_volume * np.fft.fftn(params.kernel_values))
    if kind == "fractional":
        return g.multiplier(1.3, 0.5), full_multiplier(g, 1.3, 0.5)
    kappa, v_inf = 0.9, 1.2            # the solver's preconditioner
    return (1.0 / (kappa * g.multiplier(1.3, 0.5) + v_inf),
            1.0 / (kappa * full_multiplier(g, 1.3, 0.5) + v_inf))


@pytest.mark.parametrize("kind", ["kernel", "fractional", "preconditioner"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_apply_multiplier_matches_full_lattice_oracle(dim, kind, rng):
    half, full = half_and_full_multipliers(dim, kind)
    v = rng.standard_normal(full.shape)
    got = apply_multiplier(half, v, "probe")
    want = np.fft.ifftn(full * np.fft.fftn(v)).real
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    with pytest.raises(NumericError, match="probe: multiplier"):
        apply_multiplier(full, v, "probe")


def test_frac_apply_eigenfunction():
    g = Grid(1, 5.0, 64)
    xi = 3.0 / (2.0 * g.L)
    h = TraceField(g, np.cos(2 * np.pi * xi * g.axis))
    lam = (1.21 + 4 * np.pi ** 2 * xi ** 2) ** 0.4
    out = frac_apply(h, 0.4, 1.1)
    assert np.max(np.abs(out - lam * h.values)) < 1e-12 * lam


def test_frac_apply_translation_equivariance(rng):
    g = Grid(1, 5.0, 64)
    h = TraceField(g, rng.standard_normal(g.n))
    shifted = TraceField(g, np.roll(h.values, 7))
    a = np.roll(frac_apply(h, 0.5, 1.0), 7)
    b = frac_apply(shifted, 0.5, 1.0)
    assert np.max(np.abs(a - b)) < 1e-12


def test_parseval_exact(rng):
    g = Grid(2, 3.0, 16)
    h = TraceField(g, rng.standard_normal(g.shape))
    assert abs(h.norm_l2() ** 2 - np.sum(spectral_weights(h))) \
        < 1e-12 * h.norm_l2() ** 2


def test_young_inequality(rng):
    # |W * g|_2 <= |W|_1 |g|_2 for 100 random kernels and fields
    g = Grid(1, 2.0, 16)
    for _ in range(100):
        params = kernel_params(
            g, a=rng.uniform(0.0, 1.0), mu=rng.uniform(0.0, 0.9),
            R_c=rng.uniform(0.2, 2.0), b=rng.uniform(0.0, 1.0),
            w2=rng.uniform(0.2, 2.0))
        k = TraceField(g, params.kernel_values)
        f = TraceField(g, rng.standard_normal(g.n))
        lhs = TraceField(g, apply_multiplier(params.kernel_spectrum,
                                             f.values, "convolve")).norm_l2()
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
    # sigma and m are checked where they enter the package: ModelParams
    # for the solver's operator, sobolev_form for the extension checks
    h = TraceField(Grid(1, 1.0, 8), np.ones(8))
    for sigma, m in ((1.2, 1.0), (0.5, 0.0)):
        with pytest.raises(DomainError):
            ModelParams(sigma=sigma, m=m, dim=1, L=1.0, n=8)
        with pytest.raises(DomainError):
            sobolev_form(h, sigma, m, 1.0)


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
        a + b
    with pytest.raises(DomainError, match="grid mismatch"):
        a.inner(b)


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


@pytest.mark.parametrize("dim,n", [(1, 64), (3, 8)])
def test_field_csv_bytes_match_per_row_writer(tmp_path, rng, dim, n):
    g = Grid(dim, 3.7, n)
    vals = rng.standard_normal(g.shape) * np.logspace(-300, 300, n ** dim
                                                      ).reshape(g.shape)
    vals.flat[:3] = (0.0, -0.0, 1e-320)
    h = TraceField(g, vals)
    path = tmp_path / "field.csv"
    field_to_csv(h, path)
    oracle = tmp_path / "oracle.csv"
    with open(oracle, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["dim", "n", "L"])
        w.writerow([g.dim, g.n, repr(float(g.L))])
        w.writerow(["value"])
        for v in h.values.ravel(order="C"):
            w.writerow([repr(float(v))])
    assert path.read_bytes() == oracle.read_bytes()


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


@given(dim=st.integers(1, 3), n=st.sampled_from([8, 10]),
       L=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
       data=st.data())
def test_field_roundtrips_bit_exact(tmp_path_factory, dim, n, L, data):
    # any finite values, signed zeros and subnormals among them, and any
    # positive finite L read back bit for bit from both formats
    g = Grid(dim, L, n)
    io_dir = tmp_path_factory.getbasetemp()
    h = TraceField(g, data.draw(arrays(np.float64, g.shape, elements=st.floats(
        allow_nan=False, allow_infinity=False))))
    for write, read, name in ((field_to_csv, field_from_csv, "f.csv"),
                              (field_to_binary, field_from_binary, "f.bin")):
        write(h, io_dir / name)
        back = read(io_dir / name)
        assert back.grid == g
        assert back.values.tobytes() == h.values.tobytes()


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
