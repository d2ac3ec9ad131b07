"""Profile ODE solution against closed forms and an independent oracle."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.interpolate import CubicHermiteSpline
from scipy.special import gamma, kv, kve

import hartreebox.profile as profile_mod
from hartreebox.cli import main
from hartreebox.errors import DiagnosticError, DomainError
from hartreebox.profile import (BesselProfile, build_profile, eval_profile,
                                graded_nodes)

from conftest import SIGMAS
from oracles import profile_from_csv, weighted_energy

# the constants are checked over the whole sigma range, ends included
CONSTANT_SIGMAS = (0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95)
# where ode_residual hands over from the table to the Frobenius series
SERIES_PIVOT = 0.5


def bessel_oracle(sigma, s):
    """Closed form of the profile in terms of the modified Bessel K."""
    s = np.asarray(s, dtype=float)
    return (2.0 / gamma(sigma)) * (s / 2.0) ** sigma * kv(sigma, s)


def series_ddphi(sigma, c1s, s):
    """phi'' of the Frobenius series u1 - c1s u2 about s = 0, term by term.

    The k-th term of u1 (e = 0) or u2 (e = 2 sigma) has exponent q = 2k + e
    and coefficient ratio 1 / (q (q - 2 sigma)) to the one before.
    """
    branches = []
    for e in (0.0, 2.0 * sigma):
        ddu, a = np.zeros_like(s), 1.0
        for k in range(40):
            q = 2.0 * k + e
            if k:
                a /= q * (q - 2.0 * sigma)
            ddu = ddu + q * (q - 1.0) * a * s ** (q - 2.0)
        branches.append(ddu)
    return branches[0] - c1s * branches[1]


def ode_residual(p):
    """Scaled ODE defect at the interior nodes of the profile table p.

    Above SERIES_PIVOT, phi'' is reconstructed from a local quartic fit
    of the tabulated dphi (independent of the ODE right-hand side); below
    it, the Frobenius series supplies phi''.  The defect is scaled by the
    largest participating term so the s -> 0 cancellation of the two huge
    terms (both ~ s^(2*sigma-2)) does not drown the check in round-off.
    """
    sigma = p.sigma
    one_m_2s = 1.0 - 2.0 * sigma
    s = p.nodes
    n = len(s)
    ddphi = np.empty(n)

    below = s < SERIES_PIVOT
    if below.any():
        ddphi[below] = series_ddphi(sigma, p.kappa / (2.0 * sigma), s[below])

    for j in np.nonzero(~below)[0]:
        i0 = min(max(j - 2, 0), n - 5)
        window = slice(i0, i0 + 5)
        coef = np.polyfit(s[window] - s[j], p.dphi[window], 4)
        ddphi[j] = coef[-2]

    resid = -p.phi + one_m_2s / s * p.dphi + ddphi
    scale = np.maximum(1.0, np.maximum(np.abs(one_m_2s / s * p.dphi),
                                       np.abs(ddphi)))
    return np.abs(resid) / scale


def test_half_is_exponential(profile_half):
    s = np.linspace(0.0, 10.0, 2001)
    phi = eval_profile(profile_half, s)
    assert np.max(np.abs(phi - np.exp(-s))) < 1e-8


def test_half_table_is_exponential_to_rounding(profile_half):
    # at sigma = 1/2 both Bessel orders are 1/2 and phi = e^-s, so the
    # table carries only the quadrature's rounding
    p = profile_half
    decay = np.exp(-p.nodes)
    assert np.max(np.abs(p.phi - decay) / decay) < 1e-13
    assert np.max(np.abs(p.dphi + decay) / decay) < 1e-13


@pytest.mark.parametrize("sigma", SIGMAS)
def test_hermite_interpolant_matches_scipy(profiles, sigma):
    p = profiles[sigma]
    spline = CubicHermiteSpline(p.nodes, p.phi, p.dphi)
    s = np.concatenate([np.geomspace(0.01, p.nodes[-1], 5000),
                        p.nodes[p.nodes >= 0.01]])
    phi, ref = eval_profile(p, s), spline(s)
    assert np.max(np.abs(phi - ref) / np.abs(ref)) < 1e-14


@pytest.mark.parametrize("s_max, M", [(20.0, 1000), (40.0, 2000),
                                      (600.0, 2000), (20.0, 20000)])
def test_interval_index_matches_searchsorted(s_max, M):
    # the closed-form index of the nodes s_max (j/M)^3, j >= 1, against a
    # binary search, at every node, both float neighbours of every node and
    # 1e5 random points of the nodes' range
    x = graded_nodes(s_max, M)[1:]
    s = np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf),
                        np.random.default_rng(M).uniform(0.0, s_max, 10 ** 5)])
    want = np.clip(np.searchsorted(x, s, side="right") - 1, 0, M - 2)
    assert np.array_equal(profile_mod._interval(x, s), want)


def test_half_kappa_is_one(profile_half):
    assert abs(profile_half.kappa - 1.0) < 1e-6


@pytest.mark.parametrize("sigma", SIGMAS)
def test_matches_bessel_oracle(profiles, sigma):
    p = profiles[sigma]
    s = np.concatenate([np.logspace(-6, -1, 30), np.linspace(0.2, 35.0, 300)])
    phi = eval_profile(p, s)
    assert np.max(np.abs(phi - bessel_oracle(sigma, s))) < 1e-8
    # relative to Phi, whose last table value is about 1e-17, over the
    # Hermite interpolant's range
    s = np.geomspace(0.011, 39.9, 3000)
    want = bessel_oracle(sigma, s)
    assert np.max(np.abs(eval_profile(p, s) - want) / want) < 1e-7


def test_table_matches_scaled_bessel_k():
    # phi = g K_sigma and dphi = -g K_(1-sigma) at every node, with
    # g = (2/Gamma(sigma)) (s/2)^sigma (times e^-s, since kve = e^s K)
    for sigma in (1e-6, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 1.0 - 1e-6):
        p = build_profile(sigma)
        s = p.nodes
        g = (2.0 / gamma(sigma)) * (s / 2.0) ** sigma * np.exp(-s)
        for got, want in ((p.phi, g * kve(sigma, s)),
                          (p.dphi, -g * kve(1.0 - sigma, s))):
            assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13, sigma


@pytest.mark.parametrize("sigma", CONSTANT_SIGMAS)
def test_constants_match_gamma_formulas(sigma):
    p = build_profile(sigma)
    c1_exact = gamma(1.0 - sigma) / (sigma * gamma(sigma) * 4.0 ** sigma)
    c2_exact = np.sqrt(np.pi) * 2.0 ** (0.5 - sigma) / gamma(sigma)
    d_exact = 2.0 * sigma * c1_exact
    for value, exact in ((p.kappa, d_exact),
                         (p.c1, c1_exact), (p.c2, c2_exact)):
        assert abs(value - exact) / exact < 1e-12


@pytest.mark.parametrize("sigma", CONSTANT_SIGMAS)
def test_kappa_matches_quadrature_of_the_energy(sigma):
    # kappa (= d_sigma, in closed form) against a fresh quadrature of the
    # closed-form kernel's weighted Dirichlet energy
    p = build_profile(sigma)
    assert abs(p.kappa - weighted_energy(sigma)) < 1e-12 * p.kappa


@pytest.mark.parametrize("sigma", SIGMAS)
def test_ode_residual(profiles, sigma):
    assert np.max(ode_residual(profiles[sigma])) < 1e-6


@pytest.mark.parametrize("sigma", [0.1, 0.5, 0.9, 0.999, 0.99999])
def test_small_s_series_matches_bessel_oracle(sigma):
    # below s = 0.01 the s^2 and c1 s^(2 sigma) terms grow like 1/(1 - sigma)
    # and cancel, so the series needs terms past s^2 as sigma -> 1
    p = build_profile(sigma)
    s = np.geomspace(1e-6, 0.01, 200, endpoint=False)
    assert np.max(np.abs(eval_profile(p, s) - bessel_oracle(sigma, s))) \
        < 1e-13


def test_boundary_values(profile_half):
    assert eval_profile(profile_half, [0.0]).tolist() == [1.0]


def test_far_field_asymptote():
    # beyond the table's last node, s_max = 40, the envelope times the
    # Hankel series
    for sigma in (0.1, 0.3, 0.9, 0.999):
        p = build_profile(sigma)
        s_max = p.nodes[-1]
        s = np.linspace(s_max, 3.0 * s_max, 201)[1:]
        want = bessel_oracle(sigma, s)
        assert np.max(np.abs(eval_profile(p, s) - want) / want) <= 1e-14


def test_negative_argument_rejected(profile_half):
    with pytest.raises(DomainError):
        eval_profile(profile_half, [-0.1])


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7])
def test_sigma_domain(bad):
    with pytest.raises(DomainError, match="sigma out of"):
        build_profile(bad)


def test_tiny_sigma_builds_a_finite_table_without_warnings():
    # at sigma = 1e-300 the 2/Gamma(sigma) factor is 2e-300, so the table
    # reaches subnormal values; RuntimeWarnings are errors in this suite
    p = build_profile(1e-300)
    assert np.isfinite(p.phi).all() and np.isfinite(p.dphi).all()
    assert (p.phi >= 0.0).all() and (p.dphi <= 0.0).all()
    assert p.phi.min() < np.finfo(float).tiny


def test_quadrature_that_does_not_converge_is_rejected(monkeypatch):
    # with a zero tolerance no term is ever small enough, so the sums run
    # to the step at which every integrand is 0 and stop there
    monkeypatch.setattr(profile_mod, "_QUAD_RTOL", 0.0)
    with pytest.raises(DiagnosticError, match="did not converge"):
        build_profile(0.5)


def write_profile_csv(out, sigma=0.5):
    """The profile CSV the profile command writes into out at sigma."""
    config = out / "run.cfg"
    config.write_text(f"sigma = {sigma!r}\nm = 1.0\nN = 1\nL = 10.0\n"
                      "n = 64\n")
    assert main(["profile", "--config", str(config), "--out", str(out)]) == 0
    return out / "profile.csv"


def test_csv_roundtrip(tmp_path, profiles):
    p = profiles[0.7]
    q = profile_from_csv(write_profile_csv(tmp_path, 0.7))
    assert q.sigma == p.sigma
    assert q.kappa == p.kappa
    assert np.array_equal(q.nodes, p.nodes)
    assert np.array_equal(q.phi, p.phi)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def admissible_profiles(draw):
    """Tables with the properties build_profile guarantees: sigma in
    [1e-300, 1), where Gamma(sigma) and so the constants are finite
    (build_profile rejects far larger sigma), 2-12 positive and strictly
    increasing nodes, finite phi and dphi."""
    size = draw(st.integers(2, 12))
    nodes = np.sort(draw(arrays(np.float64, size, elements=POSITIVE,
                                unique=True)))
    phi = draw(arrays(np.float64, size, elements=FINITE))
    dphi = draw(arrays(np.float64, size, elements=FINITE))
    sigma = draw(st.floats(1e-300, 1.0, exclude_max=True))
    return BesselProfile(sigma=sigma, nodes=nodes, phi=phi, dphi=dphi)


@given(p=admissible_profiles())
def test_csv_roundtrip_exact(tmp_path_factory, p):
    # the command writes the table build_profile returns, here p itself
    with mock.patch.object(profile_mod, "build_profile", lambda *_: p):
        path = write_profile_csv(tmp_path_factory.getbasetemp())
    q = profile_from_csv(path)
    for name in ("sigma", "kappa", "c1", "c2", "nodes", "phi", "dphi"):
        assert (np.asarray(getattr(q, name)).tobytes()
                == np.asarray(getattr(p, name)).tobytes()), name

