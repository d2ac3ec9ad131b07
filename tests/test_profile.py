"""Profile ODE solution against closed forms and an independent oracle."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.interpolate import CubicHermiteSpline
from scipy.special import gamma, kv

from hartreebox.errors import DomainError
from hartreebox.profile import (_S_MATCH, BesselProfile, build_profile,
                                eval_profile, profile_to_csv)

from conftest import SIGMAS
from oracles import profile_from_csv, weighted_energy

# the constants are checked over the whole sigma range, ends included
CONSTANT_SIGMAS = (0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95)


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

    Above the series pivot, phi'' is reconstructed from a local quartic fit
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

    below = s < _S_MATCH
    if below.any():
        ddphi[below] = series_ddphi(sigma, p.d_sigma / (2.0 * sigma), s[below])

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
    # at sigma = 1/2 the ODE is phi'' = phi and the start is exact, so the
    # table carries only the stepping's rounding
    p = profile_half
    decay = np.exp(-p.nodes)
    assert np.max(np.abs(p.phi - decay) / decay) < 1e-13
    assert np.max(np.abs(p.dphi + decay) / decay) < 1e-13


@pytest.mark.parametrize("sigma", SIGMAS)
def test_hermite_interpolant_matches_scipy(profiles, sigma):
    p = profiles[sigma]
    spline = CubicHermiteSpline(p.nodes, p.phi, p.dphi)
    s = np.concatenate([np.geomspace(0.01, p.s_max, 5000),
                        p.nodes[p.nodes >= 0.01]])
    phi, ref = eval_profile(p, s), spline(s)
    assert np.max(np.abs(phi - ref) / np.abs(ref)) < 1e-14


def test_half_kappa_is_one(profile_half):
    assert abs(profile_half.kappa - 1.0) < 1e-6


@pytest.mark.parametrize("sigma", SIGMAS)
def test_matches_bessel_oracle(profiles, sigma):
    p = profiles[sigma]
    s = np.concatenate([np.logspace(-6, -1, 30), np.linspace(0.2, 35.0, 300)])
    phi = eval_profile(p, s)
    assert np.max(np.abs(phi - bessel_oracle(sigma, s))) < 1e-8


@pytest.mark.parametrize("sigma", CONSTANT_SIGMAS)
def test_constants_match_gamma_formulas(sigma):
    p = build_profile(sigma)
    c1_exact = gamma(1.0 - sigma) / (sigma * gamma(sigma) * 4.0 ** sigma)
    c2_exact = np.sqrt(np.pi) * 2.0 ** (0.5 - sigma) / gamma(sigma)
    d_exact = 2.0 * sigma * c1_exact
    for value, exact in ((p.kappa, d_exact), (p.d_sigma, d_exact),
                         (p.c1, c1_exact), (p.c2, c2_exact)):
        assert abs(value - exact) / exact < 1e-12


@pytest.mark.parametrize("sigma", CONSTANT_SIGMAS)
def test_kappa_matches_quadrature_of_the_energy(sigma):
    # kappa (= d_sigma, from the series matching) against a fresh
    # quadrature of the closed form's weighted Dirichlet energy
    p = build_profile(sigma)
    assert abs(p.kappa - weighted_energy(sigma)) < 1e-12 * p.kappa


@pytest.mark.parametrize("sigma", SIGMAS)
def test_ode_residual(profiles, sigma):
    assert np.max(ode_residual(profiles[sigma])) < 1e-6


def test_boundary_values(profile_half):
    assert eval_profile(profile_half, [0.0]).tolist() == [1.0]


def test_far_field_asymptote(profiles):
    p = profiles[0.3]
    s = np.array([p.s_max * 1.5, p.s_max * 2.0])
    phi = eval_profile(p, s)
    env = p.c2 * s ** ((2 * p.sigma - 1) / 2) * np.exp(-s)
    assert np.allclose(phi, env, rtol=1e-12)


def test_negative_argument_rejected(profile_half):
    with pytest.raises(DomainError):
        eval_profile(profile_half, [-0.1])


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7])
def test_sigma_domain(bad):
    with pytest.raises(DomainError, match="sigma out of"):
        build_profile(bad)


def test_build_validation():
    with pytest.raises(DomainError):
        build_profile(0.5, s_max=5.0)
    with pytest.raises(DomainError):
        build_profile(0.5, M=100)


@pytest.mark.parametrize("s_max", [600.5, 4000.0, np.inf, np.nan])
def test_s_max_beyond_the_shooting_range_is_rejected(s_max):
    # the inward shooting overflows from s_max ~ 667 on and never reaches
    # the pivot from s_max = inf
    with pytest.raises(DomainError, match=r"s_max must lie in \[20, 600\]"):
        build_profile(0.5, s_max=s_max)


@pytest.mark.parametrize("sigma", [0.01, 0.5, 0.99])
def test_largest_s_max_builds_without_overflow(sigma):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = build_profile(sigma, s_max=600.0)
    assert p.s_max == 600.0 and np.isfinite(p.kappa)


def test_csv_roundtrip(tmp_path, profiles):
    p = profiles[0.7]
    path = tmp_path / "profile.csv"
    profile_to_csv(p, path)
    q = profile_from_csv(path)
    assert q.sigma == p.sigma
    assert q.kappa == p.kappa
    assert np.array_equal(q.nodes, p.nodes)
    assert np.array_equal(q.phi, p.phi)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def admissible_profiles(draw):
    """Tables with the properties build_profile guarantees: sigma in
    (0, 1), 2-12 positive and strictly increasing nodes, finite phi and
    dphi, a positive d_sigma."""
    size = draw(st.integers(2, 12))
    nodes = np.sort(draw(arrays(np.float64, size, elements=POSITIVE,
                                unique=True)))
    phi = draw(arrays(np.float64, size, elements=FINITE))
    dphi = draw(arrays(np.float64, size, elements=FINITE))
    sigma = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    return BesselProfile(sigma=sigma, nodes=nodes, phi=phi, dphi=dphi,
                         d_sigma=draw(POSITIVE))


@given(p=admissible_profiles())
def test_csv_roundtrip_exact(tmp_path_factory, p):
    path = tmp_path_factory.getbasetemp() / "profile.csv"
    profile_to_csv(p, path)
    q = profile_from_csv(path)
    for name in ("sigma", "kappa", "c1", "c2", "d_sigma", "nodes", "phi",
                 "dphi"):
        assert (np.asarray(getattr(q, name)).tobytes()
                == np.asarray(getattr(p, name)).tobytes()), name

