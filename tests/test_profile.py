"""Profile ODE solution against closed forms and an independent oracle."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.interpolate import CubicHermiteSpline
from scipy.special import gamma, kv

from hartreebox.errors import DomainError
from hartreebox.profile import (_S_MATCH, BesselProfile, _series_basis,
                                build_profile, eval_profile, profile_from_csv,
                                profile_to_csv)

from conftest import SIGMAS


def bessel_oracle(sigma, s):
    """Closed form of the profile in terms of the modified Bessel K."""
    s = np.asarray(s, dtype=float)
    return (2.0 / gamma(sigma)) * (s / 2.0) ** sigma * kv(sigma, s)


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
        (_, _, dd1), (_, _, dd2) = _series_basis(sigma, s[below])
        ddphi[below] = dd1 - p.d_sigma / (2.0 * sigma) * dd2

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
    phi, dphi = eval_profile(profile_half, s)
    assert np.max(np.abs(phi - np.exp(-s))) < 1e-8
    assert np.max(np.abs(dphi + np.exp(-s))) < 1e-6


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
    phi, dphi = eval_profile(p, s)
    ref, dref = spline(s), spline.derivative()(s)
    assert np.max(np.abs(phi - ref) / np.abs(ref)) < 1e-14
    assert np.max(np.abs(dphi - dref)) < 1e-12 * np.max(np.abs(dref))


def test_half_kappa_is_one(profile_half):
    assert abs(profile_half.kappa - 1.0) < 1e-6


@pytest.mark.parametrize("sigma", SIGMAS)
def test_matches_bessel_oracle(profiles, sigma):
    p = profiles[sigma]
    s = np.concatenate([np.logspace(-6, -1, 30), np.linspace(0.2, 35.0, 300)])
    phi, _ = eval_profile(p, s)
    assert np.max(np.abs(phi - bessel_oracle(sigma, s))) < 1e-8


@pytest.mark.parametrize("sigma", SIGMAS)
def test_constants_match_gamma_formulas(profiles, sigma):
    p = profiles[sigma]
    c1_exact = gamma(1.0 - sigma) / (sigma * gamma(sigma) * 4.0 ** sigma)
    c2_exact = np.sqrt(np.pi) * 2.0 ** (0.5 - sigma) / gamma(sigma)
    assert abs(p.c1 - c1_exact) / c1_exact < 1e-2
    assert abs(p.c2 - c2_exact) / c2_exact < 1e-2
    assert abs(p.d_sigma - 2.0 * sigma * c1_exact) / p.d_sigma < 1e-6


@pytest.mark.parametrize("sigma", SIGMAS)
def test_kappa_equals_d_sigma(profiles, sigma):
    # multiply the ODE by Phi s^(1-2 sigma) and integrate by parts: the
    # energy integral collapses to the boundary flux, which is d_sigma
    p = profiles[sigma]
    assert abs(p.kappa - p.d_sigma) < 1e-6 * p.kappa


@pytest.mark.parametrize("sigma", SIGMAS)
def test_ode_residual(profiles, sigma):
    assert np.max(ode_residual(profiles[sigma])) < 1e-6


def test_kappa_stable_under_refinement():
    k1 = build_profile(0.37, M=1500).kappa
    k2 = build_profile(0.37, M=3000).kappa
    assert abs(k1 - k2) < 1e-8 * k1


def test_boundary_values(profile_half):
    phi0, dphi0 = eval_profile(profile_half, 0.0)
    assert phi0 == 1.0
    assert abs(dphi0 + 1.0) < 1e-10


def test_far_field_asymptote(profiles):
    p = profiles[0.3]
    s = np.array([p.s_max * 1.5, p.s_max * 2.0])
    phi, _ = eval_profile(p, s)
    env = p.c2 * s ** ((2 * p.sigma - 1) / 2) * np.exp(-s)
    assert np.allclose(phi, env, rtol=1e-12)


def test_negative_argument_rejected(profile_half):
    with pytest.raises(DomainError):
        eval_profile(profile_half, -0.1)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7])
def test_sigma_domain(bad):
    with pytest.raises(DomainError, match="sigma out of"):
        build_profile(bad)


def test_build_validation():
    with pytest.raises(DomainError):
        build_profile(0.5, s_max=5.0)
    with pytest.raises(DomainError):
        build_profile(0.5, M=100)


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


@given(constants=st.lists(FINITE, min_size=5, max_size=5),
       table=arrays(np.float64, st.tuples(st.integers(1, 12), st.just(3)),
                    elements=FINITE))
def test_csv_roundtrip_exact(tmp_path_factory, constants, table):
    sigma, kappa, c1, c2, d_sigma = constants
    p = BesselProfile(sigma=sigma, nodes=table[:, 0], phi=table[:, 1],
                      dphi=table[:, 2], kappa=kappa, c1=c1, c2=c2,
                      d_sigma=d_sigma)
    path = tmp_path_factory.getbasetemp() / "profile.csv"
    profile_to_csv(p, path)
    q = profile_from_csv(path)
    for name in ("sigma", "kappa", "c1", "c2", "d_sigma", "nodes", "phi",
                 "dphi"):
        assert (np.asarray(getattr(q, name)).tobytes()
                == np.asarray(getattr(p, name)).tobytes()), name


def test_csv_rejects_garbage(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("not,a,profile\n1,2,3\n")
    with pytest.raises(Exception):
        profile_from_csv(path)
