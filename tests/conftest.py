import warnings

import numpy as np
import pytest
from hypothesis import settings

from hartreebox.profile import build_profile

SIGMAS = (0.3, 0.5, 0.7)

# property tests draw the same examples on every run, write no example
# database, and are not timed per example
settings.register_profile("hartreebox", derandomize=True, database=None,
                          deadline=None, max_examples=50)
settings.load_profile("hartreebox")


@pytest.hookimpl(wrapper=True, tryfirst=True)
def pytest_runtest_makereport():
    # for a failing property test, hypothesis's report hook imports libcst,
    # whose import raises a DeprecationWarning that the suite's
    # error::DeprecationWarning filter would turn into an internal error
    # ending the run; building a report runs no program code
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        return (yield)


@pytest.fixture(scope="session")
def profiles():
    """One Bessel profile per sigma in the standard sweep."""
    return {s: build_profile(s) for s in SIGMAS}


@pytest.fixture(scope="session")
def profile_half(profiles):
    return profiles[0.5]


@pytest.fixture()
def rng():
    return np.random.default_rng(20260823)
