import random

import pytest
from hypothesis import settings

from thetalab import hyperelliptic as hy

settings.register_profile("theta", deadline=None, derandomize=True)
settings.load_profile("theta")

CURVE13_SPEC = "field=Fp:13; f=0,-1,0,0,0"
CURVE5_SPEC = "field=Fp:5; f=1,1,0,0,0"
CURVE7_SPEC = "field=Fp:7; f=1,0,0,0,0"
CURVEQ_COEFFS = [0, 24, -50, 35, -10]  # x(x-1)(x-2)(x-3)(x-4)


def canonical_class(curve):
    """K = 2*[infinity] for the quintic model."""
    return hy.PicClass(hy.MumfordDivisor.zero(curve), 2)


@pytest.fixture(scope="session")
def curve13():
    return hy.parse_curve(CURVE13_SPEC)


@pytest.fixture(scope="session")
def curve5():
    return hy.parse_curve(CURVE5_SPEC)


@pytest.fixture(scope="session")
def curve7():
    return hy.parse_curve(CURVE7_SPEC)


@pytest.fixture(scope="session")
def curveq():
    return hy.new_curve("Q", CURVEQ_COEFFS)


@pytest.fixture(scope="session")
def pic13(curve13):
    return hy.enumerate_pic(curve13, 0)


@pytest.fixture()
def rng():
    return random.Random(20260825)
