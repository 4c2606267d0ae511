import numpy as np
import pytest

from berglab.domain import custom_domain, ellipsoid, unit_ball


@pytest.fixture(scope="session")
def disc():
    """Unit disc with the certified near-boundary threshold."""
    return unit_ball(1, theta=0.25)


@pytest.fixture(scope="session")
def disc_global():
    """Unit disc with theta=1: the log(1/-r) metric holds globally."""
    return unit_ball(1, theta=1.0)


@pytest.fixture(scope="session")
def ball2():
    return unit_ball(2, theta=0.25)


@pytest.fixture(scope="session")
def ball2_global():
    return unit_ball(2, theta=1.0)


@pytest.fixture(scope="session")
def egg():
    return ellipsoid([1.0, 2.0])


@pytest.fixture(scope="session")
def mixed():
    """Ellipsoid-like domain with off-diagonal z1 conj(z2) terms."""
    return custom_domain(
        2,
        [((1, 0), (1, 0), 1.0), ((0, 1), (0, 1), 1.5), ((1, 0), (0, 1), 0.25), ((0, 1), (1, 0), 0.25), ((0, 0), (0, 0), -1.0)],
        [[-1.2, 1.2]] * 4,
        c=1.0,
        theta=0.1,
    )


@pytest.fixture(scope="session")
def quartic():
    """{|z|^4 + 0.5|z|^2 < 1} in C^1: a defining polynomial of degree 4."""
    return custom_domain(1, [((2,), (2,), 1.0), ((1,), (1,), 0.5), ((0,), (0,), -1.0)], [[-1.1, 1.1]] * 2, c=1.0, theta=0.1)


@pytest.fixture(scope="session")
def quartic2():
    """{|z|^4 + 0.5|z|^2 + 0.4 Re(z1 conj(z2)^2) < 1} in C^2: third derivatives of r
    with every index pattern."""
    terms = [((2, 0), (2, 0), 1.0), ((1, 1), (1, 1), 2.0), ((0, 2), (0, 2), 1.0), ((1, 0), (1, 0), 0.5),
             ((0, 1), (0, 1), 0.5), ((1, 0), (0, 2), 0.2), ((0, 2), (1, 0), 0.2), ((0, 0), (0, 0), -1.0)]
    return custom_domain(2, terms, [[-1.1, 1.1]] * 4, c=1.0, theta=0.1)


def cpoint(*vals):
    return np.asarray(vals, dtype=complex)
