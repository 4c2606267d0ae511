import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from berglab._poly import HermPoly, evaluate
from berglab.domain import sample_region, unit_ball


def _random_real_poly(rng, n=1, terms=4, max_deg=3):
    """Random real polynomial: coeff(a,b) paired with conj at (b,a)."""
    entries = []
    for _ in range(terms):
        a = tuple(int(rng.integers(0, max_deg + 1)) for _ in range(n))
        b = tuple(int(rng.integers(0, max_deg + 1)) for _ in range(n))
        c = complex(rng.standard_normal(), rng.standard_normal())
        entries.append((a, b, c))
        entries.append((b, a, np.conj(c)))
    return HermPoly.from_terms(n, entries)


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_random_real_poly_is_real(seed):
    rng = np.random.default_rng(seed)
    p = _random_real_poly(rng)
    assert p.is_real()
    z = rng.standard_normal(1) + 1j * rng.standard_normal(1)
    assert abs(np.imag(p(z))) < 1e-10


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_derivatives_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    p = _random_real_poly(rng, n=2, terms=3, max_deg=2)
    z = 0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    h = 1e-6
    for i in range(2):
        e = np.zeros(2, complex)
        e[i] = 1.0
        dx = (p(z + h * e) - p(z - h * e)) / (2 * h)
        dy = (p(z + 1j * h * e) - p(z - 1j * h * e)) / (2 * h)
        d_num = 0.5 * (dx - 1j * dy)
        dbar_num = 0.5 * (dx + 1j * dy)
        assert p.d(i)(z) == pytest.approx(d_num, abs=1e-6)
        assert p.dbar(i)(z) == pytest.approx(dbar_num, abs=1e-6)


def test_unit_ball_poly_values():
    p = unit_ball(2).r
    z = np.array([0.3 + 0.4j, -0.1 + 0.2j])
    assert p(z) == pytest.approx(np.sum(np.abs(z) ** 2) - 1.0)


def test_json_round_trip():
    rng = np.random.default_rng(7)
    p = _random_real_poly(rng, n=2)
    q = HermPoly.from_json_terms(2, p.to_json_terms())
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    assert q(z) == pytest.approx(p(z))


def test_degree():
    p = HermPoly.from_terms(1, [((2,), (1,), 1.0), ((1,), (2,), 1.0)])
    assert p.degree() == 3


def test_evaluation_does_not_depend_on_the_array_size(quartic2):
    # numpy's complex product is not commutative in the last bit, and on a
    # large array ``a * temporary`` may reuse the temporary and swap the factors
    z = sample_region(quartic2, "interior", 20000, seed=1)
    whole = quartic2.r(z)
    chunks = np.concatenate([quartic2.r(z[i:i + 100]) for i in range(0, len(z), 100)])
    assert whole.tobytes() == chunks.tobytes()
    assert whole[:50].tobytes() == np.array([quartic2.r(p) for p in z[:50]]).tobytes()


def _reference_call(p, z):
    """``HermPoly.__call__`` before the shared power table: a fresh power per factor, kept as the reference."""
    z = np.asarray(z, dtype=complex)
    zc = np.conj(z)
    out = np.zeros(z.shape[:-1], dtype=complex)
    for (a, b), c in p.terms.items():
        term = np.full(z.shape[:-1], c, dtype=complex)
        for i in range(p.n):
            for e, w in ((a[i], z), (b[i], zc)):
                if e:
                    power = w[..., i] ** e
                    term = np.multiply(term, power, out=power if np.size(power) > 1 else None)
        out += term
    return out


@pytest.mark.parametrize("name", ["disc", "ball2", "egg", "mixed", "quartic", "quartic2"])
def test_shared_power_table_keeps_every_bit(request, name):
    # r, every derivative table and every homogeneous part, from one power table
    # per call, against one fresh power per factor
    dom = request.getfixturevalue(name)
    rng = np.random.default_rng(11)
    parts = dom.r.homogeneous_parts()
    for shape in [(), (1,), (7,), (3, 5), (400,), (16385,), (20000,), (40, 27, 4)]:
        z = 0.6 * (rng.standard_normal(shape + (dom.n,)) + 1j * rng.standard_normal(shape + (dom.n,)))
        r = dom.r(z)
        assert np.shape(r) == shape and r.tobytes() == _reference_call(dom.r, z).tobytes()
        for holo, anti in [(0, 1), (1, 1), (0, 2), (1, 2), (2, 0)]:
            table = dom.derivatives(z, holo, anti)
            for p, slots in dom._table(holo, anti):
                ref = _reference_call(p, z).tobytes()
                assert all(table[s].tobytes() == ref for s in slots)
        for v, p in zip(evaluate(parts, z), parts):
            assert v.tobytes() == _reference_call(p, z).tobytes()
