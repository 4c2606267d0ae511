"""Exact arithmetic for real polynomials in (z, conj(z)) on C^n.

A term is indexed by a pair of multi-indices (alpha, beta) and contributes
coeff * z**alpha * conj(z)**beta.  Realness of the polynomial is equivalent
to coeff(alpha, beta) == conj(coeff(beta, alpha)), which construction
helpers enforce.  All derivatives are computed symbolically on the exponent
table, so downstream geometry never touches finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MultiIndex = tuple[int, ...]


def _as_tuple(t) -> MultiIndex:
    return tuple(int(x) for x in t)


@dataclass(frozen=True)
class HermPoly:
    """Polynomial in z and conj(z) with complex coefficients."""

    n: int
    terms: dict[tuple[MultiIndex, MultiIndex], complex] = field(default_factory=dict)

    @staticmethod
    def from_terms(n: int, terms) -> "HermPoly":
        acc: dict[tuple[MultiIndex, MultiIndex], complex] = {}
        for alpha, beta, c in terms:
            key = (_as_tuple(alpha), _as_tuple(beta))
            acc[key] = acc.get(key, 0.0) + complex(c)
        acc = {k: v for k, v in acc.items() if v != 0}
        return HermPoly(n, acc)

    def is_real(self) -> bool:
        """coeff(alpha, beta) == conj(coeff(beta, alpha)) on every term, to 1e-12."""
        for (a, b), c in self.terms.items():
            if abs(c - np.conj(self.terms.get((b, a), 0.0))) > 1e-12:
                return False
        return True

    def __call__(self, z: np.ndarray) -> np.ndarray:
        """Evaluate on points, vectorized over the leading axes of ``z``.

        ``z`` has shape (..., n) complex; the result has shape (...).  This
        is :func:`evaluate` of the one polynomial, so every value has the
        bits of that order: each term is its coefficient times its factors
        in index order, z_i**e before conj(z_i)**e, and the terms are summed
        into zeros in term order.
        """
        return evaluate([self], z)[0]

    def d(self, i: int) -> "HermPoly":
        """Holomorphic derivative with respect to z_i."""
        acc: dict[tuple[MultiIndex, MultiIndex], complex] = {}
        for (a, b), c in self.terms.items():
            if a[i] == 0:
                continue
            a2 = list(a)
            a2[i] -= 1
            key = (tuple(a2), b)
            acc[key] = acc.get(key, 0.0) + c * a[i]
        return HermPoly(self.n, acc)

    def dbar(self, i: int) -> "HermPoly":
        """Anti-holomorphic derivative with respect to conj(z_i)."""
        acc: dict[tuple[MultiIndex, MultiIndex], complex] = {}
        for (a, b), c in self.terms.items():
            if b[i] == 0:
                continue
            b2 = list(b)
            b2[i] -= 1
            key = (a, tuple(b2))
            acc[key] = acc.get(key, 0.0) + c * b[i]
        return HermPoly(self.n, acc)

    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(a) + sum(b) for (a, b) in self.terms)

    def homogeneous_parts(self) -> list["HermPoly"]:
        """[p_0, ..., p_d] with p_k the terms of total degree k.

        Along a ray, p(s * z) = sum_k p_k(z) * s**k for real s.
        """
        parts: list[dict] = [{} for _ in range(self.degree() + 1)]
        for (a, b), c in self.terms.items():
            parts[sum(a) + sum(b)][(a, b)] = c
        return [HermPoly(self.n, p) for p in parts]

    def to_json_terms(self) -> list:
        out = []
        for (a, b), c in sorted(self.terms.items()):
            out.append([list(a), list(b), [float(np.real(c)), float(np.imag(c))]])
        return out

    @staticmethod
    def from_json_terms(n: int, data) -> "HermPoly":
        terms = [(tuple(a), tuple(b), complex(c[0], c[1])) for a, b, c in data]
        return HermPoly.from_terms(n, terms)


def evaluate(polys, z: np.ndarray) -> list[np.ndarray]:
    """Each polynomial of ``polys`` at the points ``z`` of shape (..., n).

    Every power z_i**e and conj(z_i)**e is computed once per call and
    shared by all terms of all the polynomials; exponent 1 reads the
    coordinate itself.  A term's product starts from its scalar coefficient
    and takes its factors in index order, z before conj(z), and each
    polynomial's terms are summed into zeros in term order.  The products
    never take a temporary as their second factor and are written in place
    only on arrays of more than one point: numpy's complex product is not
    commutative in the last bit, and a one-element in-place product takes
    another loop.  So a point's value does not depend on the array size.
    """
    z = np.asarray(z, dtype=complex)
    coords = (z, np.conj(z))
    powers: dict[tuple[int, int, int], np.ndarray] = {}

    def power(side: int, i: int, e: int) -> np.ndarray:
        if (side, i, e) not in powers:
            w = coords[side][..., i]
            powers[side, i, e] = w if e == 1 else w**e
        return powers[side, i, e]

    outs = []
    for p in polys:
        out = np.zeros(z.shape[:-1], dtype=complex)
        for (a, b), c in p.terms.items():
            term = c
            for i in range(p.n):
                for side, e in ((0, a[i]), (1, b[i])):
                    if e:
                        # the first product makes the term's own array; later ones write over it
                        own = term is not c and np.size(term) > 1
                        term = np.multiply(term, power(side, i, e), out=term if own else None)
            out += term
        outs.append(out)
    return outs


def unit_vector(n: int, i: int) -> MultiIndex:
    e = [0] * n
    e[i] = 1
    return tuple(e)
