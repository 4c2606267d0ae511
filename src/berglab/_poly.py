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

        ``z`` has shape (..., n) complex; the result has shape (...).
        """
        z = np.asarray(z, dtype=complex)
        zc = np.conj(z)
        out = np.zeros(z.shape[:-1], dtype=complex)
        for (a, b), c in self.terms.items():
            term = np.full(z.shape[:-1], c, dtype=complex)
            for i in range(self.n):
                for e, w in ((a[i], z), (b[i], zc)):
                    if e:
                        power = w[..., i] ** e
                        # term * power written over the fresh power, so a value does
                        # not depend on the array size: numpy's complex product is not
                        # commutative in the last bit, ``*`` on a large array may reuse
                        # the power and swap the factors, and a one-element in-place
                        # product takes another loop
                        term = np.multiply(term, power, out=power if np.size(power) > 1 else None)
            out += term
        return out

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


def unit_vector(n: int, i: int) -> MultiIndex:
    e = [0] * n
    e[i] = 1
    return tuple(e)
