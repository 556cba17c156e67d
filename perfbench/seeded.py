"""Seeded inputs of the benchmark: basis changes, a one-entry perturbation and
random polynomials.

Everything here is plain Python data derived from a `random.Random` built on
the benchmark's seed; nothing imports nlie.  The shape of every generated
input (sizes, term counts, entry ranges) is fixed, and only the values come
from the seed, so different seeds give different inputs of the same cost.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np

M61 = 2**61 - 1


def unitriangular_pair(n: int, rng: random.Random, p: int | None) -> tuple[list, list]:
    """A seeded invertible matrix P = L*U and its exact inverse.

    L is lower and U upper unitriangular, so det P = 1.  Over F_p the
    off-diagonal entries are uniform residues; over Q (p None) they are in
    {-1, 0, 1}, so P is unimodular and P^-1 has integer entries too.
    """

    def entry():
        return rng.randrange(p) if p else rng.choice((-1, 0, 1))

    lower = [[1 if i == j else (entry() if j < i else 0) for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (entry() if j > i else 0) for j in range(n)] for i in range(n)]
    mat = _matmul(lower, upper, p)
    inv = _matmul(_unitriangular_inverse(upper, p, upper=True),
                  _unitriangular_inverse(lower, p, upper=False), p)
    return mat, inv


def _matmul(a: list, b: list, p: int | None) -> list:
    n, k, m = len(a), len(b), len(b[0])
    out = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]
    return [[x % p for x in row] for row in out] if p else out


def _unitriangular_inverse(t: list, p: int | None, upper: bool) -> list:
    """Inverse of a unitriangular matrix by substitution, column by column."""
    n = len(t)
    inv = [[0] * n for _ in range(n)]
    order = range(n - 1, -1, -1) if upper else range(n)
    for col in range(n):
        for i in order:
            acc = 1 if i == col else 0
            js = range(i + 1, n) if upper else range(i)
            acc -= sum(t[i][j] * inv[j][col] for j in js)
            inv[i][col] = acc % p if p else acc
    return inv


def change_basis(table: dict, dim: int, arity: int, mat: list, inv: list,
                 p: int | None, symmetric: bool = False) -> dict:
    """Structure constants of a multilinear map in the basis given by the
    columns of `mat`: T'(e_I) = mat^-1 T(mat e_i1, ..., mat e_in).

    `table` maps index tuples (increasing for an alternating bracket,
    non-decreasing for a symmetric product) to integer value vectors.
    Returns the table of the same kind in the new basis.
    """
    small = p is not None and (p - 1) ** 2 * dim < 2**62
    dtype = np.int64 if small else object
    dense = np.zeros((dim,) * arity + (dim,), dtype=dtype)
    for key, value in table.items():
        vec = np.array([int(v) for v in value], dtype=dtype)
        for perm, sign in _perms_with_sign(arity):
            idx = tuple(key[s] for s in perm)
            if symmetric:
                dense[idx] = vec
            else:
                dense[idx] = vec * sign
    matrix = np.array(mat, dtype=dtype)
    inverse = np.array(inv, dtype=dtype)
    for axis in range(arity):
        dense = np.moveaxis(np.tensordot(dense, matrix, axes=([axis], [0])), -1, axis)
        if p:
            dense %= p
    dense = np.tensordot(dense, inverse, axes=([arity], [1]))
    if p:
        dense %= p
    out = {}
    for key in _keys(dim, arity, symmetric):
        vec = tuple(int(v) for v in dense[key])
        if any(vec):
            out[key] = vec
    return out


def transform_vector(inv: list, vec, p: int | None) -> tuple:
    out = [sum(inv[i][j] * int(vec[j]) for j in range(len(vec))) for i in range(len(inv))]
    return tuple(x % p for x in out) if p else tuple(out)


def _perms_with_sign(n: int):
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        yield perm, (-1) ** inversions


def _keys(dim: int, arity: int, symmetric: bool):
    if symmetric:
        return itertools.combinations_with_replacement(range(dim), arity)
    return itertools.combinations(range(dim), arity)


def perturbation(rng: random.Random, dim: int, p: int) -> tuple[tuple[int, int], int, int]:
    """One bracket entry to overwrite in a unital Poisson algebra: the key
    (0, j) pairs the unit (basis 0) with e_j, and the new value c*e_m is
    nonzero.  Leibniz with a = b = 1 forces {1, u} = 0, so the perturbed
    algebra provably fails Leibniz and the derived compatibility identity."""
    j = rng.randrange(1, dim)
    m = rng.randrange(dim)
    c = rng.randrange(1, p)
    return (0, j), m, c


def random_poly_text(rng: random.Random, names: tuple[str, ...], terms: int = 4) -> str:
    """A polynomial as text: `terms` (at most 4) monomials with seeded
    rational coefficients, plus one parenthesized square that the parser
    expands.

    Term k is x^(3-k) y^k, so every polynomial has the same support and the
    cost of parsing and bracketing varies little from seed to seed."""
    parts = []
    for k in range(terms):
        num = rng.choice([n for n in range(-9, 10) if n])
        coeff = Fraction(num, rng.randint(1, 5))
        exps = (3 - k, k) + (0,) * (len(names) - 2)
        factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(names, exps) if e]
        mag = abs(coeff)
        lit = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
        parts.append(("- " if coeff < 0 else "+ ") + "*".join([lit, *factors]))
    a, b = rng.randint(1, 5), rng.randint(1, 5)
    parts.append(f"+ ({a}*{names[0]} - {b}*{names[-1]} + 1)^2")
    return " ".join(parts).removeprefix("+ ")
