"""Univariate polynomials over F_p on Python ints, for Norton's
irreducibility test: the characteristic polynomial of a square matrix by
Hessenberg reduction (Cohen, *A Course in Computational Algebraic Number
Theory*, Alg. 2.2.9), the distinct monic irreducible factors, yielded
lazily degree by degree (distinct-degree, then Cantor-Zassenhaus
equal-degree splitting), and the value of a polynomial at a matrix.  Exact
at every p.

A polynomial is a list of residues in [0, p), constant term first, with no
trailing zeros (the zero polynomial is []).  Matrices are lists of int rows.
"""

from __future__ import annotations

import random
from collections.abc import Iterator

Poly = list[int]

_ONE: Poly = [1]
_X: Poly = [0, 1]


def _trim(f: Poly) -> Poly:
    while f and f[-1] == 0:
        f.pop()
    return f


def _sub(f: Poly, g: Poly, p: int) -> Poly:
    out = list(f) + [0] * (len(g) - len(f))
    for i, c in enumerate(g):
        out[i] = (out[i] - c) % p
    return _trim(out)


def _mul(f: Poly, g: Poly, p: int) -> Poly:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return _trim([c % p for c in out])


def _divmod(f: Poly, g: Poly, p: int) -> tuple[Poly, Poly]:
    """Quotient and remainder of f by a nonzero g."""
    r = list(f)
    dg = len(g) - 1
    if len(r) <= dg:
        return [], r
    inv = pow(g[-1], -1, p)
    q = [0] * (len(r) - dg)
    for k in range(len(r) - 1, dg - 1, -1):
        c = r[k] * inv % p
        if c:
            q[k - dg] = c
            for j in range(dg + 1):
                r[k - dg + j] = (r[k - dg + j] - c * g[j]) % p
    return _trim(q), _trim(r[:dg])


def _rem(f: Poly, g: Poly, p: int) -> Poly:
    return _divmod(f, g, p)[1]


def _monic(f: Poly, p: int) -> Poly:
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _gcd(f: Poly, g: Poly, p: int) -> Poly:
    """Monic gcd; [] only when both are zero."""
    while g:
        f, g = g, _rem(f, g, p)
    return _monic(f, p) if f else []


def _powmod(f: Poly, e: int, m: Poly, p: int) -> Poly:
    result, base = _ONE, _rem(f, m, p)
    while e:
        if e & 1:
            result = _rem(_mul(result, base, p), m, p)
        base = _rem(_mul(base, base, p), m, p)
        e >>= 1
    return _rem(result, m, p)


def charpoly(rows: list[list[int]], p: int) -> Poly:
    """Characteristic polynomial det(xI - M), monic of degree len(rows)."""
    n = len(rows)
    h = [list(r) for r in rows]
    for c in range(n - 2):
        i = next((i for i in range(c + 1, n) if h[i][c]), None)
        if i is None:
            continue
        if i != c + 1:
            h[i], h[c + 1] = h[c + 1], h[i]
            for row in h:
                row[i], row[c + 1] = row[c + 1], row[i]
        inv = pow(h[c + 1][c], -1, p)
        for j in range(c + 2, n):
            u = h[j][c] * inv % p
            if u:
                # similarity: row_j -= u row_(c+1), then col_(c+1) += u col_j
                pivot_row = h[c + 1]
                h[j] = [(a - u * b) % p for a, b in zip(h[j], pivot_row)]
                for row in h:
                    row[c + 1] = (row[c + 1] + u * row[j]) % p
    polys: list[Poly] = [_ONE]
    for m in range(1, n + 1):
        nxt = _mul([(-h[m - 1][m - 1]) % p, 1], polys[m - 1], p)
        t = 1
        for i in range(1, m):
            t = t * h[m - i][m - i - 1] % p
            if not t:
                break
            c = h[m - i - 1][m - 1] * t % p
            if c:
                nxt = _sub(nxt, [c * a % p for a in polys[m - i - 1]], p)
        polys.append(nxt)
    return polys[n]


# each draw splits a valid input with probability >= 1/2: all fail at most 2^-64 of the time
_SPLIT_DRAWS = 64


def _equal_degree(f: Poly, k: int, p: int, rng: random.Random) -> list[Poly]:
    """Cantor-Zassenhaus: the irreducible factors of a monic squarefree f
    whose factors all have degree k; ValueError if _SPLIT_DRAWS draws fail."""
    n = len(f) - 1
    if n == k:
        return [f]
    for _ in range(_SPLIT_DRAWS):
        a = _trim([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        if p == 2:
            # the trace a + a^2 + ... + a^(2^(k-1)) is 0 or 1 on each factor
            t, s = a, a
            for _ in range(k - 1):
                s = _rem(_mul(s, s, p), f, p)
                t = _sub(t, s, p)  # minus is plus in characteristic 2
        else:
            t = _sub(_powmod(a, (p**k - 1) // 2, f, p), _ONE, p)
        g = _gcd(f, t, p)
        if 1 < len(g) < n + 1:
            return _equal_degree(g, k, p, rng) + _equal_degree(
                _divmod(f, g, p)[0], k, p, rng
            )
    raise ValueError(f"degree {n} does not split into factors of degree k={k} over F_{p}")


def factors(f: Poly, p: int) -> Iterator[Poly]:
    """The distinct monic irreducible factors of a monic f, lazily, sorted
    by degree, then by coefficients from the constant term up.

    Step k takes g = gcd(f, x^(p^k) - x), which is squarefree and holds
    exactly the degree-k factors still in f, then divides every copy of
    them out of f; so repeated and p-th-power factors need no squarefree
    split.  Once deg f < 2(k + 1), what remains is irreducible or 1."""
    rng = random.Random(p)
    h, k = _X, 0
    while len(f) - 1 >= 2 * (k + 1):
        k += 1
        h = _powmod(h, p, f, p)
        g = _gcd(f, _sub(h, _X, p), p)
        if len(g) > 1:
            yield from sorted(_equal_degree(g, k, p, rng))
            while len(g) > 1:
                f = _divmod(f, g, p)[0]
                g = _gcd(f, g, p)
            h = _rem(h, f, p)
    if len(f) > 1:
        yield f


def matmul(a: list[list[int]], b: list[list[int]], p: int) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in a]


def at_matrix(f: Poly, rows: list[list[int]], p: int) -> list[list[int]]:
    """f(M) for a monic f of degree at least 1, by Horner's rule started
    from M, so a linear f costs no matrix product."""
    out = [list(row) for row in rows]
    for j, c in enumerate(reversed(f[:-1])):
        if j:
            out = matmul(out, rows, p)
        for i, row in enumerate(out):
            row[i] = (row[i] + c) % p
    return out
