"""Dense int64 kernels over F_p, rows with entries in [0, p): the checkers'
vectorized paths, then the echelon and closure engine behind F_p ideal
closures and simplicity.  The only module that imports numpy; `algebra` and
`structure` import it inside the prime-field branches that run it."""

from __future__ import annotations

import itertools

import numpy as np

from .algebra import SkewBracketTensor, SymProductTensor, canonicalize_index
from .fields import PrimeField
from .linalg import Matrix, SubspaceBasis, kernel


def dense_bracket_matrix(t: SkewBracketTensor, xs: list[tuple[int, ...]]) -> np.ndarray:
    p = t.field.p
    out = np.zeros((len(xs), t.dim), dtype=np.int64)
    for r, key in enumerate(xs):
        value = t.table.get(key)
        if value is not None:
            out[r] = [v % p for v in value]
    return out


def ad_stack(t: SkewBracketTensor, ys: list[tuple[int, ...]]) -> np.ndarray:
    """ADS[y, :, k] = bracket(e_k, Y) as a column, signs folded in mod p."""
    p = t.field.p
    d = t.dim
    ads = np.zeros((len(ys), d, d), dtype=np.int64)
    for yi, y in enumerate(ys):
        inside = set(y)
        for k in range(d):
            if k in inside:
                continue
            canon, sign = canonicalize_index((k,) + y, d)
            value = t.table.get(canon)
            if value is None:
                continue
            col = np.fromiter((v % p for v in value), dtype=np.int64, count=d)
            ads[yi, :, k] = col if sign > 0 else (-col) % p
    return ads


def dense_product(product: SymProductTensor) -> np.ndarray:
    p = product.field.p
    d = product.dim
    out = np.zeros((d, d, d), dtype=np.int64)
    for (i, j), value in product.table.items():
        row = np.fromiter((v % p for v in value), dtype=np.int64, count=d)
        out[i, j] = row
        out[j, i] = row
    return out


def jacobi_first_failure(t, xs, ys):
    p = t.field.p
    d, n = t.dim, t.arity
    tmat = dense_bracket_matrix(t, xs)
    ads = ad_stack(t, ys)
    yindex = {y: i for i, y in enumerate(ys)}
    a_idx = np.empty((len(xs), n), dtype=np.intp)
    c_idx = np.empty((len(xs), n), dtype=np.intp)
    for r, x in enumerate(xs):
        for s in range(n):
            a_idx[r, s] = yindex[x[:s] + x[s + 1 :]]
            c_idx[r, s] = x[s]
    signs = np.array([1 if s % 2 == 0 else p - 1 for s in range(n)], dtype=np.int64)
    best = None
    for yi in range(len(ys)):
        lhs = ads[yi] @ tmat.T % p
        prods = ads @ ads[yi] % p
        gathered = prods[a_idx, :, c_idx]
        rhs = (gathered * signs[None, :, None]).sum(axis=1) % p
        bad = np.nonzero((rhs != lhs.T).any(axis=1))[0]
        if bad.size:
            xi = int(bad[0])
            if best is None or (xi, yi) < best:
                best = (xi, yi)
    if best is None:
        return None
    return xs[best[0]], ys[best[1]]


def leibniz_first_failure(t, product, ys):
    p = t.field.p
    ads = ad_stack(t, ys)
    pt = dense_product(product)
    best = None
    for yi in range(len(ys)):
        w = ads[yi]
        lhs = np.einsum("ijk,mk->ijm", pt, w, optimize=True) % p
        term1 = np.einsum("tj,itm->ijm", w, pt, optimize=True)
        term2 = np.einsum("ti,jtm->ijm", w, pt, optimize=True)
        rhs = (term1 + term2) % p
        bad = np.argwhere((lhs != rhs).any(axis=2))
        if bad.size:
            i, j = int(bad[0][0]), int(bad[0][1])
            if best is None or (i, j, yi) < best:
                best = (i, j, yi)
    if best is None:
        return None
    return best[0], best[1], ys[best[2]]


def shift_first_failure(t, product, us):
    p = t.field.p
    d = t.dim
    pt = dense_product(product)
    best = None
    for ui, u in enumerate(us):
        b3 = np.zeros((d, d, d), dtype=np.int64)
        for x in range(d):
            for y in range(x + 1, d):
                canon, sign = canonicalize_index((x, y) + u, d)
                if sign == 0:
                    continue
                value = t.table.get(canon)
                if value is None:
                    continue
                col = np.fromiter((v % p for v in value), dtype=np.int64, count=d)
                b3[x, y] = col if sign > 0 else (-col) % p
                b3[y, x] = (-b3[x, y]) % p
        lhs = np.einsum("ijk,klm->ijlm", pt, b3, optimize=True) % p
        term1 = np.einsum("jlk,ikm->ijlm", pt, b3, optimize=True)
        term2 = np.einsum("ilk,jkm->ijlm", pt, b3, optimize=True)
        rhs = (term1 + term2) % p
        bad = np.argwhere((lhs != rhs).any(axis=3))
        if bad.size:
            i, j, l = (int(v) for v in bad[0])
            if best is None or (i, j, l, ui) < best:
                best = (i, j, l, ui)
    if best is None:
        return None
    return best[0], best[1], best[2], us[best[3]]


class FpEchelon:
    """Forward-echelon accumulator on int64 rows mod p.  Stored rows stay
    mutually reduced (each pivot column is zero in every other row), so
    membership tests are a single pass and conversion to the canonical
    SubspaceBasis is a sort."""

    __slots__ = ("p", "dim", "rows", "pivots")

    def __init__(self, p: int, dim: int):
        self.p = p
        self.dim = dim
        self.rows: list[np.ndarray] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce_batch(self, batch: np.ndarray) -> np.ndarray:
        b = np.mod(batch, self.p)
        for r, j in zip(self.rows, self.pivots):
            c = b[:, j]
            hit = c != 0
            if hit.any():
                b[hit] = np.mod(b[hit] - c[hit, None] * r, self.p)
        return b

    def add_batch(self, batch: np.ndarray) -> list[np.ndarray]:
        """Insert the independent rows of the batch; returns them."""
        added: list[np.ndarray] = []
        b = self.reduce_batch(batch)
        while self.rank < self.dim:
            live = np.nonzero(b.any(axis=1))[0]
            if live.size == 0:
                break
            row = b[live[0]]
            j = int(np.nonzero(row)[0][0])
            row = np.mod(row * pow(int(row[j]), self.p - 2, self.p), self.p)
            for k, r in enumerate(self.rows):
                if r[j] != 0:
                    self.rows[k] = np.mod(r - r[j] * row, self.p)
            self.rows.append(row)
            self.pivots.append(j)
            added.append(row)
            b = b[live[0] + 1 :]
            if b.shape[0] == 0:
                break
            c = b[:, j]
            hit = c != 0
            if hit.any():
                b[hit] = np.mod(b[hit] - c[hit, None] * row, self.p)
        return added

    def to_subspace(self, field: PrimeField) -> SubspaceBasis:
        order = sorted(range(self.rank), key=lambda i: self.pivots[i])
        rows = [tuple(int(c) for c in self.rows[i]) for i in order]
        pivots = [self.pivots[i] for i in order]
        return SubspaceBasis._trusted(field, self.dim, rows, pivots)


def ops_tensor(ops: list[Matrix]) -> np.ndarray:
    if not ops:
        return np.zeros((0, 0, 0), dtype=np.int64)
    d = ops[0].nrows
    return np.array([[list(row) for row in m.rows] for m in ops], dtype=np.int64).reshape(
        len(ops), d, d
    )


def fp_closure(p: int, dim: int, seeds: np.ndarray, ops: np.ndarray) -> FpEchelon:
    ech = FpEchelon(p, dim)
    queue = ech.add_batch(seeds)
    if ops.shape[0] == 0:
        return ech
    while queue and ech.rank < dim:
        v = queue.pop()
        queue.extend(ech.add_batch(np.mod(ops @ v, p)))
    return ech


def closure(field: PrimeField, dim: int, seed_vectors: list, ops: list[Matrix]) -> SubspaceBasis:
    seeds = np.array([[int(c) for c in v] for v in seed_vectors], dtype=np.int64)
    seeds = seeds.reshape(len(seed_vectors), dim)
    return fp_closure(field.p, dim, seeds, ops_tensor(ops)).to_subspace(field)


def projective_coeffs(p: int, k: int):
    """Representatives of projective classes: first nonzero coordinate 1."""
    for lead in range(k):
        for tail in itertools.product(range(p), repeat=k - 1 - lead):
            yield (0,) * lead + (1,) + tail


def first_proper_closure(
    p: int, dim: int, ops: np.ndarray, basis: np.ndarray | None = None
) -> FpEchelon | None:
    """Closure of the first projective point, in enumeration order, that
    generates a proper subspace; None when every point generates the whole
    space.  Points are taken over the rows of `basis` when one is given."""
    k = dim if basis is None else basis.shape[0]
    for coeffs in projective_coeffs(p, k):
        point = np.array(coeffs, dtype=np.int64)
        if basis is not None:
            point = np.mod(point @ basis, p)
        ech = fp_closure(p, dim, point[None, :], ops)
        if ech.rank < dim:
            return ech
    return None


def nullity(p: int, m: np.ndarray) -> int:
    ech = FpEchelon(p, m.shape[1])
    ech.add_batch(m)
    return ech.dim - ech.rank


def combination(p: int, a: np.ndarray, c: int, b: np.ndarray) -> np.ndarray:
    return np.mod(a + c * b, p)


def kernel_point_closure(
    field: PrimeField, op: np.ndarray, ops: np.ndarray, dual: bool = False
) -> FpEchelon | None:
    """First proper closure under `ops` of a projective point of ker(op);
    with `dual`, of a point of ker(op^t) under the transposed operations."""
    if dual:
        op, ops = op.T, ops.transpose(0, 2, 1).copy()
    ker = kernel(Matrix(field, [[int(c) for c in row] for row in op]))
    rows = np.array([[int(c) for c in row] for row in ker.rows], dtype=np.int64)
    return first_proper_closure(field.p, op.shape[0], ops, rows)
