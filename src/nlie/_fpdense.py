"""Dense int64 kernels over F_p, rows with entries in [0, p): the echelon
and closure engine behind the exhaustive projective simplicity search,
which closes thousands of points.  The only module that imports numpy;
`structure` imports it inside the exhaustive branch, and only where
`fits_int64(p, dim)` holds.  Past the enumeration limit, Norton's test runs
in pure Python at every p, and a single ideal closure runs the exact
`EchelonAccumulator` loop."""

from __future__ import annotations

import itertools

import numpy as np

from .fields import PrimeField
from .linalg import Matrix, SubspaceBasis


def fits_int64(p: int, dim: int) -> bool:
    """Whether the kernels here are exact on F_p^dim: a dot product of two
    rows sums dim products of residues below p, and must stay below 2**63."""
    return dim * (p - 1) ** 2 < 2**63


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


def projective_coeffs(p: int, k: int):
    """Representatives of projective classes: first nonzero coordinate 1."""
    for lead in range(k):
        for tail in itertools.product(range(p), repeat=k - 1 - lead):
            yield (0,) * lead + (1,) + tail


def first_proper_closure(p: int, dim: int, ops: np.ndarray) -> FpEchelon | None:
    """Closure of the first projective point, in enumeration order, that
    generates a proper subspace; None when every point generates the whole
    space."""
    for coeffs in projective_coeffs(p, dim):
        ech = fp_closure(p, dim, np.array([coeffs], dtype=np.int64), ops)
        if ech.rank < dim:
            return ech
    return None
