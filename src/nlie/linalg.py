"""Exact linear algebra: matrices stored only as their sparse columns,
reduced row echelon form, kernels of row lists, canonical subspace bases
with lattice operations, and the permutation expansion of determinants over
any commutative ring.

A subspace is always stored by the reduced row echelon form of a spanning
set (pivot columns strictly increasing, pivot entries 1, pivot columns
otherwise zero, no zero rows), so equal subspaces compare equal as values.
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_left
from collections.abc import Iterable, Sequence

from .fields import Field


def unit_vector(field: Field, dim: int, i: int) -> tuple:
    if not 0 <= i < dim:
        raise ValueError(f"unit vector index {i} out of range for dimension {dim}")
    return tuple(field.one if j == i else field.zero for j in range(dim))


def normalized(field: Field, sums: Sequence) -> tuple:
    """Unreduced sums of field values, each normalised once."""
    norm, zero = field.from_int, field.zero
    return tuple([norm(x) if x else zero for x in sums])


def is_zero_vector(a: Sequence) -> bool:
    # field values (ints, Fractions) are false exactly when zero
    return not any(a)


class Matrix:
    """An immutable nrows-by-ncols matrix over an exact field, stored only
    as its columns: column k is the tuple of its nonzero (row, entry)
    pairs in increasing row order, each entry normalised through the
    field."""

    __slots__ = ("field", "nrows", "columns")

    def __init__(self, field: Field, rows: Iterable[Sequence]):
        rows = [tuple(r) for r in rows]
        width = len(rows[0]) if rows else 0
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        norm = field.from_int
        self.field = field
        self.nrows = len(rows)
        self.columns = tuple(
            tuple((i, y) for i, x in enumerate(col) if x and (y := norm(x)))
            for col in zip(*rows)
        )

    @classmethod
    def _trusted(cls, field: Field, nrows: int, columns: tuple) -> "Matrix":
        # columns must already be tuples of nonzero normalised (row, entry)
        # pairs in increasing row order
        m = object.__new__(cls)
        m.field, m.nrows, m.columns = field, nrows, columns
        return m

    @classmethod
    def from_columns(cls, field: Field, dim: int, columns: dict) -> "Matrix":
        """The dim-by-dim matrix whose column k has the (row, entry) pairs
        columns[k] in increasing row order, absent columns zero; entries are
        normalised through the field, and those that vanish there dropped."""
        norm = field.from_int
        return cls._trusted(field, dim, tuple(
            tuple((i, y) for i, x in columns.get(k, ()) if (y := norm(x))) for k in range(dim)
        ))

    @property
    def ncols(self) -> int:
        return len(self.columns)

    def transpose(self) -> "Matrix":
        out: list[list] = [[] for _ in range(self.nrows)]
        for k, col in enumerate(self.columns):
            for i, x in col:
                out[i].append((k, x))
        return Matrix._trusted(self.field, self.ncols, tuple(map(tuple, out)))

    def mul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        cols, norm = self.columns, self.field.from_int
        out = []
        for col in other.columns:
            acc = [0] * self.nrows
            for k, c in col:
                for i, x in cols[k]:
                    acc[i] += c * x
            out.append(tuple((i, y) for i, x in enumerate(acc) if x and (y := norm(x))))
        return Matrix._trusted(self.field, self.nrows, tuple(out))

    def matvec(self, v: Sequence) -> tuple:
        out = [0] * self.nrows
        for c, col in zip(v, self.columns):
            if c:
                for i, x in col:
                    out[i] += c * x
        return normalized(self.field, out)

    def is_zero(self) -> bool:
        return not any(self.columns)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and other.field == self.field
            and other.nrows == self.nrows
            and other.columns == self.columns
        )

    def __hash__(self):
        return hash((self.field, self.nrows, self.columns))

    def __repr__(self):
        return f"Matrix({self.field}, {self.nrows}x{self.ncols})"


def _reduce(f: Field, rows: Sequence, pivots: Sequence[int], vec: Sequence) -> list:
    """vec minus its components along mutually reduced echelon rows.  Each
    row is zero at every other row's pivot, so the component along a row
    is vec's own entry at its pivot; the sum accumulates unreduced and is
    normalised once, also when no row touches vec."""
    v = vec
    for row, p in zip(rows, pivots):
        c = vec[p]
        if c:
            v = [a - c * b for a, b in zip(v, row)]
    zero = f.zero
    if not any(v):
        # most vectors that closures and invariance checks reduce end at zero
        return [zero] * len(v)
    norm = f.from_int
    return [norm(x) if x else zero for x in v]


class EchelonAccumulator:
    """Mutable reduced row echelon accumulator for incremental span growth."""

    __slots__ = ("field", "ambient_dim", "rows", "pivots")

    def __init__(self, field: Field, ambient_dim: int):
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows: list[list] = []
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Sequence) -> list:
        return _reduce(self.field, self.rows, self.pivots, vec)

    def add(self, vec: Sequence) -> tuple | None:
        """Insert a vector; return its canonical new basis row, or None if already spanned."""
        if len(vec) != self.ambient_dim:
            raise ValueError("vector length does not match the ambient dimension")
        f = self.field
        v = self.reduce(vec)
        first = next(filter(None, v), None)
        if first is None:
            return None
        lead = v.index(first)  # every entry before the first nonzero one is zero
        norm = f.from_int
        if first != f.one:
            inv = f.inv(first)
            v = [norm(inv * x) for x in v]
        for i, row in enumerate(self.rows):
            c = row[lead]
            if c:
                self.rows[i] = [norm(a - c * b) for a, b in zip(row, v)]
        at = bisect_left(self.pivots, lead)
        self.rows.insert(at, v)
        self.pivots.insert(at, lead)
        return tuple(v)

    def to_subspace(self) -> "SubspaceBasis":
        return SubspaceBasis._trusted(
            self.field, self.ambient_dim, tuple(tuple(r) for r in self.rows), tuple(self.pivots)
        )


class SubspaceBasis:
    """Canonical (reduced row echelon) basis of a subspace of F^d."""

    __slots__ = ("field", "ambient_dim", "rows", "pivots")

    def __init__(self, field: Field, ambient_dim: int, vectors: Iterable[Sequence] = ()):
        acc = EchelonAccumulator(field, ambient_dim)
        for v in vectors:
            acc.add(v)
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows = tuple(tuple(r) for r in acc.rows)
        self.pivots = tuple(acc.pivots)

    @classmethod
    def _trusted(cls, field, ambient_dim, rows, pivots) -> "SubspaceBasis":
        # rows must already be in reduced echelon form; freezing here keeps
        # equality and hashing independent of the caller's container types
        obj = object.__new__(cls)
        obj.field = field
        obj.ambient_dim = ambient_dim
        obj.rows = tuple(tuple(r) for r in rows)
        obj.pivots = tuple(pivots)
        return obj

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> "SubspaceBasis":
        return cls._trusted(field, ambient_dim, (), ())

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> "SubspaceBasis":
        rows = tuple(unit_vector(field, ambient_dim, i) for i in range(ambient_dim))
        return cls._trusted(field, ambient_dim, rows, tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def is_full(self) -> bool:
        return len(self.rows) == self.ambient_dim

    def reduce(self, vec: Sequence) -> tuple:
        return tuple(_reduce(self.field, self.rows, self.pivots, vec))

    def contains(self, vec: Sequence) -> bool:
        return is_zero_vector(_reduce(self.field, self.rows, self.pivots, vec))

    def coordinates_of(self, vec: Sequence) -> tuple | None:
        """Coefficients of `vec` in this basis, or None if it lies outside."""
        if not self.contains(vec):
            return None
        return tuple(vec[p] for p in self.pivots)

    def intersect(self, other: "SubspaceBasis") -> "SubspaceBasis":
        """Intersection by Zassenhaus: echelonize the rows (u, u) and (w, 0)
        of width 2d; the rows whose pivot lies in the second half are
        (0, x), and their x are the canonical basis of U ∩ W."""
        self._check_compatible(other)
        f, d = self.field, self.ambient_dim
        acc = EchelonAccumulator(f, 2 * d)
        zeros = (f.zero,) * d
        for u in self.rows:
            acc.add(u + u)
        for w in other.rows:
            acc.add(w + zeros)
        k = bisect_left(acc.pivots, d)  # pivots increase, so those rows come last
        rows, pivots = acc.rows[k:], acc.pivots[k:]
        return SubspaceBasis._trusted(f, d, [r[d:] for r in rows], [p - d for p in pivots])

    def _check_compatible(self, other: "SubspaceBasis") -> None:
        if self.field != other.field or self.ambient_dim != other.ambient_dim:
            raise ValueError("subspaces live in different ambient spaces")

    def __eq__(self, other):
        return (
            isinstance(other, SubspaceBasis)
            and other.field == self.field
            and other.ambient_dim == self.ambient_dim
            and other.rows == self.rows
        )

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.rows))

    def __repr__(self):
        return f"SubspaceBasis(dim={self.dim}, ambient={self.ambient_dim}, {self.field})"


def span(field: Field, ambient_dim: int, vectors: Iterable[Sequence]) -> SubspaceBasis:
    return SubspaceBasis(field, ambient_dim, vectors)


def kernel(field: Field, ncols: int, rows: Iterable[Sequence]) -> SubspaceBasis:
    """Canonical basis of the right kernel {v : M v = 0} of the matrix M
    with these rows, each of length ncols."""
    acc = EchelonAccumulator(field, ncols)
    for row in rows:
        acc.add(row)
    rows, pivots = acc.rows, acc.pivots
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [field.zero] * ncols
        v[free] = field.one
        for row, p in zip(rows, pivots):
            if row[free]:
                v[p] = field.from_int(-row[free])
        basis.append(v)
    return SubspaceBasis(field, ncols, basis)


# Determinants are expanded over all permutations; beyond this arity the
# factorial blowup is no longer desk scale.
_MAX_DET_ARITY = 6


def check_det_arity(n: int) -> None:
    if n > _MAX_DET_ARITY:
        raise ValueError(f"determinant expansion is limited to arity {_MAX_DET_ARITY}")


@functools.cache
def _signed_permutations(n: int) -> tuple[tuple[tuple[int, ...], bool], ...]:
    """Every permutation of range(n) with whether it is even."""
    check_det_arity(n)
    return tuple(
        (perm, sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)) % 2 == 0)
        for perm in itertools.permutations(range(n))
    )


def sparse_add(acc: dict, term) -> dict:
    """acc += term in place, over (key, coefficient) pairs; zero sums stay."""
    for m, c in term:
        acc[m] = acc.get(m, 0) + c
    return acc


def sparse_neg(term) -> list:
    return [(m, -c) for m, c in term]


def det_expand(grid: Sequence[Sequence], zero, add, neg, mul, is_zero):
    """Determinant of a square grid over a commutative ring given by its
    operations: the sum over permutations of signed products of
    grid[r][perm[r]], taken row by row.  A term is dropped at its first zero
    factor or zero partial product; each is tested once."""
    acc = zero
    n = len(grid)
    for perm, even in _signed_permutations(n):
        term = grid[0][perm[0]]
        if is_zero(term):
            continue
        for r in range(1, n):
            factor = grid[r][perm[r]]
            if is_zero(factor):
                break
            term = mul(term, factor)
            if is_zero(term):
                break
        else:
            acc = add(acc, term if even else neg(term))
    return acc
