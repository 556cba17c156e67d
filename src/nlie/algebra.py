"""Structure-constant tensors, algebra containers, and identity checkers.

An n-ary alternating bracket is stored only on strictly increasing index
tuples; evaluation reintroduces permutation signs.  A commutative product is
stored only on pairs (i, j) with i <= j.  Checkers enumerate basis tuples
exhaustively (complete by multilinearity) and report the first failing
instance in lexicographic tuple order, with both sides as a replayable
witness.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field as dc_field

from .fields import Field, PrimeField
from .guards import DEFAULT_MAX_INSTANCES, check_instances
from .linalg import is_zero_vector, unit_vector, vec_add, zero_vector

# Above this instance count, checkers over F_p switch to a vectorized
# integer path (exact: all intermediate values stay far below 2**63).
_FAST_PATH_MIN = 2_000
_FAST_PATH_MAX_P = 10**6


def canonicalize_index(indices: Sequence[int], dim: int) -> tuple[tuple[int, ...] | None, int]:
    """Sort an index tuple, tracking the permutation sign.

    Returns (sorted tuple, +1/-1), or (None, 0) when a repeated index forces
    an alternating value to vanish.  Raises on out-of-range indices.
    """
    for i in indices:
        if not 0 <= i < dim:
            raise ValueError(f"index {i} out of range for dimension {dim}")
    arr = list(indices)
    sign = 1
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j - 1] >= arr[j]:
            if arr[j - 1] == arr[j]:
                return None, 0
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            sign = -sign
            j -= 1
    return tuple(arr), sign


class SkewBracketTensor:
    """Structure constants of an alternating n-linear bracket on F^d.

    `table` maps strictly increasing n-tuples of basis indices to coefficient
    vectors; omitted tuples are zero.  For n > d the table is necessarily
    empty and the bracket is identically zero.
    """

    __slots__ = ("dim", "arity", "field", "table")

    def __init__(self, dim: int, arity: int, field: Field, table: dict | None = None):
        if dim < 0 or arity < 1:
            raise ValueError("need dim >= 0 and arity >= 1")
        self.dim = dim
        self.arity = arity
        self.field = field
        clean: dict[tuple[int, ...], tuple] = {}
        for key, value in (table or {}).items():
            key = tuple(key)
            if len(key) != arity:
                raise ValueError(f"key {key} does not have arity {arity}")
            if any(not 0 <= i < dim for i in key):
                raise ValueError(f"key {key} out of range for dimension {dim}")
            if any(a >= b for a, b in zip(key, key[1:])):
                raise ValueError(f"key {key} is not strictly increasing")
            value = tuple(value)
            if len(value) != dim:
                raise ValueError(f"value for {key} has length {len(value)}, expected {dim}")
            if not is_zero_vector(value):
                clean[key] = value
        self.table = clean

    @classmethod
    def from_terms(
        cls, dim: int, arity: int, field: Field, terms: Iterable[tuple[Sequence[int], Sequence]]
    ) -> "SkewBracketTensor":
        """Accumulate possibly unsorted terms, applying permutation signs."""
        acc: dict[tuple[int, ...], tuple] = {}
        for raw, value in terms:
            canon, sign = canonicalize_index(raw, dim)
            if sign == 0:
                continue
            v = tuple(value)
            if sign < 0:
                v = tuple(field.neg(x) for x in v)
            if canon in acc:
                acc[canon] = vec_add(field, acc[canon], v)
            else:
                acc[canon] = v
        return cls(dim, arity, field, acc)

    def is_zero(self) -> bool:
        return not self.table

    def entry(self, key: Sequence[int]) -> tuple:
        """Value on a strictly increasing tuple."""
        return self.table.get(tuple(key), zero_vector(self.field, self.dim))

    def component(self, raw: Sequence[int]) -> tuple:
        """Signed value on an arbitrary basis-index tuple."""
        canon, sign = canonicalize_index(raw, self.dim)
        if sign == 0 or canon not in self.table:
            return zero_vector(self.field, self.dim)
        value = self.table[canon]
        if sign < 0:
            value = tuple(self.field.neg(x) for x in value)
        return value

    def eval(self, args: Sequence[Sequence]) -> tuple:
        """Multilinear evaluation on coefficient vectors."""
        if len(args) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(args)}")
        f = self.field
        d = self.dim
        out = [f.zero] * d
        supports = []
        for a in args:
            if len(a) != d:
                raise ValueError("argument length does not match the dimension")
            sup = [(i, c) for i, c in enumerate(a) if c != 0]
            if not sup:
                return tuple(out)
            supports.append(sup)
        for combo in itertools.product(*supports):
            canon, sign = canonicalize_index([i for i, _ in combo], d)
            if sign == 0:
                continue
            value = self.table.get(canon)
            if value is None:
                continue
            coeff = f.one
            for _, c in combo:
                coeff = f.mul(coeff, c)
            if sign < 0:
                coeff = f.neg(coeff)
            if coeff == 0:
                continue
            for m, t in enumerate(value):
                if t != 0:
                    out[m] = f.add(out[m], f.mul(coeff, t))
        return tuple(out)

    def sorted_items(self):
        return sorted(self.table.items())

    def __eq__(self, other):
        return (
            isinstance(other, SkewBracketTensor)
            and (other.dim, other.arity, other.field) == (self.dim, self.arity, self.field)
            and other.table == self.table
        )

    def __repr__(self):
        return f"SkewBracketTensor(dim={self.dim}, arity={self.arity}, {self.field})"


class SymProductTensor:
    """Structure constants of a commutative bilinear product on F^d."""

    __slots__ = ("dim", "field", "table")

    def __init__(self, dim: int, field: Field, table: dict | None = None):
        self.dim = dim
        self.field = field
        clean: dict[tuple[int, int], tuple] = {}
        for key, value in (table or {}).items():
            i, j = key
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"product key {key} out of range")
            if i > j:
                i, j = j, i
            value = tuple(value)
            if len(value) != dim:
                raise ValueError(f"product value for {key} has wrong length")
            if (i, j) in clean and clean[(i, j)] != value:
                raise ValueError(f"conflicting entries for product pair {(i, j)}")
            if not is_zero_vector(value):
                clean[(i, j)] = value
        self.table = clean

    def entry(self, i: int, j: int) -> tuple:
        if i > j:
            i, j = j, i
        return self.table.get((i, j), zero_vector(self.field, self.dim))

    def eval(self, a: Sequence, b: Sequence) -> tuple:
        f = self.field
        d = self.dim
        out = [f.zero] * d
        sup_a = [(i, c) for i, c in enumerate(a) if c != 0]
        sup_b = [(j, c) for j, c in enumerate(b) if c != 0]
        for i, ca in sup_a:
            for j, cb in sup_b:
                value = self.table.get((i, j) if i <= j else (j, i))
                if value is None:
                    continue
                coeff = f.mul(ca, cb)
                if coeff == 0:
                    continue
                for m, t in enumerate(value):
                    if t != 0:
                        out[m] = f.add(out[m], f.mul(coeff, t))
        return tuple(out)

    def is_zero(self) -> bool:
        return not self.table

    def sorted_items(self):
        return sorted(self.table.items())

    def __eq__(self, other):
        return (
            isinstance(other, SymProductTensor)
            and (other.dim, other.field) == (self.dim, self.field)
            and other.table == self.table
        )

    def __repr__(self):
        return f"SymProductTensor(dim={self.dim}, {self.field})"


class NLieAlgebra:
    """A finite-dimensional space with an alternating n-ary bracket.

    Holding a tensor here asserts nothing: raw, axiom-violating tables are
    deliberately loadable so checkers and oracles can run against them.
    """

    __slots__ = ("bracket", "basis_names")

    def __init__(self, bracket: SkewBracketTensor, basis_names: Sequence[str] | None = None):
        if basis_names is not None and len(basis_names) != bracket.dim:
            raise ValueError("basis_names length does not match the dimension")
        self.bracket = bracket
        self.basis_names = tuple(basis_names) if basis_names is not None else None

    @property
    def dim(self) -> int:
        return self.bracket.dim

    @property
    def arity(self) -> int:
        return self.bracket.arity

    @property
    def field(self) -> Field:
        return self.bracket.field

    def __repr__(self):
        return f"NLieAlgebra(dim={self.dim}, arity={self.arity}, {self.field})"


class NLiePoissonAlgebra:
    """A commutative unital product paired with an alternating bracket.

    The unit axiom is checked at construction; the Jacobi, Leibniz and
    derived compatibility identities are properties to be checked, not
    invariants of the container.
    """

    __slots__ = ("product", "unit", "bracket", "basis_names")

    def __init__(
        self,
        product: SymProductTensor,
        unit: Sequence,
        bracket: SkewBracketTensor,
        basis_names: Sequence[str] | None = None,
    ):
        if product.dim != bracket.dim or product.field != bracket.field:
            raise ValueError("product and bracket live on different spaces")
        unit = tuple(unit)
        if len(unit) != product.dim:
            raise ValueError("unit vector has the wrong length")
        for i in range(product.dim):
            e = unit_vector(product.field, product.dim, i)
            if product.eval(unit, e) != e:
                raise ValueError(f"unit vector is not a two-sided identity (fails on basis {i})")
        if basis_names is not None and len(basis_names) != product.dim:
            raise ValueError("basis_names length does not match the dimension")
        self.product = product
        self.unit = unit
        self.bracket = bracket
        self.basis_names = tuple(basis_names) if basis_names is not None else None

    @property
    def dim(self) -> int:
        return self.bracket.dim

    @property
    def arity(self) -> int:
        return self.bracket.arity

    @property
    def field(self) -> Field:
        return self.bracket.field

    def __repr__(self):
        return f"NLiePoissonAlgebra(dim={self.dim}, arity={self.arity}, {self.field})"


@dataclass(frozen=True)
class Witness:
    """First failing instance of a checked identity, with both sides."""

    kind: str
    data: dict = dc_field(default_factory=dict)


@dataclass(frozen=True)
class Verdict:
    ok: bool
    witness: Witness | None = None
    instances: int = 0


def _basis(field: Field, dim: int, i: int) -> tuple:
    return unit_vector(field, dim, i)


def _use_fast_path(field: Field, instances: int) -> bool:
    return (
        isinstance(field, PrimeField)
        and field.p <= _FAST_PATH_MAX_P
        and instances >= _FAST_PATH_MIN
    )


def check_generalized_jacobi(t: SkewBracketTensor, max_instances: int | None = None) -> Verdict:
    """Check bracket(bracket(x1..xn), y2..yn) == sum_i bracket(x1,..,bracket(xi,y2..yn),..,xn)
    over all strictly increasing basis tuples (complete by multilinearity)."""
    d, n, f = t.dim, t.arity, t.field
    xs = list(itertools.combinations(range(d), n))
    ys = list(itertools.combinations(range(d), n - 1))
    total = len(xs) * len(ys)
    check_instances(total, max_instances, DEFAULT_MAX_INSTANCES, "generalized Jacobi check")
    if _use_fast_path(f, total):
        from ._fpdense import jacobi_first_failure
        hit = jacobi_first_failure(t, xs, ys)
        if hit is None:
            return Verdict(True, None, total)
        return Verdict(False, _jacobi_witness(t, *hit), total)
    for x in xs:
        for y in ys:
            lhs, rhs = _jacobi_sides(t, x, y)
            if lhs != rhs:
                return Verdict(False, _jacobi_witness(t, x, y), total)
    return Verdict(True, None, total)


def _jacobi_sides(t: SkewBracketTensor, x: tuple[int, ...], y: tuple[int, ...]):
    f, d, n = t.field, t.dim, t.arity
    ybasis = [_basis(f, d, i) for i in y]
    vx = t.entry(x)
    lhs = t.eval([vx, *ybasis]) if not is_zero_vector(vx) else zero_vector(f, d)
    rhs = zero_vector(f, d)
    for s in range(n):
        w = t.component((x[s],) + y)
        if is_zero_vector(w):
            continue
        rest = x[:s] + x[s + 1 :]
        term = t.eval([w, *(_basis(f, d, i) for i in rest)])
        if s % 2 == 1:
            term = tuple(f.neg(c) for c in term)
        rhs = vec_add(f, rhs, term)
    return lhs, rhs


def _jacobi_witness(t, x, y) -> Witness:
    lhs, rhs = _jacobi_sides(t, x, y)
    return Witness("generalized_jacobi", {"x": x, "y": y, "lhs": lhs, "rhs": rhs})


def check_assoc_comm_unital(
    product: SymProductTensor, unit: Sequence | None = None, max_instances: int | None = None
) -> Verdict:
    """Check associativity on all basis triples, and the unit axiom when a
    unit is supplied.  Commutativity is structural in the storage."""
    d, f = product.dim, product.field
    total = d**3
    check_instances(total, max_instances, DEFAULT_MAX_INSTANCES, "associativity check")
    if unit is not None:
        for i in range(d):
            e = _basis(f, d, i)
            got = product.eval(tuple(unit), e)
            if got != e:
                return Verdict(
                    False,
                    Witness("unit", {"index": i, "lhs": got, "rhs": e}),
                    total,
                )
    basis = [_basis(f, d, i) for i in range(d)]
    for i in range(d):
        for j in range(d):
            pij = product.entry(i, j)
            for k in range(d):
                lhs = product.eval(pij, basis[k])
                rhs = product.eval(basis[i], product.entry(j, k))
                if lhs != rhs:
                    return Verdict(
                        False,
                        Witness("associativity", {"triple": (i, j, k), "lhs": lhs, "rhs": rhs}),
                        total,
                    )
    return Verdict(True, None, total)


def check_leibniz(alg: NLiePoissonAlgebra, max_instances: int | None = None) -> Verdict:
    """Check bracket(a*b, u2..un) == a*bracket(b, u..) + bracket(a, u..)*b on basis tuples."""
    t, product = alg.bracket, alg.product
    d, n, f = t.dim, t.arity, t.field
    ys = list(itertools.combinations(range(d), n - 1))
    total = d * d * len(ys)
    check_instances(total, max_instances, DEFAULT_MAX_INSTANCES, "Leibniz check")
    if _use_fast_path(f, total):
        from ._fpdense import leibniz_first_failure
        hit = leibniz_first_failure(t, product, ys)
        if hit is None:
            return Verdict(True, None, total)
        return Verdict(False, _leibniz_witness(t, product, *hit), total)
    for i in range(d):
        for j in range(d):
            for y in ys:
                lhs, rhs = _leibniz_sides(t, product, i, j, y)
                if lhs != rhs:
                    return Verdict(False, _leibniz_witness(t, product, i, j, y), total)
    return Verdict(True, None, total)


def _leibniz_sides(t, product, i, j, y):
    f, d = t.field, t.dim
    ybasis = [_basis(f, d, k) for k in y]
    pij = product.entry(i, j)
    lhs = t.eval([pij, *ybasis]) if not is_zero_vector(pij) else zero_vector(f, d)
    wj = t.component((j,) + y)
    wi = t.component((i,) + y)
    rhs = vec_add(f, product.eval(_basis(f, d, i), wj), product.eval(wi, _basis(f, d, j)))
    return lhs, rhs


def _leibniz_witness(t, product, i, j, y) -> Witness:
    lhs, rhs = _leibniz_sides(t, product, i, j, y)
    return Witness("leibniz", {"i": i, "j": j, "y": y, "lhs": lhs, "rhs": rhs})


def check_poisson_identity(alg: NLiePoissonAlgebra, max_instances: int | None = None) -> Verdict:
    """Check the derived compatibility bracket(a*b, c, u3..un) ==
    bracket(a, b*c, u..) + bracket(b, a*c, u..) on basis tuples.

    It follows from Leibniz, so a failure here pins an incompatible pair even
    when the Leibniz check is skipped.
    """
    t, product = alg.bracket, alg.product
    d, n, f = t.dim, t.arity, t.field
    if n < 2:
        raise ValueError("the compatibility identity needs arity >= 2")
    us = list(itertools.combinations(range(d), n - 2))
    total = d * d * d * len(us)
    check_instances(total, max_instances, DEFAULT_MAX_INSTANCES, "compatibility check")
    if _use_fast_path(f, total):
        from ._fpdense import shift_first_failure
        hit = shift_first_failure(t, product, us)
        if hit is None:
            return Verdict(True, None, total)
        return Verdict(False, _shift_witness(t, product, *hit), total)
    for a in range(d):
        for b in range(d):
            for c in range(d):
                for u in us:
                    lhs, rhs = _shift_sides(t, product, a, b, c, u)
                    if lhs != rhs:
                        return Verdict(False, _shift_witness(t, product, a, b, c, u), total)
    return Verdict(True, None, total)


def _shift_sides(t, product, a, b, c, u):
    f, d = t.field, t.dim
    ubasis = [_basis(f, d, k) for k in u]
    ea, eb, ec = _basis(f, d, a), _basis(f, d, b), _basis(f, d, c)
    lhs = t.eval([product.entry(a, b), ec, *ubasis])
    rhs = vec_add(
        f,
        t.eval([ea, product.entry(b, c), *ubasis]),
        t.eval([eb, product.entry(a, c), *ubasis]),
    )
    return lhs, rhs


def _shift_witness(t, product, a, b, c, u) -> Witness:
    lhs, rhs = _shift_sides(t, product, a, b, c, u)
    return Witness(
        "poisson_compatibility", {"a": a, "b": b, "c": c, "u": u, "lhs": lhs, "rhs": rhs}
    )
