"""Structure-constant tensors, algebra containers, and identity checkers.

An n-ary alternating bracket is stored only on strictly increasing index
tuples; evaluation reintroduces permutation signs.  A commutative product is
stored only on pairs (i, j) with i <= j.  Each stored value is sparse at
rest: its nonzero (index, coefficient) pairs, as in a Matrix column, which
the loader, the constructions and the checkers read and write directly.
Dense dim-length vectors appear only at the API edge.  Checkers cover every
basis tuple (complete by multilinearity) and report the first failing
instance in lexicographic tuple order, with both sides as a replayable
witness.  They evaluate each distinct instance once: an instance that
commutativity makes a mirror of an earlier one is skipped, a binary Jacobi
instance is summed only on its sorted triple, and the instances that share
their leading indices are summed together in one pass over the sparse
columns.  The sums are plain ints in every field: residues over F_p, and
over Q the numerators of tables scaled once per check by the lcm of their
denominators.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from fractions import Fraction

from .fields import Field
from .guards import DEFAULT_MAX_INSTANCES, check_instances
from .linalg import unit_vector

# Names the CLI parser offers before it loads the modules that use them:
# the identities of poly.verify_identity_truncated and the statement probes
# of structure.probe_lemma.
IDENTITIES = ("jacobi", "leibniz", "shift")
PROBE_IDS = ("L1", "L2", "L3", "L5", "L6_0", "L6", "L7", "L8")


# Monomial conventions shared by poly's polynomials and the truncated
# polynomial algebras of constructions: graded lexicographic order (constant
# first; within a degree, earlier variables carry higher exponents first),
# the default variable names, and a monomial's text.
def grlex_key(e: tuple[int, ...]) -> tuple:
    return (sum(e), tuple(-c for c in e))


def default_var_names(k: int) -> tuple[str, ...]:
    if k <= 3:
        return ("x", "y", "z")[:k]
    return tuple(f"x{i + 1}" for i in range(k))


def monomial_text(e: tuple[int, ...], names: Sequence[str]) -> str:
    """The monomial x^e as '*'-joined factors, v or v^a, and "1" for the
    constant."""
    parts = [v if a == 1 else f"{v}^{a}" for v, a in zip(names, e) if a]
    return "*".join(parts) if parts else "1"


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


class _Tensor:
    """Storage shared by the structure-constant tensors.

    `entries` maps each stored key, a tuple of `arity` basis indices, to
    the nonzero (index, coefficient) pairs of its value: a tuple sorted by
    index and normalised through the field once, the format of a Matrix
    column.  Keys whose value vanishes in the field are not stored.  The
    constructor takes dim-length vectors and `from_entries` takes pairs;
    both go through `_fill`.  Every tensor the library makes is built
    with `from_entries`; the constructor (with `table` and `component`)
    serves callers outside it, and the empty bracket of `generate zero`.
    Dense vectors are built only at the API edge: `structure` reads
    `entries`, and `entry` and `eval` where it needs a dense value.

    A tensor is immutable after construction, as a Poly is, so the
    operators that `structure` builds from its `entries` on first use are
    kept in `_ops` and shared by every later call: one shape for both
    tensors, a tuple of (z, Matrix) pairs, the adjoints ad_z of a bracket
    or the multiplications ((i,), L_i) of a product.
    """

    __slots__ = ("dim", "field", "entries", "_ops")

    def __init__(self, dim: int, field: Field, table: dict | None = None):
        if dim < 0:
            raise ValueError("need dim >= 0")
        self.dim, self.field, self._ops = dim, field, None
        self._fill(_dense_items(table, dim))

    @classmethod
    def from_entries(cls, *args):
        """cls(*shape) with the (index, coefficient) pairs entries[key], in
        any order, as each key's value: from_entries(dim, arity, field,
        entries) for a bracket, from_entries(dim, field, entries) for a
        product.  Checked and normalised as the constructor's vectors are."""
        *shape, entries = args
        t = cls(*shape)
        t._fill(entries.items())
        return t

    def _fill(self, items) -> None:
        """Store (key, pairs) items: keys checked and made canonical by
        `_key`, pairs in any order, zeros included, indices in range and
        distinct."""
        dim, norm = self.dim, self.field.from_int
        entries: dict = {}
        for key, pairs in items:
            key = self._key(key)
            pairs = sorted(pairs)
            index = [m for m, _ in pairs]
            if len(set(index)) < len(index) or index and not 0 <= index[0] <= index[-1] < dim:
                raise ValueError(f"value for {key} repeats an index or leaves range({dim})")
            value = tuple([(m, y) for m, c in pairs if (y := norm(c))])
            if entries.setdefault(key, value) != value:
                raise ValueError(f"conflicting entries for key {key}")
        self.entries = {key: value for key, value in entries.items() if value}

    def _key(self, key) -> tuple:
        try:
            key = tuple(key)
        except TypeError:
            raise ValueError(f"key {key!r} is not a tuple of basis indices") from None
        if len(key) != self.arity:
            raise ValueError(f"key {key} does not have arity {self.arity}")
        if any(not 0 <= i < self.dim for i in key):
            raise ValueError(f"key {key} out of range for dimension {self.dim}")
        return key

    def _vector(self, pairs) -> tuple:
        """The dim-length vector with these (index, unreduced sum) pairs,
        each normalised once."""
        norm, out = self.field.from_int, [self.field.zero] * self.dim
        for m, s in pairs:
            out[m] = norm(s)
        return tuple(out)

    def _support(self, a: Sequence, pos: int) -> list:
        """The nonzero (index, coefficient) pairs of argument `pos`."""
        if len(a) != self.dim:
            raise ValueError(f"argument {pos} has length {len(a)}, expected {self.dim}")
        return [(i, c) for i, c in enumerate(a) if c]

    @property
    def table(self) -> dict:
        """A dense copy of `entries`: each stored key with its value as a
        dim-length vector."""
        return {key: self._vector(value) for key, value in self.entries.items()}

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        return type(other) is type(self) and all(
            getattr(other, name) == getattr(self, name)
            for name in ("dim", "arity", "field", "entries")
        )


def _dense_items(table: dict | None, dim: int):
    """The (key, pairs) items of a table of dim-length vectors."""
    for key, value in (table or {}).items():
        value = tuple(value)
        if len(value) != dim:
            raise ValueError(f"value for {key} has length {len(value)}, expected {dim}")
        yield key, [(m, c) for m, c in enumerate(value) if c]


class SkewBracketTensor(_Tensor):
    """Structure constants of an alternating n-linear bracket on F^d.

    Values are stored on strictly increasing n-tuples of basis indices;
    omitted tuples are zero.  For n > d there is no such tuple, and the
    bracket is identically zero.
    """

    __slots__ = ("arity",)

    def __init__(self, dim: int, arity: int, field: Field, table: dict | None = None):
        if dim < 0 or arity < 1:
            raise ValueError("need dim >= 0 and arity >= 1")
        self.arity = arity
        super().__init__(dim, field, table)

    def _key(self, key) -> tuple:
        key = super()._key(key)
        if any(a >= b for a, b in zip(key, key[1:])):
            raise ValueError(f"key {key} is not strictly increasing")
        return key

    def entry(self, key: Sequence[int]) -> tuple:
        """Value on a strictly increasing tuple."""
        return self._vector(self.entries.get(tuple(key), ()))

    def component(self, raw: Sequence[int]) -> tuple:
        """Signed value on an arbitrary basis-index tuple."""
        canon, sign = canonicalize_index(raw, self.dim)
        value = self.entries.get(canon, ())  # canon is None when an index repeats
        return self._vector([(m, -c) for m, c in value] if sign < 0 else value)

    def eval(self, args: Sequence[Sequence]) -> tuple:
        """Multilinear evaluation on coefficient vectors."""
        if len(args) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(args)}")
        d, entries = self.dim, self.entries
        acc: dict = {}
        for combo in itertools.product(*(self._support(a, s) for s, a in enumerate(args))):
            canon, sign = canonicalize_index([i for i, _ in combo], d)
            value = entries.get(canon)  # None also when an index repeats
            if value is None:
                continue
            coeff = sign
            for _, c in combo:
                coeff *= c
            for m, t in value:
                acc[m] = acc.get(m, 0) + coeff * t
        return self._vector(acc.items())

    def __repr__(self):
        return f"SkewBracketTensor(dim={self.dim}, arity={self.arity}, {self.field})"


class SymProductTensor(_Tensor):
    """Structure constants of a commutative bilinear product on F^d, on
    index pairs (i, j) with i <= j; a pair given as (j, i) is stored as
    (i, j).  Entries are normalised through the field as in
    SkewBracketTensor."""

    __slots__ = ()
    arity = 2

    def _key(self, key) -> tuple:
        i, j = super()._key(key)
        return (i, j) if i <= j else (j, i)

    def entry(self, i: int, j: int) -> tuple:
        return self._vector(self.entries.get((i, j) if i <= j else (j, i), ()))

    def eval(self, a: Sequence, b: Sequence) -> tuple:
        sup_a, sup_b, entries = self._support(a, 0), self._support(b, 1), self.entries
        acc: dict = {}
        for i, ca in sup_a:
            for j, cb in sup_b:
                coeff = ca * cb
                for m, t in entries.get((i, j) if i <= j else (j, i), ()):
                    acc[m] = acc.get(m, 0) + coeff * t
        return self._vector(acc.items())

    def __repr__(self):
        return f"SymProductTensor(dim={self.dim}, {self.field})"


def unit_failure(product: SymProductTensor, unit: Sequence) -> dict | None:
    """The first basis index i with unit * e_i != e_i, with both sides;
    None when `unit` is a unit for the product."""
    for i in range(product.dim):
        e = unit_vector(product.field, product.dim, i)
        got = product.eval(unit, e)
        if got != e:
            return {"index": i, "lhs": got, "rhs": e}
    return None


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
        return f"{type(self).__name__}(dim={self.dim}, arity={self.arity}, {self.field})"


class NLiePoissonAlgebra(NLieAlgebra):
    """A commutative unital product paired with an alternating bracket: an
    NLieAlgebra that also holds the product and its unit.

    The unit axiom is checked at construction; the Jacobi, Leibniz and
    derived compatibility identities are properties to be checked, not
    invariants of the container.
    """

    __slots__ = ("product", "unit")

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
        failure = unit_failure(product, unit)
        if failure is not None:
            raise ValueError(
                f"unit vector is not a two-sided identity (fails on basis {failure['index']})"
            )
        self.product = product
        self.unit = unit
        super().__init__(bracket, basis_names)


class Record:
    """Base of the immutable result records.  A subclass names its fields
    in `__slots__`, in declared order, and the defaults of its optional
    fields in a class-level `_defaults` dict; a record takes its fields by
    position or keyword.  Equality, hashing, repr and the CLI's rendering
    walk the fields in order.  Assigning to a field raises AttributeError."""

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        names, set_field = self.__slots__, object.__setattr__  # past Record.__setattr__
        if kwargs or len(args) != len(names):  # library calls pass every field by position
            args = self._fill(args, kwargs)
        for name, value in zip(names, args):
            set_field(self, name, value)

    def _fill(self, args: tuple, kwargs: dict) -> list:
        """Every field's value from a call with keywords or defaults; a
        malformed call raises TypeError naming the record."""
        names = self.__slots__
        given = dict(zip(names, args))
        values = {**self._defaults, **given, **kwargs}
        if len(args) > len(names) or given.keys() & kwargs.keys() or values.keys() != set(names):
            raise TypeError(f"{type(self).__qualname__}() takes each of the fields "
                            f"{', '.join(names)} once, by position or keyword")
        return [values[name] for name in names]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a record")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which takes every field in order
        return type(self), self._values()


class Witness(Record):
    """First failing instance of a checked identity, with both sides."""

    __slots__ = ("kind", "data")

    def __init__(self, kind: str, data: dict | None = None):
        super().__init__(kind, {} if data is None else data)  # a fresh dict per witness


class Verdict(Record):
    """Whether an identity holds, its first failing Witness or None, and the instance count."""

    __slots__ = ("ok", "witness", "instances")
    _defaults = {"witness": None, "instances": 0}


# ---------------------------------------------------------------------------
# identity checkers
#
# One sparse engine serves all four checkers.  Every instance of an identity
# is a sum of contractions of sparse vectors against sparse columns read
# off the tensors' `entries`: adjoint columns [e_k, z] of the bracket (Filippov:
# Jacobi says each ad_z is a derivation of the bracket, Leibniz that it is
# one of the product) and multiplication columns e_i * e_k.  An instance key
# is an outer key (x for Jacobi, (i, j) for Leibniz and associativity,
# (a, b) for shift), walked in lexicographic order, and an inner key.  For
# each outer key, `_first_failure` adds up lhs - rhs of every inner key at
# once, from column indexes built once per call; inner keys that no term
# reaches hold trivially.  The least inner key whose sum is nonzero is the
# witness, whose two sides it sums again from that instance's terms alone.
#
# Sums are plain ints.  Over F_p they accumulate residues unreduced and are
# reduced once, so the check is exact for every p.  Over Q each check scales
# the bracket table by the lcm L_B of its denominators and the product table
# by theirs, L_P (`_integral`).  Every identity is bihomogeneous: each term
# multiplies two entries, so all sums of one check share one scale, L_B^2
# for Jacobi, L_B * L_P for Leibniz and shift, L_P^2 for associativity.  A
# sum is then zero exactly when its int is, and a witness entry is
# Fraction(sum, scale), the Fraction the unscaled sum would be.
#
# The product is commutative by storage, so Leibniz (i, j, y) has the sides
# of (j, i, y), shift (a, b, c, u) those of (b, a, c, u), and associativity
# (k, j, i) those of (i, j, k) swapped.  Such a pair fails together, and
# the one with i <= j, a <= b or i <= k comes first in lexicographic order,
# so only those are evaluated.  Likewise, for a binary bracket lhs - rhs of
# Jacobi instance (x1, x2, y) is the Jacobiator, alternating in all three
# slots, and the first instance of a triple in lexicographic order is its
# sorted one, so only the instances with y > x2 are summed.

_NO_COLUMNS: dict = {}


def _integral(entries: dict, field: Field) -> tuple[dict, int]:
    """(entries with int coefficients, scale): over Q every coefficient
    times the lcm of the entries' denominators; over F_p the residues as
    they are, at 1."""
    if field.p is not None:
        return entries, 1
    scale = math.lcm(*{c.denominator for value in entries.values() for _, c in value})
    return {
        key: tuple([(m, c.numerator * (scale // c.denominator)) for m, c in value])
        for key, value in entries.items()
    }, scale


def _ad_columns(dim: int, entries: dict) -> tuple[dict, list[dict], list[dict]]:
    """ad[z][k] = bracket(e_k, e_z1, .., e_z(n-1)) for sorted z, its
    transpose by_col[k][z], and hits[k][m] = the (z, c) with c != 0 the
    e_m-coefficient of ad[z][k], from a bracket's `entries`; only nonzero
    columns are stored.  A column from an odd slot holds negated values,
    not normalised through the field."""
    ad: dict = {}
    by_col: list[dict] = [{} for _ in range(dim)]
    hits: list[dict] = [{} for _ in range(dim)]
    for key, col in entries.items():
        neg = [(m, -c) for m, c in col]
        for s, k in enumerate(key):
            z = key[:s] + key[s + 1 :]
            ad.setdefault(z, {})[k] = by_col[k][z] = cz = neg if s % 2 else col
            for m, c in cz:
                hits[k].setdefault(m, []).append((z, c))
    return ad, by_col, hits


def _mult_columns(dim: int, entries: dict) -> list[dict[int, tuple]]:
    """mult[i][k] = e_i * e_k from a product's `entries`; only nonzero
    columns are stored."""
    mult: list[dict] = [{} for _ in range(dim)]
    for (i, j), value in entries.items():
        mult[i][j] = mult[j][i] = value
    return mult


def _first_failure(f: Field, scale: int, d: int, sides, *args) -> tuple | None:
    """(inner key, lhs, rhs) of the first failing instance of one outer key.

    sides(*args) gives the lhs and the rhs terms (inner key, column, c), each
    adding c * column to that side of the instance; over Q the sums are
    `scale` times the field values.  The least failing inner key wins; None
    when every instance holds.
    """
    acc: dict = {}
    for sign, terms in zip((1, -1), sides(*args)):
        for key, col, c in terms:
            row = acc.get(key)
            if row is None:
                row = acc[key] = {}
            c *= sign
            for m, a in col:
                row[m] = row.get(m, 0) + c * a
    p = f.p
    if p is None:
        failing = [key for key, row in acc.items() if any(row.values())]
    else:
        reduce = p.__rmod__  # s -> s % p
        failing = [key for key, row in acc.items() if any(map(reduce, row.values()))]
    if not failing:
        return None
    key = min(failing)
    out = [key]
    for terms in sides(*args):  # each side of this instance alone
        vec: dict = {}
        for _, col, c in (term for term in terms if term[0] == key):
            for m, a in col:
                vec[m] = vec.get(m, 0) + c * a
        sums = [vec.get(m, 0) for m in range(d)]
        out.append(tuple(Fraction(s, scale) for s in sums) if p is None
                   else tuple(s % p for s in sums))
    return tuple(out)


def check_generalized_jacobi(t: SkewBracketTensor, max_instances: int | None = None) -> Verdict:
    """Check bracket(bracket(x1..xn), y2..yn) == sum_i bracket(x1,..,bracket(xi,y2..yn),..,xn)
    over all strictly increasing basis tuples (complete by multilinearity)."""
    d, n, f = t.dim, t.arity, t.field
    total = math.comb(d, n) * math.comb(d, n - 1)
    check_instances(total, max_instances, DEFAULT_MAX_INSTANCES, "generalized Jacobi check")
    entries, scale = _integral(t.entries, f)
    ad, by_col, hits = _ad_columns(d, entries)

    def sides(x, vx, faces, low):
        # ad_y(bracket(x)), and sum_s (-1)^s ad_{x without x_s}(ad_y(e_{x_s})), for y >= low
        lhs = ((y, col, c) for k, c in vx for y, col in by_col[k].items() if y >= low)
        rhs = ((y, col, -c if s % 2 else c) for s, face in enumerate(faces)
               for k, col in face.items() for y, c in hits[x[s]].get(k, ()) if y >= low)
        return lhs, rhs

    for x in itertools.combinations(range(d), n):
        faces = [ad.get(x[:s] + x[s + 1 :], _NO_COLUMNS) for s in range(n)]
        low = (x[1] + 1,) if n == 2 else ()  # binary: sorted triples only
        if hit := _first_failure(f, scale * scale, d, sides, x, entries.get(x, ()), faces, low):
            data = dict(zip(("x", "y", "lhs", "rhs"), (x, *hit)))
            return Verdict(False, Witness("generalized_jacobi", data), total)
    return Verdict(True, None, total)


def check_assoc_comm_unital(
    product: SymProductTensor, unit: Sequence | None = None, max_instances: int | None = None
) -> Verdict:
    """Check associativity on all basis triples, and the unit axiom when a
    unit is supplied.  Commutativity is structural in the storage."""
    d, f = product.dim, product.field
    total = d**3
    check_instances(total, max_instances, DEFAULT_MAX_INSTANCES, "associativity check")
    if unit is not None and (failure := unit_failure(product, unit)) is not None:
        return Verdict(False, Witness("unit", failure), total)
    entries, scale = _integral(product.entries, f)
    mult = _mult_columns(d, entries)

    def sides(i, j):
        # (e_i e_j) e_k, and e_i (e_j e_k), for k >= i
        lhs = ((k, col, c) for m, c in mult[i].get(j, ()) for k, col in mult[m].items() if k >= i)
        rhs = ((k, mult[i][m], c)
               for k, pjk in mult[j].items() if k >= i for m, c in pjk if m in mult[i])
        return lhs, rhs

    for i, j in itertools.product(range(d), repeat=2):
        if hit := _first_failure(f, scale * scale, d, sides, i, j):
            data = {"triple": (i, j, hit[0]), "lhs": hit[1], "rhs": hit[2]}
            return Verdict(False, Witness("associativity", data), total)
    return Verdict(True, None, total)


def check_leibniz(alg: NLiePoissonAlgebra, max_instances: int | None = None) -> Verdict:
    """Check bracket(a*b, u2..un) == a*bracket(b, u..) + bracket(a, u..)*b on basis tuples."""
    return _leibniz(alg.product, alg.bracket, max_instances)


def _leibniz(prod: SymProductTensor, t: SkewBracketTensor, max_instances: int | None) -> Verdict:
    """check_leibniz on the tensors themselves; for arity 1 the bracket is
    a linear map, and this checks that it is a derivation of the product."""
    d, n, f = t.dim, t.arity, t.field
    total = d * d * math.comb(d, n - 1)
    check_instances(total, max_instances, DEFAULT_MAX_INSTANCES, "Leibniz check")
    bracket, lb = _integral(t.entries, f)
    product, lp = _integral(prod.entries, f)
    _, by_col, hits = _ad_columns(d, bracket)
    mult = _mult_columns(d, product)

    def sides(i, j):
        # ad_y(e_i e_j), and e_i ad_y(e_j) + e_j ad_y(e_i)
        lhs = ((y, col, c) for k, c in mult[i].get(j, ()) for y, col in by_col[k].items())
        rhs = ((y, col, c) for a, b in ((i, j), (j, i))
               for k, col in mult[a].items() for y, c in hits[b].get(k, ()))
        return lhs, rhs

    for i, j in itertools.combinations_with_replacement(range(d), 2):
        if hit := _first_failure(f, lb * lp, d, sides, i, j):
            data = dict(zip(("i", "j", "y", "lhs", "rhs"), (i, j, *hit)))
            return Verdict(False, Witness("leibniz", data), total)
    return Verdict(True, None, total)


def check_poisson_identity(alg: NLiePoissonAlgebra, max_instances: int | None = None) -> Verdict:
    """Check the derived compatibility bracket(a*b, c, u3..un) ==
    bracket(a, b*c, u..) + bracket(b, a*c, u..) on basis tuples.

    It follows from Leibniz, so a failure here pins an incompatible pair even
    when the Leibniz check is skipped.
    """
    t = alg.bracket
    d, n, f = t.dim, t.arity, t.field
    if n < 2:
        raise ValueError("the compatibility identity needs arity >= 2")
    total = d * d * d * math.comb(d, n - 2)
    check_instances(total, max_instances, DEFAULT_MAX_INSTANCES, "compatibility check")
    bracket, lb = _integral(t.entries, f)
    product, lp = _integral(alg.product.entries, f)
    mult = _mult_columns(d, product)
    # by_m[m][k] = the (u, column, sign) with bracket(e_m, e_k, e_u..) = sign * column
    by_m: list[dict] = [{} for _ in range(d)]
    for m, cols in enumerate(_ad_columns(d, bracket)[1]):
        for z, col in cols.items():
            for q, k in enumerate(z):
                by_m[m].setdefault(k, []).append((z[:q] + z[q + 1 :], col, -1 if q % 2 else 1))

    def sides(a, b):
        # bracket(e_a e_b, e_c, u), and bracket(e_a, e_b e_c, u) + bracket(e_b, e_a e_c, u)
        lhs = (((c, u), col, s * c0) for m, c0 in mult[a].get(b, ())
               for c, rows in by_m[m].items() for u, col, s in rows)
        rhs = (((c, u), col, -s * c0) for p, q in ((a, b), (b, a))
               for c, pqc in mult[q].items() for m, c0 in pqc
               for u, col, s in by_m[m].get(p, ()))
        return lhs, rhs

    for a, b in itertools.combinations_with_replacement(range(d), 2):
        if hit := _first_failure(f, lb * lp, d, sides, a, b):
            (c, u), lhs, rhs = hit
            data = {"a": a, "b": b, "c": c, "u": u, "lhs": lhs, "rhs": rhs}
            return Verdict(False, Witness("poisson_compatibility", data), total)
    return Verdict(True, None, total)
