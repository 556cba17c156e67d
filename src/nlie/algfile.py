"""Strict JSON interchange format for algebras.

A document carries the field, dimension, arity, an optional named basis, an
optional commutative product with its unit (both or neither), and the
bracket's structure constants on strictly increasing index tuples.
Coefficients are strings: "a/b" or "a" over Q, decimal residues over F_p.
Unknown fields, duplicate JSON keys, malformed coefficients, digits outside
ASCII, out-of-range, repeated or unsorted indices, duplicate entries, a
dimension above the enumeration limit and an arity above dimension + 1 are
all rejected with a message naming the offender; omitted entries mean zero.
"""

from __future__ import annotations

import json
import re
from collections.abc import Sequence

from .algebra import (
    NLieAlgebra,
    NLiePoissonAlgebra,
    Record,
    SkewBracketTensor,
    SymProductTensor,
)
from .fields import Field, PrimeField, QQ, RationalField
from .guards import DEFAULT_MAX_ENUM, check_instances

# ASCII digits only: \d and str.isdigit also accept other scripts' digits
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[1-9][0-9]*)?")
_RESIDUE_RE = re.compile(r"[+-]?[0-9]+")

_TOP_KEYS = {"field", "dimension", "arity", "basis_names", "product", "unit", "bracket"}


class AlgebraFileError(ValueError):
    """Raised on any schema or value violation in an algebra document."""


def _fail(msg: str) -> None:
    raise AlgebraFileError(msg)


def _parse_field(descriptor) -> Field:
    if descriptor == "Q":
        return QQ
    if isinstance(descriptor, dict):
        if set(descriptor) != {"Fp"}:
            _fail(f'field object must have exactly the key "Fp", got {sorted(descriptor)}')
        p = descriptor["Fp"]
        if not isinstance(p, int) or isinstance(p, bool):
            _fail(f"field characteristic must be an integer, got {p!r}")
        try:
            return PrimeField(p)
        except ValueError as exc:
            _fail(str(exc))
    _fail(f'field must be "Q" or {{"Fp": p}}, got {descriptor!r}')


def parse_coefficient(field: Field, text, where: str):
    """One coefficient string, validated against the field's format."""
    if not isinstance(text, str):
        _fail(f"{where}: coefficients must be strings, got {text!r}")
    if isinstance(field, RationalField):
        if not _RATIONAL_RE.fullmatch(text):
            _fail(f'{where}: {text!r} is not a rational of the form "a" or "a/b"')
    else:
        if not _RESIDUE_RE.fullmatch(text):
            _fail(f"{where}: {text!r} is not a decimal residue")
    return field.parse(text)


def _parse_value(field: Field, dim: int, value, where: str) -> tuple:
    if not isinstance(value, dict):
        _fail(f"{where}: value must be an object mapping index to coefficient")
    out = [field.zero] * dim
    seen: set[int] = set()
    for key, text in value.items():
        if not isinstance(key, str) or not (key.isascii() and key.isdigit()):
            _fail(f"{where}: value index {key!r} is not a decimal string")
        idx = int(key)
        if not 0 <= idx < dim:
            _fail(f"{where}: value index {idx} out of range for dimension {dim}")
        if idx in seen:
            _fail(f"{where}: value index {key!r} repeats index {idx}")
        seen.add(idx)
        out[idx] = parse_coefficient(field, text, where)
    return tuple(out)


def _require_int(doc: dict, key: str, minimum: int) -> int:
    if key not in doc:
        _fail(f'missing required field "{key}"')
    v = doc[key]
    if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
        _fail(f'"{key}" must be an integer >= {minimum}, got {v!r}')
    return v


def check_shape(dim: int, arity: int) -> None:
    """Refuse a dimension above the enumeration limit, since commands build
    vectors of that length, and an arity above dimension + 1: such a
    bracket is zero, and the checkers' tuple counts overflow on it."""
    check_instances(dim, None, DEFAULT_MAX_ENUM, '"dimension"')
    if arity > dim + 1:
        _fail(f'"arity" {arity} exceeds dimension + 1 = {dim + 1}')


class LoadedAlgebra(Record):
    """A validated algebra document; `basis_names`, `product` and `unit`
    are None when the document omits them."""

    __slots__ = ("field", "dimension", "arity", "basis_names", "bracket", "product", "unit")

    @property
    def has_product(self) -> bool:
        return self.product is not None

    def as_poisson(self) -> NLiePoissonAlgebra:
        if self.product is None:
            raise AlgebraFileError("the document carries no product/unit")
        return NLiePoissonAlgebra(
            self.product, self.unit, self.bracket, basis_names=self.basis_names
        )

    def algebra(self) -> NLieAlgebra | NLiePoissonAlgebra:
        return (self.as_poisson() if self.has_product
                else NLieAlgebra(self.bracket, basis_names=self.basis_names))


def from_document(doc) -> LoadedAlgebra:
    if not isinstance(doc, dict):
        _fail("top-level document must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        _fail(f"unknown top-level fields: {sorted(unknown)}")
    if "field" not in doc:
        _fail('missing required field "field"')
    field = _parse_field(doc["field"])
    dim = _require_int(doc, "dimension", 1)
    arity = _require_int(doc, "arity", 1)
    check_shape(dim, arity)

    names = None
    if "basis_names" in doc:
        raw = doc["basis_names"]
        if (
            not isinstance(raw, list)
            or len(raw) != dim
            or not all(isinstance(s, str) and s for s in raw)
        ):
            _fail(f'"basis_names" must be a list of {dim} nonempty strings')
        if len(set(raw)) != dim:
            _fail('"basis_names" must be distinct')
        names = tuple(raw)

    if ("product" in doc) != ("unit" in doc):
        _fail('"product" and "unit" must be present together or not at all')

    if "bracket" not in doc:
        _fail('missing required field "bracket"')
    raw_bracket = doc["bracket"]
    if not isinstance(raw_bracket, list):
        _fail('"bracket" must be a list of entries')
    table: dict[tuple[int, ...], tuple] = {}
    for pos, entry in enumerate(raw_bracket):
        where = f"bracket entry {pos}"
        if not isinstance(entry, dict) or set(entry) != {"args", "value"}:
            _fail(f'{where}: must be an object with exactly "args" and "value"')
        args = entry["args"]
        if (
            not isinstance(args, list)
            or len(args) != arity
            or not all(isinstance(i, int) and not isinstance(i, bool) for i in args)
        ):
            _fail(f"{where}: args must be a list of {arity} integers")
        if any(not 0 <= i < dim for i in args):
            _fail(f"{where}: args {args} out of range for dimension {dim}")
        if any(a >= b for a, b in zip(args, args[1:])):
            _fail(f"{where}: indices not strictly increasing: {args}")
        key = tuple(args)
        if key in table:
            _fail(f"{where}: duplicate args {args}")
        value = _parse_value(field, dim, entry["value"], where)
        table[key] = value
    bracket = SkewBracketTensor(dim, arity, field, table)

    product = None
    unit = None
    if "product" in doc:
        raw_product = doc["product"]
        if not isinstance(raw_product, list):
            _fail('"product" must be a list of entries')
        ptable: dict[tuple[int, int], tuple] = {}
        for pos, entry in enumerate(raw_product):
            where = f"product entry {pos}"
            if not isinstance(entry, dict) or set(entry) != {"i", "j", "value"}:
                _fail(f'{where}: must be an object with exactly "i", "j", "value"')
            i, j = entry["i"], entry["j"]
            for name, v in (("i", i), ("j", j)):
                if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < dim:
                    _fail(f'{where}: "{name}" must be an integer in [0, {dim}), got {v!r}')
            key = (i, j) if i <= j else (j, i)
            if key in ptable:
                _fail(f"{where}: duplicate pair ({i}, {j})")
            ptable[key] = _parse_value(field, dim, entry["value"], where)
        product = SymProductTensor(dim, field, ptable)

        raw_unit = doc["unit"]
        if not isinstance(raw_unit, list) or len(raw_unit) != dim:
            _fail(f'"unit" must be a list of {dim} coefficient strings')
        unit = tuple(parse_coefficient(field, c, f"unit[{k}]") for k, c in enumerate(raw_unit))

    return LoadedAlgebra(field, dim, arity, names, bracket, product, unit)


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        _fail(f"invalid JSON: duplicate key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


def loads(text: str) -> LoadedAlgebra:
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise AlgebraFileError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise AlgebraFileError("invalid JSON: nested too deeply") from None
    return from_document(doc)


def load_path(path: str) -> LoadedAlgebra:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise AlgebraFileError(f"cannot read {path}: {exc.strerror or exc}") from exc
    return loads(text)


def _field_descriptor(field: Field):
    if isinstance(field, RationalField):
        return "Q"
    return {"Fp": field.p}


def to_document(alg: NLieAlgebra | NLiePoissonAlgebra) -> dict:
    """Canonical document for an algebra; entries appear in sorted index
    order so equal algebras serialize identically."""
    bracket = alg.bracket
    doc: dict = {
        "field": _field_descriptor(bracket.field),
        "dimension": bracket.dim,
        "arity": bracket.arity,
    }
    if alg.basis_names is not None:
        doc["basis_names"] = list(alg.basis_names)
    if isinstance(alg, NLiePoissonAlgebra):
        doc["product"] = [
            {
                "i": key[0],
                "j": key[1],
                "value": {str(k): str(c) for k, c in enumerate(vec) if c},
            }
            for key, vec in alg.product.sorted_items()
        ]
        doc["unit"] = [str(c) for c in alg.unit]
    doc["bracket"] = [
        {
            "args": list(key),
            "value": {str(k): str(c) for k, c in enumerate(vec) if c},
        }
        for key, vec in bracket.sorted_items()
    ]
    return doc


def dumps(alg: NLieAlgebra | NLiePoissonAlgebra) -> str:
    return json.dumps(to_document(alg), indent=2, sort_keys=True) + "\n"
