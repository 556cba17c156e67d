"""Exact coefficient fields: the rationals and prime fields F_p.

Field values are plain Python numbers: `fractions.Fraction` for Q, ints in
[0, p) for F_p.  Code adds and multiplies them with the operators, sums
unreduced, and normalises each result once through the field's `from_int`.
A field object is only that normaliser, with its zero, one, inverse and
literal parser.  A value is false exactly when it is zero.
"""

from __future__ import annotations

from fractions import Fraction

Scalar = Fraction | int


# Deterministic Miller-Rabin: no composite below _PRIME_BOUND is a strong
# pseudoprime to all of these bases (OEIS A014233; Sorenson and Webster 2015).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    if p >= _PRIME_BOUND:
        raise ValueError(f"primality is decided only below {_PRIME_BOUND}, got {p}")
    if p < 2 or any(p % a == 0 for a in _PRIME_BASES):
        return p in _PRIME_BASES
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field Q, with values represented as `fractions.Fraction`."""

    p = None

    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n: int) -> Fraction:
        # also the identity on a Fraction
        return n if type(n) is Fraction else Fraction(n)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def parse(self, text: str) -> Fraction:
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational literal: {text!r}") from exc

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField:
    """The field F_p for a prime p, with values as ints in [0, p)."""

    def __init__(self, p: int):
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"not a prime: {p!r}")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def from_int(self, n: int) -> int:
        return n % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def parse(self, text: str) -> int:
        try:
            return int(text.strip(), 10) % self.p
        except ValueError as exc:
            raise ValueError(f"not an integer literal: {text!r}") from exc

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"F_{self.p}"


QQ = RationalField()

Field = RationalField | PrimeField
