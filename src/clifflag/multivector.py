"""Exact multivector arithmetic for low-dimensional real Clifford algebras.

An element of R_{p,q} is stored densely as 2^(p+q) rational coordinates,
one per basis blade. Blades are indexed by bitmask over the generators
e_1..e_m (bit i-1 set means e_i is a factor), so index 0 is the scalar
unit, index 0b011 is e12, and so on. Generators anticommute and square to
+1 for i <= p and -1 for i > p; blade products reduce to the canonical
ascending order with the usual transposition-count sign.

A value is stored as the integer tuple (n_0, ..., n_{2^m-1}, d) with
d > 0 and gcd(n_0, ..., d) = 1, coordinate h being n_h / d: the layout of
the private kernel ``clifflag._quaternion``, whose helpers do the sums and
scalings here. The storage is canonical, so equal values have equal
tuples, and a quaternion's tuple is the kernel's quaternion itself.
``.coeffs`` is a computed, read-only view of the coordinates as
``fractions.Fraction``s. All arithmetic is exact. Every value is immutable
and every operation is a pure function; results may be shared freely.

Text syntax, accepted by :meth:`Multivector.parse` and produced by
``str()``: a sum of terms, each an optional rational coefficient followed
by an optional blade token (``e`` plus strictly ascending digits), e.g.
``3/2 + e1 - 2 e23 + 1/5 e123``. Printing orders blades by bitmask;
:meth:`Multivector.format` writes the same layout with another text form
for the coefficients.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from . import _quaternion as qk
from .errors import (
    NotInCone,
    NotInvertible,
    ParseError,
    SignatureMismatch,
    WrongSignature,
)
from .linsolve import solve_exact

# Cap on p+q: an algebra of dimension 2^6 = 64 is the largest accepted.
HARD_DIM_LIMIT = 6

_ONE = Fraction(1)


@dataclass(frozen=True)
class Signature:
    """Signature (p, q) of the algebra R_{p,q}: e_i^2 = +1 for i <= p, else -1."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise ValueError(f"signature parts must be non-negative, got {self}")
        if self.p + self.q > HARD_DIM_LIMIT:
            raise ValueError(
                f"p+q = {self.p + self.q} exceeds the dimension cap {HARD_DIM_LIMIT}"
            )

    @property
    def m(self) -> int:
        return self.p + self.q

    @property
    def dim(self) -> int:
        return 1 << self.m

    def __str__(self) -> str:
        return f"R({self.p},{self.q})"


QUATERNIONS = Signature(0, 2)
R03 = Signature(0, 3)


def _blade_sign(a: int, b: int, p: int) -> int:
    # e_A * e_B = sign * e_(A xor B); sign counts the transpositions needed
    # to interleave the two ascending blades, times -1 per squared
    # anti-euclidean generator in the overlap.
    swaps = 0
    t = a >> 1
    while t:
        swaps += (t & b).bit_count()
        t >>= 1
    sign = -1 if swaps & 1 else 1
    if ((a & b) >> p).bit_count() & 1:
        sign = -sign
    return sign


@lru_cache(maxsize=None)
def _product_signs(sig: Signature) -> tuple[tuple[int, ...], ...]:
    # signs[i][j]: e_i * e_j = signs[i][j] * e_(i^j)
    dim, p = sig.dim, sig.p
    return tuple(tuple(_blade_sign(i, j, p) for j in range(dim)) for i in range(dim))


def _blade_name(mask: int) -> str:
    if mask == 0:
        return "1"
    return "e" + "".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1)


# Clifford conjugation sign by grade mod 4: + - - +
_CONJ_SIGN = (1, -1, -1, 1)

# The one lexer of the package: both literal grammars and the CLI's number
# flags read its tokens. Whitespace is ASCII only; "bad" is any character
# no grammar accepts.
_TOKEN_RE = re.compile(
    r"(?P<sign>[+-])|(?P<number>\d+(?:/\d+)?)|(?P<blade>e\d+)|(?P<x>X)|(?P<power>\^)"
    r"|(?P<star>\*)|(?P<open>\()|(?P<close>\))|(?P<bad>\S)",
    re.ASCII,
)


def _tokens(text: str) -> list[tuple[str, str, int]]:
    """(kind, token, offset) triples of ``text``.

    Every character but ASCII whitespace starts a token, so the search skips
    whitespace one character at a time and lexing stays linear.
    """
    return [(m.lastgroup, m[0], m.start()) for m in _TOKEN_RE.finditer(text)]


def _unexpected(token: tuple[str, str, int], text: str) -> ParseError:
    return ParseError(f"cannot parse {text!r} at {text[token[2]:]!r}")


def _signed_sum(tokens: list, read_term, text: str) -> list[tuple[bool, object]]:
    """Read ``[signs] term (signs term)*``; returns (negated, term) pairs.

    Consecutive signs compose. ``read_term(i)`` reads the term starting at
    ``tokens[i]`` and returns it with the index after it.
    """
    terms = []
    i = 0
    while True:
        negate = False
        while i < len(tokens) and tokens[i][0] == "sign":
            negate ^= tokens[i][1] == "-"
            i += 1
        if i == len(tokens):
            raise ParseError(f"{'dangling sign' if tokens else 'missing term'} in {text!r}")
        term, i = read_term(i)
        terms.append((negate, term))
        if i == len(tokens):
            return terms
        if tokens[i][0] != "sign":
            raise _unexpected(tokens[i], text)


def _read_multivector(tokens: list, sig: Signature, text: str) -> Multivector:
    """The multivector grammar over lexed tokens: a signed sum of ``[number] [blade]``."""
    tokens = [tok for tok in tokens if tok[0] != "star"]  # '*' before a blade is optional

    def read_term(i):
        number = blade = None
        if tokens[i][0] == "number":
            number = tokens[i][1]
            i += 1
        if i < len(tokens) and tokens[i][0] == "blade":
            blade = tokens[i][1]
            i += 1
        if number is None and blade is None:
            raise _unexpected(tokens[i], text)
        mask = prev = 0
        for ch in blade[1:] if blade else "":
            index = int(ch)
            if index == 0 or index > sig.m:
                raise ParseError(f"blade {blade!r} is out of range for {sig}")
            if index <= prev:
                raise ParseError(f"blade {blade!r} must have strictly ascending indices")
            prev = index
            mask |= 1 << (index - 1)
        try:
            return (mask, Fraction(number) if number is not None else _ONE), i
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in {number!r}") from None
        except ValueError:  # int() refuses more than 4300 digits
            raise ParseError(f"coefficient of {len(number)} characters is too long") from None

    coeffs = [0] * sig.dim
    for negate, (mask, value) in _signed_sum(tokens, read_term, text):
        coeffs[mask] += -value if negate else value
    return Multivector(sig, coeffs)


class Multivector:
    """A dense element of R_{p,q} with exact rational coordinates.

    ``_num`` holds the integer numerators of the coordinates over one
    reduced positive denominator, ``(n_0, ..., n_{2^m-1}, d)``.
    """

    __slots__ = ("sig", "_num")

    def __init__(self, sig: Signature, coeffs):
        coeffs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        if len(coeffs) != sig.dim:
            raise ValueError(f"expected {sig.dim} coordinates for {sig}, got {len(coeffs)}")
        # each coordinate is in lowest terms, so the numerators over the
        # lcm d of the denominators already share no factor with d
        d = lcm(*(c.denominator for c in coeffs))
        self.sig = sig
        self._num = (*[c.numerator * (d // c.denominator) for c in coeffs], d)

    @classmethod
    def _wrap(cls, sig: Signature, num: tuple) -> Multivector:
        # internal fast path: num already a reduced integer tuple
        mv = object.__new__(cls)
        mv.sig = sig
        mv._num = num
        return mv

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coordinates in blade order, as ``Fraction``s (computed on each read)."""
        d = self._num[-1]
        return tuple([Fraction(n, d) for n in self._num[:-1]])

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, sig: Signature) -> Multivector:
        return cls._wrap(sig, (0,) * sig.dim + (1,))

    @classmethod
    def one(cls, sig: Signature) -> Multivector:
        return cls.scalar(sig, 1)

    @classmethod
    def scalar(cls, sig: Signature, value) -> Multivector:
        return cls.blade(sig, 0, value)

    @classmethod
    def blade(cls, sig: Signature, mask: int, value=1) -> Multivector:
        if not 0 <= mask < sig.dim:
            raise ValueError(f"blade mask {mask} out of range for {sig}")
        value = Fraction(value)
        num = [0] * sig.dim + [value.denominator]
        num[mask] = value.numerator
        return cls._wrap(sig, tuple(num))

    @classmethod
    def basis(cls, sig: Signature, *indices: int) -> Multivector:
        """Basis blade e_{i1} e_{i2} ... for strictly ascending generator indices."""
        mask = 0
        prev = 0
        for i in indices:
            if not 1 <= i <= sig.m:
                raise ValueError(f"generator index {i} out of range for {sig}")
            if i <= prev:
                raise ValueError("generator indices must be strictly ascending")
            prev = i
            mask |= 1 << (i - 1)
        return cls.blade(sig, mask)

    # ---- text form -----------------------------------------------------

    @classmethod
    def parse(cls, text: str, sig: Signature) -> Multivector:
        """Parse ``3/2 + e1 - 2 e23 + 1/5 e123`` style text."""
        return _read_multivector(_tokens(text), sig, text)

    def __str__(self) -> str:
        return self.format(str)

    def format(self, number) -> str:
        """Text form with each coefficient magnitude written by ``number``.

        ``number`` maps a positive ``Fraction`` to text, so ``x.format(str)``
        is ``str(x)``. Terms follow blade order with their signs between
        them; a blade whose coefficient is exactly 1 is written bare.
        """
        out = ""
        for mask, c in enumerate(self.coeffs):
            if not c:
                continue
            mag = -c if c < 0 else c
            if mask == 0:
                body = number(mag)
            elif mag == 1:
                body = _blade_name(mask)
            else:
                body = f"{number(mag)} {_blade_name(mask)}"
            if out:
                out += " - " if c < 0 else " + "
            elif c < 0:
                out = "-"
            out += body
        return out or "0"

    def __repr__(self) -> str:
        return f"Multivector({self.sig}, '{self}')"

    # ---- ring structure --------------------------------------------------

    def _check_sig(self, other: Multivector):
        if self.sig != other.sig:
            raise SignatureMismatch(f"{self.sig} vs {other.sig}")

    def __eq__(self, other) -> bool:
        if isinstance(other, Multivector):
            return self.sig == other.sig and self._num == other._num
        if isinstance(other, (int, Fraction)):
            return self == Multivector.scalar(self.sig, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.sig, self._num))

    def __bool__(self) -> bool:
        return any(self._num[:-1])

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Multivector.scalar(self.sig, other)
        if isinstance(other, Multivector):
            self._check_sig(other)
            return Multivector._wrap(self.sig, qk.add(self._num, other._num))
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (Multivector, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self) -> Multivector:
        return Multivector._wrap(self.sig, qk.neg(self._num))

    def __mul__(self, other):
        if isinstance(other, Multivector):
            self._check_sig(other)
            a, b = self._num, other._num
            out = [0] * self.sig.dim
            for i, signs in enumerate(_product_signs(self.sig)):
                ai = a[i]
                if not ai:
                    continue
                for j, s in enumerate(signs):
                    bj = b[j]
                    if bj:
                        if s > 0:
                            out[i ^ j] += ai * bj
                        else:
                            out[i ^ j] -= ai * bj
            return Multivector._wrap(self.sig, qk._reduce(*out, a[-1] * b[-1]))
        if isinstance(other, (int, Fraction)):
            return Multivector._wrap(self.sig, qk.scale(self._num, other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of multivector by zero scalar")
            return self * (_ONE / Fraction(other))
        return NotImplemented

    def left_multiplication_matrix(self) -> list[list[Fraction]]:
        """Matrix of the real-linear map y -> self * y in blade coordinates.

        Entry [k][j] is the e_k coordinate of self * e_j, which is
        +-self[k ^ j]; so ``(self * y).coeffs[k]`` is the dot product of
        row k with ``y.coeffs``.
        """
        d = self._num[-1]
        return [[Fraction(v, d) for v in row] for row in self._left_rows()]

    def _left_rows(self) -> list[list[int]]:
        # left_multiplication_matrix() times the denominator d: the same
        # rows on the integer numerators
        a, signs = self._num, _product_signs(self.sig)
        dim = self.sig.dim
        return [
            [a[k ^ j] if signs[k ^ j][j] > 0 else -a[k ^ j] for j in range(dim)]
            for k in range(dim)
        ]

    # ---- accessors -------------------------------------------------------

    def grade(self, k: int) -> Multivector:
        """Projection onto the grade-k part."""
        a = self._num
        kept = [n if mask.bit_count() == k else 0 for mask, n in enumerate(a[:-1])]
        return Multivector._wrap(self.sig, qk._reduce(*kept, a[-1]))

    def scalar_part(self) -> Fraction:
        return Fraction(self._num[0], self._num[-1])

    def is_scalar(self) -> bool:
        return not any(self._num[1:-1])

    def is_paravector(self) -> bool:
        """True when only grade-0 and grade-1 coordinates are present."""
        return all(not n for mask, n in enumerate(self._num[:-1]) if mask.bit_count() > 1)

    def abs_squared(self) -> Fraction:
        """Squared euclidean length of the coordinate vector."""
        a = self._num
        return Fraction(sum(n * n for n in a[:-1]), a[-1] * a[-1])

    # ---- conjugation, trace, norm -----------------------------------------

    def conjugate(self) -> Multivector:
        """Clifford conjugation: grade k picks up the sign pattern + - - + ..."""
        a = self._num
        signed = [n * _CONJ_SIGN[mask.bit_count() % 4] for mask, n in enumerate(a[:-1])]
        return Multivector._wrap(self.sig, (*signed, a[-1]))

    def trace(self) -> Multivector:
        """t(x) = x + conjugate(x); central in R_{0,3}."""
        return self + self.conjugate()

    def norm(self) -> Multivector:
        """n(x) = x * conjugate(x); central in R_{0,3}."""
        return self * self.conjugate()

    # ---- R_{0,3} specials --------------------------------------------------

    def _require_sig(self, sig: Signature, op: str):
        if self.sig != sig:
            raise WrongSignature(f"{op} requires {sig}, got {self.sig}")

    def phi(self) -> Fraction:
        """Pseudoscalar pairing 2(x0*x123 - x1*x23 + x2*x13 - x3*x12) in R_{0,3}."""
        self._require_sig(R03, "phi")
        return (self.psi_plus() - self.psi_minus()) / 2

    def psi_plus(self) -> Fraction:
        """|x+|^2 of the first quaternionic component; equals |x|^2 + phi(x)."""
        self._require_sig(R03, "psi_plus")
        return to_quaternion_pair(self)[0].abs_squared()

    def psi_minus(self) -> Fraction:
        """|x-|^2 of the second quaternionic component; equals |x|^2 - phi(x)."""
        self._require_sig(R03, "psi_minus")
        return to_quaternion_pair(self)[1].abs_squared()

    # ---- inversion ----------------------------------------------------------

    def inverse(self) -> Multivector:
        """Two-sided inverse; raises NotInvertible for zero and zero divisors.

        H inverts on the quaternion kernel, d conj(n) / |n|^2, and R_{0,3}
        inverts both halves of its H (+) H split there; any other signature
        solves the left-multiplication system N y = d e_0 exactly, on the
        integer numerators N over their denominator d.
        """
        sig = self.sig
        if sig in (QUATERNIONS, R03):
            halves = qk.split(self._num)
            if qk.ZERO in halves:
                raise NotInvertible(str(self))
            return _from_halves([qk.inverse(h) for h in halves])
        rhs = [self._num[-1]] + [0] * (sig.dim - 1)
        kind, solution = solve_exact(self._left_rows(), rhs)
        if kind != "unique":
            raise NotInvertible(str(self))
        return Multivector(sig, solution)

    def is_invertible(self) -> bool:
        try:
            self.inverse()
        except NotInvertible:
            return False
        return True

    # ---- quadratic cone and conjugacy classes -------------------------------

    def _class_id(self) -> ConjugacyClassId | None:
        # The one place that forms trace and norm for the cone test; None
        # outside the cone. A real x has 4n = t^2 and the id of real(x).
        sig = self.sig
        if sig in (QUATERNIONS, R03):
            # Closed form: t = 2 c0 + 2 c7 e123 and n = sum c_i^2
            # + 2 (c0 c7 - c1 c6 + c2 c5 - c3 c4) e123, with no e123 part in
            # H. Both are real iff c7 = 0 and c2 c5 = c1 c6 + c3 c4; then
            # 4n > t^2 unless x is real. Tested on the numerators a over the
            # denominator d, so n is one Fraction.
            a = self._num
            if sig == R03 and (a[7] or a[2] * a[5] != a[1] * a[6] + a[3] * a[4]):
                return None
            return ConjugacyClassId(Fraction(2 * a[0], a[-1]), self.abs_squared())
        conj = self.conjugate()
        t = self + conj
        if not t.is_scalar():
            return None
        n = self * conj
        if not n.is_scalar():
            return None
        t, n = t.scalar_part(), n.scalar_part()
        if 4 * n > t * t or self.is_scalar():
            return ConjugacyClassId(t, n)
        return None

    def in_quadratic_cone(self) -> bool:
        """True for reals and for x with real trace and norm and 4 n(x) > t(x)^2."""
        return self._class_id() is not None

    def conjugacy_class(self) -> ConjugacyClassId:
        """Class id (trace, norm) of a cone element; raises NotInCone otherwise.

        Equal ids characterise conjugacy only in R_{0,2} and R_{0,3}; for
        other signatures the id is still well defined on the cone and
        distinct ids certify distinct classes.
        """
        cls_id = self._class_id()
        if cls_id is None:
            raise NotInCone(str(self))
        return cls_id


def same_class(x: Multivector, y: Multivector) -> bool:
    return x.conjugacy_class() == y.conjugacy_class()


@dataclass(frozen=True)
class ConjugacyClassId:
    """A conjugacy class, identified by the shared (trace, norm) pair.

    Real singletons have 4n = t^2 (alpha = t/2); genuine spheres satisfy
    4n > t^2 strictly.
    """

    t: Fraction
    n: Fraction

    def __post_init__(self):
        if 4 * self.n < self.t * self.t:
            raise ValueError(f"no class has 4n < t^2 (t={self.t}, n={self.n})")

    @classmethod
    def real(cls, alpha) -> ConjugacyClassId:
        alpha = Fraction(alpha)
        return cls(2 * alpha, alpha * alpha)

    @classmethod
    def sphere(cls, t, n) -> ConjugacyClassId:
        t, n = Fraction(t), Fraction(n)
        if 4 * n <= t * t:
            raise ValueError(f"sphere class needs 4n > t^2, got t={t}, n={n}")
        return cls(t, n)

    @property
    def is_real(self) -> bool:
        return 4 * self.n == self.t * self.t

    @property
    def alpha(self) -> Fraction:
        if not self.is_real:
            raise ValueError(f"{self} is not a real class")
        return self.t / 2

    def contains(self, x: Multivector) -> bool:
        """Exact membership test for a cone element."""
        return x._class_id() == self

    def __str__(self) -> str:
        if self.is_real:
            return f"Real({self.alpha})"
        return f"Sphere(t={self.t}, n={self.n})"


# ---- the R_{0,3} ~ H (+) H splitting -----------------------------------------

# Quaternion units are embedded as i = e1, j = e2, k = e12 (so i*j = k and
# k^2 = -1); the two components are the images under the central
# idempotents (1 +/- e123)/2, rewritten in that basis by the kernel's
# split and join.


def to_quaternion_pair(x: Multivector) -> tuple[Multivector, Multivector]:
    """Split an R_{0,3} element into its two quaternionic components."""
    x._require_sig(R03, "to_quaternion_pair")
    plus, minus = qk.split(x._num)
    return Multivector._wrap(QUATERNIONS, plus), Multivector._wrap(QUATERNIONS, minus)


def from_quaternion_pair(h_plus: Multivector, h_minus: Multivector) -> Multivector:
    """Inverse of :func:`to_quaternion_pair`."""
    h_plus._require_sig(QUATERNIONS, "from_quaternion_pair")
    h_minus._require_sig(QUATERNIONS, "from_quaternion_pair")
    return _from_halves((h_plus._num, h_minus._num))


def _from_halves(halves) -> Multivector:
    """The element of H (one half) or R_{0,3} (two) whose kernel split is ``halves``."""
    return Multivector._wrap(R03 if len(halves) == 2 else QUATERNIONS, qk.join(halves))
