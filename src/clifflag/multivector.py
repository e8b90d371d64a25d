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
tuples, and a quaternion's tuple is the kernel's quaternion itself. A
geometric product multiplies the numerators through the signature's sign
table and reduces the result by one gcd, not one gcd per ``Fraction``
operation.
``.coeffs`` is a computed, read-only view of the coordinates as
``fractions.Fraction``s. All arithmetic is exact. Every value is immutable
and every operation is a pure function; results may be shared freely.

Text syntax, accepted by :meth:`Multivector.parse` and produced by
``str()``: a sum of terms, each an optional rational coefficient followed
by an optional blade token (``e`` plus strictly ascending digits), e.g.
``3/2 + e1 - 2 e23 + 1/5 e123``. Printing orders blades by bitmask;
:meth:`Multivector.format` writes the same layout with another text form
for the coefficients. A literal's numerator and denominator have at most
``MAX_LITERAL_DIGITS`` digits each, leading zeros counted. That cap is
fixed: it does not follow the interpreter's limit on int-to-text
conversion (``PYTHONINTMAXSTRDIGITS``, ``sys.set_int_max_str_digits``),
whose default is also 4300. Printing has no cap, so a printed value may be
longer than a literal may be, and cannot always be read back.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import attrgetter

from . import _quaternion as qk
from .errors import (
    AlgebraError,
    NotInCone,
    NotInvertible,
    ParseError,
    SignatureMismatch,
    WrongSignature,
)

# Cap on p+q: an algebra of dimension 2^6 = 64 is the largest accepted.
HARD_DIM_LIMIT = 6
# Longest numerator or denominator of a literal, in digits: the default of
# the interpreter's cap on text-to-int conversion, fixed here so that the
# height of a literal does not move with that setting.
MAX_LITERAL_DIGITS = 4300

_ONE = Fraction(1)

_set = object.__setattr__


class _Frozen:
    """Base of every value class: refuses assignment and deletion.

    A subclass sets each of its ``__slots__`` once, in ``__init__`` or a
    private constructor, with ``_set`` (``object.__setattr__``), so a value
    cannot change after it has been hashed or shared. One slot is a derived
    value filled on first use: ``Polynomial._rows``, the rows with which
    the polynomial crosses into the quaternion kernel
    (``clifflag._quaternion.split_rows``), is ``None`` until the first
    root search, census, restriction or evaluation forms them from the
    coefficients, and is set only that once.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _Value(_Frozen):
    """Base of the small immutable records: fields are the subclass's public ``__slots__``.

    A subclass names two or more fields in ``__slots__`` and sets each once
    in ``__init__`` with ``_set``; this base derives the rest from the
    fields, in order. Instances are equal only to instances of the same
    class with equal fields, hash like the tuple of their fields, print as
    ``Name(field=value, ...)``, refuse assignment and deletion, and copy
    and pickle through their constructor. A slot whose name starts with
    ``_`` is private, not a field: ``__init__`` derives it from the fields,
    and it takes no part in equality, hashing, the repr or the constructor
    arguments of a copy or pickle, unless the subclass reads it in its own
    ``__eq__`` and ``__hash__``.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls._values = property(attrgetter(*cls._fields))

    def __eq__(self, other):
        if other is self:  # cheap for the common case of the shared QUATERNIONS and R03
            return True
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values


class Signature(_Value):
    """Signature (p, q) of the algebra R_{p,q}: e_i^2 = +1 for i <= p, else -1."""

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        if type(p) is not int or type(q) is not int:  # bool is an int subclass
            raise ValueError(f"signature parts must be ints, got p={p!r}, q={q!r}")
        if p < 0 or q < 0:
            raise ValueError(f"signature parts must be non-negative, got R({p},{q})")
        # a problem file's p may have 4300 digits, and p + q one more: printed
        # as a Decimal, it passes the interpreter's cap on int-to-text digits
        if p + q > HARD_DIM_LIMIT:
            raise ValueError(f"p+q = {Decimal(p + q)} exceeds the dimension cap {HARD_DIM_LIMIT}")
        _set(self, "p", p)
        _set(self, "q", q)

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


def _exact_text(q: Fraction) -> str:
    """str(q), also when its numerator or denominator is longer than the
    interpreter's cap on int-to-text digits (4300 by default), which str of
    a Decimal does not have."""
    try:
        return str(q)
    except ValueError:
        text = str(Decimal(q.numerator))
        return text if q.denominator == 1 else f"{text}/{Decimal(q.denominator)}"


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


def _literal_int(digits: str) -> int:
    """The int of a number token's ASCII digits; ValueError beyond
    MAX_LITERAL_DIGITS, whatever cap the interpreter sets."""
    if len(digits) > MAX_LITERAL_DIGITS:
        raise ValueError(f"{len(digits)} digits exceed {MAX_LITERAL_DIGITS}")
    try:
        return int(digits)
    except ValueError:  # the interpreter's cap is set below MAX_LITERAL_DIGITS
        return int(Decimal(digits))


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
    """The multivector grammar over lexed tokens: a signed sum of
    ``[number] [blade]``, where a ``*`` may stand between the number and
    the blade of a term and nowhere else."""
    lexed, tokens = tokens, [tok for tok in tokens if tok[0] != "star"]

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
        if number is None:
            return (mask, _ONE), i
        num, _, den = number.partition("/")
        try:
            return (mask, Fraction(_literal_int(num), _literal_int(den) if den else 1)), i
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in {number!r}") from None
        except ValueError:
            raise ParseError(f"coefficient of {len(number)} characters is too long") from None

    terms = _signed_sum(tokens, read_term, text)
    # after the sum, so that a sign before a '*', as in 'e1 -*', is a dangling sign
    kinds = [tok[0] for tok in lexed]
    for k, kind in enumerate(kinds):
        if kind == "star" and (not k or kinds[k - 1 : k + 2] != ["number", "star", "blade"]):
            raise _unexpected(lexed[k], text)
    coeffs = [0] * sig.dim
    for negate, (mask, value) in terms:
        coeffs[mask] += -value if negate else value
    return Multivector(sig, coeffs)


class Multivector(_Frozen):
    """A dense element of R_{p,q} with exact rational coordinates.

    ``_num`` holds the integer numerators of the coordinates over one
    reduced positive denominator, ``(n_0, ..., n_{2^m-1}, d)``. Copies and
    pickles go through the constructor.
    """

    __slots__ = ("sig", "_num")

    def __init__(self, sig: Signature, coeffs):
        coeffs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        if len(coeffs) != sig.dim:
            raise ValueError(f"expected {sig.dim} coordinates for {sig}, got {len(coeffs)}")
        # each coordinate is in lowest terms, so the numerators over the
        # lcm d of the denominators already share no factor with d
        d = lcm(*(c.denominator for c in coeffs))
        _set(self, "sig", sig)
        _set(self, "_num", (*[c.numerator * (d // c.denominator) for c in coeffs], d))

    @classmethod
    def _wrap(cls, sig: Signature, num: tuple) -> Multivector:
        # internal fast path: num already a reduced integer tuple
        mv = object.__new__(cls)
        _set(mv, "sig", sig)
        _set(mv, "_num", num)
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
        is ``str(x)``, exact at any length. Terms follow blade order with
        their signs between them; a blade whose coefficient is exactly 1 is
        written bare.
        """
        if number is str:
            number = _exact_text
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

    def __reduce__(self):
        return Multivector, (self.sig, self.coeffs)

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
        if isinstance(other, (int, Fraction)):
            return (-self) + other
        return NotImplemented

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
        a, signs = self._num, _product_signs(self.sig)
        d, dim = a[-1], self.sig.dim
        return [
            [Fraction(a[k ^ j] if signs[k ^ j][j] > 0 else -a[k ^ j], d) for j in range(dim)]
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

        H and R_{0,3} invert on the quaternion kernel, each half of the split
        as d conj(n) / |n|^2 on its numerators, reduced once by the join. A
        nonzero R_{0,3} element is a zero divisor exactly when one half is
        zero, that is when psi+(x) psi-(x) = 0.
        Other signatures run Faddeev-LeVerrier in the algebra (D. S. Shirokov,
        "On computing the determinant, other characteristic polynomial
        coefficients, and inverse in Clifford algebras of arbitrary
        dimension", Comput. Appl. Math. 40, 173 (2021), arXiv:2005.04015):
        with N = 2^ceil(m/2), A_0 = 1, U_k = x A_{k-1} and
        A_k = U_k - (N/k) <U_k>_0, x A_{N-1} is real (-Det(x) once N > 1),
        zero just for zero divisors, and x^-1 = A_{N-1} / (x A_{N-1}): N
        geometric products and no linear system. The tests compare it with
        ``solve_exact`` on :meth:`left_multiplication_matrix`
        (``tests/test_general_inverse.py``).
        """
        sig = self.sig
        if sig in (QUATERNIONS, R03):
            halves = qk.split(self._num)
            if any(not any(h[:4]) for h in halves):
                raise NotInvertible(str(self))
            return _from_halves([qk.inverse(h) for h in halves])
        n = 1 << (sig.m + 1) // 2
        adj = Multivector.one(sig)
        for k in range(1, n):
            u = self * adj
            adj = u - Fraction(n, k) * u.scalar_part()
        det = self * adj
        if not det.is_scalar():
            raise AlgebraError(f"Faddeev-LeVerrier left a non-real determinant {det} for {self}")
        if not det:
            raise NotInvertible(str(self))
        return adj / det.scalar_part()

    def is_invertible(self) -> bool:
        try:
            self.inverse()
        except NotInvertible:
            return False
        return True

    # ---- quadratic cone and conjugacy classes -------------------------------

    def _class_id(self) -> ConjugacyClassId | None:
        """The class id, or None outside the cone: the one place that forms
        trace and norm, once per point, for the cone test and the class
        together. A real x has 4n = t^2 and the id of real(x). In H and
        R_{0,3} they come from the class key, which grouping reads too: the
        halves of the split must share trace and norm, and no product runs.
        """
        sig = self.sig
        if sig in (QUATERNIONS, R03):
            key = qk.class_key(self._num)
            return None if key is None else _class_of(key)
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


def _class_of(key: tuple) -> ConjugacyClassId:
    """The class of a key (N, M, L) from
    :func:`clifflag._quaternion.class_key`: the id's ``t`` and ``n`` are
    -M / L and N / L, and its key is the same three integers."""
    N, M, L = key
    return ConjugacyClassId(Fraction(-M, L), Fraction(N, L))


def same_class(x: Multivector, y: Multivector) -> bool:
    return x.conjugacy_class() == y.conjugacy_class()


class ConjugacyClassId(_Value):
    """A conjugacy class, identified by the shared (trace, norm) pair.

    Real singletons have 4n = t^2 (alpha = t/2); genuine spheres satisfy
    4n > t^2 strictly. The fields are ``t`` and ``n``, as ``Fraction``s.
    Beside them the id keeps the private ``_key`` (N, M, L), the class's
    quadratic L X^2 + M X + N = L (X^2 - t X + n), primitive with L > 0,
    so L is the lcm of the denominators of t and n. It is what
    :func:`clifflag._quaternion.class_key` gives, set once in ``__init__``.
    Equality, hashing and :attr:`is_real` read the key, and the root search
    and census hand it to the kernel; the repr, copies and pickles use
    (t, n) alone.
    """

    __slots__ = ("t", "n", "_key")

    def __init__(self, t: Fraction, n: Fraction):
        # exact like Multivector's coordinates: ints and floats become
        # Fractions; Fractions, as _class_of passes them, are kept as they are
        if type(t) is not Fraction or type(n) is not Fraction:
            t, n = Fraction(t), Fraction(n)
        L = lcm(t.denominator, n.denominator)
        key = N, M, L = n.numerator * (L // n.denominator), -t.numerator * (L // t.denominator), L
        if 4 * N * L < M * M:
            raise ValueError(f"no class has 4n < t^2 (t={t}, n={n})")
        _set(self, "t", t)
        _set(self, "n", n)
        _set(self, "_key", key)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

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
        # 4n = t^2, on the key's integers
        N, M, L = self._key
        return 4 * N * L == M * M

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
            return f"Real({_exact_text(self.alpha)})"
        return f"Sphere(t={_exact_text(self.t)}, n={_exact_text(self.n)})"


# ---- the R_{0,3} ~ H (+) H splitting -----------------------------------------

# Quaternion units are embedded as i = e1, j = e2, k = e12 (so i*j = k and
# k^2 = -1); the two components are the images under the central
# idempotents (1 +/- e123)/2, rewritten in that basis by the kernel's
# split and join.


def to_quaternion_pair(x: Multivector) -> tuple[Multivector, Multivector]:
    """Split an R_{0,3} element into its two quaternionic components."""
    x._require_sig(R03, "to_quaternion_pair")
    plus, minus = (qk._reduce(*h) for h in qk.split(x._num))
    return Multivector._wrap(QUATERNIONS, plus), Multivector._wrap(QUATERNIONS, minus)


def from_quaternion_pair(h_plus: Multivector, h_minus: Multivector) -> Multivector:
    """Inverse of :func:`to_quaternion_pair`."""
    h_plus._require_sig(QUATERNIONS, "from_quaternion_pair")
    h_minus._require_sig(QUATERNIONS, "from_quaternion_pair")
    return _from_halves((h_plus._num, h_minus._num))


def _from_halves(halves) -> Multivector:
    """The element of H (one half) or R_{0,3} (two) whose kernel split is
    ``halves``, kernel tuples that need not be in lowest terms."""
    return Multivector._wrap(R03 if len(halves) == 2 else QUATERNIONS, qk.join(halves))
