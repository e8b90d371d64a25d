"""Polynomials with Clifford coefficients kept on the right of the powers.

A polynomial is a coefficient list a_0..a_d over one signature; it
evaluates as sum_h x^h a_h, with the power always to the left of its
coefficient. Multiplying two polynomials treats the indeterminate as
commuting with every coefficient (the usual construction for rings of
polynomials over a non-commutative ring), so

    (P * Q) coefficient of X^n  =  sum over h+k=n of  a_h b_k.

With that convention (P * Q)(x) is NOT P(x) Q(x) in general; whenever
P(x) is invertible it equals P(x) Q(P(x)^-1 x P(x)), and
:func:`eval_of_product` checks that identity while computing it.

Text syntax: ``X^3*(e12) + X^2*(1) + (1)``, highest degree first, zero
coefficients omitted, the constant term written without a power.
"""

from __future__ import annotations

from fractions import Fraction

from . import _quaternion as qk
from .classpoints import quaternion_class_points
from .errors import (
    ParseError,
    SignatureMismatch,
    UnsupportedSignature,
    WrongSignature,
)
from .multivector import (
    QUATERNIONS,
    R03,
    ConjugacyClassId,
    Multivector,
    Signature,
    _Frozen,
    _Value,
    _from_halves,
    _read_multivector,
    _set,
    _signed_sum,
    _tokens,
)

# Largest degree accepted from text: a polynomial literal's exponent and the
# CLI's --max-degree. Each degree costs a coefficient or a power per point.
MAX_DEGREE = 1000


class Polynomial(_Frozen):
    """A polynomial over one Clifford algebra, right coefficients, exact.

    Copies and pickles go through the constructor. In every signature the
    polynomial keeps its kernel rows (:func:`_split`) once they are formed;
    they are derived from ``coeffs`` and take no part in equality, hashing,
    the repr or pickling.
    """

    __slots__ = ("sig", "coeffs", "_rows")

    def __init__(self, sig: Signature, coeffs):
        coeffs = list(coeffs)
        for c in coeffs:
            if not isinstance(c, Multivector):
                raise TypeError("polynomial coefficients must be multivectors")
            if c.sig != sig:
                raise SignatureMismatch(f"coefficient in {c.sig}, polynomial in {sig}")
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        _set(self, "sig", sig)
        _set(self, "coeffs", tuple(coeffs))
        _set(self, "_rows", None)

    # ---- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, sig: Signature) -> Polynomial:
        return cls(sig, ())

    @classmethod
    def one(cls, sig: Signature) -> Polynomial:
        return cls.constant(Multivector.one(sig))

    @classmethod
    def constant(cls, value: Multivector) -> Polynomial:
        return cls(value.sig, (value,))

    @classmethod
    def from_scalars(cls, sig: Signature, values) -> Polynomial:
        """Real-coefficient polynomial from a_0..a_d scalar values."""
        return cls(sig, tuple(Multivector.scalar(sig, v) for v in values))

    @classmethod
    def identity(cls, sig: Signature) -> Polynomial:
        """The monomial X."""
        return cls(sig, (Multivector.zero(sig), Multivector.one(sig)))

    @classmethod
    def x_minus(cls, point: Multivector) -> Polynomial:
        return cls(point.sig, (-point, Multivector.one(point.sig)))

    # ---- basic structure ---------------------------------------------------

    @property
    def degree(self):
        """Degree as an int, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def leading(self) -> Multivector:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, h: int) -> Multivector:
        if 0 <= h < len(self.coeffs):
            return self.coeffs[h]
        return Multivector.zero(self.sig)

    def is_real(self) -> bool:
        return all(c.is_scalar() for c in self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.sig == other.sig and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.sig, self.coeffs))

    def _check_sig(self, other):
        if self.sig != other.sig:
            raise SignatureMismatch(f"{self.sig} vs {other.sig}")

    # ---- evaluation ----------------------------------------------------------

    def __call__(self, x: Multivector) -> Multivector:
        """Evaluate sum_h x^h a_h (Horner from the top; powers stay left).

        In H and R_{0,3} each half of the kernel rows is evaluated at the
        matching half of x on integers, and the halves are joined: one gcd
        for the whole value.
        """
        if x.sig != self.sig:
            raise SignatureMismatch(f"point in {x.sig}, polynomial in {self.sig}")
        if self.sig in (QUATERNIONS, R03):
            halves, den = _split(self)
            values = [qk._horner(half, den, y) for half, y in zip(halves, qk.split(x._num))]
            return _from_halves(values)
        acc = Multivector.zero(self.sig)
        for a in reversed(self.coeffs):
            acc = x * acc + a
        return acc

    # ---- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Polynomial):
            self._check_sig(other)
            length = max(len(self.coeffs), len(other.coeffs))
            return Polynomial(
                self.sig,
                (self.coefficient(h) + other.coefficient(h) for h in range(length)),
            )
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, Polynomial):
            return self + (-other)
        return NotImplemented

    def __neg__(self) -> Polynomial:
        return Polynomial(self.sig, (-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_sig(other)
            if not self.coeffs or not other.coeffs:
                return Polynomial.zero(self.sig)
            out = [Multivector.zero(self.sig)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for h, a in enumerate(self.coeffs):
                if not a:
                    continue
                for k, b in enumerate(other.coeffs):
                    if b:
                        out[h + k] = out[h + k] + a * b
            return Polynomial(self.sig, out)
        if isinstance(other, (Multivector, int, Fraction)):
            # right constant: same as multiplying by the constant polynomial
            return Polynomial(self.sig, (c * other for c in self.coeffs))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    # ---- text form -------------------------------------------------------------

    def __str__(self) -> str:
        return self.format(str)

    def format(self, number) -> str:
        """Text form with every coefficient written by ``Multivector.format(number)``.

        ``p.format(str)`` is ``str(p)``: highest degree first, zero
        coefficients omitted, the zero polynomial written ``(0)``.
        """
        terms = [
            f"X^{h}*({c.format(number)})" if h else f"({c.format(number)})"
            for h, c in reversed(tuple(enumerate(self.coeffs)))
            if c
        ]
        return " + ".join(terms) or "(0)"

    def __repr__(self) -> str:
        return f"Polynomial({self.sig}, '{self}')"

    def __reduce__(self):
        return Polynomial, (self.sig, self.coeffs)

    @classmethod
    def parse(cls, text: str, sig: Signature) -> Polynomial:
        """Parse ``X^3*(e12) + X^2*(1) + (1)`` style text.

        A signed sum of terms ``X^h*(c)``, ``X^h*c``, ``X^h``, ``X``, ``(c)``
        and ``c``, where ``c`` is multivector text and a bare ``c`` ends at
        the next sign.
        """
        tokens = _tokens(text)
        kinds = [tok[0] for tok in tokens] + ["end"]

        def read_term(i):
            h = 0
            if kinds[i] == "x":
                h, i = 1, i + 1
                if kinds[i] == "power":
                    h = _exponent(tokens[i + 1][1] if kinds[i + 1] == "number" else "", text)
                    i += 2
                if kinds[i] != "star":
                    return (h, Multivector.one(sig)), i
                i += 1
            if kinds[i] == "open":
                try:
                    close = kinds.index("close", i)
                except ValueError:
                    raise ParseError(f"unbalanced parentheses in {text!r}") from None
                return (h, _read_multivector(tokens[i + 1 : close], sig, text)), close + 1
            start = i
            while kinds[i] not in ("sign", "end"):
                i += 1
            return (h, _read_multivector(tokens[start:i], sig, text)), i

        coeffs: dict[int, Multivector] = {}
        for negate, (h, value) in _signed_sum(tokens, read_term, text):
            coeffs[h] = coeffs.get(h, Multivector.zero(sig)) + (-value if negate else value)
        top = max(coeffs)
        return cls(sig, tuple(coeffs.get(h, Multivector.zero(sig)) for h in range(top + 1)))


def _exponent(number: str, text: str) -> int:
    # int() refuses strings beyond 4300 digits, so count them first
    if not number or "/" in number:
        raise ParseError(f"missing exponent: '^' takes a whole number in {text!r}")
    digits = number.lstrip("0")
    if len(digits) > len(str(MAX_DEGREE)):
        raise ParseError(f"exponent of {len(digits)} digits exceeds {MAX_DEGREE}")
    h = int(digits or "0")
    if h > MAX_DEGREE:
        raise ParseError(f"exponent {h} in {text!r} exceeds {MAX_DEGREE}")
    return h


# ---- the product-evaluation identity -------------------------------------------


def eval_of_product(p: Polynomial, q: Polynomial, x: Multivector) -> Multivector:
    """Evaluate P(x) Q(P(x)^-1 x P(x)) and check it equals (P * Q)(x).

    Raises NotInvertible when P(x) is zero or a zero divisor, in which case
    the identity does not apply.
    """
    px = p(x)
    px_inv = px.inverse()
    rhs = px * q(px_inv * x * px)
    lhs = (p * q)(x)
    if lhs != rhs:
        raise AssertionError(
            f"product-evaluation identity failed at {x}: {lhs} != {rhs}"
        )
    return rhs


# ---- root appending --------------------------------------------------------------


def append_root(t: Polynomial, y: Multivector) -> Polynomial:
    """Extend T to T * (X - T(y)^-1 y T(y)), which vanishes at y and on V(T).

    Requires T(y) invertible; in R_{0,3} the result stays invertible at
    every x outside the class of y where T(x) was invertible.
    """
    ty = t(y)
    ty_inv = ty.inverse()  # NotInvertible propagates to the caller
    return t * Polynomial.x_minus(ty_inv * y * ty)


# ---- conjugacy-class machinery -----------------------------------------------------


def characteristic_poly(cls_id: ConjugacyClassId, sig: Signature) -> Polynomial:
    """X^2 - X t + n for a sphere class; X - alpha for a real singleton."""
    if cls_id.is_real:
        return Polynomial.from_scalars(sig, (-cls_id.alpha, 1))
    return Polynomial.from_scalars(sig, (cls_id.n, -cls_id.t, 1))


class AffineRestriction(_Value):
    """On a fixed class the polynomial collapses to x |-> x a + b."""

    __slots__ = ("cls_id", "a", "b")

    def __init__(self, cls_id: ConjugacyClassId, a: Multivector, b: Multivector):
        _set(self, "cls_id", cls_id)
        _set(self, "a", a)
        _set(self, "b", b)

    def __call__(self, x: Multivector) -> Multivector:
        return x * self.a + self.b


def affine_restriction(p: Polynomial, cls_id: ConjugacyClassId) -> AffineRestriction:
    """Restrict P to a conjugacy class, where Delta = X^2 - X t + n vanishes.

    P agrees on the class with its remainder b + X a modulo Delta (for a
    real class Delta = (X - alpha)^2), so P(x) = x a + b there. The
    remainder is taken on the quaternion kernel, half by half, and b and a
    are each joined from their halves with one gcd.
    """
    if p.sig not in (QUATERNIONS, R03):
        raise UnsupportedSignature(f"affine restriction not available in {p.sig}")
    halves, den = _split(p)
    b, a = [], []
    for half in halves:
        b_num, a_num, power = qk._remainder_numerators(half, cls_id._key)
        b.append((*b_num, den * power))
        a.append((*a_num, den * power))
    return AffineRestriction(cls_id, _from_halves(a), _from_halves(b))


class RootSet(_Value):
    """Roots of a polynomial inside one conjugacy class.

    kind is "empty", "points" or "whole_class". For "points",
    `exhaustive` is False when the true solution set is an infinite
    sub-family of the class and `points` only holds sampled
    representatives (this happens in R_{0,3} when one quaternionic
    component of the affine restriction degenerates).
    """

    __slots__ = ("kind", "cls_id", "points", "exhaustive")

    def __init__(
        self,
        kind: str,
        cls_id: ConjugacyClassId,
        points: tuple[Multivector, ...] = (),
        exhaustive: bool = True,
    ):
        _set(self, "kind", kind)
        _set(self, "cls_id", cls_id)
        _set(self, "points", points)
        _set(self, "exhaustive", exhaustive)

    @property
    def is_empty(self) -> bool:
        return self.kind == "empty"


def _split(p: Polynomial) -> tuple[tuple[tuple[tuple, ...], ...], int]:
    """P as integer rows over one denominator, (halves, den), as
    :func:`_quaternion.split_rows` forms them: the one integer form of a
    polynomial, in every signature.

    There are the plus and minus halves for R_{0,3}, and one half, the
    coordinate numerators, in every other signature. The split is a ring
    isomorphism, so P(x) splits into P+(x+) and P-(x-). The rows are
    formed once per polynomial and kept in P.
    """
    if p._rows is None:
        _set(p, "_rows", qk.split_rows([c._num for c in p.coeffs], 2 if p.sig == R03 else 1))
    return p._rows


def _real_root(p: Polynomial, key: tuple) -> bool:
    """True when alpha = t / 2 = -M / (2 L) of the real class with key
    (N, M, L) is a root of P: each half of P's rows (:func:`_split`) is
    evaluated at (-M, 0, 0, 0, 2 L) on integers, stopping at the first
    nonzero value, and nothing is reduced."""
    halves, den = _split(p)
    alpha = (-key[1], 0, 0, 0, 2 * key[2])
    return not any(any(qk._horner(half, den, alpha)[:4]) for half in halves)


def _sphere_roots(p: Polynomial, key: tuple):
    """Per half of P's rows (:func:`_split`), the root in the sphere class
    with key (N, M, L) that :func:`_quaternion.sphere_root`
    finds: an unreduced kernel point, or ``None`` for the whole sphere; or
    ``False`` at the first half without a root, so no later half is
    reduced modulo Delta."""
    solved = []
    for half in _split(p)[0]:
        x = qk.sphere_root(half, key)
        if x is False:
            return False
        solved.append(x)
    return solved


def roots_in_class(p: Polynomial, cls_id: ConjugacyClassId) -> RootSet:
    """Solve P = 0 inside one conjugacy class of R_{0,2} or R_{0,3}.

    A real class {alpha} holds a root exactly when P(alpha) = 0, tested on
    P's kernel rows (:func:`_real_root`). On a sphere class each half of P's
    rows (:func:`_split`), reduced modulo Delta to b + X a, solves
    x a + b = 0 with :func:`_quaternion.sphere_root`, which reads the
    class's integer key: one point, no point, or (a = b = 0) its whole
    sphere, since both halves lie in classes with the same (t, n). The
    class is decided on the remainder's unreduced numerators, and a root
    found is reduced once, when its halves are joined. The first half
    without a root ends the search (:func:`_sphere_roots`), so no later
    half is reduced modulo Delta.
    """
    if p.sig not in (QUATERNIONS, R03):
        raise UnsupportedSignature(f"root search not available in {p.sig}")
    if cls_id.is_real:
        if not _real_root(p, cls_id._key):
            return RootSet("empty", cls_id)
        return RootSet("points", cls_id, (Multivector.scalar(p.sig, cls_id.alpha),))
    solved = _sphere_roots(p, cls_id._key)
    if solved is False:
        return RootSet("empty", cls_id)
    if None not in solved:
        return RootSet("points", cls_id, (_from_halves(solved),))
    if all(x is None for x in solved):
        return RootSet("whole_class", cls_id)

    # R_{0,3}, one half pinned, the other free over its whole sphere: sample
    # the family, the paravector candidate (free half = pinned one with k
    # negated) first, then the class points reflected from the pinned half.
    # The pinned half, shared by all, is evaluated once. Candidates are
    # compared as tuples, so it is reduced like them, and once for every join.
    halves, den = _split(p)
    free = solved.index(None)
    pinned = solved[1 - free] = qk._reduce(*solved[1 - free])
    pinned_vanishes = not any(qk._horner(halves[1 - free], den, pinned)[:4])
    c0, c1, c2, c3, d = pinned
    member = Multivector._wrap(QUATERNIONS, pinned)
    frees = [(c0, c1, c2, -c3, d)] + [f._num for f in quaternion_class_points(member, 12)]
    reps = []
    for candidate in dict.fromkeys(frees):
        solved[free] = candidate
        if not pinned_vanishes or any(qk._horner(halves[free], den, candidate)[:4]):
            raise AssertionError(f"sampled representative {_from_halves(solved)} is not a root")
        reps.append(_from_halves(solved))
    return RootSet("points", cls_id, tuple(reps), exhaustive=False)


# ---- divisibility by characteristic polynomials --------------------------------------


def divide_by_real(p: Polynomial, divisor: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Long division by a monic real-coefficient polynomial (two-sided)."""
    if not divisor or not divisor.is_real() or divisor.leading != 1:
        raise ValueError("divisor must be monic with real coefficients")
    p._check_sig(divisor)
    dd = divisor.degree
    # the leading term always cancels and zero terms change nothing
    lower = [(k, -dc.scalar_part()) for k, dc in enumerate(divisor.coeffs[:dd]) if dc]
    rem = list(p.coeffs)
    quot = [Multivector.zero(p.sig)] * (len(rem) - dd)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            quot[i - dd] = c
            for k, m in lower:
                rem[i - dd + k] = rem[i - dd + k] + c * m
    return Polynomial(p.sig, quot), Polynomial(p.sig, rem[:dd])


def factor_out_characteristic(
    p: Polynomial, cls_id: ConjugacyClassId
) -> tuple[int, Polynomial]:
    """Largest s with Delta^s dividing P, plus the cofactor Q.

    Delta is the degree-two characteristic polynomial of a sphere class;
    being real it divides two-sidedly and unambiguously. P is divided by
    the class's key L Delta (:func:`_divide_out`), so Q has the quotient's
    rows times L^s over P's denominator, and :func:`_quaternion.join_rows`
    turns them into coefficients, each reduced once.
    """
    if cls_id.is_real:
        raise ValueError("expected a sphere class")
    s, halves, den = _divide_out(p, cls_id._key)
    f = cls_id._key[-1] ** s
    coeffs = qk.join_rows([([tuple(map(f.__mul__, row)) for row in rows], den) for rows in halves])
    return s, Polynomial(p.sig, [Multivector._wrap(p.sig, c) for c in coeffs])


def real_root_multiplicity(p: Polynomial, alpha) -> int:
    """Multiplicity of the real root alpha (0 when it is not a root).

    P is divided by v X - u for alpha = u / v in lowest terms
    (:func:`_divide_out`); only s is returned, so no cofactor is formed.
    """
    alpha = Fraction(alpha)
    return _divide_out(p, (-alpha.numerator, alpha.denominator))[0]


def _divide_out(p: Polynomial, divisor: tuple) -> tuple[int, list, int]:
    """(s, halves, den): the largest s with D^s dividing P, and P / D^s as
    the rows of its halves over den, laid out as :func:`_split` gives P,
    for D = sum_k divisor[k] X^k a primitive integer polynomial with
    leading coefficient l > 0: l (X - alpha) or a class key
    l (X^2 - t X + n).

    A real divisor is central, so it divides each column of P's kept rows
    on its own, and repeated synthetic division
    (:func:`_quaternion.divide_columns`) is exact on integers, one pass per
    power of D and one more to find that D divides no further. In R_{0,3}
    the columns are the halves' coordinates, integer combinations of the
    blade columns, which are in turn those of the halves' columns over 2;
    by Gauss's lemma the primitive D divides an integer polynomial exactly
    when it divides twice it, so s is the blade columns' s.

    Every power of D divides P = 0, so it has no finite s, and ValueError
    is raised: the multiplicities of the zero polynomial are refused.
    """
    if not p:
        raise ValueError("zero polynomial has no finite multiplicity")
    halves, den = _split(p)
    columns = [column for half in halves for column in zip(*half)]
    s = 0
    quotients = qk.divide_columns(columns, divisor)
    while quotients is not None:
        s, columns = s + 1, quotients
        quotients = qk.divide_columns(columns, divisor)
    width = len(columns) // len(halves)
    return s, [list(zip(*columns[i : i + width])) for i in range(0, len(columns), width)], den


def paravector_root_census(p: Polynomial, witnessed_classes) -> tuple[int, int, int]:
    """Count (r, s, k) for the supplied classes: real root multiplicities,
    characteristic powers of spherical classes, and remaining non-real
    non-spherical paravector roots found class by class.

    Only meaningful in R_{0,3}, where r + 2s + k <= deg P. Repeated classes
    count once, told apart by their integer keys. The census counts on P's
    kernel rows (:func:`_split`) and builds no root: it probes a real class
    (:func:`_real_root`) and searches a sphere half by half
    (:func:`_sphere_roots`) as :func:`roots_in_class` does, and a class
    without a root counts nothing. Only then does a real root divide for
    :func:`real_root_multiplicity`, and a whole sphere, where Delta divides
    P, counts s by :func:`_divide_out` and forms no cofactor. A single root
    counts when it is a paravector, and a sampled family counts its one
    paravector.
    """
    if p.sig != R03:
        raise WrongSignature(f"root census requires {R03}, got {p.sig}")
    r = s = k = 0
    for cls_id in dict.fromkeys(witnessed_classes):
        if cls_id.is_real:
            if _real_root(p, cls_id._key):
                r += real_root_multiplicity(p, cls_id.alpha)
            continue
        solved = _sphere_roots(p, cls_id._key)
        if solved is False:
            continue
        plus, minus = solved
        if plus is None and minus is None:
            s += _divide_out(p, cls_id._key)[0]
        elif plus is None or minus is None:
            # One half pinned at c, the other free over the sphere. By
            # _quaternion.join_rows the joined root is a paravector exactly
            # when the free half is c with k negated, a point of the same
            # sphere and so a root. roots_in_class samples that candidate
            # first and drops its repeats, and every other candidate differs
            # from it: the family holds exactly one paravector.
            k += 1
        else:
            # by join_rows, a paravector exactly when minus = (p0, p1, p2, -p3)
            # for plus = (p0, p1, p2, p3), each over its own denominator
            (p0, p1, p2, p3, pd), (m0, m1, m2, m3, md) = plus, minus
            k += (m0 * pd, m1 * pd, m2 * pd, m3 * pd) == (p0 * md, p1 * md, p2 * md, -p3 * md)
    return r, s, k
