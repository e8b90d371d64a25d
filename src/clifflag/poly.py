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

from dataclasses import dataclass
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
    _from_halves,
    _read_multivector,
    _signed_sum,
    _tokens,
)

# Largest degree accepted from text: a polynomial literal's exponent and the
# CLI's --max-degree. Each degree costs a coefficient or a power per point.
MAX_DEGREE = 1000


class Polynomial:
    """A polynomial over one Clifford algebra, right coefficients, exact."""

    __slots__ = ("sig", "coeffs")

    def __init__(self, sig: Signature, coeffs):
        coeffs = list(coeffs)
        for c in coeffs:
            if not isinstance(c, Multivector):
                raise TypeError("polynomial coefficients must be multivectors")
            if c.sig != sig:
                raise SignatureMismatch(f"coefficient in {c.sig}, polynomial in {sig}")
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.sig = sig
        self.coeffs = tuple(coeffs)

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
        """Evaluate sum_h x^h a_h (Horner from the top; powers stay left)."""
        if x.sig != self.sig:
            raise SignatureMismatch(f"point in {x.sig}, polynomial in {self.sig}")
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
        if isinstance(other, Multivector):
            # right constant: same as multiplying by the constant polynomial
            return Polynomial(self.sig, (c * other for c in self.coeffs))
        if isinstance(other, (int, Fraction)):
            return Polynomial(self.sig, (c * other for c in self.coeffs))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    # ---- division by a linear factor on the left ---------------------------------

    def divide_left_linear(self, y: Multivector) -> tuple[Polynomial, Multivector]:
        """Write P = (X - y) * Q + r; returns (Q, r) with r = P(y).

        Backward recursion on the coefficients: c_{d-1} = a_d and
        c_{k-1} = a_k + y c_k.
        """
        if y.sig != self.sig:
            raise SignatureMismatch(f"point in {y.sig}, polynomial in {self.sig}")
        d = self.degree
        if d is None or d < 1:
            raise ValueError("division needs a polynomial of degree at least 1")
        q = [Multivector.zero(self.sig)] * d
        q[d - 1] = self.coeffs[d]
        for k in range(d - 1, 0, -1):
            q[k - 1] = self.coeffs[k] + y * q[k]
        r = self.coeffs[0] + y * q[0]
        return Polynomial(self.sig, q), r

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


@dataclass(frozen=True)
class AffineRestriction:
    """On a fixed class the polynomial collapses to x |-> x a + b."""

    cls_id: ConjugacyClassId
    a: Multivector
    b: Multivector

    def __call__(self, x: Multivector) -> Multivector:
        return x * self.a + self.b


def affine_restriction(p: Polynomial, cls_id: ConjugacyClassId) -> AffineRestriction:
    """Restrict P to a conjugacy class, where Delta = X^2 - X t + n vanishes.

    P agrees on the class with its remainder b + X a modulo Delta (for a
    real class Delta = (X - alpha)^2), so P(x) = x a + b there. The
    remainder is taken on the quaternion kernel, half by half.
    """
    if p.sig not in (QUATERNIONS, R03):
        raise UnsupportedSignature(f"affine restriction not available in {p.sig}")
    remainders = [qk.remainder_mod_quadratic(half, cls_id.t, cls_id.n) for half in _split(p)]
    b, a = (_from_halves(column) for column in zip(*remainders))
    return AffineRestriction(cls_id, a, b)


@dataclass(frozen=True)
class RootSet:
    """Roots of a polynomial inside one conjugacy class.

    kind is "empty", "points" or "whole_class". For "points",
    `exhaustive` is False when the true solution set is an infinite
    sub-family of the class and `points` only holds sampled
    representatives (this happens in R_{0,3} when one quaternionic
    component of the affine restriction degenerates).
    """

    kind: str
    cls_id: ConjugacyClassId
    points: tuple[Multivector, ...] = ()
    exhaustive: bool = True

    @property
    def is_empty(self) -> bool:
        return self.kind == "empty"


def _split(p: Polynomial) -> list[list[tuple]]:
    """P as kernel coefficient lists: one for H, the plus and minus halves for R_{0,3}.

    The split is a ring isomorphism, so P(x) splits into P+(x+) and P-(x-).
    """
    halves = [[] for _ in range(2 if p.sig == R03 else 1)]
    for c in p.coeffs:
        for half, h in zip(halves, qk.split(c._num)):
            half.append(h)
    return halves


def roots_in_class(p: Polynomial, cls_id: ConjugacyClassId) -> RootSet:
    """Solve P = 0 inside one conjugacy class of R_{0,2} or R_{0,3}.

    The affine restriction reduces the problem to x a + b = 0 on the class;
    in R_{0,3} that splits into two independent quaternionic problems whose
    solutions are recombined. Both run on the quaternion kernel.
    """
    if p.sig not in (QUATERNIONS, R03):
        raise UnsupportedSignature(f"root search not available in {p.sig}")
    halves = _split(p)
    if cls_id.is_real:
        alpha = Fraction(cls_id.alpha)
        real = (alpha.numerator, 0, 0, 0, alpha.denominator)
        if all(qk.evaluate(half, real) == qk.ZERO for half in halves):
            return RootSet("points", cls_id, (Multivector.scalar(p.sig, alpha),))
        return RootSet("empty", cls_id)
    remainders = [qk.remainder_mod_quadratic(half, cls_id.t, cls_id.n) for half in halves]
    return _sphere_roots(halves, remainders, cls_id)


def _sphere_roots(halves, remainders, cls_id: ConjugacyClassId) -> RootSet:
    """Roots on a sphere class from each half's remainder (b, a) modulo Delta.

    Each half solves x a + b = 0: one point, no point, or (a = b = 0) its
    whole sphere, since both halves lie in classes with the same (t, n).
    """
    t, n = cls_id.t, cls_id.n
    solved = []  # per half: a kernel point, None for the whole sphere
    for b, a in remainders:
        if a == qk.ZERO:
            if b != qk.ZERO:
                return RootSet("empty", cls_id)
            solved.append(None)
            continue
        x = qk.mul(qk.neg(b), qk.inverse(a))
        if not qk.in_class(x, t, n):
            return RootSet("empty", cls_id)
        solved.append(x)
    if None not in solved:
        return RootSet("points", cls_id, (_from_halves(solved),))
    if all(x is None for x in solved):
        return RootSet("whole_class", cls_id)

    # R_{0,3}, one half pinned, the other free over its whole sphere: sample
    # representatives of the infinite family, always including the unique
    # paravector candidate (free half = pinned one with k negated).
    pinned_plus = solved[1] is None
    pinned = solved[0] if pinned_plus else solved[1]
    c0, c1, c2, c3, d = pinned
    v0 = (Fraction(c1, d), Fraction(c2, d), Fraction(c3, d))
    frees = [f._num for f in quaternion_class_points(t, n, v0, count=12)]
    seen = set()
    reps = []
    for free in [(c0, c1, c2, -c3, d)] + frees:
        if free in seen:
            continue
        seen.add(free)
        pair = (pinned, free) if pinned_plus else (free, pinned)
        if any(qk.evaluate(half, x) != qk.ZERO for half, x in zip(halves, pair)):
            raise AssertionError(f"sampled representative {_from_halves(pair)} is not a root")
        reps.append(_from_halves(pair))
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
    being real it divides two-sidedly and unambiguously.
    """
    if cls_id.is_real:
        raise ValueError("expected a sphere class")
    return _divide_out(p, characteristic_poly(cls_id, p.sig))


def real_root_multiplicity(p: Polynomial, alpha) -> int:
    """Multiplicity of the real root alpha (0 when it is not a root)."""
    return _divide_out(p, Polynomial.from_scalars(p.sig, (-Fraction(alpha), 1)))[0]


def _divide_out(p: Polynomial, factor: Polynomial) -> tuple[int, Polynomial]:
    """Largest s with factor^s dividing P, by repeated division, plus the cofactor.

    Every power of the factor divides P = 0, so it has no finite s.
    """
    if not p:
        raise ValueError("zero polynomial has no finite multiplicity")
    s = 0
    quotient, remainder = divide_by_real(p, factor)
    while not remainder:
        s, p = s + 1, quotient
        quotient, remainder = divide_by_real(p, factor)
    return s, p


def paravector_root_census(p: Polynomial, witnessed_classes) -> tuple[int, int, int]:
    """Count (r, s, k) for the supplied classes: real root multiplicities,
    characteristic powers of spherical classes, and remaining non-real
    non-spherical paravector roots found class by class.

    Only meaningful in R_{0,3}, where r + 2s + k <= deg P. P is split once;
    each sphere costs one reduction per half, and a Multivector division
    runs only where the remainders show that Delta divides P.
    """
    if p.sig != R03:
        raise WrongSignature(f"root census requires {R03}, got {p.sig}")
    halves = _split(p)
    r = s = k = 0
    for cls_id in dict.fromkeys(witnessed_classes):
        if cls_id.is_real:
            r += _divide_out(p, characteristic_poly(cls_id, p.sig))[0]
            continue
        remainders = [qk.remainder_mod_quadratic(half, cls_id.t, cls_id.n) for half in halves]
        if all(rem == (qk.ZERO, qk.ZERO) for rem in remainders):
            s += _divide_out(p, characteristic_poly(cls_id, p.sig))[0]
            continue
        roots = _sphere_roots(halves, remainders, cls_id)
        if roots.kind == "points":
            k += sum(1 for x in roots.points if x.is_paravector())
        elif roots.kind == "whole_class":
            raise AssertionError(
                "class fully contained in the root set must divide by Delta"
            )
    return r, s, k
