"""Value semantics of the package's small immutable record classes.

Each of the eight classes is built from a table of sample field values and
checked for equality (only with an instance of the same class), hashing,
its exact repr, refused assignment and deletion, and copy and pickle round
trips. A slot whose name starts with `_` is private and takes no part in
any of these. The tests state the behaviour alone, not how the classes
get it.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from clifflag import (
    AffineRestriction,
    ClassGroup,
    ClassGrouping,
    ConjugacyClassId,
    InterpolationProblem,
    Multivector,
    OracleResult,
    Polynomial,
    QUATERNIONS,
    R03,
    RootSet,
    Signature,
    roots_in_class,
)
from clifflag.multivector import _set, _Value

H = QUATERNIONS
X = Multivector.parse("1 + e1", H)
W = Multivector.parse("2 - e12", H)
CLS = X.conjugacy_class()  # t = 2, n = 2
OTHER_CLS = ConjugacyClassId(0, 1)
P = Polynomial.parse("X^2*(e1) + (1)", H)
GROUP = ClassGroup(CLS, (X,), (W,))


def searched(p):
    """p after a root search, which forms the kernel rows that p keeps."""
    roots_in_class(p, CLS)
    return p


# polynomials whose kept rows are filled, in H and R(0,3)
SEARCHED = [
    searched(Polynomial.parse("X^2*(e1) + (1)", H)),
    searched(Polynomial.parse("X^3*(1/2 e123) + X*(2 - e13) + (1/3 e2)", R03)),
]

CLS_TEXT = "ConjugacyClassId(t=Fraction(2, 1), n=Fraction(2, 1))"
X_TEXT = "Multivector(R(0,2), '1 + e1')"
W_TEXT = "Multivector(R(0,2), '2 - e12')"

# class, field names, field values, the same values with one field changed,
# another class built from the same field values, and the exact repr
SAMPLES = [
    (Signature, ("p", "q"), (0, 2), (0, 3), ConjugacyClassId, "Signature(p=0, q=2)"),
    (
        ConjugacyClassId,
        ("t", "n"),
        (Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(2)),
        OracleResult,
        "ConjugacyClassId(t=Fraction(0, 1), n=Fraction(1, 1))",
    ),
    (
        AffineRestriction,
        ("cls_id", "a", "b"),
        (CLS, X, W),
        (CLS, W, W),
        ClassGroup,
        f"AffineRestriction(cls_id={CLS_TEXT}, a={X_TEXT}, b={W_TEXT})",
    ),
    (
        RootSet,
        ("kind", "cls_id", "points", "exhaustive"),
        ("points", CLS, (X,), False),
        ("points", CLS, (X,), True),
        None,
        f"RootSet(kind='points', cls_id={CLS_TEXT}, points=({X_TEXT},), exhaustive=False)",
    ),
    (
        InterpolationProblem,
        ("sig", "pairs"),
        (H, ((X, W),)),
        (R03, ((X, W),)),
        ClassGrouping,
        f"InterpolationProblem(sig=Signature(p=0, q=2), pairs=(({X_TEXT}, {W_TEXT}),))",
    ),
    (
        ClassGroup,
        ("cls_id", "points", "values"),
        (CLS, (X,), (W,)),
        (OTHER_CLS, (X,), (W,)),
        AffineRestriction,
        f"ClassGroup(cls_id={CLS_TEXT}, points=({X_TEXT},), values=({W_TEXT},))",
    ),
    (
        ClassGrouping,
        ("sig", "groups"),
        (H, (GROUP,)),
        (H, ()),
        InterpolationProblem,
        f"ClassGrouping(sig=Signature(p=0, q=2), groups=(ClassGroup(cls_id={CLS_TEXT}, "
        f"points=({X_TEXT},), values=({W_TEXT},)),))",
    ),
    (
        OracleResult,
        ("kind", "polynomial"),
        ("unique", P),
        ("unique", None),
        InterpolationProblem,
        "OracleResult(kind='unique', polynomial=Polynomial(R(0,2), 'X^2*(e1) + (1)'))",
    ),
]
IDS = [row[0].__name__ for row in SAMPLES]
FIELDS = {row[0]: row[1] for row in SAMPLES}
each_class = pytest.mark.parametrize("cls, names, values, changed, twin, text", SAMPLES, ids=IDS)


@each_class
def test_equality_and_hash(cls, names, values, changed, twin, text):
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert {a: "found"}[b] == "found"
    assert cls(**dict(zip(names, values))) == a
    assert a != cls(*changed) and not a == cls(*changed)
    assert a != values  # not a tuple of its fields
    if twin is not None:
        other = twin(*values)
        assert tuple(getattr(other, name) for name in FIELDS[twin]) == values
        assert a != other and other != a


@each_class
def test_fields_and_repr(cls, names, values, changed, twin, text):
    a = cls(*values)
    assert tuple(getattr(a, name) for name in names) == values
    assert repr(a) == text


@each_class
def test_fields_cannot_be_assigned_or_deleted(cls, names, values, changed, twin, text):
    a = cls(*values)
    for name, new in zip(names, changed):
        with pytest.raises(AttributeError):
            setattr(a, name, new)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == cls(*values)


@each_class
def test_copy_and_pickle_round_trips(cls, names, values, changed, twin, text):
    a = cls(*values)
    copies = [copy.copy(a), copy.deepcopy(a)]
    copies += [pickle.loads(pickle.dumps(a, proto)) for proto in range(2, pickle.HIGHEST_PROTOCOL + 1)]
    for b in copies:
        assert type(b) is cls
        assert b == a and hash(b) == hash(a)
        assert repr(b) == text


def test_root_set_keyword_defaults():
    empty = RootSet("empty", CLS)
    assert empty.points == () and empty.exhaustive is True
    assert empty == RootSet(kind="empty", cls_id=CLS, points=(), exhaustive=True)
    assert RootSet("points", CLS, (X,)) == RootSet("points", CLS, points=(X,), exhaustive=True)
    assert RootSet(cls_id=CLS, kind="points", exhaustive=False, points=(X,)).exhaustive is False


def test_class_id_coerces_ints_and_floats_and_refuses_4n_below_t_squared():
    for t, n in ((2, 2), (2.0, 2.0), (2, Fraction(2)), (Fraction(2), 2.0)):
        cls_id = ConjugacyClassId(t, n)
        assert type(cls_id.t) is Fraction and type(cls_id.n) is Fraction
        assert cls_id == CLS and hash(cls_id) == hash(CLS) and repr(cls_id) == CLS_TEXT
    for t, n in ((2, 0.5), (Fraction(2), Fraction(1, 2)), (1, 0), (3, 2)):
        with pytest.raises(ValueError, match="no class has 4n < t\\^2"):
            ConjugacyClassId(t, n)


@pytest.mark.parametrize(
    "value, fields",
    [
        (Multivector.parse("1 + e1 - 1/2 e123", R03), {"sig": H, "_num": (1, 0, 0, 0, 1)}),
        (P, {"sig": R03, "coeffs": ()}),
        (SEARCHED[0], {"sig": R03, "coeffs": (), "_rows": None}),
        (SEARCHED[1], {"sig": H, "coeffs": (), "_rows": ((), 1)}),
    ],
    ids=["Multivector", "Polynomial", "searched-H", "searched-R03"],
)
def test_multivectors_and_polynomials_refuse_assignment_and_deletion(value, fields):
    # a value that changed after it was hashed would be lost in a dict,
    # `coeffs = ()` would turn a polynomial into zero, and the rows a root
    # search formed must stay those of the coefficients
    table = {value: 1}
    before = repr(value)
    for name, new in fields.items():
        with pytest.raises(AttributeError):
            setattr(value, name, new)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == before and value in table


@pytest.mark.parametrize(
    "value", [Multivector.parse("1 + e1 - 1/2 e123", R03), P, Polynomial.zero(R03), *SEARCHED]
)
def test_multivectors_and_polynomials_copy_and_pickle(value):
    fresh = type(value)(value.sig, value.coeffs)
    assert fresh == value and hash(fresh) == hash(value) and repr(fresh) == repr(value)
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, proto)) for proto in range(2, pickle.HIGHEST_PROTOCOL + 1)]
    for b in copies:
        assert type(b) is type(value)
        assert b == value and hash(b) == hash(value) and repr(b) == repr(value)


class Tagged(_Value):
    """A record with a private slot beside its two fields."""

    __slots__ = ("a", "b", "_note")

    def __init__(self, a, b, note=None):
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "_note", note)


def test_a_private_slot_is_not_a_field():
    # equality, hashing, the repr and the constructor arguments of a copy
    # or pickle all leave the private slot out, which __init__ sets afresh
    x, y = Tagged(1, 2, "x"), Tagged(1, 2, "y")
    assert x == y and hash(x) == hash(y) and x != Tagged(1, 3, "x")
    assert repr(x) == "Tagged(a=1, b=2)"
    assert x.__reduce__() == (Tagged, (1, 2))
    assert copy.copy(x)._note is None and pickle.loads(pickle.dumps(x))._note is None
    with pytest.raises(AttributeError):
        x._note = "z"
    cls_id = ConjugacyClassId(Fraction(1, 2), Fraction(3, 4))
    assert repr(cls_id) == "ConjugacyClassId(t=Fraction(1, 2), n=Fraction(3, 4))"
    assert cls_id.__reduce__() == (ConjugacyClassId, (Fraction(1, 2), Fraction(3, 4)))
