"""Exact witnesses outside H and R(0,3): two points, no unique interpolant.

The abstract says interpolation on other signatures "seems to have some
intrinsic difficulties". Here are three small witnesses, solved by the
linear-system oracle at degrees 1 to 3. Each second point is u = 1 + e
with e^2 = +1, so u^h = 2^(h-1) u and (1 - e) u = 0. With the value 0 at
the point 0, any P has P(u) = u (a_1 + 2 a_2 + 4 a_3 + ...), which
(1 - e) annihilates from the left: a value w with (1 - e) w != 0 is out
of reach at every degree. A value that u reaches is reached by a whole
family, since u (1 - e) = 0 too: a_1 + (1 - e) z serves for any z. The
demo claims nothing beyond these cases.

Run:  python demos/other_signatures.py
"""

from clifflag import InterpolationProblem, Multivector, Signature, brute_force_interpolate

WITNESSES = (
    (Signature(1, 0), "e1", "1"),
    (Signature(1, 0), "e1", "1 + e1"),
    (Signature(0, 4), "e1234", "1"),
    (Signature(1, 1), "e1", "e2"),
)

for sig, unit, value in WITNESSES:
    e = Multivector.parse(unit, sig)
    one = Multivector.one(sig)
    u, w = one + e, Multivector.parse(value, sig)
    print(f"== {sig}: P(0) = 0, P({u}) = {w} ==")
    print(f"  {unit}^2 = {e * e}, (1 - {unit}) ({u}) = {(one - e) * u}, (1 - {unit}) ({w}) = {(one - e) * w}")
    problem = InterpolationProblem.from_pairs(sig, [(Multivector.zero(sig), Multivector.zero(sig)), (u, w)])
    for degree in (1, 2, 3):
        result = brute_force_interpolate(problem, max_degree=degree)
        found = "" if result.polynomial is None else f", particular P(X) = {result.polynomial}"
        print(f"  degree {degree}: {result.kind}{found}")
