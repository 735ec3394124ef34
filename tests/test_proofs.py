"""Symbolic proofs of identities the package otherwise checks at sampled rationals.

sympy is a test-only dependency; these tests are skipped without it.
"""

from fractions import Fraction

import pytest

from sixrde import (
    CoefficientSequence,
    LscSample,
    Q1,
    Q2,
    counterfeit_characteristic,
    iterate,
    lsc_residual,
    make_initial_conditions,
)

sp = pytest.importorskip("sympy")

u0, u2, u4, a, b = sp.symbols("u0 u2 u4 a b")


def lsc_formula(phase, n):
    """The residual in `lsc_residual`'s docstring for Q(n, u) = phase^n * u."""
    q = lambda k, u: phase**k * u
    p = u0 * u2
    d = a + b * p
    psi = p / (u4 * d)
    return (
        q(n + 6, psi)
        + p * q(n + 4, u4) / (u4**2 * d)
        - a * u0 * q(n + 2, u2) / (u4 * d**2)
        - a * u2 * q(n, u0) / (u4 * d**2)
    )


@pytest.mark.parametrize("phase", [sp.I, -sp.I], ids=["i", "-i"])
def test_lsc_residual_is_identically_zero_for_both_characteristics(phase):
    # phase^4 = 1, so n = 0..3 covers every n.
    for n in range(4):
        assert sp.simplify(lsc_formula(phase, n)) == 0


def test_lsc_residual_is_not_identically_zero_for_the_counterfeit():
    residual = sp.factor(lsc_formula(sp.Integer(1), 0))
    assert residual != 0
    assert sp.simplify(residual - 2 * b * (u0 * u2) ** 2 / (u4 * (a + b * u0 * u2) ** 2)) == 0


#: One rational sample point, shared by the checks that tie a formula to the code.
AT = {u0: Fraction(3, 7), u2: Fraction(-2, 5), u4: Fraction(9, 4),
      a: Fraction(1, 3), b: Fraction(-4, 5)}


def test_lsc_formula_matches_the_code():
    sample = LscSample(n=5, u0=AT[u0], u2=AT[u2], u4=AT[u4], a=AT[a], b=AT[b])
    for q, phase in ((Q1, sp.I), (Q2, -sp.I), (counterfeit_characteristic, sp.Integer(1))):
        value = lsc_residual(q, sample)
        code = sp.Rational(value.real) + sp.I * sp.Rational(value.imag)
        assert sp.expand(code - lsc_formula(phase, sample.n).subs(AT)) == 0


def next_term():
    """u_(n+6) from u_n, u_(n+2), u_(n+4) by one step of the map."""
    return u0 * u2 / (u4 * (a + b * u0 * u2))


def test_invariant_recurrence_is_an_identity():
    # V_n = 1/(u_n u_(n+2)), V_(n+4) = 1/(u_(n+4) u_(n+6)).
    v_n = 1 / (u0 * u2)
    v_n4 = 1 / (u4 * next_term())
    assert sp.simplify(v_n4 - (a * v_n + b)) == 0


def test_map_matches_one_oracle_step():
    # x_1 is u_6 for u_0..u_4 = x_(-5)..x_(-1).
    seeds = [AT[u0], Fraction(5), AT[u2], Fraction(1, 2), AT[u4], Fraction(1)]
    orbit = iterate(make_initial_conditions(seeds),
                    CoefficientSequence.constant(AT[a], AT[b]), 1)
    assert next_term().subs(AT) == sp.Rational(orbit.x(1))
