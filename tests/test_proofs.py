"""Symbolic proofs of identities the package otherwise checks at sampled rationals.

sympy is a test-only dependency; these tests are skipped without it.
"""

import math
from fractions import Fraction

import pytest

from sixrde import (
    CoefficientSequence,
    InitialConditions,
    LscSample,
    Q1,
    Q2,
    counterfeit_characteristic,
    iterate,
    lsc_residual,
    cli,
    closedform,
    core,
    specialcases,
)

from conftest import count_normalisations

sp = pytest.importorskip("sympy")

u0, u2, u4, a, b = sp.symbols("u0 u2 u4 a b")


def lsc_expression(q, n):
    """The residual in `lsc_residual`'s docstring for the characteristic q(k, u)."""
    p = u0 * u2
    d = a + b * p
    psi = p / (u4 * d)
    return (
        q(n + 6, psi)
        + p * q(n + 4, u4) / (u4**2 * d)
        - a * u0 * q(n + 2, u2) / (u4 * d**2)
        - a * u2 * q(n, u0) / (u4 * d**2)
    )


def lsc_formula(phase, n):
    """The residual for Q(n, u) = phase^n * u."""
    return lsc_expression(lambda k, u: phase**k * u, n)


@pytest.mark.parametrize("phase", [sp.I, -sp.I], ids=["i", "-i"])
def test_lsc_residual_is_identically_zero_for_both_characteristics(phase):
    # phase^4 = 1, so n = 0..3 covers every n.
    for n in range(4):
        assert sp.simplify(lsc_formula(phase, n)) == 0


def test_lsc_residual_is_not_identically_zero_for_the_counterfeit():
    residual = sp.factor(lsc_formula(sp.Integer(1), 0))
    assert residual != 0
    assert sp.simplify(residual - 2 * b * (u0 * u2) ** 2 / (u4 * (a + b * u0 * u2) ** 2)) == 0


@pytest.mark.parametrize("sign", [1, -1], ids=["i", "-i"])
def test_the_real_pair_makes_the_papers_characteristics(sign):
    # (+-i)^n * u = Q1 +- i*Q2, for every n since both sides have period 4.
    for n in range(4):
        for u in (Fraction(1), Fraction(-7, 3)):
            pair = sp.Rational(Q1(n, u)) + sign * sp.I * sp.Rational(Q2(n, u))
            assert sp.expand(pair - (sign * sp.I) ** n * sp.Rational(u)) == 0


#: One rational sample point, shared by the checks that tie a formula to the code.
AT = {u0: Fraction(3, 7), u2: Fraction(-2, 5), u4: Fraction(9, 4),
      a: Fraction(1, 3), b: Fraction(-4, 5)}


def two_power_characteristic(n, u):
    """Q(n, u) = 2^n * u: real, but not a period-4 table of unit coefficients."""
    return 2**n * u


#: Real characteristics other than Q1, Q2, with the phase of their formula.
CHARACTERISTICS = (
    (counterfeit_characteristic, sp.Integer(1)),
    (two_power_characteristic, sp.Integer(2)),
)


def pair_residual(sample, sign):
    """lsc_residual(Q1) +- i*lsc_residual(Q2): the residual is linear in Q, so
    this is the residual of (+-i)^n * u."""
    return (sp.Rational(lsc_residual(Q1, sample))
            + sign * sp.I * sp.Rational(lsc_residual(Q2, sample)))


def test_lsc_formula_matches_the_code():
    sample = LscSample(n=5, u0=AT[u0], u2=AT[u2], u4=AT[u4], a=AT[a], b=AT[b])
    for q, phase in CHARACTERISTICS:
        code = sp.Rational(lsc_residual(q, sample))
        assert sp.expand(code - lsc_formula(phase, sample.n).subs(AT)) == 0
    for sign in (1, -1):
        formula = lsc_formula(sign * sp.I, sample.n).subs(AT)
        assert sp.expand(pair_residual(sample, sign) - formula) == 0


def literal_lsc_residual(q, s):
    """The docstring residual of `lsc_residual`, term by term as written."""
    p = s.u0 * s.u2
    d = s.a + s.b * p
    psi = p / (s.u4 * d)
    return (
        q(s.n + 6, psi)
        + p * q(s.n + 4, s.u4) * (1 / (s.u4**2 * d))
        - s.a * s.u0 * q(s.n + 2, s.u2) * (1 / (s.u4 * d**2))
        - s.a * s.u2 * q(s.n, s.u0) * (1 / (s.u4 * d**2))
    )


def test_lsc_residual_equals_the_literal_formula_on_seeded_samples():
    # The shared coefficients are exact for any characteristic, unit table
    # or not: every residual equals the docstring expression evaluated
    # literally in Fraction arithmetic, and the real pair's residuals make
    # the paper's complex one at every sample.
    formulas = {(sign, r): lsc_formula(sign * sp.I, r) for sign in (1, -1) for r in range(4)}
    for sample in cli._lsc_samples(2024, 200):
        for q in (Q1, Q2, *(q for q, _phase in CHARACTERISTICS)):
            assert lsc_residual(q, sample) == literal_lsc_residual(q, sample)
        at = {u0: sample.u0, u2: sample.u2, u4: sample.u4, a: sample.a, b: sample.b}
        for sign in (1, -1):
            # phase^4 = 1, so the formula at n is the one at n mod 4.
            formula = formulas[sign, sample.n % 4].subs(at)
            assert sp.expand(pair_residual(sample, sign) - formula) == 0


@pytest.mark.parametrize("q", [Q1, Q2, counterfeit_characteristic], ids=lambda q: q.name)
def test_each_residual_costs_six_normalisations_and_no_fraction_arithmetic(monkeypatch, q):
    # Q's four values, Psi and the residual are one Fraction each, built from
    # integer parts; nothing is multiplied, divided, added or subtracted as
    # a Fraction.
    samples = cli._lsc_samples(2024, 200)
    want = [literal_lsc_residual(q, sample) for sample in samples]
    normalisations = count_normalisations(monkeypatch)
    got = [lsc_residual(q, sample) for sample in samples]
    monkeypatch.undo()
    assert len(normalisations) == 6 * len(samples)
    assert got == want


# ---------------------------------------------------------------------------
# The symmetry algebra, derived from the ansatz Q(n, u) = alpha_n*u + beta_n*u^2
# ---------------------------------------------------------------------------

#: The ansatz's unknowns at n, n+2, n+4 and n+6.
ALPHA = sp.symbols("alpha0 alpha2 alpha4 alpha6")
BETA = sp.symbols("beta0 beta2 beta4 beta6")


def determining_solution(coeffs):
    """The solution of the determining system over ALPHA and BETA.  The
    residual must vanish identically in u0, u2, u4, so with its denominators
    cleared every monomial coefficient of its numerator must."""
    ansatz = lambda k, u: ALPHA[k // 2] * u + BETA[k // 2] * u**2
    numerator = sp.numer(sp.together(lsc_expression(ansatz, 0).subs(coeffs)))
    unknowns = [*ALPHA, *BETA]
    [solution] = sp.solve(sp.Poly(numerator, u0, u2, u4).coeffs(), unknowns, dict=True)
    return solution


def test_the_symmetry_algebra_is_two_dimensional():
    # For generic (a, b): beta = 0, alpha_(n+2) = -alpha_n and
    # alpha_(n+6) = -alpha_(n+4), so two of the eight unknowns stay free.
    solution = determining_solution({})
    assert len(solution) == 6
    assert [solution.get(beta) for beta in BETA] == [0] * 4
    assert sp.expand((ALPHA[0] + ALPHA[1]).subs(solution)) == 0
    assert sp.expand((ALPHA[2] + ALPHA[3]).subs(solution)) == 0
    # Chained over n, alpha_(k+2) = -alpha_k fixes alpha by alpha_0 and
    # alpha_1: period 4, dimension 2, and the basis is Q1's and Q2's table.
    free = sp.symbols("c0 c1")
    alpha = list(free)
    for k in range(6):
        alpha.append(-alpha[k])
    assert alpha[4:] == alpha[:4]
    basis = [tuple(entry.coeff(c) for entry in alpha[:4]) for c in free]
    assert basis == [tuple(map(sp.Rational, q.alpha)) for q in (Q1, Q2)]


def test_at_b_zero_the_determining_system_keeps_one_relation():
    # With b = 0 only alpha_n + alpha_(n+2) = alpha_(n+4) + alpha_(n+6) is
    # left: chained over n, a sixth-order recurrence, so six dimensions.
    solution = determining_solution({b: 0})
    assert len(solution) == 5
    assert [solution.get(beta) for beta in BETA] == [0] * 4
    assert sp.expand((ALPHA[0] + ALPHA[1] - ALPHA[2] - ALPHA[3]).subs(solution)) == 0
    # Scaling, the counterfeit Q = u, is one of them: the detector needs b != 0.
    assert sp.simplify(lsc_formula(sp.Integer(1), 0).subs(b, 0)) == 0


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
    orbit = iterate(InitialConditions(seeds),
                    CoefficientSequence.constant(AT[a], AT[b]), 1)
    assert next_term().subs(AT) == sp.Rational(orbit.x(1))


# ---------------------------------------------------------------------------
# The special-case factor F_r(t) = C + D*a^t, by one-step induction
# ---------------------------------------------------------------------------

# k = b_r*u_r*u_(r+2), v a value of V, and t a block index.
k, v = sp.symbols("k v")
t = sp.Symbol("t", integer=True, nonnegative=True)


def geometric_factor(t):
    """F(t) = C + D*a^t with C = k/(1 - a), D = 1 - C, for a != 1."""
    C = k / (1 - a)
    return C + (1 - C) * a**t


def arithmetic_factor(t):
    """F(t) = 1 + k*t, for a = 1."""
    return 1 + k * t


def test_seed_product_times_v_takes_the_factor_step():
    # W(t) = u_r u_(r+2) V_(4t+r) has W(0) = 1, and the affine step of V
    # (test_invariant_recurrence_is_an_identity) makes W(t+1) = a*W(t) + k.
    p = u0 * u2
    assert sp.simplify(p * (1 / p)) == 1
    assert sp.expand(p * (a * v + b) - (a * (p * v) + b * p)) == 0


@pytest.mark.parametrize("factor, slope", [(geometric_factor, a), (arithmetic_factor, 1)],
                         ids=["a!=1", "a=1"])
def test_factor_takes_the_same_step_from_the_same_start(factor, slope):
    # So by induction on t, F_r(t) = u_r u_(r+2) V_(4t+r) for every t >= 0.
    assert sp.simplify(factor(0) - 1) == 0
    assert sp.simplify(factor(t + 1) - (slope * factor(t) + k)) == 0


SAMPLE_A = pytest.mark.parametrize("coeff_a", [AT[a], Fraction(1), Fraction(-1)],
                                   ids=["a!=1", "a=1", "a=-1"])
SAMPLE_SEEDS = [AT[u0], Fraction(5), AT[u2], Fraction(1, 2), AT[u4], Fraction(1)]
#: u_0*u_2*u_4 and u_1*u_3*u_5 at the sample.
SAMPLE_PARITY = (math.prod(SAMPLE_SEEDS[0::2]), math.prod(SAMPLE_SEEDS[1::2]))


def sample_engines(coeff_a):
    """The special-case factor sequence and the V table at the sample `AT`."""
    ic = InitialConditions(SAMPLE_SEEDS)
    coeffs = CoefficientSequence.constant(coeff_a, AT[b])
    factors = specialcases._Factors(ic, coeffs)
    return ic, factors, closedform._InvariantTable(ic, coeffs)


@SAMPLE_A
def test_factor_matches_the_code(coeff_a):
    ic, factors, table = sample_engines(coeff_a)
    factor = arithmetic_factor if coeff_a == 1 else geometric_factor
    for r, top in enumerate(specialcases._TOP):
        at = {a: coeff_a, k: AT[b] * ic.seed_product(r)}
        for step in range(6):
            code = Fraction(*factors(4 * step + r))
            assert code == SAMPLE_PARITY[r % 2] * Fraction(*table(4 * step + r))
            assert sp.Rational(code / SAMPLE_SEEDS[top]) == factor(step).subs(at)


# ---------------------------------------------------------------------------
# Every special-case block ratio is the V ratio, so the engines agree for all n
# ---------------------------------------------------------------------------

#: The seeds u_0..u_5.
U = sp.symbols("u0:6", nonzero=True)


def test_top_seed_completes_the_parity_product():
    # So u_top(r)*F_r(t) = P_(r mod 2)*V_(4t+r): a block's factor ratio is the
    # V ratio once numerator and denominator classes share a parity.
    parity = (U[0] * U[2] * U[4], U[1] * U[3] * U[5])
    for r, top in enumerate(specialcases._TOP):
        assert sp.expand(U[top] * U[r] * U[r + 2] - parity[r % 2]) == 0


class PrimeFactors:
    """f(k) = the (k+1)-th prime, or 0 at the indices in `zeros`, in the
    layout of both engines' factor classes: called with k it extends column
    k mod 4, which holds f(4t+r) at t."""

    def __init__(self, zeros=()):
        self.zeros = set(zeros)
        self._columns = [[] for _ in range(4)]

    def __call__(self, k):
        column = self._columns[k % 4]
        while len(column) <= k // 4:
            i = 4 * len(column) + k % 4
            column.append((0 if i in self.zeros else int(sp.prime(i + 1)), 1))
        return column[k // 4]


@pytest.mark.parametrize("j", range(4))
def test_denominator_factor_is_two_past_the_numerator(j):
    # Block s of class j divides by f(4s+j+2), a class of the same parity as
    # j.  With f(k) the (k+1)-th prime and the seeds primes past all of them,
    # each term's factorisation names exactly the factors its blocks read.
    prime = lambda i: int(sp.prime(i + 1))
    telescope = core._Telescope([Fraction(prime(100 + i)) for i in range(6)], PrimeFactors())
    for n in range(5):
        x = telescope.x(4 * n - 5 + j)
        assert sp.factorint(x.numerator) == {prime(100 + j): 1,
                                             **{prime(4 * i + j): 1 for i in range(n)}}
        assert sp.factorint(x.denominator) == {prime(4 * i + j + 2): 1 for i in range(n)}
    # A new block checks f(k+2) before f(k): with both zero, the raised
    # index is the denominator's; with f(k) alone zero, the numerator's.
    for n in range(1, 5):
        k = 4 * n - 4 + j  # the factor index of the new block
        for zeros, index in (({k, k + 2}, k + 2), ({k}, k)):
            telescope = core._Telescope([Fraction(prime(100 + i)) for i in range(6)],
                                        PrimeFactors(zeros))
            with pytest.raises(core.SingularClosedForm) as raised:
                telescope.x(4 * n - 5 + j)
            assert raised.value.v_index == index


@SAMPLE_A
def test_special_case_blocks_take_the_v_ratio_at_the_sample(coeff_a):
    # Read from the stored parts: each block over the one before it is the V
    # ratio, and its cofactors are that ratio's magnitude part by part.
    ic, factors, table = sample_engines(coeff_a)
    items = list(core._Telescope(ic.values, factors).items(-5, 22))
    for j in range(4):
        for n in range(6):
            (num, den, _), (num4, den4, hint) = items[4 * n + j], items[4 * n + j + 4]
            ratio = Fraction(num4 * den, den4 * num)
            assert ratio == Fraction(*table(4 * n + j)) / Fraction(*table(4 * n + j + 2))
            (up, down), (q_up, q_down) = hint
            assert abs(ratio) == Fraction(up * q_down, down * q_up)


# ---------------------------------------------------------------------------
# Constant a = -1: the parity exponents, by two-block induction
# ---------------------------------------------------------------------------

#: The seeds x_(-5)..x_0 = u_0..u_5 under the names the formulas use.
SEEDS = sp.symbols("c d e f g h", nonzero=True)
c, d, e, f, g, h = SEEDS


def a_neg1_invariants(count):
    """V_0..V_(count-1) for a = -1: seeds V_j = 1/(u_j u_(j+2)), V_(k+4) = -V_k + b."""
    v = [1 / (SEEDS[j] * SEEDS[j + 2]) for j in range(4)]
    while len(v) < count:
        v.append(-v[-4] + b)
    return v


def a_neg1_formula(j, n, half, half_up):
    """x_(4n-5+j) by the paper's four explicit a = -1 formulas, with
    half = floor(n/2) and half_up = ceil(n/2) passed in so that n may be
    symbolic."""
    if j == 0:
        return c ** (1 - n) * g**n * ((-1 + b * c * e) / (-1 + b * e * g)) ** half
    if j == 1:
        return d ** (1 - n) * h**n * ((-1 + b * d * f) / (-1 + b * f * h)) ** half
    if j == 2:
        return c**n * e / g**n * (-1 + b * e * g) ** half / (-1 + b * c * e) ** half_up
    return d**n * f / h**n * (-1 + b * f * h) ** half / (-1 + b * d * f) ** half_up


def at_parity(j, t, p):
    """`a_neg1_formula` at n = 2t + p, p in {0, 1}."""
    return a_neg1_formula(j, 2 * t + p, t, t + p)


def test_a_neg1_invariant_has_period_eight():
    # Two affine steps V -> -V + b are the identity, so V_(k+8) = V_k.
    v = sp.Symbol("v")
    step = lambda w: -w + b
    assert sp.expand(step(step(v)) - v) == 0


@pytest.mark.parametrize("j", range(4))
def test_a_neg1_parity_formula_equals_the_telescoping_product(j):
    # The product u_(4n+j) = u_j prod(V_(4s+j) / V_(4s+j+2), s < n) gains the
    # factors s = n, n+1 from n to n+2.  V has period 8, so those two factors
    # depend only on the parity p of n and equal the two at s = p, p+1.
    v = a_neg1_invariants(14)

    def product(n):
        return SEEDS[j] * sp.Mul(*(v[4 * s + j] / v[4 * s + j + 2] for s in range(n)))

    for p in (0, 1):
        # Base: n = p.
        assert sp.simplify(at_parity(j, 0, p) - product(p)) == 0
        # Step: n = 2t + p -> n + 2, for every t.
        two_blocks = product(p + 2) / product(p)
        ratio = sp.powsimp(at_parity(j, t + 1, p) / at_parity(j, t, p))
        assert sp.simplify(ratio - two_blocks) == 0


def test_a_neg1_parity_formula_matches_the_code():
    values = [Fraction(3, 7), Fraction(-2, 5), Fraction(9, 4), Fraction(5), Fraction(1, 2),
              Fraction(-6)]
    coeff_b = Fraction(-4, 5)
    ic = InitialConditions(values)
    coeffs = CoefficientSequence.constant(-1, coeff_b)
    at = {**dict(zip(SEEDS, values)), b: coeff_b}
    for j in range(4):
        for n in range(8):
            formula = a_neg1_formula(j, n, n // 2, (n + 1) // 2).subs(at)
            assert formula == sp.Rational(specialcases.term(4 * n - 5 + j, ic, coeffs))


# ---------------------------------------------------------------------------
# Unified magnitude: the real signed sum is the telescoping product
# ---------------------------------------------------------------------------

#: ln|u_0|..ln|u_5| and ln|V_k|: both sides are exponent vectors over them.
LN_U = sp.symbols("lu0:6", real=True)
LN_V = sp.IndexedBase("lv", real=True)

#: Weight of ln|V_k| in the signed sum, by (n - k) mod 4.
WEIGHT = (1, 0, -1, 0)


def signed_seed(n):
    return LN_U[n % 2] if n % 4 < 2 else -LN_U[n % 2]


def signed_exponent(n):
    """The sum `unified_exponent` forms, over the symbols."""
    return signed_seed(n) + sum(WEIGHT[(n - k) % 4] * LN_V[k] for k in range(n))


def product_exponent(n):
    """ln|u_(4s+j)| by the telescoping product u_j prod(V_(4t+j) / V_(4t+j+2), t < s)."""
    s, j = divmod(n, 4)
    return LN_U[j] + sum(LN_V[4 * t + j] - LN_V[4 * t + j + 2] for t in range(s))


def test_signed_sum_is_the_complex_unified_formula():
    # Re[i^d] is WEIGHT[d mod 4]: i^d has period 4 in d.
    d = sp.Symbol("d", integer=True)
    assert sp.simplify(sp.I ** (d + 4) - sp.I**d) == 0
    assert [sp.re(sp.I**r) for r in range(4)] == list(WEIGHT)
    # i^n c1 + (-i)^n c2, with c1 + c2 = ln|u_0| and i(c1 - c2) = ln|u_1|,
    # also has period 4 in n and is the signed seed on one period.
    c1, c2 = sp.symbols("c1 c2")
    consts = sp.solve([c1 + c2 - LN_U[0], sp.I * (c1 - c2) - LN_U[1]], [c1, c2])
    seed = lambda n: sp.I**n * consts[c1] + (-sp.I) ** n * consts[c2]
    assert sp.simplify(seed(d + 4) - seed(d)) == 0
    for r in range(4):
        assert sp.expand(seed(r)) == signed_seed(r)


def test_signed_sum_equals_the_telescoping_product():
    # Base: n = 0..3 with V_j = 1/(u_j u_(j+2)).
    seeds = {LN_V[j]: -LN_U[j] - LN_U[j + 2] for j in range(4)}
    for n in range(4):
        assert sp.expand(signed_exponent(n).subs(seeds)) == product_exponent(n)
    # Step n -> n+4, for every n.  The sum keeps its seed and every old term,
    # since each is read from a residue mod 4 (d = n - k for term k), and its
    # new terms k = n..n+3 sit at d = 4, 3, 2, 1.
    n, d = sp.symbols("n d", integer=True)
    assert sp.Mod(n + 4, 4) == sp.Mod(n, 4) and sp.Mod(d + 4, 4) == sp.Mod(d, 4)
    signed_step = sum(WEIGHT[(4 - i) % 4] * LN_V[n + i] for i in range(4))
    # The product at n = 4s + j gains its block s: V_(4s+j) / V_(4s+j+2).
    s, j = sp.symbols("s j", integer=True)
    product_step = (LN_V[4 * s + j] - LN_V[4 * s + j + 2]).subs(s, (n - j) / 4)
    assert sp.expand(signed_step - product_step) == 0


def test_signed_sum_matches_the_code():
    values = [Fraction(3, 7), Fraction(-2, 5), Fraction(9, 4), Fraction(5), Fraction(1, 2),
              Fraction(-6)]
    ic = InitialConditions(values)
    coeffs = CoefficientSequence.periodic([Fraction(2, 3), -3, 1], [Fraction(-4, 5), 2, 1])
    magnitude = {**{LN_U[j]: abs(values[j]) for j in range(6)},
                 **{LN_V[k]: abs(closedform.v_closed(k % 4, k // 4, ic, coeffs))
                    for k in range(24)}}
    for n in range(24):
        exact = Fraction(1)
        for symbol, power in signed_exponent(n).as_coefficients_dict().items():
            exact *= magnitude[symbol] ** int(power)
        assert exact == abs(closedform.term(n - 5, ic, coeffs))
        assert math.isclose(closedform.unified_exponent(n, ic, coeffs), core.log_abs(exact),
                            rel_tol=1e-12, abs_tol=1e-12)
