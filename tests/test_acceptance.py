"""Acceptance gate: one test per criterion, each printing PASS or FAIL.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every check is property-based equivalence at desk scale; tolerances are
zero (exact) unless stated otherwise.
"""

import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from sixrde import (
    CoefficientSequence,
    ConstantCoeffs,
    PeriodicCoeffs2,
    PeriodicCoeffs4,
    Q1,
    Q2,
    SingularityCause,
    check_invariant_recurrence,
    cli,
    counterfeit_characteristic,
    generator_annihilates_invariant,
    invariant_sequence,
    iterate,
    lsc_residual,
    specialcases,
    term,
    terms,
    unified_exponent,
    unified_magnitude,
    v_closed,
    verify_gamma_identities,
    verify_reduced_system,
    well_defined,
)
from sixrde.core import log_abs
from sixrde.symmetry import LscSample

from conftest import (
    COEFF_KINDS,
    bounded_orbit,
    once,
    random_coefficients,
    random_initial_conditions,
    random_rational,
    spec_dict_from,
)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{label}]: FAIL")
        raise
    print(f"ACCEPTANCE {number} [{label}]: PASS")


def seeded_instances(seed, count, steps, kinds=COEFF_KINDS):
    """`count` non-singular random instances surviving `steps` iterations,
    and the number of draws that halted before them."""
    rng = random.Random(seed)
    out = []
    halted = 0
    while len(out) < count:
        ic = random_initial_conditions(rng)
        coeffs = random_coefficients(rng, kinds[len(out) % len(kinds)])
        orbit = bounded_orbit(ic, coeffs, steps)
        if orbit.halt is None:
            out.append((ic, coeffs, orbit))
        else:
            halted += 1
    return out, halted


@once
def instances_c1():
    """Criterion 1's instances and halted draws, read by criteria 1, 2 and 7;
    built by the first test that asks, so collection does no sixrde work."""
    return seeded_instances(seed=20260809, count=200, steps=60)


def test_criterion_1_closed_form_equals_oracle():
    with criterion(1, "closed form == oracle, 200 instances, m in -5..55, exact"):
        instances, _ = instances_c1()
        start = time.monotonic()
        for ic, coeffs, orbit in instances:
            for m in range(-5, 56):
                assert term(m, ic, coeffs) == orbit.x(m)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s (budget 10s)"


def test_criterion_2_invariant_recurrence_residuals_zero():
    with criterion(2, "invariant recurrence residuals exactly zero"):
        instances, halted = instances_c1()
        for ic, coeffs, orbit in instances:
            v = invariant_sequence(orbit)
            assert all(r == 0 for r in check_invariant_recurrence(v, coeffs))
        # The draws give plenty of both outcomes: orbits that halt, and more
        # that survive to be checked.
        assert 0 < halted < 200, halted


def _special_case_instances(seed, count, builder, steps):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        ic = random_initial_conditions(rng)
        built = builder(rng)
        if built is None:
            continue
        orbit = iterate(ic, built, steps)
        if orbit.halt is None:
            out.append((ic, built, orbit))
    return out


def test_criterion_3_special_case_fidelity():
    with criterion(3, "special-case formulas == general path == oracle"):
        def coeff(rng, nonzero=False):
            return random_rational(rng, lo=-5, hi=5, max_den=5, nonzero=nonzero)

        def build_general(rng):
            a = coeff(rng)
            if a in (0, 1):
                return None
            return ConstantCoeffs(a, coeff(rng, nonzero=True))

        def build_a1(rng):
            return ConstantCoeffs(1, coeff(rng, nonzero=True))

        def build_p2(rng):
            return PeriodicCoeffs2(
                (coeff(rng), coeff(rng)), (coeff(rng), coeff(rng))
            )

        def build_p4(rng):
            return PeriodicCoeffs4(
                tuple(coeff(rng) for _ in range(4)),
                tuple(coeff(rng) for _ in range(4)),
            )

        def build_mixed(rng):
            # a_0 = a_2 = 1: two classes take the arithmetic sum, two the geometric
            return PeriodicCoeffs4(
                (1, 2, 1, Fraction(-1, 2)),
                tuple(coeff(rng, nonzero=True) for _ in range(4)),
            )

        for seed, builder in (
            (31, build_general), (32, build_a1), (33, build_p2), (34, build_p4),
            (36, build_mixed),
        ):
            for ic, coeffs, orbit in _special_case_instances(
                seed, 100, builder, steps=55
            ):
                general = list(terms(-5, 55, ic, coeffs))
                for m in range(-5, 56):
                    value = specialcases.term(m, ic, coeffs)
                    assert value == orbit.x(m)
                    assert value == general[m + 5]

        # a = -1: parity-exponent family against the oracle, n <= 30, all classes
        rng = random.Random(35)
        done = 0
        while done < 100:
            ic = random_initial_conditions(rng)
            b = coeff(rng, nonzero=True)
            coeffs = CoefficientSequence.constant(-1, b)
            orbit = iterate(ic, coeffs, 118)
            if orbit.halt is not None:
                continue
            for n in range(0, 31):
                for j in range(4):
                    m = 4 * n - 5 + j
                    assert specialcases.term(m, ic, coeffs) == orbit.x(m)
            done += 1


def test_criterion_4_well_definedness_matches_singularity():
    with criterion(4, "well-definedness violations <-> oracle halts, exact"):
        rng = random.Random(9604)
        steps = 40
        crafted = 0
        while crafted < 100:
            ic = random_initial_conditions(rng)
            a_list = [random_rational(rng, lo=-5, hi=5, max_den=5) for _ in range(steps)]
            b_list = [random_rational(rng, lo=-5, hi=5, max_den=5) for _ in range(steps)]
            probe = iterate(ic, CoefficientSequence.explicit(a_list, b_list), steps)
            last_step = steps - 1 if probe.halt is None else probe.halt.step
            n_star = rng.randint(0, last_step)
            # force a zero denominator exactly at step n_star
            product = probe.terms[n_star] * probe.terms[n_star + 2]
            b_list[n_star] = -a_list[n_star] / product
            coeffs = CoefficientSequence.explicit(a_list, b_list)
            orbit = iterate(ic, coeffs, steps)
            assert orbit.halt is not None
            assert orbit.halt.cause == SingularityCause.ZERO_DENOMINATOR_FACTOR
            report = well_defined(ic, coeffs, horizon=steps // 4 + 2)
            flagged = sorted(
                v.halt_step for v in report.violations if v.halt_step < steps
            )
            assert flagged and flagged[0] == orbit.halt.step
            first = min(report.violations, key=lambda v: v.halt_step)
            assert first.v_index == orbit.halt.step + 4
            crafted += 1


def test_criterion_5_symmetry_suite():
    with criterion(5, "LSC residuals, reduced system, generators, phase kernel"):
        rng = random.Random(515)

        def sample():
            while True:
                u0 = random_rational(rng, nonzero=True)
                u2 = random_rational(rng, nonzero=True)
                u4 = random_rational(rng, nonzero=True)
                a = random_rational(rng, lo=-5, hi=5, max_den=5)
                b = random_rational(rng, lo=-5, hi=5, max_den=5)
                if a + b * u0 * u2 != 0:
                    return LscSample(
                        n=rng.randrange(0, 48), u0=u0, u2=u2, u4=u4, a=a, b=b
                    )

        for q in (Q1, Q2):
            for _ in range(100):
                assert lsc_residual(q, sample()) == 0
        # detector sanity: the n-independent counterfeit must fail
        bad = lsc_residual(
            counterfeit_characteristic,
            LscSample(n=0, u0=1, u2=1, u4=1, a=2, b=1),
        )
        assert bad != 0
        assert verify_reduced_system(50).ok
        for variant in ("X1", "X2"):
            assert generator_annihilates_invariant(variant, 50).ok
        assert verify_gamma_identities(16) == []


def unified_product(n, ic, v):
    """|u_n| by the unified formula read exactly over the V values v[k]:
    |u_(n mod 2)|^(+-1), + when n mod 4 is 0 or 1, times |V_k| for k = n and
    over |V_k| for k = n+2 (mod 4), k < n."""
    value = abs(ic.values[n % 2])
    if n % 4 >= 2:
        value = 1 / value
    for k in range(n % 2, n, 2):
        value = value * abs(v[k]) if (n - k) % 4 == 0 else value / abs(v[k])
    return value


def test_criterion_6_unified_magnitude():
    with criterion(6, "unified magnitude exact over v_closed, floats to 1e-9, n <= 60"):
        rng = random.Random(606)
        done = 0
        while done < 50:
            ic = random_initial_conditions(rng)
            coeffs = random_coefficients(rng, COEFF_KINDS[done % len(COEFF_KINDS)])
            orbit = iterate(ic, coeffs, 60)
            if orbit.halt is not None:
                continue
            v = [v_closed(k % 4, k // 4, ic, coeffs) for k in range(60)]
            for n in range(0, 61):
                assert unified_product(n, ic, v) == abs(orbit.terms[n])
                # ln|u_n| to 1e-9 absolute is |u_n| to 1e-9 relative, also
                # where |u_n| leaves the float range.
                exponent = unified_exponent(n, ic, coeffs)
                assert type(exponent) is float
                assert math.isclose(exponent, log_abs(orbit.terms[n]), abs_tol=1e-9)
                try:
                    expected = abs(float(orbit.terms[n]))
                except OverflowError:
                    continue
                got = unified_magnitude(n, ic, coeffs)
                assert math.isclose(got, expected, rel_tol=1e-9)
            done += 1


def test_criterion_7_cli_contract(tmp_path, capsys):
    with criterion(7, "cmd_compare exits 0; spec round trip; reproducible runs"):
        # compare exits 0 on every criterion-1 instance
        for index, (ic, coeffs, _orbit) in enumerate(instances_c1()[0]):
            spec_path = tmp_path / "instance.json"
            spec_path.write_text(json.dumps(spec_dict_from(ic, coeffs, 60)), encoding="utf-8")
            out_path = tmp_path / "report.json"
            code = cli.main(
                ["compare", "--spec", str(spec_path), "--out", str(out_path)]
            )
            assert code == 0, f"compare failed on instance {index}"

        # byte-stable spec round trip via --emit-spec
        assert cli.main(["iterate", "--spec", str(spec_path), "--emit-spec"]) == 0
        first = capsys.readouterr().out
        spec1 = cli.parse_problem_spec(json.loads(first))
        echo_path = tmp_path / "echo.json"
        echo_path.write_text(first, encoding="utf-8")
        assert cli.main(["iterate", "--spec", str(echo_path), "--emit-spec"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert spec1 == cli.load_problem_spec(str(spec_path))

        # seeded verify-symmetry runs are byte-reproducible
        assert cli.main(["verify-symmetry", "--samples", "60", "--seed", "424"]) == 0
        run1 = capsys.readouterr().out
        assert cli.main(["verify-symmetry", "--samples", "60", "--seed", "424"]) == 0
        run2 = capsys.readouterr().out
        assert run1 == run2
