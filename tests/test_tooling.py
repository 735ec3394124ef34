"""The package runs on the standard library alone, its exports resolve,
README's examples run as written, and the suite's own helpers hold."""

import ast
import importlib
import inspect
import json
import random
import re
import runpy
import shlex
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import sixrde
from sixrde import SingularClosedForm, cli, specialcases

from conftest import (
    ENGINES,
    ROOT,
    TimeLimitExceeded,
    once,
    random_initial_conditions,
    random_rational,
    run_python,
    start_cold,
)

tomllib = pytest.importorskip("tomllib")


def test_project_declares_no_runtime_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []


def test_package_imports_only_itself_and_the_standard_library():
    sources = sorted((ROOT / "src" / "sixrde").glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.partition(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name} imports {module}"


def test_closed_forms_and_symmetry_import_nothing_from_the_oracle():
    # The acceptance gate checks these layers against the oracle's iteration;
    # that check is independent only while they share none of its code.
    for stem in ("closedform", "specialcases", "symmetry"):
        path = ROOT / "src" / "sixrde" / f"{stem}.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                parts = [p for alias in node.names for p in alias.name.split(".")]
            elif isinstance(node, ast.ImportFrom):
                parts = (node.module or "").split(".") + [alias.name for alias in node.names]
            else:
                continue
            assert "oracle" not in parts, f"{path.name}:{node.lineno} imports the oracle"


def test_the_oracle_imports_nothing_from_the_package_but_core():
    # The mirror of the test above: the ground truth stays independent of the
    # V table and the closed forms whatever its step looks like.  Absolute
    # imports of the package are already refused by the standard-library test.
    path = ROOT / "src" / "sixrde" / "oracle.py"
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.module == "core", f"oracle.py:{node.lineno} imports .{node.module or ''}"


def test_the_oracle_reaches_no_v_layer_by_any_route():
    # The step reads p from the quotient it kept four steps back, which is
    # 1/V_n as a number; it must stay a quotient of the map, never a read of
    # the V table.  No import, name, attribute or string in the oracle (an
    # `importlib` argument, say) may name a module that holds V.
    layers = {"closedform", "specialcases", "symmetry"}
    path = ROOT / "src" / "sixrde" / "oracle.py"
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            words = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Name):
            words = [node.id]
        elif isinstance(node, ast.Attribute):
            words = [node.attr]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            words = [node.value]
        else:
            continue
        named = layers & set(re.findall(r"\w+", " ".join(words)))
        assert not named, f"oracle.py:{node.lineno} names {sorted(named)}"


def test_the_residual_check_and_the_special_cases_never_read_the_step_table():
    # The oracle and the V table step from `CoefficientSequence._step_table`.
    # The invariant residual check and the third engine read the `Fraction`
    # coefficients themselves, so a wrong row shows up as nonzero residuals
    # and as a special-case mismatch instead of agreeing with itself.
    def names(node):
        return {getattr(part, field, None) for part in ast.walk(node)
                for field in ("attr", "id", "name", "arg")} | {
            part.value for part in ast.walk(node) if isinstance(part, ast.Constant)}

    source = ROOT / "src" / "sixrde"
    special = ast.parse((source / "specialcases.py").read_text())
    oracle = ast.parse((source / "oracle.py").read_text())
    [check] = [node for node in oracle.body if isinstance(node, ast.FunctionDef)
               and node.name == "check_invariant_recurrence"]
    assert "_step_table" in names(oracle)  # the name this test looks for
    for where, tree in (("specialcases.py", special), ("check_invariant_recurrence", check)):
        assert not names(tree) & {"_step_table", "_steps"}, where


def test_package_uses_no_private_fraction_api():
    # `_normalize=False` is gone in Python 3.12 and `_from_coprime_ints` is
    # private to `fractions`, so neither appears anywhere.  A reduced pair is
    # built without a gcd by `core._reduced` alone, the one place that sets
    # `Fraction`'s two slots; test_core.py pins it to `Fraction(num, den)`.
    banned = {"_normalize", "_from_coprime_ints"}
    slots = {"_numerator", "_denominator"}
    for path in sorted((ROOT / "src" / "sixrde").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        helper = set()
        if path.name == "core.py":
            [function] = [node for node in tree.body
                          if isinstance(node, ast.FunctionDef) and node.name == "_reduced"]
            helper = {id(node) for node in ast.walk(function)}
        for node in ast.walk(tree):
            names = {getattr(node, field, None) for field in ("attr", "arg", "id", "name")}
            if isinstance(node, ast.Constant):
                names.add(node.value)
            allowed = slots if id(node) in helper else set()
            assert not names & (banned | slots - allowed), f"{path.name}:{node.lineno} {names}"


def test_package_holds_no_complex_value():
    # The recurrence, its coefficients and its characteristics are real; the
    # phase kernel i^(n-k) is read from the tables of Q1 and Q2.
    for path in sorted((ROOT / "src" / "sixrde").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            imaginary = isinstance(node, ast.Constant) and isinstance(node.value, complex)
            names = {getattr(node, field, None) for field in ("attr", "id")}
            assert not imaginary and "complex" not in names, f"{path.name}:{node.lineno}"


def test_package_never_changes_the_int_str_digit_limit():
    for path in sorted((ROOT / "src" / "sixrde").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                assert name != "set_int_max_str_digits", f"{path.name}:{node.lineno}"


def _package_modules():
    stems = sorted(p.stem for p in (ROOT / "src" / "sixrde").glob("*.py"))
    return [importlib.import_module(f"sixrde.{stem}") for stem in stems if not stem.startswith("_")]


def test_every_exported_name_resolves():
    modules = _package_modules()
    assert modules
    for module in modules:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name}"


def test_package_reexports_only_exported_names():
    init = ROOT / "src" / "sixrde" / "__init__.py"
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.ImportFrom):
            exported = importlib.import_module(f"sixrde.{node.module}").__all__
            for alias in node.names:
                assert alias.name in exported, f"sixrde.{node.module} does not export {alias.name}"


def test_readme_names_resolve_on_the_package():
    names = re.findall(r"\bsixrde((?:\.\w+)+)", (ROOT / "README.md").read_text())
    assert names
    for dotted in names:
        obj = sixrde
        for part in dotted.split(".")[1:]:
            assert hasattr(obj, part), f"README names sixrde{dotted}"
            obj = getattr(obj, part)


def test_every_name_the_benchmark_calls_resolves():
    # The benchmark resolves these names at run time: its tracer's LAYERS and
    # LOOKUP_METHODS, its special-case SPECIAL table, and the coefficient
    # constructors it builds special-case inputs with.
    tracer = runpy.run_path(str(ROOT / "bench" / "tracer.py"))
    workloads = ast.parse((ROOT / "bench" / "workloads.py").read_text())
    [special] = [ast.literal_eval(node.value) for node in workloads.body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["SPECIAL"]]
    names = [*special.values(), "ConstantCoeffs", "PeriodicCoeffs2", "PeriodicCoeffs4"]
    pairs = [pair for targets in tracer["LAYERS"].values() for pair in targets]
    assert pairs and len(special) == 5
    for module, attr in pairs + [("sixrde", name) for name in names]:
        assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"
    for attr in tracer["LOOKUP_METHODS"]:
        assert hasattr(sixrde.CoefficientSequence, attr), attr


def test_every_mutant_plants_exactly_one_change():
    # `tools/mutants.py` plants each entry in a copy of the tree; an old text
    # that occurs twice, or no longer occurs, would count a kill for nothing.
    harness = runpy.run_path(str(ROOT / "tools" / "mutants.py"))
    assert len(harness["MUTANTS"]) >= 20
    for path, old, new, reason in harness["MUTANTS"]:
        text = (ROOT / path).read_text(encoding="utf-8")
        assert harness["mutated"](text, old, new) != text, reason


def test_the_mutant_tool_deselects_the_plant_check_and_no_other_test():
    # In a planted copy the entry's old text is gone, so the plant check
    # fails on every mutant; the tool deselects it by this node id, and
    # pytest deselects nothing for an id that names no test.
    harness = runpy.run_path(str(ROOT / "tools" / "mutants.py"))
    name = test_every_mutant_plants_exactly_one_change.__name__
    assert harness["PLANT_CHECK"] == f"tests/{Path(__file__).name}::{name}"


def test_the_mutant_tool_names_the_first_test_of_the_short_summary():
    killer = runpy.run_path(str(ROOT / "tools" / "mutants.py"))["killer"]
    failed = ("....F\n==== short test summary info ====\n"
              "FAILED tests/test_cli.py::test_x[a - b] - AssertionError: 1 != 2\n"
              "FAILED tests/test_core.py::test_y\n"
              "!!!! stopping after 1 failures !!!!\n"
              "1 failed, 4 passed in 1.20s\n")
    assert killer(failed) == "tests/test_cli.py::test_x[a - b]"
    collection = ("==== short test summary info ====\n"
                  "ERROR tests/test_memo.py - AssertionError: 12 draws in a row halted\n"
                  "!!!! Interrupted: 1 error during collection !!!!\n"
                  "1 error in 2.10s\n")
    assert killer(collection) == "tests/test_memo.py"
    assert killer("....ss..\n363 passed, 5 skipped in 14.77s\n") is None


def test_a_builder_that_ran_past_the_time_limit_runs_once():
    runs = []

    @once
    def build(n):
        runs.append(n)
        raise TimeLimitExceeded("ran past the limit")

    for _ in range(3):
        with pytest.raises(TimeLimitExceeded):
            build(7)
    assert runs == [7]


def test_a_bench_record_keeps_the_result_line_and_how_it_was_run():
    # `bench/run.py` prints one table line per metric, then the result JSON.
    tool = runpy.run_path(str(ROOT / "tools" / "bench_record.py"))
    result = {"correct": True, "attempted": 12, "failed": 0,
              "metrics": {"ok_frac": {"value": 1.0, "unit": "frac"}}}
    stdout = f"  sweep ok_frac                 1 frac\n{json.dumps(result)}\n"
    got = tool["record"]("sweep", 20, stdout, "e82ed2a-dirty")
    assert got["result"] == result
    assert {key: got[key] for key in ("workload", "seed", "seconds", "trace", "commit")} == {
        "workload": "sweep", "seed": 1, "seconds": 20, "trace": 0, "commit": "e82ed2a-dirty"}
    assert got["python"] == sys.version
    assert json.loads(json.dumps(got)) == got


def test_the_interpreter_tool_reads_the_pins_and_pytests_summary_line():
    # `tools/interpreters.py` runs `pins.MATRIX`, each entry of which
    # test_large_n.py checks too, and reads Tier-1's outcome from the last
    # line `pytest -q` prints.
    import pins
    import test_large_n

    checked = [tuple(pin.values) for pin in test_large_n.PINS
               if not any("1600" in arg for arg in pin.values[0])]
    checked.append((["verify-symmetry"], test_large_n.VERIFY_SYMMETRY))
    assert len(checked) == 5 and pins.MATRIX == checked
    tool = runpy.run_path(str(ROOT / "tools" / "interpreters.py"))
    stdout = "....ss..\n363 passed, 5 skipped in 14.77s\n"
    assert tool["tier1_counts"](stdout) == {"passed": 363, "skipped": 5, "seconds": 14.77}
    assert tool["tier1_counts"]("1 failed, 9 passed, 2 errors in 3.50s") == {
        "failed": 1, "passed": 9, "errors": 2, "seconds": 3.5}
    assert tool["tier1_counts"]("") == {}


def _bench_constants(*names):
    """The literal values `bench/workloads.py` assigns to `names`."""
    workloads = ast.parse((ROOT / "bench" / "workloads.py").read_text())
    found = {target.id: ast.literal_eval(node.value) for node in workloads.body
             if isinstance(node, ast.Assign) for target in node.targets
             if getattr(target, "id", None) in names}
    assert set(found) == set(names)
    return found


def test_the_symmetry_results_the_benchmark_reads_keep_their_meaning():
    # The sweep counts `bool(lsc_residual(q, sample))` as "nonzero" for Q1 and
    # Q2 and reads four structure checks at its own limits.  A type changed
    # under the same names (a residual returned as a tuple is always true)
    # would pass the test above and fail only in the benchmark.
    limits = _bench_constants("SYMMETRY_N_MAX", "GAMMA_LIMIT")
    counterfeits = []
    for sample in cli._lsc_samples(1, 20):
        q1, q2, counterfeit = (sixrde.lsc_residual(q, sample) for q in
                               (sixrde.Q1, sixrde.Q2, sixrde.counterfeit_characteristic))
        assert type(q1) is type(q2) is type(counterfeit) is Fraction
        assert not q1 and not q2
        counterfeits.append(counterfeit)
    assert any(counterfeits)
    n_max = limits["SYMMETRY_N_MAX"]
    assert sixrde.verify_reduced_system(n_max).ok
    assert sixrde.generator_annihilates_invariant("X1", n_max).ok
    assert sixrde.generator_annihilates_invariant("X2", n_max).ok
    assert sixrde.verify_gamma_identities(limits["GAMMA_LIMIT"]) == []


def _family_coefficients(rng, family, ic, plant):
    """A seeded sequence of one `SPECIAL` family; with `plant` = r, b_r is
    chosen so that V_(4+r) = a_r*V_r + b_r = 0 and the orbit dies by step r."""
    def coeff():
        return random_rational(rng, lo=-5, hi=5, max_den=5)

    period = {"periodic2": 2, "periodic4": 4}.get(family, 1)
    a = {"constant_a1": [1], "constant_a_neg1": [-1]}.get(family)
    while a is None or family == "constant" and a[0] in (1, -1):
        a = [coeff() for _ in range(period)]
    b = [coeff() for _ in range(period)]
    if plant is not None:
        b[plant % period] = -a[plant % period] / ic.seed_product(plant)
    if period == 1:
        return sixrde.CoefficientSequence.constant(a[0], b[0])
    return sixrde.CoefficientSequence.periodic(a, b)


def test_the_case_names_the_benchmark_calls_keep_their_meaning():
    # The sweep calls each `SPECIAL` name on the package with the argument
    # `Sweep.load` builds: a rebuilt sequence, or `b` alone for a = +-1.
    # Each call must give `specialcases.term`'s values on the family's
    # sequence and, where the orbit dies, the same singular position.
    special = _bench_constants("SPECIAL")["SPECIAL"]
    rng = random.Random(2627)
    for family, name in special.items():
        for i in range(8):
            ic = random_initial_conditions(rng)
            coeffs = _family_coefficients(rng, family, ic, i // 2 if i % 2 else None)
            if name == "term_const_general":
                arg = sixrde.ConstantCoeffs(coeffs.a_at(0), coeffs.b_at(0))
            elif name in ("term_const_a1", "term_const_a_neg1"):
                arg = coeffs.b_at(0)
            elif name == "term_periodic2":
                arg = sixrde.PeriodicCoeffs2(coeffs.a_values(), coeffs.b_values())
            else:
                assert name == "term_periodic4"
                arg = sixrde.PeriodicCoeffs4(coeffs.a_values(), coeffs.b_values())
            orbit = sixrde.iterate(ic, coeffs, 55)
            runs = []
            for solver in (lambda m: getattr(sixrde, name)(m, ic, arg),
                           lambda m: specialcases.term(m, ic, coeffs)):
                start_cold()
                values = [solver(m) for m in range(-5, orbit.last_m + 1)]
                position = None
                if orbit.halt is not None:
                    with pytest.raises(SingularClosedForm) as exc:
                        solver(orbit.last_m + 1)
                    e = exc.value
                    position = (e.j, e.s, e.v_index, e.halt_step)
                    assert e.halt_step == orbit.halt.step
                runs.append((values, position))
            assert runs[0] == runs[1], (family, i)
            assert runs[0][0] == list(orbit.terms)
            assert (orbit.halt and orbit.halt.step) == (i // 2 if i % 2 else None)


def test_both_engines_take_the_same_parameters():
    for calls in zip(*ENGINES.values()):  # the point queries, then the ranges
        parameters = {tuple(inspect.signature(call).parameters) for call in calls}
        assert len(parameters) == 1, parameters


@pytest.mark.parametrize(
    "argv, code",
    [(["verify-symmetry", "--samples", "3"], 0), (["iterate", "--spec", "missing.json"], 64)],
)
def test_python_dash_m_entry_point_exits_with_the_cli_code(tmp_path, argv, code):
    done = run_python("-m", "sixrde", *argv, code=code, cwd=tmp_path)
    assert b"Traceback" not in done.stderr


def test_importing_the_cli_builds_no_argument_parser():
    # The benchmark's set-up time includes `import sixrde.cli`; the parser is
    # built on the first `main` call instead.
    code = "\n".join([
        "import argparse",
        "built = []",
        "init = argparse.ArgumentParser.__init__",
        "argparse.ArgumentParser.__init__ = lambda *a, **k: built.append(1) or init(*a, **k)",
        "import sixrde.cli",
        "assert built == [], built",
        "sixrde.cli.build_parser()",
        "assert built, 'no parser construction was seen'",
    ])
    run_python("-c", code)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # The benchmark's set-up time includes `import sixrde.cli`; `dataclasses`
    # pulls in `inspect` and its `ast`/`dis`/`tokenize` chain, about 12 ms of
    # a cold start.  The records are `core._Record` subclasses instead.
    code = "\n".join([
        "import sys",
        "assert not {'dataclasses', 'inspect'} & set(sys.modules), 'loaded by site'",
        "import sixrde.cli",
        "loaded = {'dataclasses', 'inspect'} & set(sys.modules)",
        "assert not loaded, loaded",
    ])
    run_python("-c", code)


def test_package_never_reads_or_sets_a_thread_decimal_context():
    # The renderer calls only its own context's methods.
    forbidden = {"getcontext", "setcontext", "localcontext"}
    for path in sorted((ROOT / "src" / "sixrde").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = {getattr(node, field, None) for field in ("attr", "id", "name")}
            assert not names & forbidden, f"{path.name}:{node.lineno} {names & forbidden}"


def _readme_blocks(section: str, language: str) -> list[str]:
    """Fenced `language` blocks under README's `## section` heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{language}\n(.*?)```", body, flags=re.DOTALL)


def test_readme_command_line_examples_exit_0(tmp_path, monkeypatch, capsys):
    [spec] = _readme_blocks("Command line", "json")
    [commands] = _readme_blocks("Command line", "sh")
    (tmp_path / "problem.json").write_text(spec, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    lines = commands.splitlines()
    assert lines
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "sixrde", line
        assert cli.main(argv[1:]) == 0, line


def test_readme_library_quick_start_runs(capsys):
    [code] = _readme_blocks("Library quick start", "python")
    exec(compile(code, "README.md", "exec"), {})
