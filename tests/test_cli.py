"""CLI contract: spec files, CSV/JSON outputs, exit codes, reproducibility."""

import contextlib
import csv
import errno
import io
import json
import math
import os
import random
import signal
import stat
import subprocess
import sys
import tempfile
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sixrde import (
    cli,
    core,
    counterfeit_characteristic,
    format_rational,
    iterate,
    lsc_residual,
    parse_rational,
)
from sixrde.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_INTERRUPTED,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_SINGULAR,
    EXIT_SPEC,
    EXIT_USAGE,
    _lsc_samples,
    canonical_spec_json,
    load_problem_spec,
    parse_problem_spec,
)

from conftest import (
    BASELINE,
    FRESH_CONVERSIONS,
    WAIT_SECONDS,
    child_env,
    count_fresh_conversions,
    join_all,
    random_coefficients,
    random_initial_conditions,
    run_on_baseline,
    spec_dict_from,
)


def write_spec(tmp_path, data, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def ones_spec(a="1", b="0", horizon=10):
    return {
        "initial": ["1", "1", "1", "1", "1", "1"],
        "coeffs": {"kind": "constant", "a": [a], "b": [b]},
        "horizon": horizon,
    }


# ---------------------------------------------------------------------------
# Spec parsing and round trips
# ---------------------------------------------------------------------------

def test_spec_round_trip_is_byte_stable(tmp_path):
    rng = random.Random(7)
    for kind in ("constant", "periodic2", "periodic4"):
        ic = random_initial_conditions(rng)
        coeffs = random_coefficients(rng, kind)
        path = write_spec(tmp_path, spec_dict_from(ic, coeffs, 12), f"{kind}.json")
        spec = load_problem_spec(path)
        echoed = canonical_spec_json(spec)
        respec = parse_problem_spec(json.loads(echoed))
        assert respec == spec
        assert canonical_spec_json(respec) == echoed


def test_emit_spec_output_reparses_equal(tmp_path, capsys):
    path = write_spec(tmp_path, ones_spec())
    assert cli.main(["iterate", "--spec", path, "--emit-spec"]) == EXIT_OK
    out = capsys.readouterr().out
    assert parse_problem_spec(json.loads(out)) == load_problem_spec(path)


@pytest.mark.parametrize("command", ["iterate", "solve", "compare"])
def test_emit_spec_writes_to_out(tmp_path, capsys, command):
    path = write_spec(tmp_path, ones_spec())
    out = tmp_path / "echo.json"
    assert cli.main([command, "--spec", path, "--emit-spec", "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr() == ("", "")
    assert out.read_text() == canonical_spec_json(load_problem_spec(path))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(initial=d["initial"][:5]),
        lambda d: d["initial"].__setitem__(0, "0.5"),
        lambda d: d["initial"].__setitem__(0, "0"),
        lambda d: d["coeffs"].update(kind="mystery"),
        lambda d: d.update(horizon=-1),
        lambda d: d["coeffs"].update(a=["1", "2"]),
        lambda d: d["coeffs"].update(a="2"),
        lambda d: d["coeffs"].update(b="0"),
        lambda d: d["initial"].__setitem__(0, 1),
        lambda d: d.update(coeffs={"kind": "periodic", "period": True, "a": ["1"], "b": ["0"]}),
        lambda d: d.update(coeffs={"kind": "periodic", "period": 1.0, "a": ["1"], "b": ["0"]}),
        lambda d: d.update(horzion=9),
        lambda d: d["coeffs"].update(extra=1),
        lambda d: d["coeffs"].update(period=1),
        lambda d: d.update(coeffs={"kind": "list", "period": 3, "a": ["1"] * 3, "b": ["0"] * 3}),
    ],
)
def test_malformed_specs_exit_64(tmp_path, mutate, capsys):
    data = ones_spec()
    mutate(data)
    path = write_spec(tmp_path, data)
    assert cli.main(["iterate", "--spec", path]) == EXIT_SPEC


def test_unknown_spec_keys_are_named_on_one_error_line(tmp_path, capsys):
    data = ones_spec()
    data["horzion"] = 9
    data["coeffs"]["extra"] = 1
    path = write_spec(tmp_path, data)
    assert cli.main(["iterate", "--spec", path, "--emit-spec"]) == EXIT_SPEC
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: malformed problem spec: unknown key(s) 'horzion', 'extra'\n"


@pytest.mark.parametrize("raw, key", [
    ('{"initial": ["1", "1", "1", "1", "1", "1"], "horizon": 2, '
     '"coeffs": {"kind": "constant", "a": ["1"], "b": ["0"]}, "horizon": 3}', "horizon"),
    ('{"initial": ["1", "1", "1", "1", "1", "1"], "horizon": 2, '
     '"coeffs": {"kind": "constant", "a": ["1"], "b": ["0"], "a": ["2"]}}', "a"),
], ids=["top-level", "coeffs"])
def test_a_repeated_spec_key_exits_64_and_is_named(tmp_path, capsys, raw, key):
    path = tmp_path / "spec.json"
    path.write_text(raw, encoding="utf-8")
    for extra in ([], ["--emit-spec"]):
        assert cli.main(["iterate", "--spec", str(path), *extra]) == EXIT_SPEC
        assert capsys.readouterr() == (
            "", f"error: malformed problem spec: repeated key {key!r}\n")


def test_a_literal_in_other_scripts_digits_exits_64_and_is_named(tmp_path, capsys):
    # ARABIC-INDIC DIGIT ONE, then a 5 behind a no-break space: only ASCII
    # digits and ASCII whitespace make a literal.
    for literal in ("\u0661", "\xa05"):
        data = ones_spec()
        data["initial"][0] = literal
        path = write_spec(tmp_path, data)
        for extra in ([], ["--emit-spec"]):
            assert cli.main(["iterate", "--spec", path, *extra]) == EXIT_SPEC
            assert capsys.readouterr() == ("", "error: malformed problem spec: "
                                           f"not an exact rational literal: {literal!r}\n")


def test_unreadable_and_non_json_specs_exit_64(tmp_path, capsys):
    text = json.dumps(dict(ones_spec(), coeffs={"kind": "periodic", "a": ["1"],
                                                "b": ["0"], "period": 1}))
    files = {
        "bad.json": b"not json",
        "utf16.json": text.encode("utf-16"),
        # A 4301-digit integer: past the int<->str digit limit, so the JSON
        # decoder rejects it.
        "long.json": text.replace('"period": 1', '"period": 1' + "0" * 4300).encode(),
        # Nesting past the decoder's recursion limit, bare or inside the object.
        "nested.json": b"[" * 200000,
        "nested_initial.json": b'{"initial": ' + b"[" * 200000,
        "array.json": b"[]",
    }
    for name, raw in files.items():
        (tmp_path / name).write_bytes(raw)
    errors = {}
    for name in ["missing.json", *files]:
        assert cli.main(["iterate", "--spec", str(tmp_path / name)]) == EXIT_SPEC
        out, errors[name] = capsys.readouterr()
        assert out == "" and errors[name].startswith("error: ")
        assert "Traceback" not in errors[name]
    # The long integer is named with the limit, not with a Python call to lift it.
    assert errors["long.json"] == (
        "error: spec file cannot be decoded: Exceeds the limit (4300 digits) "
        "for integer string conversion: value has 4301 digits\n")
    assert errors["array.json"] == "error: spec file must contain a JSON object\n"


def test_a_list_spec_parses_each_distinct_literal_once(tmp_path, monkeypatch, capsys):
    rng = random.Random(17)
    literals = ["1", "-2/3", "5/7", "1/2", "-3", "10/9"]
    data = {
        "initial": [rng.choice(literals) for _ in range(6)],
        "coeffs": {"kind": "list", "a": [rng.choice(literals) for _ in range(300)],
                   "b": [rng.choice(literals) for _ in range(300)]},
        "horizon": 20,
    }
    parsed = []
    monkeypatch.setattr(cli, "parse_rational",
                        lambda text: parsed.append(text) or parse_rational(text))
    spec = parse_problem_spec(data)
    assert sorted(parsed) == sorted(literals)
    assert spec.initial.values == tuple(map(parse_rational, data["initial"]))
    assert spec.coeffs.a_values() == tuple(map(parse_rational, data["coeffs"]["a"]))
    assert spec.coeffs.b_values() == tuple(map(parse_rational, data["coeffs"]["b"]))
    # The first malformed literal is still the one named, repeated or not.
    data["coeffs"]["b"][3] = "0.5"
    data["coeffs"]["a"][250] = data["coeffs"]["a"][280] = "1/0"
    path = write_spec(tmp_path, data)
    assert cli.main(["solve", "--spec", path]) == EXIT_SPEC
    assert capsys.readouterr().err == (
        "error: malformed problem spec: not an exact rational literal: '1/0'\n")


# ---------------------------------------------------------------------------
# iterate
# ---------------------------------------------------------------------------

def test_iterate_all_ones(tmp_path, capsys):
    path = write_spec(tmp_path, ones_spec())
    assert cli.main(["iterate", "--spec", path]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "m,exact,float"
    assert len(lines) == 17  # header + 16 rows for m = -5..10
    assert all(line.split(",")[1] == "1/1" for line in lines[1:])


def test_iterate_singular_truncates_and_exits_2(tmp_path, capsys):
    path = write_spec(tmp_path, ones_spec(a="1", b="-1"))
    assert cli.main(["iterate", "--spec", path]) == EXIT_SINGULAR
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7  # header + seeds only


def test_iterate_one_step_value(tmp_path, capsys):
    data = ones_spec(horizon=1)
    data["initial"] = ["1", "1", "1", "1", "2", "1"]
    path = write_spec(tmp_path, data)
    assert cli.main(["iterate", "--spec", path, "--n", "1"]) == EXIT_OK
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == "1,1/2,0.5"


# ---------------------------------------------------------------------------
# Output writer
# ---------------------------------------------------------------------------

def _csv_module_rendering(terms):
    """Reference CSV bytes for x_-5, x_-4, ... from the standard csv module."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["m", "exact", "float"])
    for m, value in enumerate(terms, -5):
        try:
            approx = float(value)
        except OverflowError:
            approx = math.inf if value > 0 else -math.inf
        writer.writerow([m, format_rational(value), repr(approx)])
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("command", [
    ["iterate"],
    ["solve", "--engine", "general"],
    ["solve", "--engine", "auto"],
    ["compare"],
], ids=["iterate", "solve-general", "solve-auto", "compare"])
def test_out_dash_writes_the_same_bytes_as_out_file(tmp_path, capsys, command):
    data = ones_spec(a="2", b="1/3", horizon=30)
    data["initial"] = ["3", "-1/2", "1", "5/7", "2", "1"]
    path = write_spec(tmp_path, data)
    out = tmp_path / "out"
    assert cli.main([command[0], "--spec", path, *command[1:], "--out", "-"]) == EXIT_OK
    printed = capsys.readouterr().out
    assert cli.main([command[0], "--spec", path, *command[1:], "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert printed.encode("utf-8") == out.read_bytes()


def _refuse_to_compute(monkeypatch):
    def refuse(*args):
        raise AssertionError("computed before --out was opened")

    for engine in (cli.oracle, cli.closedform, cli.specialcases):
        for name in ("iterate", "_terms", "_items"):
            if hasattr(engine, name):
                monkeypatch.setattr(engine, name, refuse)


@pytest.mark.parametrize("command", [["iterate"], ["solve"], ["compare"]], ids=str)
def test_unwritable_out_fails_before_any_computation(tmp_path, monkeypatch, capsys,
                                                     command):
    path = write_spec(tmp_path, ones_spec())
    _refuse_to_compute(monkeypatch)
    missing = tmp_path / "missing" / "out"
    for out, reason in ((missing, "[Errno 2] No such file or directory"),
                        (tmp_path, "[Errno 21] Is a directory")):
        assert cli.main([*command, "--spec", path, "--out", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {reason}: '{out}'\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]


@pytest.mark.parametrize("command", [["iterate"], ["solve"], ["compare"]], ids=str)
def test_an_empty_out_is_a_usage_error_before_the_spec_is_read(tmp_path, monkeypatch,
                                                               capsys, command):
    # realpath('') is the working directory, so no run may get as far as
    # writing output beside it.
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    path = write_spec(tmp_path, ones_spec())

    def refuse(spec_path):
        raise AssertionError("read the spec before checking --out")

    monkeypatch.setattr(cli, "load_problem_spec", refuse)
    assert cli.main([*command, "--spec", path, "--out", ""]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and "error: argument --out: " in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json", "work"]
    assert list(work.iterdir()) == []


def test_a_failed_run_leaves_no_file_and_keeps_the_old_one(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out.csv"
    # The explicit list runs out at x_5: solve fails after computing rows.
    data = ones_spec(horizon=12)
    data["coeffs"] = {"kind": "list", "a": ["1"] * 3, "b": ["0"] * 3}
    short = write_spec(tmp_path, data, "short.json")
    assert cli.main(["solve", "--spec", short, "--out", str(out)]) == EXIT_USAGE
    assert "past the explicit horizon" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["short.json"]
    # Nor does it print any row to stdout.
    assert cli.main(["solve", "--spec", short]) == EXIT_USAGE
    assert capsys.readouterr().out == ""
    # A run that fails while writing leaves the earlier file as it was.
    out.write_text("earlier\n")
    path = write_spec(tmp_path, ones_spec())
    monkeypatch.setattr(cli, "_output", _output_failing_on_row(4))
    assert cli.main(["iterate", "--spec", path, "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: no space left on device\n"
    assert out.read_text() == "earlier\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "short.json", "spec.json"]


def test_out_writes_through_a_pipe_and_a_symlink(tmp_path, capsys):
    path = write_spec(tmp_path, ones_spec(a="2", b="1/3"))
    assert cli.main(["iterate", "--spec", path]) == EXIT_OK
    want = capsys.readouterr().out.encode("utf-8")
    # A named pipe is written as it is, not replaced by a regular file.
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    received = []
    reader = threading.Thread(target=lambda: received.append(pipe.read_bytes()),
                              daemon=True)
    reader.start()
    assert cli.main(["iterate", "--spec", path, "--out", str(pipe)]) == EXIT_OK
    reader.join(timeout=WAIT_SECONDS)
    assert received == [want]
    assert stat.S_ISFIFO(os.stat(pipe).st_mode)
    # A symlink keeps pointing at its target, which gets the output.
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("earlier\n")
    link.symlink_to(target)
    assert cli.main(["iterate", "--spec", path, "--out", str(link)]) == EXIT_OK
    assert link.is_symlink() and target.read_bytes() == want
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "link.csv", "pipe", "spec.json", "target.csv"]


class _FailingStream:
    """A text stream that passes writes on to `fh` until the write that would
    complete its row `row` (its line `row + 1`, after the header), which
    raises OSError as a full disk would."""

    def __init__(self, fh, row):
        self.fh, self.lines, self.row = fh, 0, row

    def write(self, text):
        self.lines += text.count("\n")
        if self.lines > self.row:
            raise OSError("no space left on device")
        return self.fh.write(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)


def _output_failing_on_row(row):
    """`cli._output`, except that writing row number `row` of its stream
    raises OSError; every other step of the real `_output` runs."""
    real = cli._output

    @contextlib.contextmanager
    def output(path):
        with real(path) as fh:
            yield _FailingStream(fh, row)
    return output


def test_a_failed_run_writes_nothing_to_stdout_or_a_pipe(tmp_path, monkeypatch, capsys):
    path = write_spec(tmp_path, ones_spec())
    monkeypatch.setattr(cli, "_output", _output_failing_on_row(4))
    assert cli.main(["iterate", "--spec", path, "--out", "-"]) == EXIT_USAGE
    assert capsys.readouterr() == ("", "error: no space left on device\n")
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    received = []
    reader = threading.Thread(target=lambda: received.append(pipe.read_bytes()),
                              daemon=True)
    reader.start()
    monkeypatch.setattr(cli, "_output", _output_failing_on_row(4))
    assert cli.main(["iterate", "--spec", path, "--out", str(pipe)]) == EXIT_USAGE
    reader.join(timeout=WAIT_SECONDS)
    assert received == [b""]
    assert capsys.readouterr() == ("", "error: no space left on device\n")


def test_compare_fails_in_mid_report_before_its_engine_runs_out(tmp_path, monkeypatch,
                                                                capsys):
    # compare writes each row as it is formed, so a write that fails early
    # stops the run before the closed form has yielded all 36 values.
    path = write_spec(tmp_path, ones_spec(a="2", b="1/3", horizon=30))
    real, yielded = cli.closedform._items, []

    def counted(*args):
        for value in real(*args):
            yielded.append(value)
            yield value

    monkeypatch.setattr(cli.closedform, "_items", counted)
    monkeypatch.setattr(cli, "_output", _output_failing_on_row(4))
    out = tmp_path / "report.json"
    out.write_text("earlier\n")
    for target in (str(out), "-"):
        yielded.clear()
        assert cli.main(["compare", "--spec", path, "--out", target]) == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: no space left on device\n")
        assert 0 < len(yielded) < 36
    assert out.read_text() == "earlier\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "spec.json"]


@pytest.mark.parametrize("b, code, rows", [
    (["0", "0", "0"], EXIT_USAGE, 0),  # runs out at x_4
    (["-1", "0", "0"], EXIT_SINGULAR, 6),  # V_4 = 0 makes x_1 singular first
], ids=["runs-out", "singular-first"])
def test_a_list_solve_past_its_end_runs_the_engine_once(tmp_path, monkeypatch, capsys,
                                                       b, code, rows):
    data = ones_spec(horizon=12)
    data["coeffs"] = {"kind": "list", "a": ["1"] * 3, "b": b}
    path = write_spec(tmp_path, data)
    calls = []
    real_items = cli.closedform._items

    def counted_items(*args):
        calls.append(args)
        return real_items(*args)

    monkeypatch.setattr(cli.closedform, "_items", counted_items)
    assert cli.main(["solve", "--spec", path]) == code
    out = capsys.readouterr().out
    assert out.count("\n") == (rows + 1 if rows else 0)
    assert len(calls) == 1


def test_stdout_spool_leaves_no_file(tmp_path, monkeypatch, capsys):
    spool_dir = tmp_path / "spool"
    spool_dir.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spool_dir))
    path = write_spec(tmp_path, ones_spec())
    assert cli.main(["iterate", "--spec", path]) == EXIT_OK
    assert capsys.readouterr().out.startswith("m,exact,float\n")
    monkeypatch.setattr(cli, "_output", _output_failing_on_row(4))
    assert cli.main(["iterate", "--spec", path]) == EXIT_USAGE
    assert capsys.readouterr().out == ""
    assert list(spool_dir.iterdir()) == []


def test_a_singular_solve_keeps_the_rows_before_the_singular_index(tmp_path):
    # V_4 = 0 makes x_1 singular; the explicit list would run out at x_4.
    listed = ones_spec()
    listed["coeffs"] = {"kind": "list", "a": ["1"] * 3, "b": ["-1", "0", "0"]}
    out = tmp_path / "out.csv"
    for data in (ones_spec(a="1", b="-1"), listed):
        path = write_spec(tmp_path, data)
        assert cli.main(["solve", "--spec", path, "--range", "-5..6",
                         "--out", str(out)]) == EXIT_SINGULAR
        assert out.read_text() == "m,exact,float\n" + "".join(
            f"{m},1/1,1.0\n" for m in range(-5, 1))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "spec.json"]


@pytest.mark.parametrize("seeds, horizon", [
    # +-10^400 seeds: the float column reads inf and -inf.
    (["1" + "0" * 400, "-1" + "0" * 400, "1", "1", "2", "1"], 20),
    # At horizon 900 the last terms have more than 4300 decimal digits,
    # Python's default limit for int<->str conversion.
    (["1", "1", "1", "1", "2", "1"], 900),
], ids=["seeds-1e400", "horizon-900"])
def test_csv_bytes_equal_the_csv_module_rendering(tmp_path, monkeypatch, seeds, horizon):
    # The digit limit is process-wide, so the package never changes it.
    def refuse(maxdigits):
        raise AssertionError("the int<->str digit limit was changed")

    monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
    limit = sys.get_int_max_str_digits()
    data = ones_spec(a="2", b="1/3", horizon=horizon)
    data["initial"] = seeds
    path = write_spec(tmp_path, data)
    out = tmp_path / "orbit.csv"
    assert cli.main(["iterate", "--spec", path, "--out", str(out)]) == EXIT_OK
    assert sys.get_int_max_str_digits() == limit
    spec = load_problem_spec(path)
    orbit = iterate(spec.initial, spec.coeffs, horizon)
    want = _csv_module_rendering(orbit.terms)
    assert out.read_bytes() == want
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [int(m) for m, _, _ in rows] == list(range(-5, horizon + 1))
    # Every value, the last and the longest included, reads back.
    assert [parse_rational(exact) for _, exact, _ in rows] == list(orbit.terms)
    if horizon == 20:
        assert b",inf\n" in want and b",-inf\n" in want
    else:
        assert max(len(exact) for _, exact, _ in rows) > limit


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_seed_range_echoes_seeds(tmp_path, capsys):
    path = write_spec(tmp_path, ones_spec())
    assert cli.main(["solve", "--spec", path, "--range", "-5..-2"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["-5", "-4", "-3", "-2"]


def test_solve_general_matches_iterate(tmp_path):
    rng = random.Random(21)
    data = spec_dict_from(
        random_initial_conditions(rng), random_coefficients(rng, "periodic3"), 25
    )
    path = write_spec(tmp_path, data)
    out_it = tmp_path / "it.csv"
    out_sv = tmp_path / "sv.csv"
    assert cli.main(["iterate", "--spec", path, "--out", str(out_it)]) == EXIT_OK
    assert cli.main([
        "solve", "--spec", path, "--range", "-5..25", "--out", str(out_sv)
    ]) == EXIT_OK
    assert out_it.read_bytes() == out_sv.read_bytes()


def test_solve_auto_dispatches_each_kind(tmp_path):
    initial = ["2", "3", "5", "7", "11", "13"]
    for name, coeffs in {
        "a2": {"kind": "constant", "a": ["2"], "b": ["3"]},
        "a1": {"kind": "constant", "a": ["1"], "b": ["2"]},
        "aneg1": {"kind": "constant", "a": ["-1"], "b": ["2"]},
        "p2": {"kind": "periodic", "period": 2, "a": ["2", "3"], "b": ["1", "-1/2"]},
        "p4": {"kind": "periodic", "period": 4,
               "a": ["1", "2", "-1/2", "3"], "b": ["1", "0", "2", "-1"]},
    }.items():
        path = write_spec(
            tmp_path, {"initial": initial, "coeffs": coeffs, "horizon": 24}, f"{name}.json"
        )
        outs = {}
        for engine in ("general", "auto"):
            outs[engine] = tmp_path / f"{name}-{engine}.csv"
            assert cli.main([
                "solve", "--spec", path, "--engine", engine, "--out", str(outs[engine])
            ]) == EXIT_OK, (name, engine)
        assert outs["auto"].read_bytes() == outs["general"].read_bytes(), name


def test_solve_auto_rejects_unsupported_kind(tmp_path, capsys):
    for coeffs, got in (
        ({"kind": "periodic", "period": 3, "a": ["1", "2", "3"], "b": ["0", "0", "0"]},
         "period 3"),
        ({"kind": "list", "a": ["1"] * 8, "b": ["0"] * 8}, "kind 'list'"),
    ):
        data = ones_spec(horizon=8)
        data["coeffs"] = coeffs
        path = write_spec(tmp_path, data)
        assert cli.main(["solve", "--spec", path, "--engine", "auto"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: special cases need constant or 1-, 2- or 4-periodic coefficients, "
            f"got {got}\n"
        )


def test_solve_singular_prints_position_and_exits_2(tmp_path, capsys):
    path = write_spec(tmp_path, ones_spec(a="1", b="-1"))
    assert cli.main(["solve", "--spec", path, "--range", "-5..6"]) == EXIT_SINGULAR
    captured = capsys.readouterr()
    assert "j=2" in captured.err and "s=0" in captured.err
    # Both engines write every row before the singular x_m, then stop; a
    # range that starts at x_m writes only the header.
    for a, b, m, position in (("1", "-1", 1, "j=2, s=0"), ("2", "-4/3", 5, "j=2, s=1")):
        path = write_spec(tmp_path, ones_spec(a=a, b=b))
        for engine in ("general", "auto"):
            for lo, rows in ((-5, list(range(-5, m))), (m, [])):
                code = cli.main(["solve", "--spec", path, "--engine", engine,
                                 "--range", f"{lo}..{m + 4}"])
                assert code == EXIT_SINGULAR, (b, engine, lo)
                captured = capsys.readouterr()
                lines = captured.out.splitlines()
                assert lines[0] == "m,exact,float"
                assert [int(line.split(",")[0]) for line in lines[1:]] == rows
                assert f"at x_{m}: {position}" in captured.err


def test_solve_bad_range_is_usage_error(tmp_path, capsys):
    path = write_spec(tmp_path, ones_spec())
    assert cli.main(["solve", "--spec", path, "--range", "oops"]) == EXIT_USAGE
    assert cli.main(["solve", "--spec", path, "--range", "3..-3"]) == EXIT_USAGE
    for bad in ("-6..0", "5", "1.."):
        capsys.readouterr()
        assert cli.main(["solve", "--spec", path, "--range", bad]) == EXIT_USAGE
        assert "Traceback" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

#: Draws `test_compare_random_specs_exit_0` may make: seed 33 reaches its six
#: nonsingular reports in 7, and a fault that makes every report read
#: singular fails at this cap instead of drawing forever.
COMPARE_DRAWS = 12


def test_compare_random_specs_exit_0(tmp_path):
    rng = random.Random(33)
    ran = 0
    for draw in range(COMPARE_DRAWS):
        kind = ("constant", "periodic2", "periodic3", "periodic4")[ran % 4]
        data = spec_dict_from(
            random_initial_conditions(rng), random_coefficients(rng, kind), 30
        )
        path = write_spec(tmp_path, data, f"cmp{draw}.json")
        out = tmp_path / f"cmp{draw}.json.out"
        code = cli.main(["compare", "--spec", path, "--out", str(out)])
        report = json.loads(out.read_text())
        if report["summary"]["singularity"] is not None:
            continue
        assert code == EXIT_OK
        assert report["summary"]["first_mismatch"] is None
        assert all(row["match"] for row in report["rows"])
        ran += 1
        if ran == 6:
            return
    raise AssertionError(f"only {ran} of {COMPARE_DRAWS} reports read no singularity; "
                         "seed 33 needs 7 draws for 6")


def test_compare_streams_its_report_with_the_bytes_of_json_dumps(
        tmp_path, monkeypatch, capsys):
    path = write_spec(tmp_path, dict(BASELINE, horizon=300))
    dumps = json.dumps

    def refuse(obj, *args, **kwargs):
        # The summary may be encoded; the rows must never be held and encoded.
        if isinstance(obj, dict) and "rows" in obj:
            raise AssertionError("the report was rendered as one string")
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(cli.json, "dumps", refuse)
    out = tmp_path / "report.json"
    assert cli.main(["compare", "--spec", path, "--out", "-"]) == EXIT_OK
    printed = capsys.readouterr().out.encode("utf-8")
    assert cli.main(["compare", "--spec", path, "--out", str(out)]) == EXIT_OK
    monkeypatch.undo()
    report = json.loads(printed)
    assert len(report["rows"]) == 306 and all(row["match"] for row in report["rows"])
    want = (dumps(report, indent=2, sort_keys=True) + "\n").encode("utf-8")
    assert printed == want
    assert out.read_bytes() == want


def test_compare_renders_the_oracle_terms_and_holds_no_orbit(tmp_path, monkeypatch,
                                                             capsys):
    # The oracle column is `oracle._terms` itself, so the renderer gets its
    # hints, which spare each carried part a full-height gcd.
    path = write_spec(tmp_path, BASELINE)
    argv = ["compare", "--spec", path, "--n", "400"]
    assert cli.main(argv) == EXIT_OK
    want = capsys.readouterr().out
    real, rendered = cli._rendered, []

    def refuse(*args):
        raise AssertionError("compare built an orbit")

    def recorded(values):
        return real(rendered.append(item) or item for item in values)

    monkeypatch.setattr(cli.oracle, "iterate", refuse)
    monkeypatch.setattr(cli, "_rendered", recorded)
    assert cli.main(argv) == EXIT_OK
    assert capsys.readouterr().out == want
    spec = load_problem_spec(path)
    assert rendered == list(cli.oracle._terms(spec.initial, spec.coeffs, 400))
    assert len(rendered) == 406 and all(hint is not None for *_, hint in rendered[8:])


@pytest.mark.parametrize("engine", ["oracle", "general", "auto"])
def test_each_engines_hints_spare_the_renderer_every_full_height_gcd(tmp_path, monkeypatch,
                                                                     capsys, engine):
    # `iterate` renders the oracle's hints and `solve` a range engine's.  The
    # first run fills a range engine's slot, and the oracle's own gcds are
    # `oracle.gcd`, bound at import, so every `math.gcd` of the second run is
    # the renderer's: each reduces a hint, two small operands, and a part
    # the renderer carries is at least the piece limit.
    path = write_spec(tmp_path, BASELINE)
    argv = ["iterate", "--spec", path, "--n", "800"]
    assert cli.main(argv) == EXIT_OK
    want = capsys.readouterr().out
    if engine != "oracle":
        argv = ["solve", "--spec", path, "--range", "-5..800", "--engine", engine]
        assert cli.main(argv) == EXIT_OK
        assert capsys.readouterr().out == want
    operands, gcd = [], math.gcd
    monkeypatch.setattr(math, "gcd", lambda a, b: operands.append(max(a, b)) or gcd(a, b))
    fresh = count_fresh_conversions(monkeypatch)
    assert cli.main(argv) == EXIT_OK
    monkeypatch.undo()
    assert capsys.readouterr().out == want
    assert 1 <= len(fresh) <= FRESH_CONVERSIONS
    assert len(operands) > 1000 and max(operands) < core._PIECE_LIMIT


def _with_coeffs(coeffs, horizon=8):
    return dict(ones_spec(horizon=horizon), coeffs=coeffs)


def _no_special_column(report):
    """Whether all 14 rows of an 8-step report lack the special column."""
    rows = report["rows"]
    return len(rows) == 14 and all("special" not in row for row in rows)


@pytest.mark.parametrize("data, argv, corrupt, code, shape", [
    pytest.param(ones_spec(a="2", b="3", horizon=6), [], {"closedform": 3}, EXIT_MISMATCH,
                 lambda report: _only_x3_is_off_by_one(report, "closed_form"),
                 id="closed-form-mismatch"),
    pytest.param(_with_coeffs({"kind": "periodic", "period": 4, "a": ["1", "2", "-1/2", "3"],
                               "b": ["1", "0", "2", "-1"]}, horizon=6),
                 [], {"specialcases": 3}, EXIT_MISMATCH,
                 lambda report: _only_x3_is_off_by_one(report, "special"),
                 id="special-mismatch"),
    pytest.param(ones_spec(a="2", b="3", horizon=8), [],
                 {"closedform": 5, "specialcases": 3}, EXIT_MISMATCH,
                 lambda report: report["summary"]["first_mismatch"] == 3
                 and [row["m"] for row in report["rows"] if not row["match"]] == [3, 5],
                 id="two-mismatches"),
    pytest.param(_with_coeffs({"kind": "periodic", "period": 3, "a": ["1", "2", "3"],
                               "b": ["0", "1", "0"]}), [], {}, EXIT_OK,
                 _no_special_column, id="period3"),
    pytest.param(_with_coeffs({"kind": "list", "a": ["2"] * 8, "b": ["1"] * 8}),
                 [], {}, EXIT_OK,
                 _no_special_column, id="list"),
    pytest.param(ones_spec(a="1", b="-1"), [], {}, EXIT_OK,
                 lambda report: report["summary"]["singularity"] is not None
                 and len(report["summary"]["violations"]) > 1, id="singular"),
    pytest.param(ones_spec(a="2", b="1/3"), ["--n", "0"], {}, EXIT_OK,
                 lambda report: len(report["rows"]) == 6, id="n0"),
    pytest.param(BASELINE, ["--n", "400"], {}, EXIT_OK,
                 lambda report: len(report["rows"][-1]["oracle"]) > 2 * 640,
                 id="baseline-n400"),
])
def test_compare_report_has_the_bytes_of_json_dumps_in_every_shape(
        tmp_path, monkeypatch, capsys, data, argv, corrupt, code, shape):
    for name, at in corrupt.items():
        engine = getattr(cli, name)
        monkeypatch.setattr(engine, "_items", _corrupting(engine._items, at))
    assert cli.main(["compare", "--spec", write_spec(tmp_path, data), *argv]) == code
    printed = capsys.readouterr().out
    report = json.loads(printed)
    assert shape(report)
    assert printed == json.dumps(report, indent=2, sort_keys=True) + "\n"


def _corrupting(real_items, at=3):
    """A range engine like `real_items` whose x_at is off by one."""
    def corrupted(lo, hi, *args):
        for m, (num, den, hint) in enumerate(real_items(lo, hi, *args), lo):
            yield (num + den, den, None) if m == at else (num, den, hint)
    return corrupted


def _only_x3_is_off_by_one(report, column):
    """Whether compare stopped at x_3, where `column` prints the oracle's
    value plus one; every other engine cell equals its row's oracle cell."""
    for row in report["rows"]:
        off = row["m"] == 3
        assert row["match"] == (not off)
        oracle = parse_rational(row["oracle"])
        for key in ("closed_form", "special"):
            assert row[key] == format_rational(oracle + (off and key == column)), row
    return report["summary"]["first_mismatch"] == 3


@pytest.mark.parametrize("kind", ["constant", "periodic"])
def test_a_neg1_runs_the_shared_product(tmp_path, monkeypatch, capsys, kind):
    # Constant and period-1 a = -1 reach the special-case engine's slot like
    # every other case; the corruption there leaves the closed form alone.
    data = ones_spec(a="-1", b="2", horizon=6)
    data["coeffs"]["kind"] = kind
    path = write_spec(tmp_path, data)
    monkeypatch.setattr(cli.specialcases, "_items", _corrupting(cli.specialcases._items))
    assert cli.main(["compare", "--spec", path]) == EXIT_MISMATCH
    assert _only_x3_is_off_by_one(json.loads(capsys.readouterr().out), "special")
    assert cli.main(["solve", "--spec", path, "--engine", "auto"]) == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    spec = load_problem_spec(path)
    orbit = iterate(spec.initial, spec.coeffs, 6)
    assert [row["exact"] for row in rows] == [
        format_rational(orbit.x(m) + (m == 3)) for m in range(-5, 7)
    ]


# The specs no special case covers, period 3 and an explicit list, are the
# `period3` and `list` shapes of the report test above.
@pytest.mark.parametrize("coeffs", [
    {"kind": "periodic", "period": 1, "a": ["2"], "b": ["1"]},
    {"kind": "periodic", "period": 2, "a": ["2", "3"], "b": ["1", "-1/2"]},
    {"kind": "periodic", "period": 4, "a": ["1", "2", "-1/2", "3"], "b": ["1", "0", "2", "-1"]},
], ids=["period1", "period2", "period4"])
def test_compare_has_a_special_column_iff_a_special_case_covers_the_spec(
    tmp_path, capsys, coeffs
):
    data = ones_spec(horizon=8)
    data["coeffs"] = coeffs
    path = write_spec(tmp_path, data)
    assert cli.main(["compare", "--spec", path]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == 14
    assert all("special" in row for row in rows)


def test_compare_near_singular_reports_violations(tmp_path, capsys):
    path = write_spec(tmp_path, ones_spec(a="1", b="-1"))
    code = cli.main(["compare", "--spec", path])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK  # truncated rows all match
    assert report["summary"]["singularity"] == {
        "step": 0,
        "cause": "ZeroDenominatorFactor",
    }
    violations = report["summary"]["violations"]
    assert violations and violations[0]["halt_step"] == 0
    assert violations[0]["v_index"] == 4


def planted_zero_spec(count, v_index, length=32):
    """All-ones seeds and a = b = 1 over `length` steps, so V_(4t+j) = 1 + t,
    except b at step v_index - 4, set so that V_(v_index) alone vanishes."""
    b = ["1"] * length
    b[v_index - 4] = str(-(v_index // 4))
    return {
        "initial": ["1"] * 6,
        "coeffs": {"kind": "list", "a": ["1"] * length, "b": b},
        "horizon": count,
    }


def compare_summary(tmp_path, capsys, data):
    code = cli.main(["compare", "--spec", write_spec(tmp_path, data)])
    assert code == EXIT_OK
    return json.loads(capsys.readouterr().out)["summary"]


def test_compare_lists_the_violation_of_a_halt_at_the_last_step(tmp_path, capsys):
    count = 11  # count = 3 (mod 4): V_(count+3) is past V_(4*(count//4)+5)
    summary = compare_summary(tmp_path, capsys, planted_zero_spec(count, count + 3))
    assert summary["singularity"] == {"step": count - 1, "cause": "ZeroDenominatorFactor"}
    assert summary["violations"] == [
        {"j": 2, "s": 3, "v_index": count + 3, "halt_step": count - 1}
    ]


@pytest.mark.parametrize("count", [8, 9, 10, 11])
def test_compare_violations_reach_v_4_times_count_over_4_plus_13(tmp_path, capsys, count):
    # `summary.violations` is `well_defined(horizon=count // 4 + 2)`: V_4 up
    # to V_(4*(count//4) + 13).  A zero at that last index is listed, one
    # past it is not.
    last = 4 * (count // 4) + 13
    summary = compare_summary(tmp_path, capsys, planted_zero_spec(count, last))
    assert summary["singularity"] is None
    assert [v["v_index"] for v in summary["violations"]] == [last]
    summary = compare_summary(tmp_path, capsys, planted_zero_spec(count, last + 1))
    assert summary["violations"] == []


# ---------------------------------------------------------------------------
# verify-symmetry
# ---------------------------------------------------------------------------

def test_verify_symmetry_passes_and_is_reproducible(capsys):
    golden = (
        "lsc Q1: samples=40 nonzero_residuals=0 ok\n"
        "lsc Q2: samples=40 nonzero_residuals=0 ok\n"
        "RESULT ok\n"
    )
    for _ in range(2):
        assert cli.main(["verify-symmetry", "--samples", "40", "--seed", "11"]) == EXIT_OK
        assert capsys.readouterr().out == golden


def test_every_sample_tells_the_counterfeit_from_a_symmetry():
    # At b = 0 scaling, the counterfeit Q = u, is a true symmetry, so each
    # sample draws b != 0 and every one of them must catch the counterfeit.
    samples = _lsc_samples(1, 2000)
    assert all(sample.b for sample in samples)
    assert all(lsc_residual(counterfeit_characteristic, sample) for sample in samples)


@pytest.mark.parametrize("seed, samples", [("3", "10"), ("1", "60"), ("7", "60"), ("42", "60")],
                         ids=["3", "1", "7", "42"])
def test_verify_symmetry_counterfeit_is_caught_on_every_sample(capsys, seed, samples):
    code = cli.main(["verify-symmetry", "--samples", samples, "--seed", seed, "--counterfeit"])
    assert code == EXIT_MISMATCH
    assert capsys.readouterr().out == (
        f"lsc counterfeit: samples={samples} nonzero_residuals={samples} FAIL\n"
        "RESULT FAIL\n"
    )


def test_verify_symmetry_rejects_bad_sample_count(capsys):
    for count in ("0", "-1", "abc"):
        assert cli.main(["verify-symmetry", "--samples", count]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"--samples: must be an integer >= 1, got {count!r}" in err
        assert "Traceback" not in err


# ---------------------------------------------------------------------------
# Exit-code contract
# ---------------------------------------------------------------------------

def test_usage_errors_exit_65(tmp_path, capsys):
    assert cli.main([]) == EXIT_USAGE
    assert cli.main(["bogus"]) == EXIT_USAGE
    assert cli.main(["solve"]) == EXIT_USAGE  # missing --spec
    path = write_spec(tmp_path, ones_spec())
    capsys.readouterr()
    for command in ("iterate", "compare"):
        assert cli.main([command, "--spec", path, "--n", "-1"]) == EXIT_USAGE
        assert "Traceback" not in capsys.readouterr().err


@contextlib.contextmanager
def _child(*argv: str, stdout=subprocess.PIPE, **variables: str):
    """`python -m sixrde argv` in a child process, stderr piped.  Standard
    streams are buffered as Python's defaults have them, unless `variables`
    sets PYTHONUNBUFFERED.  The child is killed on the way out, before it is
    waited for, so a test that fails while it runs does not wait for its end."""
    with subprocess.Popen([sys.executable, "-m", "sixrde", *argv], env=child_env(**variables),
                          stdout=stdout, stderr=subprocess.PIPE) as child:
        try:
            yield child
        finally:
            child.kill()  # a no-op once it has exited


@pytest.mark.parametrize("argv", [
    ["iterate", "--n", "1600"],
    ["solve", "--range", "-5..1600"],
    ["compare", "--n", "400"],
], ids=" ".join)
def test_each_residue_chain_converts_its_digits_afresh_a_fixed_number_of_times(argv):
    # The N = 1600 runs are shared with their digest pins in test_large_n.py.
    fresh, (_, size) = run_on_baseline(*argv)
    assert size > 10**6
    assert 1 <= fresh <= FRESH_CONVERSIONS, fresh


def test_a_reader_that_closes_the_pipe_early_gets_exit_141_and_no_message(tmp_path):
    # 579 kB of CSV: the child is still writing when the pipe closes.
    with _child("iterate", "--spec", write_spec(tmp_path, BASELINE), "--n", "400") as child:
        assert child.stdout.read(5) == b"m,exa"
        child.stdout.close()
        assert child.wait(timeout=WAIT_SECONDS) == EXIT_BROKEN_PIPE == 141
        assert child.stderr.read() == b""


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_printing_into_a_pipe_nobody_reads_gets_exit_141_and_no_message(unbuffered):
    # Buffered, verify-symmetry's few lines reach the pipe only at the final
    # flush; unbuffered, at the first print.
    read_end, write_end = os.pipe()
    os.close(read_end)
    with _child("verify-symmetry", "--samples", "3", stdout=write_end,
                PYTHONUNBUFFERED=unbuffered) as child:
        os.close(write_end)
        assert child.wait(timeout=WAIT_SECONDS) == EXIT_BROKEN_PIPE
        assert child.stderr.read() == b""


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
def test_sigint_prints_one_line_and_exits_130(tmp_path):
    fifo = tmp_path / "spec.fifo"
    os.mkfifo(fifo)
    with _child("solve", "--spec", str(fifo)) as child:
        # The write end opens once the child has opened the read end, so
        # it is then inside `main`, waiting for the spec's bytes.
        deadline = time.monotonic() + WAIT_SECONDS
        while True:
            try:
                fd = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
                break
            except OSError as exc:
                assert exc.errno == errno.ENXIO and child.poll() is None
                assert time.monotonic() < deadline, "the child never opened the spec"
                time.sleep(0.01)
        try:
            child.send_signal(signal.SIGINT)
            out, err = child.communicate(timeout=WAIT_SECONDS)
        finally:
            os.close(fd)
    assert child.returncode == EXIT_INTERRUPTED == 130
    assert (out, err) == (b"", b"interrupted\n")


# ---------------------------------------------------------------------------
# One argument parser per process
# ---------------------------------------------------------------------------

def test_the_shared_parser_keeps_no_state_between_calls(tmp_path, monkeypatch, capsys):
    path = write_spec(tmp_path, ones_spec(a="2", b="1/3", horizon=12))
    calls = [["solve", "--range", "3"], ["--help"], ["solve", "--spec", path],
             ["solve", "--help"], ["solve", "--spec", path, "--range", "-2..7"]]

    def run_all():
        results = []
        for argv in calls:
            code = cli.main(argv)
            results.append((code, *capsys.readouterr()))
        return results

    shared = run_all()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a new parser per call
    assert run_all() == shared
    assert [code for code, _, _ in shared] == [EXIT_USAGE, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK]
    assert shared[0][2].startswith("usage: sixrde solve") and shared[1][1].startswith("usage: ")


def test_main_builds_its_parser_once_per_process(tmp_path, monkeypatch, capsys):
    assert cli.build_parser() is not cli.build_parser()
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    path = write_spec(tmp_path, ones_spec())
    for argv in (["bogus"], ["iterate", "--spec", path], ["solve", "--spec", path],
                 ["verify-symmetry", "--samples", "2"]):
        cli.main(argv)
    assert built == [1]


def test_concurrent_calls_write_what_sequential_calls_write(tmp_path, capsys):
    rng = random.Random(23)
    argvs = []
    for i, (kind, command) in enumerate([("constant", "solve"), ("periodic2", "iterate"),
                                         ("periodic4", "compare"), ("periodic3", "solve")]):
        data = spec_dict_from(random_initial_conditions(rng), random_coefficients(rng, kind), 240)
        argvs.append([command, "--spec", write_spec(tmp_path, data, f"spec{i}.json")])

    start = threading.Barrier(len(argvs))

    def run(i, argv, tag, codes):
        if tag == "thr":
            start.wait(timeout=WAIT_SECONDS)
        codes[i] = cli.main(argv + ["--out", str(tmp_path / f"{tag}{i}.out")])

    sequential = {}
    for i, argv in enumerate(argvs):
        run(i, argv, "seq", sequential)
    cli._parser.cache_clear()  # the threads also race to build the parser
    concurrent = {}
    threads = [threading.Thread(target=run, args=(i, argv, "thr", concurrent))
               for i, argv in enumerate(argvs)]
    for thread in threads:
        thread.start()
    join_all(threads)
    assert concurrent == sequential == dict.fromkeys(range(len(argvs)), EXIT_OK)
    for i in range(len(argvs)):
        assert (tmp_path / f"thr{i}.out").read_bytes() == (tmp_path / f"seq{i}.out").read_bytes()
    assert capsys.readouterr() == ("", "")


# ---------------------------------------------------------------------------
# Fuzzed spec/argv boundary
# ---------------------------------------------------------------------------

_RATIONALS = st.sampled_from(["1", "-1", "2", "-2", "1/2", "-1/2", "3/2", "1/3"])
_MALFORMED = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=4),
    st.lists(st.integers(-2, 2), max_size=3), st.just(["1/0"]), st.just(["0.5"]),
)


@st.composite
def _fuzzed_specs(draw):
    """Problem specs, mostly valid (so the run reaches the engines), sometimes
    singular, sometimes with one field replaced by malformed JSON."""
    kind = draw(st.sampled_from(["constant", "periodic", "list"]))
    length = {"constant": 1, "periodic": draw(st.integers(1, 4)),
              "list": draw(st.integers(0, 30))}[kind]
    a = draw(st.lists(st.sampled_from(["1", "-1", "2", "1/2", "0"]),
                      min_size=length, max_size=length))
    b = draw(st.lists(st.sampled_from(["0", "1", "-1", "1/3"]),
                      min_size=length, max_size=length))
    coeffs = {"kind": kind, "a": a, "b": b}
    if kind == "periodic":
        coeffs["period"] = length
    spec = {
        "initial": draw(st.lists(_RATIONALS, min_size=6, max_size=6)),
        "coeffs": coeffs,
        "horizon": draw(st.integers(0, 30)),
    }
    if draw(st.integers(0, 4)) == 0:
        where = draw(st.sampled_from(["initial", "horizon", "coeffs", "kind", "a", "b"]))
        target = coeffs if where in ("kind", "a", "b") else spec
        target[where] = draw(_MALFORMED)
    return spec


@st.composite
def _fuzzed_argv(draw):
    command = draw(st.sampled_from(["iterate", "solve", "compare"]))
    argv = [command]
    if command == "solve":
        if draw(st.booleans()):
            lo, hi = draw(st.integers(-8, 30)), draw(st.integers(-8, 30))
            argv += ["--range", f"{lo}..{hi}"]
        argv += ["--engine", draw(st.sampled_from(["general", "auto"]))]
    elif draw(st.booleans()):
        argv += ["--n", str(draw(st.integers(-8, 30)))]
    if draw(st.integers(0, 9)) == 0:
        argv.append("--emit-spec")
    return argv


@st.composite
def _fuzzed_spec_bytes(draw):
    """Spec files as raw bytes: random bytes, or a fuzzed spec's JSON with a
    few bytes replaced, inserted or deleted."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=200))
    raw = bytearray(json.dumps(draw(_fuzzed_specs())).encode())
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(raw) - 1))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit == "delete":
            del raw[at]
        else:
            raw[at:at + (edit == "replace")] = draw(st.binary(min_size=1, max_size=1))
    return bytes(raw)


def _assert_contract_holds(raw: bytes, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "wb") as fh:
            fh.write(raw)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv[:1] + ["--spec", path] + argv[1:])
    assert code in (EXIT_OK, EXIT_SINGULAR, EXIT_MISMATCH, EXIT_SPEC, EXIT_USAGE)
    assert "Traceback" not in err.getvalue()


@settings(max_examples=150, derandomize=True, deadline=None)
@given(spec=_fuzzed_specs(), argv=_fuzzed_argv())
def test_cli_contract_holds_for_fuzzed_specs_and_argv(spec, argv):
    _assert_contract_holds(json.dumps(spec).encode(), argv)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(raw=_fuzzed_spec_bytes(), argv=_fuzzed_argv())
def test_cli_contract_holds_for_spec_files_of_fuzzed_bytes(raw, argv):
    _assert_contract_holds(raw, argv)


def test_lsc_samples_are_deterministic():
    assert _lsc_samples(99, 5) == _lsc_samples(99, 5)
    assert _lsc_samples(1, 5) != _lsc_samples(2, 5)
