import argparse
import csv
import json
import sys

import pytest

from genkummer import cli, pell
from genkummer.cli import run
from genkummer.exact_linalg import IndefiniteForm, SingularMatrix
from genkummer.isometry_search import NotAConfiguration
from genkummer.pell import InvalidSolution


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def test_pell_command(capsys):
    assert run(["pell", "120"]) == 0
    blob = _json_out(capsys)
    assert blob["x0"] == "11" and blob["y0"] == "1"
    assert blob["tool"]["name"] == "genkummer"

    assert run(["pell", "12"]) == 0
    blob = _json_out(capsys)
    assert blob["x0"] == "7" and blob["y0"] == "2"


def test_pell_square_exits_two(capsys):
    assert run(["pell", "4"]) == 2
    assert "perfect square" in capsys.readouterr().out


def test_ns_command(capsys):
    assert run(["ns", "20"]) == 0
    blob = _json_out(capsys)
    assert blob["L2"] == 20 and blob["disc"] == [3, 3, 60]
    assert run(["ns", "10"]) == 1


def test_decide_command(capsys):
    assert run(["decide", "20"]) == 0
    blob = _json_out(capsys)
    assert blob["two_structures"] is True and blob["case"] == "TWO_MOD6"
    assert run(["decide", "6"]) == 2
    capsys.readouterr()
    assert run(["decide", "7"]) == 1


def test_scan_csv(capsys, tmp_path):
    assert run(["scan", "8", "30"]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    by_l2 = {row["L2"]: row for row in rows}
    assert by_l2["20"]["two_structures"] == "True"
    assert by_l2["8"]["two_structures"] == "False"
    assert by_l2["24"]["x0"] == ""

    out = tmp_path / "scan.csv"
    assert run(["scan", "20", "20", "--with-search", "--out", str(out)]) == 0
    row = next(csv.DictReader(out.read_text().splitlines()))
    assert row["search_agrees"] == "True"


def test_scan_deterministic_across_jobs(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(["scan", "8", "60", "--out", str(a)]) == 0
    assert run(["--jobs", "4", "scan", "8", "60", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_scan_json_format(capsys):
    assert run(["--format", "json", "scan", "44", "44"]) == 0
    blob = _json_out(capsys)
    assert blob["rows"][0]["two_structures"] == "True"


def test_search_command(capsys):
    assert run(["search", "20"]) == 0
    blob = _json_out(capsys)
    assert blob["prune_count"] == 432
    assert blob["accepted"] == []
    assert blob["status_counts"]["accepted"] == 0

    assert run(["search", "8"]) == 0
    blob = _json_out(capsys)
    assert blob["accepted"]
    assert any(c["order"] == 2 for c in blob["accepted"])

    assert run(["search", "6"]) == 2


def test_fm_command(capsys):
    assert run(["fm", "1", "1", "1", "1"]) == 0
    blob = _json_out(capsys)
    assert blob["LX2"] == 20 and blob["transcendental_index"] == 1
    assert run(["fm", "2", "2", "0", "0"]) == 1


def test_aut20_command(capsys):
    assert run(["aut20"]) == 0
    blob = _json_out(capsys)
    assert blob["order"] == 36
    assert blob["structure"] == "Z2 x (Z3 : S3)"


def test_usage_errors(capsys):
    assert run(["pell"]) == 1
    capsys.readouterr()
    assert run(["unknown-command"]) == 1
    capsys.readouterr()
    assert run(["--jobs", "0", "pell", "12"]) == 1
    capsys.readouterr()
    assert run(["--format", "csv", "decide", "20"]) == 1
    capsys.readouterr()
    assert run(["scan", "30", "8"]) == 1
    capsys.readouterr()
    # --with-search belongs to scan only, and positionals are integers
    assert run(["search", "20", "--with-search"]) == 1
    capsys.readouterr()
    assert run(["ns", "x"]) == 1
    err = capsys.readouterr().err
    # argparse's message follows the usage line
    assert err.startswith("usage: genkummer ns ")
    assert err.endswith("\ngenkummer ns: error: argument L2: invalid int value: 'x'\n")
    assert run(["fm", "1", "1", "1", "x"]) == 1


@pytest.mark.parametrize("command", [
    "pell", "ns", "decide", "scan", "search", "aut20", "fm"])
def test_every_command_has_help(command, capsys):
    assert run([command, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: genkummer {command} ")


@pytest.mark.parametrize("argv", [["pell", "120"], ["scan", "8", "20"]])
def test_unwritable_out_is_a_usage_error(argv, tmp_path, capsys):
    path = tmp_path / "missing" / "report"
    assert run(argv + ["--out", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {path}: No such file or directory\n"


def test_byte_identical_reports(tmp_path):
    for args in (["decide", "44"], ["search", "14"], ["ns", "24"]):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def test_scan_with_search_deterministic_across_jobs(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(["scan", "14", "44", "--with-search", "--out", str(a)]) == 0
    assert run(["scan", "14", "44", "--with-search", "--jobs", "2",
                "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    rows = list(csv.DictReader(a.read_text().splitlines()))
    assert {row["search_agrees"] for row in rows} <= {"True", ""}
    assert any(row["search_agrees"] == "True" for row in rows)


def test_scan_with_search_covers_zero_mod_18(capsys):
    # criterion-only rows: the search finds no isometry, as criterion_ok says
    for L2 in ("36", "72"):
        assert run(["scan", L2, L2, "--with-search"]) == 0
        row, = csv.DictReader(capsys.readouterr().out.splitlines())
        assert row["two_structures"] == "False"
        assert row["search_agrees"] == "True"


@pytest.mark.parametrize("exc", [
    IndefiniteForm("form is not positive definite"),
    SingularMatrix("snf expects a nonsingular matrix"),
    NotAConfiguration("expected exactly 12 six-block supports"),
    InvalidSolution("fundamental solution fails the Pell equation"),
    AssertionError("reduction transform lost the Gram matrix"),
])
def test_internal_errors_exit_three(exc, capsys, monkeypatch):
    # a broken invariant must not share an exit code with bad user input
    def fail(arg):
        raise exc

    monkeypatch.setattr(cli, "decide", fail)
    monkeypatch.setattr(pell, "fundamental_solution", fail)
    for argv in (["decide", "20"], ["pell", "120"]):
        assert run(argv) == cli.EXIT_INTERNAL == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: internal: {exc}\n"


def test_pell_below_two_is_a_usage_error(capsys):
    assert run(["pell", "1"]) == 1
    assert capsys.readouterr().err == "error: D must be at least 2\n"


def test_long_pell_solutions_pass_the_digit_cap(capsys):
    # x0 has 1,021 digits at L^2 = 992246 (D = 6 L^2 = 5953476); run lifts
    # the interpreter's str(int) cap while a command runs, and only then
    cap = sys.get_int_max_str_digits()
    outputs = []
    try:
        sys.set_int_max_str_digits(640)
        for argv in (["decide", "992246"], ["scan", "992246", "992246"],
                     ["pell", "5953476"]):
            assert run(argv) == 0, argv
            outputs.append(capsys.readouterr().out)
            assert sys.get_int_max_str_digits() == 640
        assert run(["ns", "2" * 700]) == 1
    finally:
        sys.set_int_max_str_digits(cap)
    decided = json.loads(outputs[0])
    row, = csv.DictReader(outputs[1].splitlines())
    pelled = json.loads(outputs[2])
    for blob in (decided, row, pelled):
        x0, y0 = int(blob["x0"]), int(blob["y0"])
        assert x0 * x0 - 5953476 * y0 * y0 == 1
        assert len(blob["x0"]) == 1021
    # a 4,301-digit argv integer is still refused under the default cap
    if cap:
        capsys.readouterr()
        assert run(["ns", "2" * (cap + 1)]) == 1


@pytest.mark.parametrize("first, second", [
    (["scan", "8", "20", "--jobs", "2", "--format", "json", "--out", "F"],
     ["scan", "8", "20"]),
    (["search", "20", "--out", "F"], ["search", "20"]),
    (["ns", "x"], ["ns", "24"]),
])
def test_the_reused_parser_answers_as_a_fresh_one(first, second, tmp_path, capsys):
    # run builds the parser once per process; two successive runs on it give
    # what each gives on a freshly built parser
    path = tmp_path / "F"

    def call(argv, fresh):
        if fresh:
            cli._build_parser.cache_clear()
        code = run([str(path) if a == "F" else a for a in argv])
        captured = capsys.readouterr()
        written = path.read_text() if path.exists() else None
        path.unlink(missing_ok=True)
        return code, captured.out, captured.err, written

    reused = [call(first, fresh=False), call(second, fresh=False)]
    assert reused == [call(first, fresh=True), call(second, fresh=True)]
    assert reused[0][0] == (1 if first == ["ns", "x"] else 0)


def test_later_runs_build_no_parser(monkeypatch, capsys):
    run(["pell", "120"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for argv in (["pell", "120"], ["ns", "x"], ["scan", "8", "20"],
                 ["search", "20"], ["decide", "20", "--help"]):
        run(argv)
        assert built == [], argv
    capsys.readouterr()
