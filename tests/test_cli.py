import csv
import json

from genkummer.cli import run


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
