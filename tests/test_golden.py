"""Golden outputs: every CLI report below must match its committed file
byte for byte, and the parallel runs must match the serial files.

Regenerate the files (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from genkummer.cli import run

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "pell_120.json": ["pell", "120"],
    "pell_16.json": ["pell", "16"],
    "ns_20.json": ["ns", "20"],
    "ns_24.json": ["ns", "24"],
    "ns_30.json": ["ns", "30"],
    "ns_36.json": ["ns", "36"],
    "decide_20.json": ["decide", "20"],
    "decide_36.json": ["decide", "36"],
    "decide_44.json": ["decide", "44"],
    "decide_72.json": ["decide", "72"],
    "decide_126.json": ["decide", "126"],
    "decide_24.json": ["decide", "24"],
    "scan_8_198.csv": ["scan", "8", "198"],
    "scan_8_198.json": ["scan", "8", "198", "--format", "json"],
    "search_8.json": ["search", "8"],
    "search_20.json": ["search", "20"],
    "search_42.json": ["search", "42"],
    "search_48.json": ["search", "48"],
    "search_72.json": ["search", "72"],
    "search_24.json": ["search", "24"],
    "aut20.json": ["aut20"],
    "fm_1_1_1_1.json": ["fm", "1", "1", "1", "1"],
}

# cases whose report is a domain failure: a perfect square D, or no Pell
# solution because 6 * L^2 is a square; every other case exits 0
EXIT_CODES = {"pell_16.json": 2, "decide_24.json": 2, "search_24.json": 2}

# parallel runs checked against the serial golden file
PARALLEL = {
    "scan_8_198.csv": ["scan", "8", "198", "--jobs", "2"],
    "search_20.json": ["search", "20", "--jobs", "2"],
}

PARAMS = [pytest.param(name, argv, id=name) for name, argv in CASES.items()] + [
    pytest.param(name, argv, id=f"{name}-jobs2") for name, argv in PARALLEL.items()]


@pytest.mark.parametrize("name, argv", PARAMS)
def test_golden_output(name, argv, tmp_path):
    out = tmp_path / name
    assert run(argv + ["--out", str(out)]) == EXIT_CODES.get(name, 0)
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        if run(argv + ["--out", str(GOLDEN / name)]) != EXIT_CODES.get(name, 0):
            raise SystemExit(f"{' '.join(argv)} gave an unexpected exit code")
