"""No floating point in the package: every correctness path is exact.

Walks the syntax tree of each module of src/genkummer and rejects an import
of fractions or decimal, a float (or complex) literal, any use of the name
float, and true division.  Integer code divides with // and divmod.
"""

import ast
from pathlib import Path

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "genkummer").glob("*.py"))


def _offence(node):
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] in ("fractions", "decimal") for a in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] in ("fractions", "decimal")
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (float, complex))
    if isinstance(node, ast.Name):
        return node.id == "float"
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.Div)
    return False


def test_no_inexact_arithmetic_in_src():
    assert len(MODULES) >= 8
    offences = [
        f"{path.name}:{node.lineno}: {ast.unparse(node)}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _offence(node)
    ]
    assert offences == []


def test_the_guard_sees_each_offence():
    for source in ("from fractions import Fraction", "import decimal",
                   "x = 0.5", "y = float(3)", "z = 1 / 3", "z /= 3"):
        assert any(_offence(n) for n in ast.walk(ast.parse(source))), source
    for source in ("q = 7 // 2", "q, r = divmod(7, 2)", "s = 'a/b 0.5'"):
        assert not any(_offence(n) for n in ast.walk(ast.parse(source))), source
