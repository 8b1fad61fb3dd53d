"""Tests seed their generators with fixed numbers, never with ``hash()``.

Python salts ``hash`` of a string per process (PYTHONHASHSEED), so a seed
taken from it gives each run different data.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def test_no_test_calls_builtin_hash():
    files, offenders = 0, []
    for path in sorted(TESTS.glob("*.py")):
        files += 1
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "hash":
                offenders.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert files > 1
    assert offenders == []
