"""Invariant guards must survive `python -O`, which strips assert statements."""

import ast
from pathlib import Path

import chowq

SRC = Path(chowq.__file__).parent


def test_no_assert_statements_in_the_package():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements are stripped under -O: {found}"
