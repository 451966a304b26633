"""The package's modules reach each other only through public names."""

import ast
from pathlib import Path

import pytest

import spikemap

SRC = Path(spikemap.__file__).parent


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_another_modules_private_name(path):
    private = [
        f"line {node.lineno}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        # a dunder such as __version__ is public
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == []
