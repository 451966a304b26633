"""The package's modules reach each other only through public names."""

import ast
import os
import subprocess
import sys
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


BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fresh(code, **env):
    """stdout of code in a fresh interpreter with the BLAS variables unset,
    then env set."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], env={**base, **env},
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout.split()


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads /proc/self/status")
def test_cli_import_leaves_one_thread():
    # OpenBLAS starts one spinning worker per extra core unless told one thread
    code = ("import spikemap.cli\n"
            "print(next(l.split()[1] for l in open('/proc/self/status') if l.startswith('Threads:')))")
    assert _fresh(code) == ["1"]


def test_package_import_loads_no_numpy_and_re_exports_lazily():
    code = ("import sys, spikemap\nprint('numpy' in sys.modules)\n"
            "from spikemap import ModelSpec, Nonlinearity, parse_potential, Field3, Grid3, make_grid\n"
            "import spikemap.fields as f, spikemap.model as m\n"
            "print((ModelSpec, Nonlinearity, parse_potential) == (m.ModelSpec, m.Nonlinearity, m.parse_potential),"
            " (Field3, Grid3, make_grid) == (f.Field3, f.Grid3, f.make_grid), hasattr(spikemap, 'nothing'))")
    assert _fresh(code) == ["False", "True", "True", "False"]


def test_callers_blas_thread_count_wins():
    code = "import os, spikemap.cli\nprint(*(os.environ[v] for v in %r))" % (BLAS_ENV,)
    assert _fresh(code, OPENBLAS_NUM_THREADS="2") == ["2", "1", "1"]
