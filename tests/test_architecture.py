"""Module seams of the package, read from the source: the operator builds the step
maps and the frame rule lives on the spec, so the solver reads no eigenpairs, the
runner reaches no solver internals and no import waits inside a function."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "mildsde").glob("*.py"))


def tree(name):
    return ast.parse((SOURCES[0].parent / name).read_text())


def package_imports(node):
    """The ImportFrom nodes under ``node`` that import from this package."""
    return [n for n in ast.walk(node) if isinstance(n, ast.ImportFrom)
            and (n.level > 0 or (n.module or "").split(".")[0] == "mildsde")]


def test_solver_reads_no_eigenpairs():
    reads = [n.lineno for n in ast.walk(tree("solver.py"))
             if isinstance(n, ast.Attribute) and n.attr in ("eigenvalues", "eigenvectors")]
    assert reads == []


def test_solver_imports_nothing_from_analysis():
    assert [n.lineno for n in package_imports(tree("solver.py"))
            if (n.module or "").split(".")[-1] == "analysis"
            or any(a.name == "analysis" for a in n.names)] == []


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: path.name)
def test_no_package_import_inside_a_function(source):
    functions = [n for n in ast.walk(ast.parse(source.read_text()))
                 if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
    assert [n.lineno for f in functions for n in package_imports(f)] == []


def test_cli_imports_no_private_solver_name():
    private = [(n.lineno, a.name) for n in package_imports(tree("cli.py"))
               if (n.module or "").split(".")[-1] == "solver"
               for a in n.names if a.name.startswith("_")]
    assert private == []
