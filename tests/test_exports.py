"""The package's export surface, including what the benchmark probes call."""

import ast
import re
from pathlib import Path

import varq

ROOT = Path(__file__).resolve().parent.parent
PROBES = ROOT / "perfbench" / "probes.py"
# The pipeline's callers: the CLI, the acceptance criteria and the benchmark.
CALLERS = [
    ROOT / "src" / "varq" / "cli.py",
    ROOT / "tests" / "test_acceptance.py",
    *sorted((ROOT / "perfbench").glob("*.py")),
]


def identifiers(path):
    """Every name, attribute and imported name in a Python file; string
    literals do not count."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def test_star_import_and_probe_names_resolve():
    namespace = {}
    exec("from varq import *", namespace)
    assert [name for name in varq.__all__ if name not in namespace] == []
    used = set(re.findall(r"\bvarq\.([A-Za-z_]\w*)", PROBES.read_text()))
    assert used, f"no varq.<name> references found in {PROBES}"
    assert sorted(name for name in used if not hasattr(varq, name)) == []


def test_every_exported_function_has_a_caller_outside_the_package():
    functions = [
        name for name in varq.__all__
        if callable(getattr(varq, name)) and not isinstance(getattr(varq, name), type)
    ]
    assert "query_superposed" in functions  # a plain function that returns a StateVector
    used = set().union(*(identifiers(path) for path in CALLERS))
    assert sorted(name for name in functions if name not in used) == []
