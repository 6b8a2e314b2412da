"""Library code logs through `logging`; only the command line prints."""

import ast
from pathlib import Path

import pytest

import oudrift

PACKAGE = Path(oudrift.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "cli.py")


def _print_calls(path: Path) -> list[int]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "print"
    ]


def test_the_package_has_modules_to_check():
    assert {p.name for p in MODULES} >= {"simulate.py", "experiment.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_library_module_never_prints(path):
    lines = _print_calls(path)
    assert not lines, f"{path.name} calls print at lines {lines}"
