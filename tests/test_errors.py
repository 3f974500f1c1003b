"""The package's exception classes, read off the library's source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "projcox"


def _name(node):
    """The name a class base or a raised expression ends in, or None."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def test_every_error_class_is_raised():
    """Each subclass of ProjCoxError but the base is named in a raise,
    so an exception class that nothing raises fails the suite."""
    bases, raised = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {_name(base) for base in node.bases}
            elif isinstance(node, ast.Raise) and node.exc is not None:
                raised.add(_name(node.exc))
    errors = {"ProjCoxError"}
    while True:
        grown = errors | {name for name, named in bases.items() if named & errors}
        if grown == errors:
            break
        errors = grown
    assert len(errors) > 1
    assert errors - {"ProjCoxError"} <= raised, sorted(errors - {"ProjCoxError"} - raised)
