"""Package layout: modules share only public names."""

import ast
from pathlib import Path

import spinbath

PACKAGE = Path(spinbath.__file__).parent


def private_imports(source):
    """(module, name) for every `from <spinbath module> import _name`."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("spinbath"):
            continue
        for alias in node.names:
            if alias.name.startswith("_") and alias.name != "__version__":
                yield node.module, alias.name


def test_every_exported_name_resolves_once():
    """`from spinbath import *` binds every name of __all__, and each once."""
    namespace = {}
    exec("from spinbath import *", namespace)
    assert sorted(set(spinbath.__all__)) == sorted(spinbath.__all__)
    assert all(name in namespace for name in spinbath.__all__)


def test_no_module_imports_another_modules_private_name():
    found = {
        path.name: list(private_imports(path.read_text()))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert not {name: hits for name, hits in found.items() if hits}
