"""Package layout: modules share only public names."""

import ast
from pathlib import Path

import spinbath

PACKAGE = Path(spinbath.__file__).parent


def private_imports(source):
    """(module, name) for every private name one spinbath module takes from
    another: `from <spinbath module> import _name`, or `module._name` on a
    module bound by `from . import module` or `from spinbath import module`."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("spinbath"):
            continue
        for alias in node.names:
            if alias.name.startswith("_") and alias.name != "__version__":
                yield node.module, alias.name
            elif node.module in (None, "spinbath"):
                bound.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound and node.attr.startswith("_")):
            yield node.value.id, node.attr


def test_the_scan_finds_every_form_of_private_import():
    source = (
        "from .model import _abs2, spin_moduli\n"
        "from spinbath.lemma import _gates\n"
        "from . import evolution as ev\n"
        "from spinbath import spectrum\n"
        "from numpy import _private\n"
        "x = ev._r_values(spectrum._exact_sum, ev.r_of_t)\n"
    )
    assert sorted(private_imports(source)) == [
        ("ev", "_r_values"), ("model", "_abs2"), ("spectrum", "_exact_sum"),
        ("spinbath.lemma", "_gates"),
    ]


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
