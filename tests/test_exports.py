"""The package's export list: what ``from plbounds import *`` gives."""

import ast
from pathlib import Path

import plbounds


def test_export_list_resolves_once_each_and_names_every_import():
    exported = plbounds.__all__
    assert [name for name in exported if not hasattr(plbounds, name)] == []
    assert sorted(name for name in set(exported) if exported.count(name) > 1) == []
    # a name deleted from a module must leave the export list with its import
    tree = ast.parse(Path(plbounds.__file__).read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    imported = {alias.asname or alias.name for node in imports for alias in node.names}
    assert sorted(name for name in imported if not name.startswith("_") and name not in exported) == []
