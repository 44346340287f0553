import ast
from pathlib import Path

import gradchain


def test_all_names_resolve():
    for name in gradchain.__all__:
        assert getattr(gradchain, name) is not None, name


def test_all_matches_imported_names():
    tree = ast.parse(Path(gradchain.__file__).read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names if not (alias.asname or alias.name).startswith("_")]
    assert sorted(gradchain.__all__) == sorted(imported)
