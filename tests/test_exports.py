import ast
import importlib
from pathlib import Path

import h3cover
from h3cover import analysis, constructions, core, patterns


def test_every_public_name_resolves():
    # a name left in __all__ after its definition is gone makes `from module import *` raise
    stale = [f"{m.__name__}.{name}" for m in (core, patterns, constructions, analysis)
             for name in m.__all__ if not hasattr(m, name)]
    # each name the package re-exports is its module's public object
    for node in ast.parse(Path(h3cover.__file__).read_text()).body:
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(f"h3cover.{node.module}")
            stale += [f"h3cover.{a.name}" for a in node.names
                      if a.name not in module.__all__ or getattr(h3cover, a.name) is not getattr(module, a.name)]
    assert stale == []
