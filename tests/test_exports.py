import re
from pathlib import Path

import h3cover
from h3cover import analysis, constructions, core, patterns


MODULES = (core, patterns, constructions, analysis)


def test_every_public_name_resolves():
    # a name left in __all__ after its definition is gone makes `from module import *` raise
    stale = [f"{m.__name__}.{name}" for m in MODULES for name in m.__all__ if not hasattr(m, name)]
    assert stale == []
    # the package re-exports every public name of every module, as the module's own object
    for m in MODULES:
        for name in m.__all__:
            assert getattr(h3cover, name) is getattr(m, name), f"{m.__name__}.{name}"


def test_readme_library_tour_runs():
    # the tour calls the public names by hand; one removed or renamed fails here
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    (tour,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(compile(tour, "README.md", "exec"), {})
