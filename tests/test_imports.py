"""Every module of the package reads each name it imports."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lingmask"

# Imported and never read: the benchmark's tracer (perfbench/tracer.py) wraps
# these attributes of these modules by name, so they stay until the tracer's
# revision (ROADMAP item 5).
TRACER_HELD = {("cli", "sequence_rng"), ("tinylm", "build_example")}


def unused_names(source: str) -> set[str]:
    """The names a module binds by an import, or to a logger with
    ``logging.getLogger``, and never reads; ``__all__`` counts as a read."""
    tree = ast.parse(source)
    bound = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if targets == ["__all__"]:
                read.update(ast.literal_eval(node.value))
            elif isinstance(node.value, ast.Call) and getattr(node.value.func, "attr", None) == "getLogger":
                bound.update(targets)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return bound - read


@pytest.mark.parametrize("module", sorted(path.stem for path in PACKAGE.glob("*.py")))
def test_module_reads_every_name_it_imports(module):
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    held = {name for owner, name in TRACER_HELD if owner == module}
    assert unused_names(source) == held


def test_catches_an_unused_import_and_a_logger_left_behind():
    assert unused_names("import logging\nimport os.path\nfrom x import y as z\n") == {"logging", "os", "z"}
    assert unused_names("import logging\nlog = logging.getLogger(__name__)\n") == {"log"}
    assert unused_names("import logging\nlog = logging.getLogger(__name__)\nlog.warning('w')\n") == set()
    assert unused_names("from __future__ import annotations\nfrom x import y\n__all__ = ['y']\n") == set()
