import ast
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "twogen")
MODULES = sorted(f for f in os.listdir(SRC)
                 if f.endswith(".py") and f != "__init__.py")


def _parse(module):
    with open(os.path.join(SRC, module)) as fh:
        return ast.parse(fh.read(), module)


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_read(module):
    """Each name a module imports is read somewhere in it (the package's
    ``__init__`` re-exports names and is not checked)."""
    tree = _parse(module)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unread = sorted(imported - read)
    assert not unread, unread


@pytest.mark.parametrize("module", MODULES)
def test_no_assert_statements(module):
    """Runtime invariants raise explicitly, since ``python -O`` strips
    assert statements."""
    lines = [node.lineno for node in ast.walk(_parse(module))
             if isinstance(node, ast.Assert)]
    assert not lines, lines


def test_import_loads_no_dataclass_machinery():
    """``import twogen.cli`` in a fresh interpreter loads neither
    ``dataclasses`` nor the ``inspect`` it imports, which together took a
    quarter of the import's time."""
    env = dict(os.environ, PYTHONPATH=os.path.join(SRC, ".."))
    code = ("import sys, twogen.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=60)
    assert proc.stdout == "[]\n"
