import ast
import json
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


_LOADED = """
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules if m.startswith("twogen."))

out = {}
import twogen
out["package"] = loaded()
from twogen import cli
out["cli"] = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    out["adv check"] = (cli.main(["adv", "check", "C1"]), loaded())
    out["topo contrex"] = (cli.main(["topo", "contrex", "--depth", "3"]),
                           loaded())
print(json.dumps(out))
"""


def test_import_loads_only_what_a_command_runs():
    """In a fresh interpreter ``import twogen`` loads no submodule,
    ``import twogen.cli`` loads what every action needs, and only a
    ``topo`` action loads ``topology``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(SRC, ".."))
    proc = subprocess.run([sys.executable, "-c", _LOADED], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=60)
    out = json.loads(proc.stdout)
    assert out["package"] == []
    assert out["cli"] == ["twogen." + m for m in (
        "adversary", "cli", "indexfn", "oracle", "records", "words")]
    rc, loaded = out["adv check"]
    assert rc == 0
    assert not {"twogen.topology", "twogen.protocol",
                "twogen.bivalency"} & set(loaded)
    rc, loaded = out["topo contrex"]
    assert rc == 0
    assert "twogen.topology" in loaded


#: the names ``twogen`` exported as ``from .x import (...)`` lines
PUBLIC_API = {
    "words": ("EPSILON", "FiniteWord", "G2", "GAMMA", "LassoWord", "Letter",
              "ParseError", "is_fair", "parse_lasso", "parse_word"),
    "indexfn": ("BLACK", "WHITE", "ProcessId", "TernaryRational", "ind",
                "ind_inverse", "ind_limit", "ind_normalized",
                "indistinguishable_process", "is_index_successor",
                "is_special_pair"),
    "adversary": ("AdversaryAutomaton", "CompileError", "ResourceBoundError",
                  "builtin", "complement", "compile_expr", "intersect",
                  "load", "parse_adversary", "union"),
    "oracle": ("Family", "Verdict", "classify", "round_lower_bound",
               "select_forbidden_scenario"),
    "protocol": ("IndexGuardAlgorithm", "OwnInputAlgorithm", "Report",
                 "Transcript", "simulate", "verify"),
    "bivalency": ("Valency", "explore", "find_decisive", "valency"),
    "topology": ("Complex", "GeometricAlgorithm", "TerminatingSubdivision",
                 "abstract_components", "build_terminating_subdivision",
                 "chromatic_subdivision", "contrex", "export", "index_fiber",
                 "limit_connectivity", "protocol_complex",
                 "realization_components", "word_to_edge"),
}


def test_public_api():
    """Each public name resolves to its defining module's object, is
    listed by ``__all__`` and ``dir`` and bound by ``import *``."""
    import importlib

    import twogen

    star = {}
    exec("from twogen import *", star)
    names = [n for names in PUBLIC_API.values() for n in names]
    assert len(names) == 59
    assert sorted(twogen.__all__) == sorted(names)
    listed = dir(twogen)
    for module, exported in PUBLIC_API.items():
        defining = importlib.import_module("twogen." + module)
        assert getattr(twogen, module) is defining
        for name in exported:
            assert getattr(twogen, name) is getattr(defining, name), name
            assert star[name] is getattr(defining, name), name
            assert name in listed, name


def test_public_api_unknown_name():
    import twogen

    with pytest.raises(AttributeError, match="no_such_name"):
        twogen.no_such_name


def test_submodule_resolves_after_bare_import():
    env = dict(os.environ, PYTHONPATH=os.path.join(SRC, ".."))
    code = ("import sys, twogen; t = twogen.topology; "
            "print(t is sys.modules['twogen.topology'], t.__name__)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=60)
    assert proc.stdout == "True twogen.topology\n"
