"""Two-process consensus under omission-fault message adversaries.

Decides solvability of the coordinated attack problem for message
adversaries given as omega-regular languages over the per-round
communication alphabet, runs and verifies the two matching consensus
algorithms, explores valency, and builds the associated chromatic
subdivision complexes.

``import twogen`` loads no submodule.  ``_EXPORTS`` maps each submodule
to the public names it defines; the package's ``__getattr__`` imports a
name's submodule on first access, so ``twogen.classify`` loads
``oracle`` and what it imports, but not ``topology``.  ``__all__`` and
``dir(twogen)`` list the same names, and a submodule such as
``twogen.topology`` resolves as an attribute too.
"""

import sys

_EXPORTS = {
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
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "records"}
_MODULE_OF = {name: module
              for module, names in _EXPORTS.items() for name in names}

__all__ = [name for names in _EXPORTS.values() for name in names]
__version__ = "1.0.0"


def __getattr__(name):
    if name in _MODULE_OF:
        return getattr(__getattr__(_MODULE_OF[name]), name)
    if name in _SUBMODULES:
        # __import__, unlike importlib.import_module, is the path that
        # ``python -X importtime`` reports
        __import__(__name__ + "." + name)
        return sys.modules[__name__ + "." + name]
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
