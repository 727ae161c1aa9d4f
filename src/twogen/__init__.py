"""Two-process consensus under omission-fault message adversaries.

Decides solvability of the coordinated attack problem for message
adversaries given as omega-regular languages over the per-round
communication alphabet, runs and verifies the two matching consensus
algorithms, explores valency, and builds the associated chromatic
subdivision complexes.
"""

from .words import (EPSILON, FiniteWord, G2, GAMMA, LassoWord, Letter,
                    ParseError, is_fair, parse_lasso, parse_word)
from .indexfn import (BLACK, WHITE, ProcessId, TernaryRational, ind,
                      ind_inverse, ind_limit, ind_normalized,
                      indistinguishable_process, is_index_successor,
                      is_special_pair)
from .adversary import (AdversaryAutomaton, CompileError,
                        ResourceBoundError, builtin, complement,
                        compile_expr, intersect, load, parse_adversary,
                        union)
from .oracle import (Family, Verdict, classify, round_lower_bound,
                     select_forbidden_scenario)
from .protocol import (IndexGuardAlgorithm, OwnInputAlgorithm, Report,
                       Transcript, simulate, verify)
from .bivalency import Valency, explore, find_decisive, valency
from .topology import (Complex, GeometricAlgorithm,
                       TerminatingSubdivision, abstract_components,
                       build_terminating_subdivision,
                       chromatic_subdivision, contrex, export, index_fiber,
                       limit_connectivity, protocol_complex,
                       realization_components, word_to_edge)

__version__ = "1.0.0"
