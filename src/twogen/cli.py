"""Command-line interface: one entry point exposing every module.

Subcommands: index, adv, sim, bivalency, topo.  Each action has its own
parser and accepts only the options its handler reads.  Machine output
is JSON on stdout; errors go to stderr as "tag: message".  Exit codes:
0 success, 1 domain or parse error (usage errors, such as a missing,
ill-typed or unknown argument, are parse errors), 2 resource bound
exceeded, 3 the run succeeded but a verification report contains
violations; ``--help`` exits 0.  The argparse parser is built on the
first ``main`` call of a process and reused by every later call, not at
import.

Importing this module loads only ``adversary``, ``oracle``, ``indexfn``
and ``words``.  A handler imports the rest it runs: ``sim`` and
``bivalency`` actions load ``protocol``, ``bivalency explore`` loads
``bivalency``, and ``topo`` actions and ``--algorithm aeta`` load
``topology``.  So ``index``, ``adv`` and ``--algorithm aw`` never
compile ``topology``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import adversary as adv
from . import oracle
from .adversary import CompileError, ResourceBoundError, _printed
from .indexfn import ind, ind_limit, ind_normalized
from .words import ParseError, parse_lasso, parse_word

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_RESOURCE = 2
EXIT_VIOLATIONS = 3


def _parse_inputs(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2 or any(p not in ("0", "1") for p in parts):
        raise ParseError("inputs must be of the form 0,1")
    return (int(parts[0]), int(parts[1]))


def _load_algorithm(args) -> tuple:
    """The adversary that ``args`` name and the algorithm to run under
    it."""
    from . import protocol

    if args.algorithm == "own-input":
        if args.w is not None:
            raise ParseError("--w does not apply to --algorithm own-input")
        return adv.load(args.adversary), protocol.OwnInputAlgorithm()
    a = adv.load(args.adversary)
    if args.w is not None:
        w = parse_lasso(args.w)
    else:
        verdict = oracle.classify(a)
        if not verdict.solvable:
            raise ValueError(
                "adversary is an obstruction; pass --w to pick a "
                "forbidden scenario explicitly"
            )
        w = oracle.select_forbidden_scenario(verdict)
    if args.algorithm == "aw":
        return a, protocol.IndexGuardAlgorithm(w)
    from . import topology as topo

    ts = topo.build_terminating_subdivision(a, ind_limit(w), depth=8)
    return a, topo.GeometricAlgorithm(ts)


# ---------------------------------------------------------------------------
# action handlers


def _index(args) -> int:
    if args.limit is not None:
        lasso = parse_lasso(args.limit)
        f = ind_limit(lasso)
        print(json.dumps({
            "lasso": str(lasso),
            "limit": _printed("%d/%d", f.numerator, f.denominator),
        }))
        return EXIT_OK
    w = parse_word(args.word)
    i, n = ind(w), ind_normalized(w)
    _printed("%d", i)  # json.dumps prints the index as "%d" does
    print(json.dumps({
        "word": str(w),
        "ind": i,
        "normalized": _printed("%d/%d", n.numerator, 3**n.exponent),
    }))
    return EXIT_OK


def _adv_check(args) -> int:
    v = oracle.classify(adv.load(args.dsl))
    print(v.reason if args.format == "text" else v.to_json())
    return EXIT_OK


def _adv_witness(args) -> int:
    v = oracle.classify(adv.load(args.dsl))
    w = oracle.select_forbidden_scenario(v)
    print(json.dumps({"forbidden": str(w)}))
    return EXIT_OK


def _adv_lowerbound(args) -> int:
    bound = oracle.round_lower_bound(adv.load(args.dsl), rmax=args.rmax)
    print(json.dumps({"rounds": bound, "rmax": args.rmax}))
    return EXIT_OK


def _sim_run(args) -> int:
    from . import protocol

    a, algo = _load_algorithm(args)
    scenario = parse_lasso(args.scenario)
    if not a.contains(scenario):
        raise ValueError("scenario %s is not in the adversary" % scenario)
    t = protocol.simulate(algo, scenario, _parse_inputs(args.inputs))
    print(t.to_json())
    return EXIT_OK


def _sim_verify(args) -> int:
    from . import protocol

    a, algo = _load_algorithm(args)
    rep = protocol.verify(algo, a, depth=args.depth)
    print(rep.to_json())
    return EXIT_OK if rep.ok else EXIT_VIOLATIONS


def _bivalency_explore(args) -> int:
    from . import bivalency as biv

    a, algo = _load_algorithm(args)
    tree = biv.explore(algo, a, _parse_inputs(args.inputs), args.depth)
    print(json.dumps(tree.to_dict()))
    return EXIT_OK


def _topo_object(args):
    from . import topology as topo

    if args.infile is not None:
        if args.rounds is not None:
            raise ParseError("--rounds does not apply to --in")
        with open(args.infile) as fh:
            return topo.complex_from_json(fh.read())
    a = adv.load(args.adversary)
    v = oracle.classify(a)
    if not v.solvable:
        raise ValueError(
            "adversary is an obstruction: no gap point to subdivide at"
        )
    depth = 8 if args.rounds is None else args.rounds
    return topo.build_terminating_subdivision(a, topo.gap_point(v), depth)


def _topo_subdivide(args) -> int:
    from . import topology as topo

    obj = _topo_object(args)
    fmt = "svg" if args.out.endswith(".svg") else "json"
    doc = topo.export(obj, fmt)
    with open(args.out, "w") as fh:
        fh.write(doc)
    print(json.dumps({"out": args.out, "format": fmt}))
    return EXIT_OK


def _topo_components(args) -> int:
    from . import topology as topo

    obj = _topo_object(args)
    c = obj.stable_complex() if isinstance(
        obj, topo.TerminatingSubdivision
    ) else obj
    out = {}
    if args.abstract or not args.realization:
        out["abstract_components"] = topo.abstract_components(c)
    if args.realization or not args.abstract:
        out["realization_components"] = topo.realization_components(c)
    print(json.dumps(out))
    return EXIT_OK


def _topo_contrex(args) -> int:
    from . import topology as topo

    phi = topo.contrex(args.depth)
    print(json.dumps({
        "abstract_components": topo.abstract_components(phi),
        "realization_components": topo.realization_components(phi),
    }))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ParseError instead of exiting 2."""

    def error(self, message):
        raise ParseError(message)


def _action(actions, name: str, run, parents=(), **kwargs):
    """The parser of one action; parsing it sets ``run`` to the
    handler."""
    p = actions.add_parser(name, parents=list(parents), **kwargs)
    p.set_defaults(run=run)
    return p


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built on the first ``main`` call and shared by every later one:
    ``parse_args`` keeps its state in the namespace it returns."""
    p = _Parser(
        prog="twogen",
        description="two-process consensus under message adversaries",
    )
    commands = p.add_subparsers(dest="command", required=True)

    # sim and bivalency: the algorithm run under an adversary
    algorithm = _Parser(add_help=False)
    algorithm.add_argument("--adversary", required=True)
    algorithm.add_argument("--w", help="forbidden scenario parameter")
    algorithm.add_argument("--algorithm", default="aw",
                           choices=["aw", "aeta", "own-input"])
    # topo subdivide and components: a subdivision or a complex document
    source = _Parser(add_help=False)
    which = source.add_mutually_exclusive_group(required=True)
    which.add_argument("--adversary")
    which.add_argument("--in", dest="infile", metavar="FILE",
                       help="complex JSON document instead of an adversary")
    source.add_argument("--rounds", type=int,
                        help="subdivision depth for --adversary "
                             "(default 8)")

    pi = _action(commands, "index", _index,
                 help="scenario index of a word")
    what = pi.add_mutually_exclusive_group(required=True)
    what.add_argument("word", nargs="?")
    what.add_argument("--limit", metavar="LASSO",
                      help="exact limit index of a lasso word")

    pa = commands.add_parser("adv", help="adversary solvability")
    actions = pa.add_subparsers(dest="action", required=True)
    check = _action(actions, "check", _adv_check)
    check.add_argument("dsl")
    check.add_argument("--format", choices=["json", "text"], default="json")
    _action(actions, "witness", _adv_witness).add_argument("dsl")
    lowerbound = _action(actions, "lowerbound", _adv_lowerbound)
    lowerbound.add_argument("dsl")
    lowerbound.add_argument("--rmax", type=int, default=8)

    ps = commands.add_parser("sim", help="run or verify an algorithm")
    actions = ps.add_subparsers(dest="action", required=True)
    run = _action(actions, "run", _sim_run, [algorithm])
    run.add_argument("--scenario", required=True)
    run.add_argument("--inputs", default="0,1")
    verify = _action(actions, "verify", _sim_verify, [algorithm])
    verify.add_argument("--depth", type=int, default=4)

    pb = commands.add_parser("bivalency", help="valency exploration")
    actions = pb.add_subparsers(dest="action", required=True)
    explore = _action(actions, "explore", _bivalency_explore, [algorithm])
    explore.add_argument("--inputs", default="0,1")
    explore.add_argument("--depth", type=int, default=3)

    pt = commands.add_parser("topo", help="chromatic complexes")
    actions = pt.add_subparsers(dest="action", required=True)
    subdivide = _action(actions, "subdivide", _topo_subdivide, [source])
    subdivide.add_argument("--out", required=True)
    components = _action(actions, "components", _topo_components, [source])
    components.add_argument("--abstract", action="store_true")
    components.add_argument("--realization", action="store_true")
    contrex = _action(actions, "contrex", _topo_contrex)
    contrex.add_argument("--depth", type=int, default=6)
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except ResourceBoundError as e:
        print("resource: %s" % e, file=sys.stderr)
        return EXIT_RESOURCE
    except (ParseError, CompileError) as e:
        print("parse: %s" % e, file=sys.stderr)
        return EXIT_DOMAIN
    except (ValueError, OSError) as e:
        print("domain: %s" % e, file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
