"""Command-line interface: one entry point exposing every module.

Subcommands: index, adv, sim, bivalency, topo.  Machine output is JSON
on stdout; errors go to stderr as "tag: message".  Exit codes: 0
success, 1 domain or parse error (usage errors, such as a missing or
ill-typed argument, are parse errors), 2 resource bound exceeded, 3 the
run succeeded but a verification report contains violations; ``--help``
exits 0.  The argparse parser is built on the first ``main`` call of a
process and reused by every later call, not at import.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import adversary as adv
from . import bivalency as biv
from . import oracle
from . import protocol
from . import topology as topo
from .adversary import CompileError, ResourceBoundError
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


def _pick_algorithm(args, a) -> protocol.Algorithm:
    name = getattr(args, "algorithm", "aw")
    if name == "own-input":
        return protocol.OwnInputAlgorithm()
    verdict = None
    w = None
    if getattr(args, "w", None):
        w = parse_lasso(args.w)
    else:
        verdict = oracle.classify(a)
        if not verdict.solvable:
            raise ValueError(
                "adversary is an obstruction; pass --w to pick a "
                "forbidden scenario explicitly"
            )
        w = oracle.select_forbidden_scenario(verdict)
    if name == "aw":
        return protocol.IndexGuardAlgorithm(w)
    if name == "aeta":
        ts = topo.build_terminating_subdivision(a, ind_limit(w), depth=8)
        return topo.GeometricAlgorithm(ts)
    raise ValueError("unknown algorithm %r" % name)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_index(args) -> int:
    if args.limit:
        lasso = parse_lasso(args.limit)
        f = ind_limit(lasso)
        print(json.dumps({
            "lasso": str(lasso),
            "limit": "%d/%d" % (f.numerator, f.denominator),
        }))
        return EXIT_OK
    w = parse_word(args.word)
    print(json.dumps({
        "word": str(w),
        "ind": ind(w),
        "normalized": str(ind_normalized(w)),
    }))
    return EXIT_OK


def _cmd_adv(args) -> int:
    a = adv.load(args.dsl)
    if args.action == "check":
        v = oracle.classify(a)
        if args.format == "text":
            print(v.reason)
        else:
            print(v.to_json())
        return EXIT_OK
    if args.action == "witness":
        v = oracle.classify(a)
        w = oracle.select_forbidden_scenario(v)
        print(json.dumps({"forbidden": str(w)}))
        return EXIT_OK
    if args.action == "lowerbound":
        bound = oracle.round_lower_bound(a, rmax=args.rmax)
        print(json.dumps({"rounds": bound, "rmax": args.rmax}))
        return EXIT_OK
    raise ValueError("unknown adv action %r" % args.action)


def _cmd_sim(args) -> int:
    a = adv.load(args.adversary)
    algo = _pick_algorithm(args, a)
    if args.action == "run":
        scenario = parse_lasso(args.scenario)
        if not a.contains(scenario):
            raise ValueError(
                "scenario %s is not in the adversary" % scenario
            )
        t = protocol.simulate(algo, scenario, _parse_inputs(args.inputs))
        print(t.to_json())
        return EXIT_OK
    if args.action == "verify":
        depth = args.depth if args.depth is not None else 4
        rep = protocol.verify(algo, a, depth=depth)
        print(rep.to_json())
        return EXIT_OK if rep.ok else EXIT_VIOLATIONS
    raise ValueError("unknown sim action %r" % args.action)


def _cmd_bivalency(args) -> int:
    a = adv.load(args.adversary)
    algo = _pick_algorithm(args, a)
    tree = biv.explore(algo, a, _parse_inputs(args.inputs), args.depth)
    print(json.dumps(tree.to_dict()))
    return EXIT_OK


def _topo_object(args):
    if getattr(args, "infile", None):
        with open(args.infile) as fh:
            return topo.complex_from_json(fh.read())
    a = adv.load(args.adversary)
    v = oracle.classify(a)
    if not v.solvable:
        raise ValueError(
            "adversary is an obstruction: no gap point to subdivide at"
        )
    z = topo.gap_point(v)
    depth = args.rounds if args.rounds is not None else 8
    return topo.build_terminating_subdivision(a, z, depth=depth)


def _cmd_topo(args) -> int:
    if args.action == "contrex":
        phi = topo.contrex(args.depth)
        print(json.dumps({
            "abstract_components": topo.abstract_components(phi),
            "realization_components": topo.realization_components(phi),
        }))
        return EXIT_OK
    if args.action == "subdivide":
        obj = _topo_object(args)
        fmt = "svg" if args.out.endswith(".svg") else "json"
        doc = topo.export(obj, fmt)
        with open(args.out, "w") as fh:
            fh.write(doc)
        print(json.dumps({"out": args.out, "format": fmt}))
        return EXIT_OK
    if args.action == "components":
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
    raise ValueError("unknown topo action %r" % args.action)


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ParseError instead of exiting 2."""

    def error(self, message):
        raise ParseError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built on the first ``main`` call and shared by every later one:
    ``parse_args`` keeps its state in the namespace it returns."""
    p = _Parser(
        prog="twogen",
        description="two-process consensus under message adversaries",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pi = sub.add_parser("index", help="scenario index of a word")
    pi.add_argument("word", nargs="?", default=None)
    pi.add_argument("--limit", metavar="LASSO",
                    help="exact limit index of a lasso word")

    pa = sub.add_parser("adv", help="adversary solvability")
    pa.add_argument("action", choices=["check", "witness", "lowerbound"])
    pa.add_argument("dsl")
    pa.add_argument("--rmax", type=int, default=8)
    pa.add_argument("--format", choices=["json", "text"], default="json")

    ps = sub.add_parser("sim", help="run or verify an algorithm")
    ps.add_argument("action", choices=["run", "verify"])
    ps.add_argument("--adversary", required=True)
    ps.add_argument("--scenario")
    ps.add_argument("--inputs", default="0,1")
    ps.add_argument("--w", help="forbidden scenario parameter")
    ps.add_argument("--algorithm", default="aw",
                    choices=["aw", "aeta", "own-input"])
    ps.add_argument("--depth", type=int, default=None)

    pb = sub.add_parser("bivalency", help="valency exploration")
    pb.add_argument("action", choices=["explore"])
    pb.add_argument("--adversary", required=True)
    pb.add_argument("--inputs", default="0,1")
    pb.add_argument("--depth", type=int, default=3)
    pb.add_argument("--w", help="forbidden scenario parameter")
    pb.add_argument("--algorithm", default="aw",
                    choices=["aw", "aeta", "own-input"])

    pt = sub.add_parser("topo", help="chromatic complexes")
    pt.add_argument("action", choices=["subdivide", "components", "contrex"])
    pt.add_argument("--adversary")
    pt.add_argument("--rounds", type=int, default=None)
    pt.add_argument("--out")
    pt.add_argument("--in", dest="infile", metavar="FILE",
                    help="complex JSON document instead of an adversary")
    pt.add_argument("--abstract", action="store_true")
    pt.add_argument("--realization", action="store_true")
    pt.add_argument("--depth", type=int, default=6)
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "index":
            if args.word is None and not args.limit:
                raise ParseError("index needs a word or --limit")
            return _cmd_index(args)
        if args.command == "adv":
            return _cmd_adv(args)
        if args.command == "sim":
            if args.action == "run" and not args.scenario:
                raise ParseError("sim run needs --scenario")
            return _cmd_sim(args)
        if args.command == "bivalency":
            return _cmd_bivalency(args)
        if args.command == "topo":
            if args.action == "subdivide" and not args.out:
                raise ParseError("topo subdivide needs --out")
            if (args.action in ("subdivide", "components")
                    and not (args.adversary or args.infile)):
                raise ParseError("topo <action> needs --adversary or --in")
            return _cmd_topo(args)
        raise ValueError("unknown command %r" % args.command)
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
