import argparse
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time

import jsonschema
import pytest

from conftest import DslTexts
from twogen import cli, protocol

ROOT = os.path.join(os.path.dirname(__file__), "..")
SCHEMA_PATH = os.path.join(ROOT, "schemas", "twogen-v1.schema.json")
with open(SCHEMA_PATH) as fh:
    SCHEMA = json.load(fh)


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def check_schema(text):
    doc = json.loads(text)
    jsonschema.validate(doc, SCHEMA)
    return doc


def test_index_word(capsys):
    rc, out, _ = run(capsys, "index", "LW OK LB")
    assert rc == 0
    doc = check_schema(out)
    assert doc["ind"] == 23
    assert doc["normalized"] == "23/27"


def test_index_limit(capsys):
    rc, out, _ = run(capsys, "index", "--limit", "OK ( LW )^w")
    assert rc == 0
    assert check_schema(out)["limit"] == "1/3"


def test_index_bad_word(capsys):
    rc, _, err = run(capsys, "index", "OK BAD")
    assert rc == 1
    assert "parse" in err


@pytest.mark.parametrize("argv", [
    ["index", " ".join(["LW"] * 10000)],
    ["index", "--limit", " ".join(["LW"] * 10000) + " ( OK )^w"],
    # ind(OK LW^n) is 3^n, while its normalization is 1/3
    ["index", "OK " + " ".join(["LW"] * 9100)],
], ids=["word", "limit", "index-only"])
@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no integer string conversion limit")
def test_index_bounds_the_digits_it_prints(capsys, argv):
    """A number to print with more digits than the interpreter converts
    to a string is a resource bound, as in the topology export."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        rc, out, err = run(capsys, *argv)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (rc, out) == (2, "")
    assert err.startswith("resource: ") and "more than 4300 digits" in err


@pytest.mark.parametrize("argv", [
    ["sim", "run", "--adversary", "C1", "--scenario", "( OK )^w",
     "--inputs", "0,1"],
    ["sim", "verify", "--adversary", "GAMMA^w \\ { LW LB ( OK )^w }",
     "--algorithm", "aw", "--w", "LW LB ( OK )^w", "--depth", "3"],
    ["index", "--limit", "OK ( LW )^w"],
])
def test_compact_lasso_spellings_print_the_same(capsys, argv):
    """A lasso argument is read with the DSL's tokens, so dropping the
    spaces around its symbols changes nothing."""
    spaced = run(capsys, *argv)
    assert spaced[0] == 0 and spaced[2] == ""
    compact = [a.replace(" ( ", "(").replace(" )^w", ")^w") for a in argv]
    assert compact != argv
    assert run(capsys, *compact) == spaced


@pytest.mark.parametrize("text", [
    "OK . ( LW ( OK )^w )",
    "OK* . ( GAMMA^w \\ { ( OK )^w } )",
])
def test_lasso_or_difference_after_a_regex_is_a_parse_error(capsys, text):
    """The grammar admits these tails after ``regex "."``, and the
    compiler rejects them."""
    rc, out, err = run(capsys, "adv", "check", text)
    assert (rc, out) == (1, "")
    assert err.startswith("parse: unsupported tail under concatenation")


def test_adv_check_solvable(capsys):
    rc, out, _ = run(capsys, "adv", "check", "C1")
    assert rc == 0
    doc = check_schema(out)
    assert doc["solvable"] is True
    assert "F1" in doc["families"]


def test_adv_check_obstruction(capsys):
    rc, out, _ = run(capsys, "adv", "check", "R1")
    assert rc == 0
    assert check_schema(out)["solvable"] is False


def test_adv_check_text_format(capsys):
    rc, out, _ = run(capsys, "adv", "check", "R1", "--format", "text")
    assert rc == 0
    assert "obstruction" in out


def test_adv_witness(capsys):
    rc, out, _ = run(capsys, "adv", "witness", "S1")
    assert rc == 0
    assert check_schema(out)["forbidden"].endswith(")^w")


def test_adv_lowerbound(capsys):
    rc, out, _ = run(capsys, "adv", "lowerbound", "C1", "--rmax", "6")
    assert rc == 0
    assert check_schema(out)["rounds"] == 1


def test_adv_lowerbound_past_twelve_rounds(capsys):
    rc, out, _ = run(capsys, "adv", "lowerbound", "R1", "--rmax", "13")
    assert rc == 0
    assert check_schema(out) == {"rounds": 13, "rmax": 13}


@pytest.mark.parametrize("argv", [
    ["adv", "lowerbound", "R1", "--rmax", "0"],
    ["adv", "lowerbound", "C1", "--rmax", "-1"],
    ["topo", "contrex", "--depth", "0"],
    ["topo", "contrex", "--depth", "-2"],
    ["sim", "verify", "--adversary", "C1", "--depth", "-1"],
    ["bivalency", "explore", "--adversary", "C1", "--depth", "-1"],
])
def test_bad_depths_are_domain_errors(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (1, "")
    assert err.startswith("domain:")


def test_sim_run(capsys):
    rc, out, _ = run(
        capsys, "sim", "run", "--adversary", "C1",
        "--scenario", "( OK )^w", "--inputs", "0,1",
    )
    assert rc == 0
    doc = check_schema(out)
    assert doc["decisions"]["white"] == doc["decisions"]["black"]


def test_sim_run_scenario_outside(capsys):
    rc, _, err = run(
        capsys, "sim", "run", "--adversary", "S0",
        "--scenario", "( LB )^w", "--inputs", "0,0",
    )
    assert rc == 1
    assert "domain" in err


def test_sim_verify_ok(capsys):
    rc, out, _ = run(
        capsys, "sim", "verify", "--adversary", "C1", "--depth", "3",
    )
    assert rc == 0
    assert check_schema(out)["ok"] is True


def test_sim_verify_violations_exit_3(capsys):
    rc, out, _ = run(
        capsys, "sim", "verify", "--adversary", "R1",
        "--algorithm", "aw", "--w", "( OK )^w", "--depth", "3",
    )
    assert rc == 3
    doc = check_schema(out)
    assert doc["ok"] is False and doc["violations"]


def test_sim_verify_aeta(capsys):
    rc, out, _ = run(
        capsys, "sim", "verify",
        "--adversary", "GAMMA^w \\ { LW LB ( OK )^w }",
        "--algorithm", "aeta", "--w", "LW LB ( OK )^w", "--depth", "3",
    )
    assert rc == 0
    assert check_schema(out)["ok"] is True


def _aeta_verify(capsys, w):
    return run(capsys, "sim", "verify", "--adversary", "GAMMA^w \\ { %s }" % w,
               "--algorithm", "aeta", "--w", w, "--depth", "3")


def test_sim_verify_aeta_long_run_gap(capsys):
    """The halting radius at 1/3 comes from level 12, past the eight
    levels the CLI builds, and the runs on LB LW LB ( OK )^w need it."""
    rc, out, _ = _aeta_verify(capsys, "LB" + " LW" * 10 + " ( OK )^w")
    assert rc == 0
    assert check_schema(out)["ok"] is True


def test_sim_verify_aeta_very_long_run(capsys):
    """A run of 200 LW letters puts the radius at 1/3 near 3^-200: no
    run decides wrongly, though some outlast the round budget."""
    start = time.perf_counter()
    rc, out, _ = _aeta_verify(capsys, "LB" + " LW" * 200 + " ( OK )^w")
    assert time.perf_counter() - start < 10
    doc = check_schema(out)
    assert rc == (0 if doc["ok"] else 3)
    assert {v["kind"] for v in doc["violations"]} <= {"termination"}


def test_bivalency_explore(capsys):
    rc, out, _ = run(
        capsys, "bivalency", "explore",
        "--adversary", "GAMMA^w \\ { LW LB ( OK )^w }",
        "--inputs", "0,1", "--depth", "2",
    )
    assert rc == 0
    doc = check_schema(out)
    assert doc["valency"] == "Bivalent"
    assert doc["children"]


def test_topo_contrex(capsys):
    rc, out, _ = run(capsys, "topo", "contrex")
    assert rc == 0
    doc = check_schema(out)
    assert doc["abstract_components"] == 2
    assert doc["realization_components"] == 1


@pytest.mark.parametrize("depth, code, tag", [
    ("64", 0, ""),
    ("65", 2, "resource:"),
])
def test_topo_contrex_depth_bound(capsys, depth, code, tag):
    """contrex takes at most 64 levels, the subdivision's bound."""
    rc, _, err = run(capsys, "topo", "contrex", "--depth", depth)
    assert rc == code
    assert err.startswith(tag) and bool(err) == bool(tag)


def test_topo_subdivide_and_components(capsys, tmp_path):
    out_json = str(tmp_path / "ts.json")
    rc, out, _ = run(
        capsys, "topo", "subdivide", "--rounds", "6",
        "--adversary", "GAMMA^w \\ { LW LB ( OK )^w }",
        "--out", out_json,
    )
    assert rc == 0
    check_schema(out)
    with open(out_json) as fh:
        check_schema(fh.read())

    rc2, out2, _ = run(
        capsys, "topo", "components", "--in", out_json, "--abstract",
        "--realization",
    )
    assert rc2 == 0
    doc = check_schema(out2)
    assert doc["abstract_components"] == 2
    assert doc["realization_components"] == 2


def test_topo_subdivide_svg(capsys, tmp_path):
    out_svg = str(tmp_path / "ts.svg")
    rc, _, _ = run(
        capsys, "topo", "subdivide", "--rounds", "5",
        "--adversary", "GAMMA^w \\ { LW LB ( OK )^w }",
        "--out", out_svg,
    )
    assert rc == 0
    with open(out_svg) as fh:
        body = fh.read()
    assert body.startswith("<svg")
    assert 'stroke-width="3"' in body


def test_topo_obstruction_rejected(capsys):
    rc, _, err = run(capsys, "topo", "components", "--adversary", "R1")
    assert rc == 1
    assert "domain" in err


def test_deterministic_output(capsys):
    rc1, out1, _ = run(capsys, "adv", "check", "S1")
    rc2, out2, _ = run(capsys, "adv", "check", "S1")
    assert (rc1, out1) == (rc2, out2)
    rc3, out3, _ = run(
        capsys, "sim", "verify", "--adversary", "C1", "--depth", "3"
    )
    rc4, out4, _ = run(
        capsys, "sim", "verify", "--adversary", "C1", "--depth", "3"
    )
    assert (rc3, out3) == (rc4, out4)


def test_sim_verify_depth_over_cap_exit_2(capsys):
    rc, _, err = run(
        capsys, "sim", "verify", "--adversary", "C1", "--depth", "11",
    )
    assert rc == 2
    assert err.startswith("resource:")


def test_aeta_on_a_g2_adversary_names_the_gamma_requirement(capsys):
    """A_eta is built on a terminating subdivision, which is defined over
    GAMMA only: the error says so instead of an automaton mismatch."""
    rc, out, err = run(
        capsys, "sim", "verify", "--adversary", "S2", "--algorithm", "aeta",
        "--w", "( OK )^w", "--depth", "2",
    )
    assert (rc, out) == (1, "")
    assert err == ("domain: terminating subdivisions are built for "
                   "GAMMA-adversaries only\n")


def test_topo_components_missing_file(capsys, tmp_path):
    rc, _, err = run(
        capsys, "topo", "components", "--in", str(tmp_path / "none.json"),
    )
    assert rc == 1
    assert err.startswith("domain:")


@pytest.mark.parametrize("doc", [
    {"type": "complex", "edges": []},
    {"type": "complex", "vertices": [{"position": "1/0", "color": "WHITE",
                                      "segment": 0}], "edges": []},
    {"type": "complex", "vertices": [], "edges": [{"a": 0, "b": 1}]},
    ["not", "an", "object"],
    {"type": "complex", "vertices": [{"position": "0/1", "color": "BLACK",
                                      "segment": "unit"}], "edges": []},
])
def test_topo_components_malformed_document(capsys, tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rc, _, err = run(capsys, "topo", "components", "--in", str(path))
    assert rc == 1
    assert err.startswith("domain:")


def _unit_edge_doc(a="-2/27", b="1/27", points=()):
    return {"type": "complex",
            "vertices": [{"position": a, "color": "WHITE", "segment": "unit"},
                         {"position": b, "color": "BLACK", "segment": "unit"}],
            "edges": [{"a": 0, "b": 1, "level": None}],
            "accumulation_points": list(points)}


def test_topo_subdivide_svg_negative_position(capsys, tmp_path):
    """A vertex at -2/27 on the unit segment is drawn at
    x = 50 - 900 * 2/27 = -16.67."""
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(_unit_edge_doc()))
    out_svg = str(tmp_path / "neg.svg")
    rc, _, _ = run(capsys, "topo", "subdivide", "--in", str(path),
                   "--out", out_svg)
    assert rc == 0
    with open(out_svg) as fh:
        body = fh.read()
    assert '<line x1="-16.67" y1="500.00" x2="83.33" y2="500.00"' in body
    assert '<circle cx="-16.67" cy="500.00"' in body


@pytest.mark.parametrize("doc", [
    _unit_edge_doc(points=["1/3/7"]),
    _unit_edge_doc(a="0/1/5"),
    _unit_edge_doc(points=["1/0"]),
    _unit_edge_doc(points=["1/+3"]),
    _unit_edge_doc(b=" 1/27"),
    _unit_edge_doc(points=[1]),
])
def test_topo_components_malformed_rational(capsys, tmp_path, doc):
    """Positions and accumulation points are read by one parser, for
    the schema's ``-?[0-9]+/[0-9]+``."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "topo", "components", "--in", str(path))
    assert (rc, out) == (1, "")
    assert err.startswith("domain: malformed complex document"), err


def _segment_doc(segment):
    doc = _unit_edge_doc()
    for v in doc["vertices"]:
        v["segment"] = segment
    return doc


def _edge_doc(**fields):
    doc = _unit_edge_doc()
    doc["edges"][0].update(fields)
    return doc


@pytest.mark.parametrize("action", ["components", "json", "svg"])
@pytest.mark.parametrize("doc", [
    _segment_doc(5),
    _edge_doc(level="x"),
    _edge_doc(level=True),
    _edge_doc(a=-1, b=-2),
    _edge_doc(a=False),
    dict(_unit_edge_doc(), gluing=[[-1, 0]]),
], ids=["int-segment", "str-level", "bool-level", "negative-index",
        "bool-index", "negative-gluing"])
def test_topo_rejects_documents_outside_the_schema(capsys, tmp_path, doc,
                                                  action):
    """A segment that is not a string, a level that is neither null nor
    an integer, and a vertex index that is negative or not an integer
    are malformed, whether the document is counted or exported."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    if action == "components":
        argv = ["topo", "components", "--in", str(path)]
    else:
        argv = ["topo", "subdivide", "--in", str(path),
                "--out", str(tmp_path / ("out." + action))]
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (1, "")
    assert err.startswith("domain: malformed complex document"), err


def test_topo_svg_needs_an_anchored_segment(capsys, tmp_path):
    """The schema allows any string as a segment: a segment with no svg
    anchors is counted and exported as JSON, but not drawn."""
    path = tmp_path / "foo.json"
    path.write_text(json.dumps(_segment_doc("foo")))
    rc, _, _ = run(capsys, "topo", "components", "--in", str(path))
    assert rc == 0
    rc, _, _ = run(capsys, "topo", "subdivide", "--in", str(path),
                   "--out", str(tmp_path / "foo.out.json"))
    assert rc == 0
    rc, out, err = run(capsys, "topo", "subdivide", "--in", str(path),
                       "--out", str(tmp_path / "foo.svg"))
    assert (rc, out) == (1, "")
    assert err == "domain: no svg anchors for segment 'foo'\n"
    assert not (tmp_path / "foo.svg").exists()


def test_topo_components_deeply_nested_document(capsys, tmp_path):
    """JSON nested past the decoder's recursion limit is a malformed
    document, not a traceback."""
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    rc, out, err = run(capsys, "topo", "components", "--in", str(path))
    assert (rc, out) == (1, "")
    assert err.startswith("domain: malformed complex document")
    assert "Traceback" not in err


USAGE_ERRORS = [
    [],
    ["adv", "check"],
    ["topo", "bogus"],
    ["sim", "verify", "--adversary", "C1", "--depth", "x"],
    ["topo", "components"],
    ["topo", "subdivide", "--out", "x.json"],
]


@pytest.mark.parametrize("argv", USAGE_ERRORS)
def test_usage_error_is_a_parse_error(capsys, argv):
    rc, _, err = run(capsys, *argv)
    assert rc == 1
    assert err.startswith("parse:")


GAMMA_DIFF = "GAMMA^w \\ { LW LB ( OK )^w }"
OUT = "<out>"  # replaced by a path in the test's directory
UNREAD_OPTIONS = [
    ["adv", "check", "C1", "--rmax", "6"],
    ["adv", "witness", "C1", "--rmax", "6"],
    ["adv", "witness", "C1", "--format", "text"],
    ["adv", "lowerbound", "C1", "--format", "text"],
    ["sim", "run", "--adversary", "C1", "--scenario", "( OK )^w",
     "--depth", "3"],
    ["sim", "verify", "--adversary", "C1", "--scenario", "( OK )^w"],
    ["sim", "verify", "--adversary", "C1", "--inputs", "9,9"],
    ["topo", "subdivide", "--adversary", GAMMA_DIFF, "--out", OUT,
     "--abstract"],
    ["topo", "subdivide", "--adversary", GAMMA_DIFF, "--out", OUT,
     "--realization"],
    ["topo", "subdivide", "--adversary", GAMMA_DIFF, "--out", OUT,
     "--depth", "3"],
    ["topo", "components", "--adversary", GAMMA_DIFF, "--out", OUT],
    ["topo", "components", "--adversary", GAMMA_DIFF, "--depth", "3"],
    ["topo", "contrex", "--adversary", "R1"],
    ["topo", "contrex", "--rounds", "3"],
    ["topo", "contrex", "--out", OUT],
    ["topo", "contrex", "--in", OUT],
    ["topo", "contrex", "--abstract"],
    ["topo", "contrex", "--realization"],
    ["index", "LW OK LB", "--limit", "OK ( LW )^w"],
    ["topo", "components", "--adversary", "C1", "--in", OUT],
]


@pytest.mark.parametrize("argv", UNREAD_OPTIONS, ids=" ".join)
def test_option_the_action_does_not_read_is_a_parse_error(capsys, tmp_path,
                                                          argv):
    """Each action accepts only the options its handler reads: any other
    is a usage error, reported before anything runs or is written."""
    out = tmp_path / "out.json"
    argv = [str(out) if a == OUT else a for a in argv]
    rc, stdout, err = run(capsys, *argv)
    assert (rc, stdout) == (1, "")
    assert err.startswith("parse:"), err
    assert not out.exists()


IGNORED_VALUES = [
    ["sim", "run", "--adversary", "C1", "--algorithm", "own-input",
     "--w", "( OK )^w", "--scenario", "( OK )^w"],
    ["sim", "verify", "--adversary", "C1", "--algorithm", "own-input",
     "--w", "nonsense", "--depth", "2"],
    ["sim", "verify", "--adversary", "C1", "--algorithm", "own-input",
     "--w", "( OK )^w"],
    ["bivalency", "explore", "--adversary", "C1", "--algorithm",
     "own-input", "--w", "( OK )^w"],
    ["sim", "verify", "--adversary", "C1", "--w", ""],
    ["topo", "components", "--in", "<doc>", "--rounds", "99"],
    ["topo", "components", "--in", "<missing>", "--rounds", "9"],
    ["topo", "subdivide", "--in", "<doc>", "--rounds", "3", "--out", OUT],
]


@pytest.mark.parametrize("argv", IGNORED_VALUES, ids=" ".join)
def test_option_the_chosen_source_ignores_is_a_parse_error(capsys, tmp_path,
                                                           argv):
    """``--w`` with ``--algorithm own-input``, an empty ``--w`` and
    ``--rounds`` with ``--in`` would be dropped unread: each is a usage
    error, reported before the ``--in`` document is opened or anything
    is written."""
    doc = tmp_path / "doc.json"
    rc, _, _ = run(capsys, "topo", "subdivide", "--adversary", GAMMA_DIFF,
                   "--rounds", "3", "--out", str(doc))
    assert rc == 0
    out = tmp_path / "out.json"
    paths = {OUT: str(out), "<doc>": str(doc),
             "<missing>": str(tmp_path / "missing.json")}
    rc, stdout, err = run(capsys, *[paths.get(a, a) for a in argv])
    assert (rc, stdout) == (1, "")
    assert err.startswith("parse:"), err
    assert not out.exists()


def test_rounds_defaults_to_eight_for_an_adversary(capsys, tmp_path):
    outs = []
    for extra in ([], ["--rounds", "8"]):
        path = str(tmp_path / ("ts%d.json" % len(extra)))
        rc, _, _ = run(capsys, "topo", "subdivide", "--adversary",
                       GAMMA_DIFF, "--out", path, *extra)
        assert rc == 0
        with open(path) as fh:
            outs.append(check_schema(fh.read()))
    assert outs[0] == outs[1] and outs[0]["depth"] == 8


def _readme_cli_block():
    """The README's CLI commands, one argv per command, with ``\\``
    continuations joined and ``#`` comments stripped."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    block = re.search(r"^## CLI$.*?^```sh$(.*?)^```$", text,
                      re.M | re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    argvs = [shlex.split(line, comments=True) for line in lines]
    return [argv for argv in argvs if argv]


def test_readme_cli_block(capsys, tmp_path, monkeypatch):
    """The README's CLI block runs top to bottom: every command exits 0
    and every JSON output validates against the schema."""
    monkeypatch.chdir(tmp_path)
    argvs = _readme_cli_block()
    assert len(argvs) == 14
    for twogen, *argv in argvs:
        assert twogen == "twogen"
        rc, out, err = run(capsys, *argv)
        assert (rc, err) == (0, ""), argv
        if argv[-2:] != ["--format", "text"]:
            check_schema(out)
    with open("stable.json") as fh:
        check_schema(fh.read())


def test_deep_nesting_is_a_parse_error(capsys):
    text = "(" * 2000 + "OK" + ")" * 2000
    rc, _, err = run(capsys, "adv", "check", text)
    assert rc == 1
    assert err.startswith("parse:")


@pytest.mark.parametrize("argv", [
    ["adv", "witness", "C1"],
    ["adv", "check", "OK* . {LW}^w | LB . {OK,LB}^w | OK LW* . {OK,LB}^w"],
])
def test_output_independent_of_hash_seed(argv):
    """Witness lassos do not depend on the order of hashed states."""
    outs = set()
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                   PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "twogen.cli", *argv], env=env,
            capture_output=True, text=True, check=True, timeout=60,
        )
        outs.add(proc.stdout)
    assert len(outs) == 1, outs


@pytest.mark.parametrize("rounds, code, tag, edges", [
    ("0", 0, "", 0),
    ("-3", 1, "domain:", None),
    ("65", 2, "resource:", None),
])
def test_topo_subdivide_rounds(capsys, tmp_path, rounds, code, tag, edges):
    """--rounds is taken as given: 0 is an empty complex, a negative
    depth is a domain error, more than 64 levels a resource bound."""
    out_json = str(tmp_path / "ts.json")
    rc, _, err = run(
        capsys, "topo", "subdivide", "--rounds", rounds,
        "--adversary", "GAMMA^w \\ { LW LB ( OK )^w }", "--out", out_json,
    )
    assert rc == code
    assert err.startswith(tag)
    if edges is not None:
        with open(out_json) as fh:
            doc = check_schema(fh.read())
        assert (doc["depth"], len(doc["edges"])) == (0, edges)


def test_adv_commands_on_generated_inputs(capsys):
    """Generated DSL inputs end in a documented exit code, never in an
    exception."""
    texts = DslTexts(random.Random(4), letters=("OK", "LW", "LB"))
    codes = set()
    for i in range(500):
        text = texts.text(i % 3)
        for argv in (["adv", "check", text],
                     ["adv", "lowerbound", text, "--rmax", "4"]):
            rc = cli.main(argv)
            assert rc in (0, 1, 2, 3), argv
            codes.add(rc)
        capsys.readouterr()
    assert {0, 1} <= codes


SCENARIOS = ("( OK )^w", "LW ( OK )^w", "( LB )^w", "OK LB ( LW )^w")
INPUTS = ("0,1", "1,0", "0,0", "1,1", "2,1", "1", "")


def _generated_argvs(seed: int, n: int, out: str):
    """``n`` seeded rounds of argv lists, each round one call of every
    action but ``adv``: words and lassos (some mutated), adversaries of
    ``DslTexts``, both algorithms with and without ``--w``, input
    vectors, and depths and rounds down to -2.  ``topo subdivide`` writes
    ``out``."""
    rng = random.Random(seed)
    texts = DslTexts(rng, letters=("OK", "LW", "LB"))

    def spelled(toks):
        toks = texts.mutate(toks) if rng.random() < 0.3 else toks
        return " ".join(toks)

    for i in range(n):
        yield ["index", spelled(texts.letters(0, 5))]
        yield ["index", "--limit", spelled(texts.lasso())]
        adversary = texts.text(i % 3)
        for algorithm in ("aw", "aeta"):
            algo = ["--adversary", adversary, "--algorithm", algorithm]
            if rng.random() < 0.2:
                algo += ["--w", spelled(texts.lasso())]
            scenario = rng.choice(SCENARIOS + (spelled(texts.lasso()),))
            yield ["sim", "run", *algo, "--scenario", scenario,
                   "--inputs", rng.choice(INPUTS)]
            yield ["sim", "verify", *algo, "--depth", str(rng.randint(-2, 3))]
            yield ["bivalency", "explore", *algo, "--inputs",
                   rng.choice(INPUTS), "--depth", str(rng.randint(-2, 2))]
        rounds = str(rng.randint(-2, 4))
        yield ["topo", "subdivide", "--adversary", adversary,
               "--rounds", rounds, "--out", out]
        yield ["topo", "components", "--adversary", adversary,
               "--rounds", rounds]
        yield ["topo", "contrex", "--depth", str(rng.randint(-2, 5))]


def test_commands_on_generated_inputs(capsys, tmp_path):
    """Generated inputs to every action but ``adv`` end in a documented
    exit code, never in an exception, and each action both succeeds and
    fails on some of them."""
    codes = {}
    for argv in _generated_argvs(5, 300, str(tmp_path / "out.json")):
        rc = cli.main(argv)
        assert rc in (0, 1, 2, 3), argv
        codes.setdefault(tuple(argv[:2]) if argv[0] != "index"
                         else ("index", argv[1] == "--limit"), set()).add(rc)
        capsys.readouterr()
    assert len(codes) == 8
    for action, seen in codes.items():
        assert {0, 1} <= seen, action


JUNK = (None, True, -1, 0, 7, 2.5, "", "x", "1/0", "-1/3", "7/9", "WHITE",
        "BLACK", "unit", "W0B0", "complex", [], {}, [0, 1], {"a": 0})


def _mutated_document(rng: random.Random, doc) -> str:
    """``doc`` as JSON with one or two values replaced by ``JUNK``,
    deleted or repeated, or its text cut short."""
    doc = json.loads(json.dumps(doc))
    for _ in range(rng.randint(1, 2)):
        node = doc
        while True:
            keys = list(node) if isinstance(node, dict) else range(len(node))
            if not keys:
                break
            key = rng.choice(list(keys))
            child = node[key]
            if isinstance(child, (dict, list)) and child and rng.random() < .7:
                node = child
                continue
            op = rng.randrange(3)
            if op == 0:
                node[key] = rng.choice(JUNK)
            elif op == 1:
                del node[key]
            elif isinstance(node, list):
                node.insert(key, child)
            else:
                node[rng.choice(list(node))] = child
            break
    text = json.dumps(doc)
    if rng.random() < 0.15:
        text = text[:rng.randrange(len(text))]
    return text


def _exported_documents(tmp_path) -> list:
    docs = []
    for rounds in ("0", "2", "4"):
        path = str(tmp_path / ("ts%s.json" % rounds))
        assert cli.main(["topo", "subdivide", "--adversary", GAMMA_DIFF,
                         "--rounds", rounds, "--out", path]) == 0
        with open(path) as fh:
            docs.append(json.load(fh))
    return docs


def test_topo_components_on_mutated_documents(capsys, tmp_path):
    """Exported complexes with values replaced, deleted or repeated, or
    cut short, end in exit 0 or 1 on ``topo components --in``, never in
    an exception."""
    rng = random.Random(11)
    docs = _exported_documents(tmp_path)
    codes = set()
    path = str(tmp_path / "mutated.json")
    for i in range(300):
        text = _mutated_document(rng, docs[i % len(docs)])
        with open(path, "w") as fh:
            fh.write(text)
        argv = ["topo", "components", "--in", path,
                *rng.choice(((), ("--abstract",), ("--realization",)))]
        rc = cli.main(argv)
        assert rc in (0, 1), (argv, text)
        codes.add(rc)
    capsys.readouterr()
    assert codes == {0, 1}


def test_topo_subdivide_on_mutated_documents(capsys, tmp_path):
    """The same mutated documents, exported again as JSON or drawn as
    SVG by ``topo subdivide --in``, end in exit 0 or 1 too."""
    rng = random.Random(12)
    docs = _exported_documents(tmp_path)
    codes = set()
    path = str(tmp_path / "mutated.json")
    for i in range(300):
        text = _mutated_document(rng, docs[i % len(docs)])
        with open(path, "w") as fh:
            fh.write(text)
        out = str(tmp_path / ("x." + rng.choice(("json", "svg"))))
        argv = ["topo", "subdivide", "--in", path, "--out", out]
        rc = cli.main(argv)
        assert rc in (0, 1), (argv, text)
        codes.add(rc)
    capsys.readouterr()
    assert codes == {0, 1}


def _fresh_process(argv, cwd):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "twogen.cli", *argv], env=env, cwd=cwd,
        capture_output=True, text=True, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_shared_parser_leaks_no_state(capsys, tmp_path, monkeypatch):
    """Each call in one process prints what a fresh process prints for
    the same argv: options and defaults of one call do not carry over to
    the next, and a usage error after a success is still a parse error."""
    monkeypatch.chdir(tmp_path)
    rc, _, _ = run(
        capsys, "topo", "subdivide", "--rounds", "4",
        "--adversary", "GAMMA^w \\ { LW LB ( OK )^w }", "--out", "F.json",
    )
    assert rc == 0
    verify3 = ["sim", "verify", "--adversary", "C1", "--depth", "3"]
    verify4 = ["sim", "verify", "--adversary", "C1"]
    abstract = ["topo", "components", "--in", "F.json", "--abstract"]
    both = ["topo", "components", "--in", "F.json"]
    text = ["adv", "check", "R1", "--format", "text"]
    as_json = ["adv", "check", "R1"]
    success = ["index", "LW OK LB"]
    sequence = [verify3, verify4, abstract, both, text, as_json]
    for argv in USAGE_ERRORS:
        sequence += [success, argv]
    seen = {}
    for argv in sequence:
        got = run(capsys, *argv)
        seen.setdefault(tuple(argv), []).append(got)

    a = cli.adv.load("C1")
    w = cli.oracle.select_forbidden_scenario(cli.oracle.classify(a))
    checked4 = protocol.verify(
        protocol.IndexGuardAlgorithm(w), a, depth=4).checked
    assert json.loads(seen[tuple(verify4)][0][1])["checked"] == checked4
    assert json.loads(seen[tuple(verify3)][0][1])["checked"] != checked4
    assert set(json.loads(seen[tuple(abstract)][0][1])) == {
        "abstract_components"}
    assert set(json.loads(seen[tuple(both)][0][1])) == {
        "abstract_components", "realization_components"}
    assert check_schema(seen[tuple(as_json)][0][1])["solvable"] is False
    for argv in USAGE_ERRORS:
        for rc, out, err in seen[tuple(argv)]:
            assert (rc, out) == (1, "") and err.startswith("parse:"), argv
    for argv, results in seen.items():
        assert results == [_fresh_process(list(argv), tmp_path)] * len(
            results), argv


def test_parser_built_once_per_process(capsys, monkeypatch):
    mixed = [
        ["index", "LW OK LB"],
        ["adv", "check", "R1", "--format", "text"],
        ["adv", "check"],
        ["sim", "verify", "--adversary", "C1", "--depth", "2"],
        ["topo", "contrex", "--depth", "3"],
    ]
    builds = []

    def add_subparsers(self, **kwargs):
        builds.append(self.prog)
        return argparse.ArgumentParser.add_subparsers(self, **kwargs)

    monkeypatch.setattr(cli._Parser, "add_subparsers", add_subparsers)
    cli._build_parser.cache_clear()
    try:
        codes = [cli.main(mixed[i % len(mixed)]) for i in range(20)]
    finally:
        cli._build_parser.cache_clear()
    capsys.readouterr()
    assert codes == [0, 0, 1, 0, 0] * 4
    assert builds == ["twogen", "twogen adv", "twogen sim",
                      "twogen bivalency", "twogen topo"]


def test_import_builds_no_parser():
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *a, **k):\n"
        "    built.append(1)\n"
        "    init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import twogen.cli\n"
        "print(len(built))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=60)
    assert proc.stdout == "0\n"


@pytest.mark.parametrize("argv", [["--help"], ["sim", "--help"]])
def test_help_exits_0(capsys, argv):
    outs = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: twogen")
        outs.append(out)
    assert outs[0] == outs[1]
