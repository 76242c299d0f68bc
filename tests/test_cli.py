"""Command-line surface: flags, formats, exit codes, JSON schema."""

import io
import json
from pathlib import Path

import pytest

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

import cdt
from cdt import (
    bt_graph,
    canonical_form,
    clique_count,
    clique_number,
    density,
    enumerate_all_up_to,
    g_star,
    graph6_decode,
    in_class,
    turan_graph,
)
from cdt.cli import _rational, main

from helpers import inline_pool_context


SCHEMA_PATH = Path(cdt.__file__).parent / "schemas" / "report.schema.json"


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate_schema(text: str) -> dict:
    doc = json.loads(text)
    if jsonschema is not None:
        jsonschema.validate(doc, json.loads(SCHEMA_PATH.read_text()))
    assert doc["schema_version"] == 1
    return doc


# -- bounds -------------------------------------------------------------

def test_bounds_human(capsys):
    code, out, _ = run(capsys, ["bounds", "-t", "3", "-d", "5", "-w", "3"])
    assert code == 0
    assert "12/7" in out and "15/8" in out and "special-triple" in out


def test_bounds_json_schema_and_values(capsys):
    code, out, _ = run(capsys, ["bounds", "-t", "3", "-d", "6", "-w", "4", "--json"])
    assert code == 0
    doc = validate_schema(out)
    assert doc["outputs"]["exact"]["exact"] == "4"
    assert doc["provenance"] == "divisibility"


def test_bounds_json_conjecture_row(capsys):
    code, out, _ = run(capsys, ["bounds", "-t", "3", "-d", "7", "-w", "3", "--json"])
    assert code == 0
    doc = validate_schema(out)
    assert doc["outputs"]["exact"] is None
    assert doc["outputs"]["lower"]["exact"] == "18/5"
    assert doc["outputs"]["upper"]["exact"] == "4"
    assert doc["outputs"]["conjecture"]["exact"] == "40/11"


def test_bounds_human_conjecture_row(capsys):
    code, out, _ = run(capsys, ["bounds", "-t", "3", "-d", "7", "-w", "3"])
    assert code == 0
    assert "  exact        unknown\n" in out
    assert "  conjectured  40/11 (~3.63636)\n" in out


def test_bounds_rationals_round_trip(capsys):
    from fractions import Fraction

    code, out, _ = run(capsys, ["bounds", "-t", "3", "-d", "5", "-w", "3", "--json"])
    doc = validate_schema(out)
    for key in ("lower", "upper", "exact"):
        val = doc["outputs"][key]
        assert Fraction(val["exact"]) == Fraction(val["exact"])  # parses
    assert Fraction(doc["outputs"]["exact"]["exact"]) == Fraction(15, 8)


def test_bounds_table_csv(capsys):
    code, out, _ = run(capsys, ["bounds", "-t", "3", "-d", "3:6", "-w", "3:4"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "delta,omega,lower,upper,exact,provenance"
    assert len(lines) == 1 + 4 * 2
    assert any(line.startswith("6,4,4,4,4,divisibility") for line in lines)
    # a range prints the table even under --json
    assert run(capsys, ["bounds", "-t", "3", "-d", "3:6", "-w", "3:4", "--json"])[:2] == (0, out)


def test_bounds_beyond_64_vertices_prints_the_value(capsys):
    # the divisibility witness T(150, 3) does not fit in 64 vertices
    code, out, _ = run(capsys, ["bounds", "-t", "3", "-d", "100", "-w", "3"])
    assert code == 0
    assert "exact        2500/3 (~833.333)  [divisibility]" in out
    assert "witness" not in out
    code, out, _ = run(capsys, ["bounds", "-t", "3", "-d", "99:100", "-w", "3"])
    assert code == 0
    assert out.splitlines()[2] == "100,3,2500/3,2500/3,2500/3,divisibility"
    # the divisibility witness T(64, 32) just fits
    code, out, _ = run(capsys, ["bounds", "-t", "3", "-d", "62", "-w", "32"])
    assert code == 0
    assert "exact        620  [divisibility]" in out
    assert f"  witness      {canonical_form(turan_graph(64, 32))}" in out.splitlines()
    code, out, _ = run(capsys, ["bounds", "-t", "3", "-d", "62", "-w", "31:32"])
    assert code == 0
    assert out.splitlines()[2] == "62,32,620,620,620,divisibility"


def test_bounds_edges_exact(capsys):
    code, out, _ = run(capsys, ["bounds", "-t", "2", "-d", "3", "-w", "3"])
    assert code == 0
    assert "exact        3/2 (~1.5)  [handshake]" in out


def test_bounds_missing_flags_exit_2(capsys):
    for argv in (["bounds", "-t", "3"], ["bounds", "-t", "3", "-d", "5"], ["bounds", "-t", "3", "-w", "3:4"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


# -- construct -----------------------------------------------------------

def test_construct_turan(capsys):
    code, out, _ = run(capsys, ["construct", "turan", "8", "4"])
    assert code == 0
    assert out.strip() == canonical_form(turan_graph(8, 4))


def test_construct_bt2_is_wheel_like_join(capsys):
    code, out, _ = run(capsys, ["construct", "bt", "2"])
    assert code == 0
    assert out.strip() == canonical_form(bt_graph(2))


def test_construct_gstar(capsys):
    code, out, _ = run(capsys, ["construct", "gstar"])
    assert code == 0
    g6 = out.strip()
    assert g6 == canonical_form(g_star())
    assert cdt.graph6_decode(g6).edge_count() == 17


def test_construct_lbg(capsys):
    code, out, _ = run(capsys, ["construct", "lbg", "5", "3"])
    assert code == 0
    assert out.strip() == canonical_form(turan_graph(7, 3))
    code, out, _ = run(capsys, ["construct", "lbg", "62", "32"])  # T(64, 32)
    assert code == 0
    assert out.strip() == canonical_form(turan_graph(64, 32))


def test_construct_invalid_params_exit_2(capsys):
    # a bad value, then too few and too many parameters
    for params in (["bt", "1"], ["turan", "5"], ["turan", "8", "4", "9"], ["gstar", "5"], ["bt", "2", "7"]):
        code, out, err = run(capsys, ["construct"] + params)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


# -- analyze --------------------------------------------------------------

def test_analyze_bt2(capsys, monkeypatch):
    g6 = canonical_form(bt_graph(2))
    code, out, err = run(
        capsys, ["analyze", "-t", "3", "-d", "5", "-w", "3"],
        stdin=g6 + "\n", monkeypatch=monkeypatch,
    )
    assert code == 0
    assert "k_3=15" in out and "15/8" in out
    assert "perfect vertices" in out


def test_analyze_outside_the_class(capsys, monkeypatch):
    # K_4 has maximum degree 3, above the bound 2
    code, out, _ = run(
        capsys, ["analyze", "-t", "3", "-d", "2", "-w", "3"],
        stdin="C~\n", monkeypatch=monkeypatch,
    )
    assert code == 0
    assert "  not in the requested class\n" in out
    assert "perfect vertices" not in out


def test_analyze_skips_empty_lines_with_warning(capsys, monkeypatch):
    code, out, err = run(
        capsys, ["analyze", "-t", "3"],
        stdin="\nBw\n", monkeypatch=monkeypatch,
    )
    assert code == 0
    assert "line 1" in err and "skipped" in err
    assert "k_3=1" in out


def test_analyze_malformed_line_exits_3(capsys, monkeypatch):
    code, out, err = run(
        capsys, ["analyze", "-t", "3"],
        stdin="Bw\nB\x21broken\n", monkeypatch=monkeypatch,
    )
    assert code == 3
    assert "line 2" in err


@pytest.mark.parametrize("bad", ["~~??????", "~?@@", "Bx"], ids=["8-byte-count", "n-65", "padding"])
def test_analyze_rejected_graph6_exits_3_with_empty_stdout(capsys, monkeypatch, bad):
    code, out, err = run(capsys, ["analyze"], stdin=f"Bw\n{bad}\n", monkeypatch=monkeypatch)
    assert (code, out) == (3, "")
    assert err.startswith("error: line 2: ") and len(err.splitlines()) == 1


def test_analyze_json_per_vertex_weights(capsys, monkeypatch):
    # T(8,4) in the degree-6 clique-5 class: every triangle weight is 12
    # and no vertex has the extremal T(6,4) neighborhood
    g6 = canonical_form(turan_graph(8, 4))
    code, out, _ = run(
        capsys, ["analyze", "-t", "3", "-d", "6", "-w", "5", "--json"],
        stdin=g6 + "\n", monkeypatch=monkeypatch,
    )
    doc = validate_schema(out)
    rec = doc["outputs"]["graphs"][0]
    assert rec["vertex_weights"] == [12] * 8
    assert rec["clique_count"] == 32
    assert rec["in_class"] is True
    assert rec["perfect_vertices"] == []


def test_analyze_json_matches_the_separate_counters(capsys, monkeypatch):
    # k_t, the clique number and class membership come from one walk;
    # the library's own counters are the reference
    graphs = [graph6_decode("?")]
    enumerate_all_up_to(5, 5, 6, graphs.append)
    graphs += [bt_graph(3), g_star()]
    for t in range(1, 6):
        code, out, _ = run(
            capsys, ["analyze", "-t", str(t), "-d", "4", "-w", "3", "--json"],
            stdin="".join(canonical_form(g) + "\n" for g in graphs), monkeypatch=monkeypatch,
        )
        assert code == 0
        for g, rec in zip(graphs, json.loads(out)["outputs"]["graphs"], strict=True):
            assert rec["clique_number"] == clique_number(g)
            assert rec["clique_count"] == clique_count(g, t)
            assert rec["density"] == (_rational(density(g, t)) if g.n else None)
            assert rec["in_class"] == in_class(g, 4, 3)


# -- search ------------------------------------------------------------------

def test_search_json(capsys):
    code, out, _ = run(capsys, ["search", "-n", "6", "-d", "5", "-w", "3",
                                "-t", "3", "--json"])
    assert code == 0
    doc = validate_schema(out)
    levels = doc["outputs"]["levels"]
    assert len(levels) == 1 and levels[0]["n"] == 6
    assert levels[0]["max_density"]["exact"] == "4/3"


@pytest.mark.parametrize("argv, expected", [
    (["-n", "6", "-d", "5", "-w", "3"], (False, "15/8", False)),
    (["-n", "5", "-d", "4", "-w", "4"], (True, "7/5", True)),
    (["-n", "2", "-d", "1", "-w", "1"], (None, None, None)),
    (["-n", "3", "-d", "62", "-w", "32"], (False, "620", False)),
    # the best density is over every level 1..8, not only the shown ones
    (["-n", "3:8", "-d", "5", "-w", "3"], (False, "15/8", True)),
    # no registry row, but lower = upper = 0 pins the value, as `cdt bounds` says
    (["-n", "7", "-d", "7", "-w", "2"], (True, "0", True)),
])
def test_search_json_compares_with_the_bound_registry(capsys, argv, expected):
    code, out, _ = run(capsys, ["search", *argv, "-t", "3", "--json"])
    assert code == 0
    outputs = validate_schema(out)["outputs"]
    exact = outputs["exact_known"]
    assert (outputs["meets_lower_bound"], exact and exact["exact"], outputs["meets_exact"]) == expected


def test_search_range_human(capsys):
    code, out, _ = run(capsys, ["search", "-n", "3:5", "-d", "2",
                                "-w", "3", "-t", "3"])
    assert code == 0
    assert "n=3" in out and "n=5" in out


def test_search_cap_exit_4(capsys):
    code, out, err = run(capsys, ["search", "-n", "12", "-d", "3", "-w", "3", "-t", "3"])
    assert code == 4
    assert "cap" in err
    # one line, and it says how to raise the cap
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert err.endswith(" (raise with --max-n, up to the hard cap 16)\n")


def test_search_max_n_sets_the_cap(capsys):
    code, _, err = run(capsys, ["search", "-n", "5", "-d", "2", "-w", "3", "-t", "3", "--max-n", "4"])
    assert code == 4 and "cap 4" in err
    # a range is capped by its top size
    code, _, _ = run(capsys, ["search", "-n", "3:5", "-d", "2", "-w", "3", "-t", "3", "--max-n", "4"])
    assert code == 4
    code, out, _ = run(capsys, ["search", "-n", "5", "-d", "2", "-w", "3",
                                "-t", "3", "--max-n", "6"])
    assert code == 0


@pytest.mark.parametrize("raised, code, message", [
    # a worker's ValueError is not a bad parameter: exit 1, not 2
    (ValueError("boom"), 1, "error: search worker failed: ValueError: boom\n"),
    (KeyboardInterrupt(), 130, "error: interrupted\n"),
], ids=["worker-error", "ctrl-c"])
def test_search_pool_failure_is_one_error_line(capsys, monkeypatch, raised, code, message):
    def worker(task):
        raise raised

    monkeypatch.setattr("cdt.search.get_context", lambda method: inline_pool_context([]))
    monkeypatch.setattr("cdt.search._subtree_worker", worker)
    got, out, err = run(capsys, ["search", "-n", "6", "-d", "5", "-w", "3", "-t", "3",
                                 "--threads", "2"])
    assert (got, out, err) == (code, "", message)


def test_search_trivial_class_max_zero(capsys):
    code, out, _ = run(capsys, ["search", "-n", "2", "-d", "1", "-w", "2",
                                "-t", "3", "--json"])
    assert code == 0
    doc = validate_schema(out)
    assert doc["outputs"]["best_density"]["exact"] == "0"


@pytest.mark.parametrize("argv", [
    "bounds -t 1 -d 5 -w 3",
    "bounds -t 3 -d 0 -w 3",
    "bounds -t 3 -d 0:2 -w 3:10",
    "bounds -t 3 -d 1:3 -w 1:3",
    "search -n 8 -d 5 -w 3 -t 1",
    "search -n 0 -d 5 -w 3 -t 3",
    "search -n 0:3 -d 3 -w 3 -t 3",
    "search -n=-2:3 -d 3 -w 3 -t 3",
    "search -n 5 -d -1 -w 3 -t 3",
    "search -n 5 -d 3 -w 3 -t 3 --max-n -2",
    "search -n 5 -d 3 -w 3 -t 3 --threads 0",
    "search -n 5 -d 3 -w 3 -t 3 --threads -2",
    "search -n 5 -d 3 -w 0 -t 3",
    "analyze -t 0",
    "analyze -d 5",
    "analyze -w 3",
    "analyze -d -1 -w 3",
    "analyze -d 5 -w 0",
    "analyze -d 5 -w 1",
])
def test_invalid_parameters_exit_2(capsys, argv):
    code, out, err = run(capsys, argv.split())
    assert code == 2 and err.startswith("error: ") and "Traceback" not in err
    assert out == ""


def test_search_invalid_flags_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["search", "-d", "3", "-w", "3", "-t", "3"])  # no -n
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, bad", [
    ("search -n x -d 3 -w 3 -t 3", "x"),
    ("search -n 3:x -d 3 -w 3 -t 3", "3:x"),
    ("bounds -t 3 -d 1.5 -w 3", "1.5"),
    ("bounds -t 3 -d 3 -w 5:", "5:"),
], ids=["n", "n-range", "d", "w-open-range"])
def test_bad_range_exits_2_naming_the_syntax(capsys, argv, bad):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"expected N or LO:HI, got '{bad}'" in captured.err


# -- verify ---------------------------------------------------------------------

def test_verify_formulas_passes(capsys):
    code, out, _ = run(capsys, ["verify", "formulas"])
    assert code == 0
    assert out.splitlines() == ["ok   turan closed form vs direct count (n <= 9, 45 graphs)"]


def test_verify_formulas_catches_planted_fault(capsys, monkeypatch):
    real = cdt.verify.turan_clique_count
    monkeypatch.setattr(cdt.verify, "turan_clique_count", lambda n, r, t: real(n, r, t) + (t == 2))
    code, out, _ = run(capsys, ["verify", "formulas"])
    [fail] = out.splitlines()
    assert code == 5 and fail.startswith("FAIL turan closed form vs direct count (n <= 9, 45 graphs): ")
    named = fail.split(": ")[1].split()
    assert len(named) == len(set(named)) == 3
    assert all(cdt.graph6_decode(g6).n >= 1 for g6 in named)


def test_verify_monotone_passes(capsys):
    code, out, _ = run(capsys, ["verify", "monotone"])
    assert code == 0
    assert out.splitlines() == ["ok   turan density monotone in n (n <= 120, omega <= 8, 840 graphs)"]


def test_verify_superadd_passes(capsys):
    code, out, _ = run(capsys, ["verify", "superadd"])
    assert code == 0


def test_verify_lemmas_passes(capsys):
    code, out, _ = run(capsys, ["verify", "lemmas"])
    assert code == 0
    assert "handshake" in out
    assert "ok   handshake identity (n <= 7, 1252 graphs)" in out.splitlines()


def test_verify_lemmas_catches_planted_fault(capsys, monkeypatch):
    monkeypatch.setattr(cdt.cliques, "is_detachable", lambda g, subset, t: False)
    code, out, _ = run(capsys, ["verify", "lemmas"])
    fail = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert code == 5 and len(fail) == 1 and "detachability" in fail[0]
    assert cdt.graph6_decode(fail[0].split(": ")[1].split()[0]).n >= 1


def test_verify_neighborhoods_reports_coverage(capsys):
    code, out, _ = run(capsys, ["verify", "neighborhoods"])
    assert code == 0
    assert out.splitlines() == ["ok   neighborhood classifications (r = 3..6, 13598 graphs)"]


def test_verify_neighborhoods_catches_planted_fault(capsys, monkeypatch):
    monkeypatch.setattr(cdt.verify, "vertex_cover_count", lambda g, s: 0)
    code, out, _ = run(capsys, ["verify", "neighborhoods"])
    [fail] = out.splitlines()
    assert code == 5 and fail.startswith("FAIL neighborhood classifications (r = 3..6, 13598 graphs): ")
    named = fail.split(": ")[1].split()
    assert 1 <= len(named) == len(set(named)) <= 3
    assert all(cdt.graph6_decode(g6).n >= 1 for g6 in named)


def test_verify_unknown_suite_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "everything"])
    assert exc.value.code == 2


def test_verify_failing_check_exits_5(capsys, monkeypatch):
    monkeypatch.setattr(cdt.verify, "rho_monotone_check", lambda omega, t, n_max: False)
    code, out, _ = run(capsys, ["verify", "monotone"])
    assert code == 5
    assert out.splitlines() == [
        "FAIL turan density monotone in n (n <= 120, omega <= 8, 840 graphs):"
        " omega=2,t=2 omega=3,t=2 omega=3,t=3"
    ]
