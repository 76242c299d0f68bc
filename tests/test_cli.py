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
from cdt import canonical_form, bt_graph, g_star, turan_graph
from cdt.cli import main

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


def test_bounds_rationals_round_trip(capsys):
    from fractions import Fraction

    code, out, _ = run(capsys, ["bounds", "-t", "3", "-d", "5", "-w", "3", "--json"])
    doc = validate_schema(out)
    for key in ("lower", "upper", "exact"):
        val = doc["outputs"][key]
        assert Fraction(val["exact"]) == Fraction(val["exact"])  # parses
    assert Fraction(doc["outputs"]["exact"]["exact"]) == Fraction(15, 8)


def test_bounds_table_csv(capsys):
    code, out, _ = run(
        capsys,
        ["bounds", "-t", "3", "--table", "--delta-range", "3:6", "--omega-range", "3:4"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "delta,omega,lower,upper,exact,provenance"
    assert len(lines) == 1 + 4 * 2
    assert any(line.startswith("6,4,4,4,4,divisibility") for line in lines)


def test_bounds_missing_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "-t", "3"])
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


def test_construct_invalid_params_exit_2(capsys):
    code, _, err = run(capsys, ["construct", "bt", "1"])
    assert code == 2 and "error" in err
    code, _, err = run(capsys, ["construct", "turan", "5"])
    assert code == 2


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


# -- search ------------------------------------------------------------------

def test_search_json(capsys):
    code, out, _ = run(capsys, ["search", "-n", "6", "-d", "5", "-w", "3",
                                "-t", "3", "--json"])
    assert code == 0
    doc = validate_schema(out)
    levels = doc["outputs"]["levels"]
    assert len(levels) == 1 and levels[0]["n"] == 6
    assert levels[0]["max_density"]["exact"] == "4/3"


def test_search_range_human(capsys):
    code, out, _ = run(capsys, ["search", "--n-range", "3:5", "-d", "2",
                                "-w", "3", "-t", "3"])
    assert code == 0
    assert "n=3" in out and "n=5" in out


def test_search_cap_exit_4(capsys):
    code, out, err = run(capsys, ["search", "-n", "12", "-d", "3", "-w", "3", "-t", "3"])
    assert code == 4
    assert "cap" in err
    # one line, and it says how to raise the cap
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: ") and "--max-n" in err
    assert "CDT_MAX_N" in err and "hard cap 16" in err


def test_search_cap_env_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("CDT_MAX_N", "4")
    code, _, err = run(capsys, ["search", "-n", "5", "-d", "2", "-w", "3", "-t", "3"])
    assert code == 4
    # flag beats the environment
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
    "bounds -t 3 --table --delta-range 0:2",
    "bounds -t 3 --table --delta-range 1:3 --omega-range 1:3",
    "search -n 8 -d 5 -w 3 -t 1",
    "search -n 0 -d 5 -w 3 -t 3",
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


# -- verify ---------------------------------------------------------------------

def test_verify_formulas_passes(capsys):
    code, out, _ = run(capsys, ["verify", "formulas"])
    assert code == 0
    assert out.startswith("ok")


def test_verify_monotone_passes(capsys):
    code, out, _ = run(capsys, ["verify", "monotone"])
    assert code == 0


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


def test_verify_unknown_suite_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "everything"])
    assert exc.value.code == 2


def test_verify_failing_check_exits_5(capsys, monkeypatch):
    import cdt.cli as cli

    monkeypatch.setitem(cli._SUITES, "monotone", lambda: False)
    code, _, _ = run(capsys, ["verify", "monotone"])
    assert code == 5
