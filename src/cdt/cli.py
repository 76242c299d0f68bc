"""Command-line surface: bounds tables, constructions, analysis of
piped graphs, exhaustive search, and `cdt.verify` suite rows, one line each.

`bounds -d/-w` and `search -n` take a value N or a range LO:HI; a range
in `bounds` prints a CSV table, one row per (dmax, omega).

Exit codes: 0 success, 1 a search worker failed, 2 invalid
flags/parameters, 3 malformed graph6 input, 4 enumeration cap exceeded
(raise it with --max-n, up to the hard cap), 5 failed verification
check, 130 interrupted.  No exit shows a traceback.

Every --json document carries schema_version and renders rationals as
exact "p/q" strings with a non-authoritative decimal alongside.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from fractions import Fraction
from typing import Optional

from . import bounds as bd
from . import cliques as cq
from . import search as se
from . import verify as vf
from .graphs import Graph6Error, graph6_decode, max_degree
from .canon import canonical_form

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_BAD_GRAPH6 = 3
EXIT_CAP = 4
EXIT_CHECK_FAILED = 5
EXIT_INTERRUPTED = 130

DEFAULT_CAP = 11  # `cdt search` sizes beyond this ask for --max-n


def _rational(f: Fraction) -> dict:
    return {"exact": f"{f}", "decimal": float(f)}


def _fmt(f: Fraction) -> str:
    return f"{f} (~{float(f):.6g})" if f.denominator != 1 else f"{f}"


def _document(command: str, inputs: dict, outputs: dict, witnesses: list[str],
              provenance: Optional[str], t0: float) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "witnesses": witnesses,
        "provenance": provenance,
        "timing_seconds": round(time.perf_counter() - t0, 6),
    }


# -- bounds -----------------------------------------------------------------

def _cmd_bounds(args) -> int:
    t0 = time.perf_counter()
    (d_lo, d_hi), (w_lo, w_hi) = args.dmax, args.omega
    if (d_lo, w_lo) != (d_hi, w_hi):
        # every row is built before any is written: a bad cell exits 2
        # with nothing on stdout
        rows = [["delta", "omega", "lower", "upper", "exact", "provenance"]]
        for dmax in range(d_lo, d_hi + 1):
            for omega in range(w_lo, w_hi + 1):
                rep = bd.bounds_report(args.t, dmax, omega)
                rows.append([
                    dmax, omega, rep.lower, rep.upper,
                    rep.exact if rep.exact is not None else "",
                    rep.provenance,
                ])
        csv.writer(sys.stdout).writerows(rows)
        return EXIT_OK
    rep = bd.bounds_report(args.t, d_lo, w_lo)
    if args.json:
        outputs = {
            "lower": _rational(rep.lower),
            "upper": _rational(rep.upper),
            "exact": _rational(rep.exact) if rep.exact is not None else None,
            "omega_effective": rep.omega_effective,
            "clamped": rep.clamped,
            "conjecture": _rational(rep.conjecture) if rep.conjecture is not None else None,
        }
        doc = _document(
            "bounds",
            {"t": rep.t, "dmax": rep.dmax, "omega": rep.omega},
            outputs,
            [canonical_form(rep.witness)] if rep.witness is not None else [],
            rep.provenance,
            t0,
        )
        print(json.dumps(doc, indent=2))
        return EXIT_OK
    print(f"t={rep.t} max-degree={rep.dmax} clique-bound={rep.omega}"
          + (f" (clique bound clamped to {rep.omega_effective})" if rep.clamped else ""))
    print(f"  lower bound  {_fmt(rep.lower)}")
    print(f"  upper bound  {_fmt(rep.upper)}")
    if rep.exact is not None:
        print(f"  exact        {_fmt(rep.exact)}  [{rep.provenance}]")
        if rep.witness is not None:
            print(f"  witness      {canonical_form(rep.witness)}")
    else:
        print("  exact        unknown")
    if rep.conjecture is not None:
        print(f"  conjectured  {_fmt(rep.conjecture)}")
    return EXIT_OK


# -- construct ----------------------------------------------------------------

_CONSTRUCTIONS = {  # kind: (builder, number of integer parameters)
    "turan": (bd.turan_graph, 2),
    "lbg": (bd.lower_bound_graph, 2),
    "bt": (bd.bt_graph, 1),
    "gstar": (bd.g_star, 0),
}


def _cmd_construct(args) -> int:
    build, count = _CONSTRUCTIONS[args.kind]
    if len(args.params) != count:
        raise ValueError(f"construct {args.kind}: expected {count} parameter(s), got {len(args.params)}")
    print(canonical_form(build(*args.params)))
    return EXIT_OK


# -- analyze ------------------------------------------------------------------

def _analyze_one(g, t: int, dmax: Optional[int], omega: Optional[int]) -> dict:
    """One clique walk: k_s = (sum of the vertices' s-weights) / s, and
    the clique number is the largest s with a nonzero weight."""
    weights = cq.per_vertex_clique_counts(g)
    totals = [sum(column) for column in zip(*weights)]  # totals[s] = s * k_s
    clique_number = max((s for s, total in enumerate(totals) if total), default=0)
    kt = totals[t] // t if t < len(totals) else 0
    degree = max_degree(g)
    out = {
        "n": g.n,
        "edges": g.edge_count(),
        "max_degree": degree,
        "clique_number": clique_number,
        "clique_count": kt,
        "density": _rational(Fraction(kt, g.n)) if g.n else None,
        "vertex_weights": [w[t] if t < len(w) else 0 for w in weights],
        "canonical": canonical_form(g),
    }
    if dmax is not None and omega is not None:
        if degree <= dmax and clique_number <= omega:
            out["in_class"] = True
            out["perfect_vertices"] = [
                v for v in range(g.n) if cq._is_perfect(g.adj, v, dmax, omega - 1)
            ]
        else:
            out["in_class"] = False
            out["perfect_vertices"] = None
    return out


def _cmd_analyze(args) -> int:
    t0 = time.perf_counter()
    if args.t < 1:
        raise ValueError("clique size must be at least 1")
    if (args.dmax is None) != (args.omega is None):
        raise ValueError("analyze needs both -d and -w, or neither")
    if args.dmax is not None:
        if args.dmax < 0:
            raise ValueError("degree bound must be non-negative")
        if args.omega < 2:
            raise ValueError("perfect vertices need a clique bound of at least 2")
    reports = []
    for lineno, line in enumerate(sys.stdin, start=1):
        text = line.strip()
        if not text:
            print(f"warning: line {lineno}: empty, skipped", file=sys.stderr)
            continue
        try:
            g = graph6_decode(text)
        except Graph6Error as exc:
            print(f"error: line {lineno}: {exc}", file=sys.stderr)
            return EXIT_BAD_GRAPH6
        reports.append((lineno, text, _analyze_one(g, args.t, args.dmax, args.omega)))
    if args.json:
        doc = _document(
            "analyze",
            {"t": args.t, "dmax": args.dmax, "omega": args.omega},
            {"graphs": [dict(r[2], line=r[0]) for r in reports]},
            [r[2]["canonical"] for r in reports],
            None,
            t0,
        )
        print(json.dumps(doc, indent=2))
        return EXIT_OK
    for lineno, text, rep in reports:
        dens = rep["density"]
        print(f"line {lineno}: {text}")
        print(f"  n={rep['n']} edges={rep['edges']} max_degree={rep['max_degree']}"
              f" clique_number={rep['clique_number']}")
        print(f"  k_{args.t}={rep['clique_count']}"
              f" density={dens['exact'] if dens else '-'}"
              + (f" (~{dens['decimal']:.6g})" if dens else ""))
        print(f"  vertex weights: {rep['vertex_weights']}")
        if "in_class" in rep:
            if rep["in_class"]:
                print(f"  perfect vertices: {rep['perfect_vertices']}")
            else:
                print("  not in the requested class")
    return EXIT_OK


# -- search -------------------------------------------------------------------

def _cmd_search(args) -> int:
    t0 = time.perf_counter()
    n_lo, n_hi = args.n
    if args.max_n < 1:
        raise ValueError(f"the enumeration cap must be at least 1, got {args.max_n}")
    se._check_cap(n_hi, args.max_n)
    if n_lo < 1:
        raise ValueError("need at least one vertex")
    report = se.best_up_to(n_hi, args.dmax, args.omega, args.t, thread_count=args.threads)
    meets_lower = exact = meets_exact = None
    if args.omega >= 2 and args.dmax >= 1:
        # the same registry-or-sandwich value that `cdt bounds` reports
        rep = bd.bounds_report(args.t, args.dmax, args.omega)
        meets_lower = report.best_density == rep.lower
        exact = rep.exact
        if exact is not None:
            meets_exact = report.best_density == exact
    shown = [lv for lv in report.levels if n_lo <= lv.n <= n_hi]
    if args.json:
        outputs = {
            "levels": [
                {
                    "n": lv.n,
                    "graphs_enumerated": lv.graphs_enumerated,
                    "max_clique_count": lv.max_clique_count,
                    "max_density": _rational(lv.max_density),
                    "witnesses": list(lv.witnesses),
                }
                for lv in shown
            ],
            "best_density": _rational(report.best_density),
            "best_n": report.best_n,
            "meets_lower_bound": meets_lower,
            "exact_known": _rational(exact) if exact is not None else None,
            "meets_exact": meets_exact,
            "pruned": report.pruned,
            "wall_time": report.wall_time,
        }
        doc = _document(
            "search",
            {"n": n_lo if n_lo == n_hi else [n_lo, n_hi], "dmax": args.dmax,
             "omega": args.omega, "t": args.t, "threads": args.threads},
            outputs,
            sorted({w for lv in shown for w in lv.witnesses}),
            None,
            t0,
        )
        print(json.dumps(doc, indent=2))
        return EXIT_OK
    print(f"search max-degree<={args.dmax} clique<={args.omega} t={args.t}"
          f" threads={args.threads}")
    for lv in shown:
        wits = " ".join(lv.witnesses[:4]) + (" ..." if len(lv.witnesses) > 4 else "")
        print(f"  n={lv.n}: {lv.graphs_enumerated} graphs,"
              f" max k_{args.t}={lv.max_clique_count},"
              f" max density {_fmt(lv.max_density)}, witnesses: {wits}")
    print(f"best {_fmt(report.best_density)} at n={report.best_n}"
          + (f"; proven optimum {_fmt(exact)}" if exact is not None else ""))
    return EXIT_OK


# -- verify -------------------------------------------------------------------

def _cmd_verify(args) -> int:
    names = list(vf.SUITES) if args.suite == "all" else [args.suite]
    all_ok = True
    for row in vf.suite_rows(names):
        print(f"{'ok  ' if row.ok else 'FAIL'} {row.name} ({row.scope}, {row.covered} graphs)"
              + (f": {' '.join(row.failures[:3])}" if row.failures else ""))
        all_ok = all_ok and row.ok
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


# -- parser ---------------------------------------------------------------------

def _range_pair(text: str) -> tuple[int, int]:
    """`N` as (N, N), `LO:HI` as (LO, HI)."""
    lo, sep, hi = text.partition(":")
    try:
        a, b = int(lo), int(hi if sep else lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or LO:HI, got {text!r}") from None
    if a > b:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return a, b


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdt",
        description="Exact clique-density bounds, constructions, and "
                    "exhaustive searches for graphs with bounded maximum "
                    "degree and bounded clique number.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="lower/upper/exact density bounds")
    p.add_argument("-t", type=int, required=True, help="clique size")
    p.add_argument("-d", "--dmax", type=_range_pair, required=True, help="maximum degree bound, N or LO:HI")
    p.add_argument("-w", "--omega", type=_range_pair, required=True, help="clique number bound, N or LO:HI")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("construct", help="emit a named construction as graph6")
    p.add_argument("kind", choices=list(_CONSTRUCTIONS))
    p.add_argument("params", type=int, nargs="*")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("analyze", help="analyze graph6 lines from stdin")
    p.add_argument("-t", type=int, default=3, help="clique size")
    p.add_argument("-d", "--dmax", type=int, help="class degree bound (for perfect vertices)")
    p.add_argument("-w", "--omega", type=int, help="class clique bound (for perfect vertices)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("search", help="exhaustive per-size maxima over a class")
    p.add_argument("-n", type=_range_pair, required=True, help="vertex count N, or the sizes LO:HI")
    p.add_argument("-d", "--dmax", type=int, required=True)
    p.add_argument("-w", "--omega", type=int, required=True)
    p.add_argument("-t", type=int, required=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.add_argument("--max-n", type=int, default=DEFAULT_CAP,
                   help=f"enumeration cap (default {DEFAULT_CAP}, at most {se.HARD_CAP})")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(vf.SUITES) + ["all"])
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except se.CapExceeded as exc:
        print(f"error: {exc} (raise with --max-n, up to the hard cap {se.HARD_CAP})", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:  # GraphError and Graph6Error included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:  # a failed search worker
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
