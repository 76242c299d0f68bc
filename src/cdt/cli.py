"""Command-line surface: bounds tables, constructions, analysis of
piped graphs, exhaustive search, and verification suites.

Exit codes: 0 success, 1 a search worker failed, 2 invalid
flags/parameters, 3 malformed graph6 input, 4 enumeration cap exceeded
(raise it with --max-n or CDT_MAX_N, up to the hard cap), 5 failed
verification check, 130 interrupted.  No exit shows a traceback.

Every --json document carries schema_version and renders rationals as
exact "p/q" strings with a non-authoritative decimal alongside.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import time
from fractions import Fraction
from typing import Optional

from . import bounds as bd
from . import cliques as cq
from . import search as se
from .graphs import Graph6Error, graph6_decode, max_degree
from .canon import canonical_form
from .verify import Sweep, verify_neighborhood_lemmas

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_BAD_GRAPH6 = 3
EXIT_CAP = 4
EXIT_CHECK_FAILED = 5
EXIT_INTERRUPTED = 130


def _rational(f: Fraction) -> dict:
    return {"exact": f"{f}", "decimal": float(f)}


def _fmt(f: Optional[Fraction]) -> str:
    if f is None:
        return "-"
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


def _resolve_cap(args) -> Optional[int]:
    cap = args.max_n
    env = os.environ.get("CDT_MAX_N")
    if cap is None and env is not None:
        try:
            cap = int(env)
        except ValueError:
            raise ValueError(f"CDT_MAX_N={env!r} is not an integer") from None
    if cap is not None and cap < 1:
        raise ValueError(f"the enumeration cap must be at least 1, got {cap}")
    return cap


# -- bounds -----------------------------------------------------------------

def _cmd_bounds(args) -> int:
    t0 = time.perf_counter()
    if args.table:
        d_lo, d_hi = args.delta_range
        w_lo, w_hi = args.omega_range
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
    rep = bd.bounds_report(args.t, args.dmax, args.omega)
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
            [rep.witness] if rep.witness else [],
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
        print(f"  witness      {rep.witness}")
    else:
        print("  exact        unknown")
    if rep.conjecture is not None:
        print(f"  conjectured  {_fmt(rep.conjecture)}")
    return EXIT_OK


# -- construct ----------------------------------------------------------------

def _cmd_construct(args) -> int:
    try:
        if args.kind == "turan":
            g = bd.turan_graph(args.params[0], args.params[1])
        elif args.kind == "lbg":
            g = bd.lower_bound_graph(args.params[0], args.params[1])
        elif args.kind == "bt":
            g = bd.bt_graph(args.params[0])
        else:  # gstar
            g = bd.g_star()
    except IndexError:
        print(f"error: construct {args.kind} needs more parameters", file=sys.stderr)
        return EXIT_USAGE
    print(canonical_form(g))
    return EXIT_OK


# -- analyze ------------------------------------------------------------------

def _analyze_one(g, t: int, dmax: Optional[int], omega: Optional[int]) -> dict:
    weights = cq.per_vertex_clique_counts(g)
    out = {
        "n": g.n,
        "edges": g.edge_count(),
        "max_degree": max_degree(g),
        "clique_number": cq.clique_number(g),
        "clique_count": cq.clique_count(g, t),
        "density": _rational(cq.density(g, t)) if g.n else None,
        "vertex_weights": [w[t] if t < len(w) else 0 for w in weights],
        "canonical": canonical_form(g),
    }
    if dmax is not None and omega is not None:
        if cq.in_class(g, dmax, omega):
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
    if args.n is not None:
        n_lo = n_hi = args.n
    else:
        n_lo, n_hi = args.n_range
    report = se.best_up_to(
        n_hi, args.dmax, args.omega, args.t,
        thread_count=args.threads, cap=_resolve_cap(args),
    )
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
            "meets_lower_bound": report.meets_lower_bound,
            "exact_known": _rational(report.exact_known) if report.exact_known is not None else None,
            "meets_exact": report.meets_exact,
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
          + (f"; proven optimum {_fmt(report.exact_known)}" if report.exact_known is not None else ""))
    return EXIT_OK


# -- verify -------------------------------------------------------------------

def _check(name: str, ok: bool, detail: str = "") -> bool:
    print(f"{'ok  ' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
    return ok


def _verify_formulas() -> bool:
    ok = True
    for n in range(1, 10):
        for r in range(1, n + 1):
            g = bd.turan_graph(n, r)
            counts = cq.clique_size_counts(g)
            for t in range(0, n + 1):
                if bd.turan_clique_count(n, r, t) != counts[t]:
                    ok = _check(f"turan count ({n},{r},{t})", False,
                                canonical_form(g)) and ok
    return _check("turan closed form vs direct count (n <= 9)", ok) and ok


@functools.lru_cache(maxsize=1)
def _sweep() -> Sweep:
    """The lemma sweep shared by the suites of one `cdt verify` run."""
    return Sweep(7).run()


def _verify_sweep(*keys: str) -> bool:
    sweep = _sweep()
    checks = sweep.checks()
    ok = True
    for key in keys:
        c = checks[key]
        ok = _check(f"{c.name} (n <= {sweep.n_max}, {c.covered} graphs)", c.ok,
                    " ".join(c.failures[:3])) and ok
    return ok


def _verify_monotone() -> bool:
    ok = True
    for omega in range(1, 9):
        for t in range(2, omega + 1):
            if not bd.rho_monotone_check(omega, t, 120):
                ok = _check(f"turan density monotone (omega={omega}, t={t})", False) and ok
    return _check("turan density monotone in n (n <= 120, omega <= 8)", ok) and ok


def _verify_neighborhoods() -> bool:
    report = verify_neighborhood_lemmas([3, 4, 5, 6])
    ok = True
    for c in report.checks:
        if not c.ok:
            ok = _check(f"{c.name} (r={c.r})", False,
                        f"found {c.found} expected {c.expected}") and ok
    return _check(f"neighborhood classifications (r = 3..6, {report.graphs_seen} graphs)", ok) and ok


_SUITES = {
    "formulas": _verify_formulas,
    "lemmas": functools.partial(_verify_sweep, "handshake", "ceiling", "equality",
                                "heavy-neighbour", "configurations", "detachability"),
    "zykov": functools.partial(_verify_sweep, "zykov"),
    "monotone": _verify_monotone,
    "superadd": functools.partial(_verify_sweep, "superadd"),
    "neighborhoods": _verify_neighborhoods,
}


def _cmd_verify(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    _sweep.cache_clear()  # a fresh sweep per invocation
    all_ok = True
    for name in names:
        all_ok = _SUITES[name]() and all_ok
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


# -- parser ---------------------------------------------------------------------

def _range_pair(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    a, b = int(lo), int(hi if hi else lo)
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
    p.add_argument("-d", "--dmax", type=int, help="maximum degree bound")
    p.add_argument("-w", "--omega", type=int, help="clique number bound")
    p.add_argument("--json", action="store_true")
    p.add_argument("--table", action="store_true", help="CSV sweep over ranges")
    p.add_argument("--delta-range", type=_range_pair, default=(3, 10))
    p.add_argument("--omega-range", type=_range_pair, default=(3, 10))
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("construct", help="emit a named construction as graph6")
    p.add_argument("kind", choices=["turan", "lbg", "bt", "gstar"])
    p.add_argument("params", type=int, nargs="*")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("analyze", help="analyze graph6 lines from stdin")
    p.add_argument("-t", type=int, default=3, help="clique size")
    p.add_argument("-d", "--dmax", type=int, help="class degree bound (for perfect vertices)")
    p.add_argument("-w", "--omega", type=int, help="class clique bound (for perfect vertices)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("search", help="exhaustive per-size maxima over a class")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("-n", type=int)
    group.add_argument("--n-range", type=_range_pair)
    p.add_argument("-d", "--dmax", type=int, required=True)
    p.add_argument("-w", "--omega", type=int, required=True)
    p.add_argument("-t", type=int, required=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.add_argument("--max-n", type=int,
                   help=f"enumeration cap (beats CDT_MAX_N; default {se.DEFAULT_CAP},"
                        f" at most {se.HARD_CAP})")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(_SUITES) + ["all"])
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "bounds" and not args.table:
        if args.dmax is None or args.omega is None:
            parser.error("bounds needs -d and -w (or --table)")
    try:
        return args.func(args)
    except se.CapExceeded as exc:
        print(f"error: {exc} (raise with --max-n or CDT_MAX_N, up to the hard cap"
              f" {se.HARD_CAP})", file=sys.stderr)
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
