"""The public surface of the package."""

import argparse
import ast
import re
from pathlib import Path

import cdt
from cdt.cli import build_parser

# A public name is added or removed only with a reason recorded in
# CHANGES.md; update this snapshot in the same change.
PUBLIC_NAMES = {
    "BeatResult", "BorderProfile", "BoundReport", "CapExceeded", "ConfigurationFinding",
    "ExactValue", "Graph", "Graph6Error", "GraphError", "LevelResult", "SearchReport",
    "asymptotic_leading", "automorphism_generators", "automorphism_orbits",
    "averaging_bound", "beat", "best_up_to", "border_profile", "bounds_report", "bt_density",
    "bt_graph", "build_graph", "canonical_form", "canonical_graph", "capped_weight_bound",
    "clique_count", "clique_number", "clique_size_counts", "complement", "complete_graph",
    "conjectured_value", "cycle_graph", "density", "detach_sufficient",
    "edge_weight", "empty_graph", "enumerate_all_up_to", "exact_value",
    "find_configurations", "g_star", "graph6_decode", "graph6_encode", "in_class", "induced",
    "is_detachable", "is_isomorphic", "is_perfect_vertex", "join", "lower_bound",
    "lower_bound_graph", "max_degree", "neighborhood", "path_graph", "per_vertex_clique_counts",
    "probe_configuration_average", "relabel", "rho_monotone_check",
    "turan_clique_count", "turan_density", "turan_graph", "union", "upper_bound",
    "verify_neighborhood_lemmas", "vertex_cover_count", "vertex_weight",
}


def test_public_names_match_snapshot():
    assert sorted(cdt.__all__) == sorted(PUBLIC_NAMES)


ROOT = Path(__file__).resolve().parent.parent

# Each subcommand's option strings (a positional by its name).  A flag is
# added or removed only with a reason recorded in CHANGES.md; update this
# snapshot in the same change.  Every value reaches `cdt` through one of
# these flags, never through an environment variable.
CLI_OPTIONS = {
    "bounds": {"-t", "-d", "--dmax", "-w", "--omega", "--json"},
    "construct": {"kind", "params"},
    "analyze": {"-t", "-d", "--dmax", "-w", "--omega", "--json"},
    "search": {"-n", "-d", "--dmax", "-w", "--omega", "-t", "--threads", "--json", "--max-n"},
    "verify": {"suite"},
}


def test_cli_options_match_snapshot():
    [commands] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: {s for a in sub._actions for s in a.option_strings or [a.dest]} - {"-h", "--help"}
        for name, sub in commands.choices.items()
    }
    assert options == CLI_OPTIONS
    tree = ast.parse((ROOT / "src" / "cdt" / "cli.py").read_text())
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
    assert not names & {"environ", "environb", "getenv", "getenvb"}


def _module_level_definitions(tree: ast.Module):
    """(name, node) for each function, class and constant a module
    defines; dunders such as ``__version__`` are read by tools, not code."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (
                (t.id, node) for t in targets if isinstance(t, ast.Name) and not t.id.startswith("__")
            )


def test_every_module_level_definition_is_referenced():
    sources = {
        path: path.read_text()
        for folder in ("src", "tests", "demos", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    }
    unreferenced = []
    for path in sorted((ROOT / "src" / "cdt").glob("*.py")):
        lines = sources[path].splitlines()
        for name, node in _module_level_definitions(ast.parse(sources[path])):
            word = re.compile(rf"\b{re.escape(name)}\b")
            # the definition's own lines are not a reference
            rest = "\n".join(lines[: node.lineno - 1] + lines[node.end_lineno :])
            texts = [rest] + [text for other, text in sources.items() if other != path]
            if not any(word.search(text) for text in texts):
                unreferenced.append(f"{path.name}:{name}")
    assert unreferenced == []


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    paths = sorted(p for folder in ("src/cdt", "tests", "demos") for p in (ROOT / folder).glob("*.py"))
    for path in paths:
        if path.name == "__init__.py":
            continue  # it imports to re-export
        tree = ast.parse(path.read_text())
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [alias.asname or alias.name for alias in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.parent.name}/{path.name}:{name}" for name in imported if name not in used]
    assert unused == []


def _package_imports(module: str) -> set[str]:
    """The dotted names ``cdt.<module>`` imports from the package:
    ``from .x import y`` gives ``cdt.x.y``, ``from . import x`` ``cdt.x``."""
    tree = ast.parse((ROOT / "src" / "cdt" / f"{module}.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["cdt" if node.level else None, node.module]))
            names |= {f"{base}.{a.name}" for a in node.names}
        elif isinstance(node, ast.Import):
            names |= {a.name for a in node.names}
    return {name for name in names if name.split(".")[0] == "cdt"}


def test_bounds_imports_only_the_graph_kernel():
    # the closed forms need neither canonical labelling nor clique search
    assert {name.split(".")[1] for name in _package_imports("bounds")} == {"graphs"}


def test_search_takes_only_the_prune_ceiling_from_bounds():
    # comparing a search with the bound registry is the caller's business
    from_bounds = {name for name in _package_imports("search") if name.split(".")[1] == "bounds"}
    assert from_bounds == {"cdt.bounds.turan_clique_count"}


def test_cli_takes_only_the_report_and_the_constructions_from_bounds():
    # `cdt search` and `cdt bounds` read the exact value by one rule, the
    # registry row or the sandwich of `bounds_report`, never `exact_value`
    # or `lower_bound` on their own
    assert {name for name in _package_imports("cli") if name.split(".")[1] == "bounds"} == {"cdt.bounds"}
    tree = ast.parse((ROOT / "src" / "cdt" / "cli.py").read_text())
    used = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "bd"}
    assert used == {"bounds_report", "turan_graph", "lower_bound_graph", "bt_graph", "g_star"}
