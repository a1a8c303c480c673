"""Every public top-level function and class of the package is referenced
by other package code; what only the tests, the demos or the benchmark
reach belongs in `tests/`, not `src/`.

A definition counts as referenced when a `Name` or `Attribute` node with
its name appears somewhere in the package outside the definition itself,
so recursion does not count.  The exceptions are one list."""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "coarsegeo"

UNREACHED = {
    # the paper's lemma audits, which only tests run until one table of
    # audits reaches them
    "lemma_g_excess", "hull_thickness_audit", "near_region_check", "hull_transfer_check",
    "tuple_center", "far_projection_check", "realization_defects", "product_factor_sum",
    "sum_distance_audit", "subsegment_efficiency_closure",
    # cache hooks for the benchmark and the tests
    "clear_caches", "reset_cache",
}


def _names(node: ast.AST) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def unreferenced(sources: dict[str, str]) -> list[str]:
    """`module.name` of each public top-level function or class in
    `sources` (module name -> source text) that nothing else in them
    refers to."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    refs = sum((_names(tree) for tree in trees.values()), Counter())
    return [f"{mod}.{node.name}" for mod, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and refs[node.name] == _names(node)[node.name]]


def test_every_public_definition_is_reached_by_package_code():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    found = {q.split(".")[1] for q in unreferenced(sources)}
    assert not found - UNREACHED, f"only tests, demos or the benchmark reach: {found - UNREACHED}"
    assert not UNREACHED - found, f"exceptions package code now reaches: {UNREACHED - found}"


def test_the_guard_finds_an_unreferenced_function():
    source = ("def used():\n    return 1\n\n"
              "def unused():\n    return used()\n\n"
              "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
              "def _private():\n    pass\n\n"
              "class Kept:\n    pass\n\n"
              "KEPT = Kept\n")
    assert unreferenced({"m": source}) == ["m.unused", "m.recursive"]
