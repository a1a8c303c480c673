"""Only the `Flavor` table tells the flavors apart.

A comparison in the package whose operand is a flavor name ("pants",
"marking", "augmented"), a tuple or set holding one, or a name or
attribute called `flavor` decides by the flavor's name what the flavor
can do.  Such comparisons are allowed only inside the `Flavor` class,
which holds the table and its `FLAVORS` lookup; everywhere else the
caller asks the surface's `Flavor` (`surface.fl.annuli`,
`surface.fl.heights`, ...).  Before the table there were 43."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "coarsegeo"
FLAVOR_NAMES = {"pants", "marking", "augmented"}


def _names_a_flavor(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return node.value in FLAVOR_NAMES
    if isinstance(node, (ast.Tuple, ast.Set, ast.List)):
        return any(_names_a_flavor(e) for e in node.elts)
    if isinstance(node, ast.Name):
        return node.id == "flavor"
    if isinstance(node, ast.Attribute):
        return node.attr == "flavor"
    return False


def flavor_comparisons(source: str) -> list[str]:
    """`line: code` of each comparison outside the `Flavor` class with an
    operand that names a flavor."""
    found = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef) and child.name == "Flavor":
                continue
            if isinstance(child, ast.Compare) and any(
                    _names_a_flavor(op) for op in (child.left, *child.comparators)):
                found.append(f"{child.lineno}: {ast.unparse(child)}")
            visit(child)

    visit(ast.parse(source))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_flavor_name_is_compared_outside_the_table(path):
    assert flavor_comparisons(path.read_text()) == []


def test_the_scan_finds_name_comparisons():
    source = '\n'.join([
        'if surface.flavor == "pants": pass',
        'if (kind, fl) in (("ray", "marking"),): pass',
        'ok = flavor != other',
        'aug = "augmented" == name',
        'if w.kind == "annulus" and surface.fl.heights: pass',
        'class Flavor:',
        '    def named(flavor):',
        '        if flavor not in FLAVORS: raise ValueError(flavor)',
    ])
    assert flavor_comparisons(source) == [
        "1: surface.flavor == 'pants'",
        "2: (kind, fl) in (('ray', 'marking'),)",
        "3: flavor != other",
        "4: 'augmented' == name",
    ]
