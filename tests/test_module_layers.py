"""The package's modules import each other only down one table of layers.

Every import of a package module, relative (`from . import x`,
`from .x import y`) or absolute (`coarsegeo.x`), must sit at module
level, where a reader of the module's head sees it, and must name a
module that the importing module's row of `MAY_IMPORT` allows.  An
import inside a function hides a dependency from that head, so it fails
whatever it names.  `harness` drives every layer and `__init__`
re-exports them, so both may import any module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "coarsegeo"
ANY = None
MAY_IMPORT = {
    "surfmodel": set(),
    "constants": set(),
    "hypgraph": {"surfmodel"},
    "effdiff": {"hypgraph", "constants"},
    "consreal": {"surfmodel"},
    "bbf": {"surfmodel", "hypgraph"},
    "pathsflats": {"surfmodel", "consreal", "effdiff", "hypgraph", "constants"},
    "harness": ANY,
    "__init__": ANY,
}


def _package_modules(node: ast.AST) -> list[str]:
    """The package modules an import statement names, [] for any other
    node or import."""
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names if a.name.startswith("coarsegeo.")]
    if not isinstance(node, ast.ImportFrom):
        return []
    if node.level:
        path = node.module.split(".") if node.module else []
    elif node.module == "coarsegeo" or (node.module or "").startswith("coarsegeo."):
        path = node.module.split(".")[1:]
    else:
        return []
    return path[:1] or [a.name for a in node.names]


def layer_violations(sources: dict[str, str]) -> list[str]:
    """`module -> imported (line n): why` for each package import in
    `sources` (module name -> source text) below module level or outside
    the module's row of `MAY_IMPORT`."""
    found = []
    for mod, text in sources.items():
        tree = ast.parse(text)
        top = set(map(id, tree.body))
        allowed = MAY_IMPORT[mod]
        for node in ast.walk(tree):
            for target in _package_modules(node):
                where = f"{mod} -> {target} (line {node.lineno})"
                if id(node) not in top:
                    found.append(f"{where}: not at module level")
                elif allowed is not ANY and target not in allowed:
                    found.append(f"{where}: not in the table")
    return found


def _sources() -> dict[str, str]:
    return {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}


def test_every_module_has_a_row():
    assert set(_sources()) == set(MAY_IMPORT)


@pytest.mark.parametrize("mod", sorted(MAY_IMPORT))
def test_imports_follow_the_layers(mod):
    assert layer_violations({mod: _sources()[mod]}) == []


def test_the_scan_finds_upward_and_hidden_imports():
    sources = {
        "surfmodel": "import math\nfrom . import hypgraph\n",
        "bbf": ("from . import surfmodel\nfrom .hypgraph import MetricHandle\n"
                "def handle():\n    from .hypgraph import MetricHandle\n"),
        "pathsflats": ("from . import bbf, effdiff\nfrom .consreal import realize\n"
                       "import coarsegeo.harness\nfrom coarsegeo import surfmodel\n"
                       "from coarsegeo.bbf import working_window\n"),
        "harness": "from . import bbf\ndef run():\n    from . import pathsflats\n",
    }
    assert layer_violations(sources) == [
        "surfmodel -> hypgraph (line 2): not in the table",
        "bbf -> hypgraph (line 4): not at module level",
        "pathsflats -> bbf (line 1): not in the table",
        "pathsflats -> harness (line 3): not in the table",
        "pathsflats -> bbf (line 5): not in the table",
        "harness -> pathsflats (line 3): not at module level",
    ]
