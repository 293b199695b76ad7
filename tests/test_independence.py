"""The verifiers share no search code with the solvers and draw no sample.
`verify.py` imports nothing from the package but `graphs`, and neither it
nor `absorption.py`, which reads its absorber tilings off the structure,
names the exact factor search.  The document codec `serialize` is the
CLI's: no other module imports it when it loads.  The searches of `factor`
and `embed`, and the template builder, import nothing from `rng`, so their
order and shape depend on no random draw.  No search recurses deeper than
a clique or pattern size, and no module raises the recursion limit, so
every search runs at any n.  Modules are read as syntax trees, not
imported."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tilinglab"


def syntax_tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / module).read_text(), filename=module)


def package_imports(tree: ast.Module) -> set[str]:
    """The package modules a module imports, relatively or by full name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {a.name.split(".")[1] for a in node.names if a.name.startswith("tilinglab.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.startswith("tilinglab."):
                out.add(module.split(".")[1])
            elif node.level and module:
                out.add(module.split(".")[0])
            elif node.level or module == "tilinglab":  # from . import factor
                out |= {a.name for a in node.names}
    return out


def load_time_imports(tree: ast.Module) -> set[str]:
    """As `package_imports`, but only the imports at a module's top level,
    which run when it loads; an import inside a function runs at call time."""
    top = [s for s in tree.body if isinstance(s, (ast.Import, ast.ImportFrom))]
    return package_imports(ast.Module(body=top, type_ignores=[]))


def names(tree: ast.Module) -> set[str]:
    """Every name, attribute and imported name a module mentions."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
    return out


def self_calling(tree: ast.AST, prefix: str) -> set[str]:
    """Dotted names of the functions under `prefix` that call themselves by name."""
    out = set()
    for node in ast.iter_child_nodes(tree):
        name = prefix
        if isinstance(node, ast.FunctionDef):
            name = f"{prefix}.{node.name}"
            if any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                   and call.func.id == node.name for call in ast.walk(node)):
                out.add(name)
        out |= self_calling(node, name)
    return out


# depth bounded by the clique number, the clique size or the pattern size
BOUNDED_RECURSION = {"invariants.max_clique.expand", "embed._extend_clique",
                     "embed._extend_embedding", "invariants._iter_families_one_per_min"}


def test_self_calling_finds_nested_functions():
    tree = ast.parse("def f(n):\n    def rec(k):\n        return rec(k - 1)\n    return rec(n)\n"
                     "def g(n):\n    return g(n - 1)\n")
    assert self_calling(tree, "mod") == {"mod.f.rec", "mod.g"}


def test_only_bounded_depth_searches_recurse():
    found = set().union(*(self_calling(syntax_tree(p.name), p.stem)
                          for p in PACKAGE.glob("*.py")))
    assert found <= BOUNDED_RECURSION, sorted(found - BOUNDED_RECURSION)


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_keeps_the_recursion_limit(module):
    assert "setrecursionlimit" not in names(syntax_tree(module))


def test_package_imports_reads_every_form():
    tree = ast.parse("import tilinglab.embed\nfrom tilinglab.factor import Tiling\n"
                     "from . import matching\nfrom .graphs import Graph\n"
                     "from tilinglab import sweep\nimport json\n")
    assert package_imports(tree) == {"embed", "factor", "matching", "graphs", "sweep"}


def test_verify_imports_only_graphs():
    assert package_imports(syntax_tree("verify.py")) <= {"graphs"}


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                           if p.name != "cli.py"))
def test_only_cli_imports_serialize_when_it_loads(module):
    assert "serialize" not in load_time_imports(syntax_tree(module))


@pytest.mark.parametrize("module", ["factor.py", "embed.py", "templates.py"])
def test_search_imports_nothing_from_rng(module):
    assert "rng" not in package_imports(syntax_tree(module))


@pytest.mark.parametrize("module", ["verify.py", "absorption.py"])
def test_module_names_no_exact_factor_search(module):
    assert "find_factor_exact" not in names(syntax_tree(module))
