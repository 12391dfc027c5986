"""Which library modules may import which names from one another.

Every module of ``src/linklab`` is parsed, not imported, so a cycle or a
private import shows here before it shows at run time.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "linklab"


TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def _imports() -> list[tuple[str, str, str]]:
    """Every ``(importer, imported module, name)`` of a relative import in the library."""
    found = []
    for stem, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    module = node.module or alias.name
                    found.append((stem, module, alias.name))
    return found


IMPORTS = _imports()


def test_the_library_is_parsed():
    importers = {importer for importer, _, _ in IMPORTS}
    assert {"budget", "feasibility", "certificates", "connectivity", "cli"} <= importers


def test_the_budget_module_depends_only_on_errors():
    assert {module for importer, module, _ in IMPORTS if importer == "budget"} == {"errors"}


@pytest.mark.parametrize("importer", ["connectivity", "graphs"])
def test_feasibility_is_not_imported_below_it(importer):
    assert "feasibility" not in {module for who, module, _ in IMPORTS if who == importer}


def test_private_names_cross_modules_only_where_listed():
    private = {(importer, module, name) for importer, module, name in IMPORTS if name.startswith("_")}
    assert private == {("harness", "feasibility", "_search_linkage")}


def test_every_public_search_takes_a_budget_or_a_running_clock():
    # A public function with a budget accepts a clock running since an earlier call.
    budgets = {
        f"{stem}.{node.name}": ast.unparse(arg.annotation)
        for stem, tree in TREES.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        for arg in node.args.args + node.args.kwonlyargs
        if arg.arg == "budget"
    }
    assert len(budgets) >= 8
    assert {name: note for name, note in budgets.items() if note != "SearchBudget | BudgetClock"} == {}


def test_every_clock_parameter_is_a_required_budget_clock():
    # A clock is never optional: every search it reaches charges it.
    clocks = {}
    for stem, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                positional = a.posonlyargs + a.args
                defaults = [None] * (len(positional) - len(a.defaults)) + a.defaults
                for arg, default in zip(positional + a.kwonlyargs, defaults + a.kw_defaults):
                    if arg.arg == "clock":
                        note = ast.unparse(arg.annotation) if arg.annotation else None
                        clocks[f"{stem}.{node.name}"] = (note, default is not None)
    assert len(clocks) >= 6
    assert {name: c for name, c in clocks.items() if c != ("BudgetClock", False)} == {}


def _names_networkx(node: ast.AST) -> bool:
    """An import of networkx, or a string naming it (``find_spec("networkx")`` reaches it so)."""
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "networkx" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return not node.level and (node.module or "").split(".")[0] == "networkx"
    return isinstance(node, ast.Constant) and isinstance(node.value, str) and "networkx" in node.value


def _outside_functions(node: ast.AST):
    """The nodes below ``node`` that run when it runs: function bodies are skipped."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
            yield from _outside_functions(child)


def test_only_planarity_names_networkx():
    naming = {stem for stem, tree in TREES.items() for node in ast.walk(tree) if _names_networkx(node)}
    assert naming == {"planarity"}


def test_planarity_imports_networkx_only_inside_a_function():
    def imports(nodes):
        return [n for n in nodes if isinstance(n, (ast.Import, ast.ImportFrom)) and _names_networkx(n)]

    tree = TREES["planarity"]
    assert imports(ast.walk(tree))
    assert imports(_outside_functions(tree)) == []
