"""The package's imports: an acyclic graph, all at module level, and a
root that exports what the README documents.

The graph is read from each ``src/rootbounds/*.py`` by ``ast``, without
importing it.  An import inside a function body hides a dependency from the
module header and is how a cycle gets papered over, so both are refused.
The root's ``__all__`` is the import list of the README's Library snippet,
which runs with the values its comments state.
"""

import ast
import re
import types
from pathlib import Path

import rootbounds

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rootbounds"
README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _targets(node: ast.AST) -> list[str]:
    """The package modules an import statement reads, by stem; a name
    imported from the package itself that is no module reads __init__."""
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names if a.name.startswith("rootbounds.")]
    if not isinstance(node, ast.ImportFrom):
        return []
    if node.level == 0:
        if node.module is None or not node.module.startswith("rootbounds"):
            return []
        module = node.module.partition(".")[2]
    elif node.level == 1:
        module = node.module or ""
    else:
        return []
    if module:
        return [module.split(".")[0]]
    return [a.name if a.name in MODULES else "__init__" for a in node.names]


def _function_imports(tree: ast.Module) -> list[tuple[str, int, list[str]]]:
    """(function name, line, targets) of every package import inside a
    function or method body."""
    out = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                targets = _targets(node)
                if targets:
                    out.append((fn.name, node.lineno, targets))
    return out


def _graph() -> dict[str, set[str]]:
    return {
        stem: {t for node in ast.walk(tree) for t in _targets(node)}
        for stem, tree in MODULES.items()
    }


def _cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle of the graph as a closed path, or None."""
    state: dict[str, int] = {}  # 1 on the current path, 2 done
    path: list[str] = []

    def visit(u: str) -> list[str] | None:
        state[u] = 1
        path.append(u)
        for v in sorted(graph.get(u, ())):
            if state.get(v) == 1:
                return path[path.index(v):] + [v]
            if v not in state:
                found = visit(v)
                if found:
                    return found
        path.pop()
        state[u] = 2
        return None

    for u in sorted(graph):
        if u not in state:
            found = visit(u)
            if found:
                return found
    return None


def test_the_parser_sees_every_module_and_its_imports():
    # a parser that found no import would pass the checks below vacuously
    graph = _graph()
    assert {"__init__", "arith", "cli", "newton", "oracle", "polyhedra"} <= set(graph)
    assert {"arith", "linalg", "polyhedra"} <= graph["newton"]
    assert "newton" in graph["bounds"] and "arith" in graph["cli"]


def test_package_import_graph_is_acyclic():
    assert _cycle(_graph()) is None
    # the check finds a cycle where there is one
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"a"}}) == ["a", "b", "c", "a"]


def test_no_function_body_imports_from_the_package():
    found = {
        f"{stem}.{name}:{line} imports {', '.join(targets)}"
        for stem, tree in MODULES.items()
        for name, line, targets in _function_imports(tree)
    }
    assert found == set()
    # the check sees an import inside a method
    probe = ast.parse("class A:\n    def f(self):\n        from .bounds import x\n")
    assert _function_imports(probe) == [("f", 3, ["bounds"])]


def _library_snippet() -> str:
    """The one python block of the README's Library section."""
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    [block] = re.findall(r"```python\n(.*?)```", section, re.S)
    return block


def test_the_root_exports_the_readme_names_and_nothing_else():
    [names] = [[a.name for a in node.names] for node in ast.parse(_library_snippet()).body
               if isinstance(node, ast.ImportFrom) and node.module == "rootbounds"]
    assert len(names) == 9 and rootbounds.__all__ == names
    public = {k: v for k, v in vars(rootbounds).items() if not k.startswith("_")}
    others = {k for k in public.keys() - set(names)
              if not (isinstance(public[k], types.ModuleType) and public[k].__name__ == f"rootbounds.{k}")}
    assert others == set()


def test_the_readme_library_snippet_runs_with_the_values_it_states():
    """Each statement runs in turn; a trailing comment on an expression is its
    value, and on any other statement an expression that must hold."""
    block = _library_snippet()
    lines, namespace, checked = block.splitlines(), {}, []
    for stmt in ast.parse(block).body:
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert value == ast.literal_eval(comment), (ast.unparse(stmt), value)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            if comment:
                assert eval(comment, namespace), comment
        if comment:
            checked.append(comment)
    assert checked == ["16", "[(0,), (1,)]", "2", "[((0,), 8), ((1,), 2)]", "6",
                       "normal == (0, 1)", "(2, 1)"]
