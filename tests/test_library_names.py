"""Every name the library defines has a job in the library.

A function, class, method or module constant that only tests call is code
the program carries for nothing: the helpers the tests need live in
tests/ringref.py. Each name defined in src/czorbits/*.py must be read,
called or imported somewhere in those files outside its own definition,
f-strings included, unless ALLOWED says why not. A method counts as used
only through attribute access, so a local variable of the same name does
not hide a method that only tests call.
"""

import ast
from pathlib import Path

import czorbits

SRC = Path(__file__).resolve().parent.parent / "src" / "czorbits"

# names no library code uses, each with its reason
ALLOWED = {
    **{name: "public API, in czorbits.__all__" for name in czorbits.__all__},
    "Synthesizer.synthesize": "perfbench/spans.py wraps it by name",
    "format_matrix": "perfbench/spans.py wraps it by name",
}


def _definitions(tree: ast.Module):
    """(qualified name, name, first line, last line, whether a method) of
    every non-dunder function, class and method, and of every module-level
    assignment."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qual = prefix + child.name
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    yield (qual, child.name, child.lineno, child.end_lineno,
                           isinstance(node, ast.ClassDef))
                yield from walk(child, qual + ".")
    yield from walk(tree, "")
    for stmt in tree.body:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [
            stmt.target] if isinstance(stmt, ast.AnnAssign) else []
        for target in targets:
            if isinstance(target, ast.Name) and not target.id.startswith("__"):
                yield target.id, target.id, stmt.lineno, stmt.end_lineno, False


def _used_name(node: ast.AST):
    """The name a node uses and whether it uses it through attribute access,
    or None."""
    if isinstance(node, ast.Name):
        return node.id, False
    if isinstance(node, ast.Attribute):
        return node.attr, True
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2], False
    return None


def _unused() -> set[str]:
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    # where each name is used: (file, line, through attribute access)
    uses: dict[str, list[tuple[Path, int, bool]]] = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            used = _used_name(node)
            if used is not None:
                uses.setdefault(used[0], []).append((path, node.lineno, used[1]))
    unused = set()
    for path, tree in trees.items():
        for qual, name, first, last, method in _definitions(tree):
            if not any((attr or not method) and (p != path or not first <= line <= last)
                       for p, line, attr in uses.get(name, [])):
                unused.add(qual)
    return unused


def test_every_library_name_is_used_by_the_library():
    unused = _unused()
    assert sorted(unused - set(ALLOWED)) == []
    # an allowance outside __all__ names a definition that is still unused
    assert sorted(set(ALLOWED) - set(czorbits.__all__) - unused) == []
