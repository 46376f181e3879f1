import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spectrumlab"


def test_src_imports_only_what_it_uses():
    # __init__.py is left out: a package may import names to re-export them
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        unused += ["%s: %s" % (path.name, name)
                   for name in sorted(imported - read)]
    assert not unused


def _names_read(node):
    """How often node reads each name, bare or as an attribute, or imports
    it."""
    return Counter(
        n.name if isinstance(n, ast.alias) else
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.alias) or isinstance(n, (ast.Name, ast.Attribute))
        and isinstance(n.ctx, ast.Load))


def test_src_defines_no_uncalled_function():
    # a module-level function named nowhere in src/ outside its own body is
    # dead code there: a replaced algorithm belongs in tests/ as an oracle
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    named = sum(map(_names_read, trees.values()), Counter())
    uncalled = ["%s: %s" % (name, node.name)
                for name, tree in trees.items() for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and named[node.name] == _names_read(node)[node.name]]
    assert not uncalled
