import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "spectrumlab"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


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


def _trees(paths):
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(paths)}


def _uncalled(trees, named, defs):
    """Per module, the defs(tree) that named reads nowhere but in their own
    body."""
    return ["%s: %s" % (name, node.name) for name, tree in trees.items()
            for node in defs(tree)
            if isinstance(node, FUNCTIONS)
            and named[node.name] == _names_read(node)[node.name]]


def test_src_defines_no_uncalled_function():
    # a module-level function named nowhere in src/ outside its own body is
    # dead code there: a replaced algorithm belongs in tests/ as an oracle
    trees = _trees(SRC.glob("*.py"))
    named = sum(map(_names_read, trees.values()), Counter())
    assert not _uncalled(trees, named, lambda tree: tree.body)


def _methods(tree):
    """The methods of the module's classes, dunders left out."""
    return [node for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, FUNCTIONS)
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def test_src_classes_define_no_uncalled_method():
    # the same for a class's methods but dunders; the benchmark harness in
    # perfbench/ counts as a caller, since its runs and tests read the API
    trees = _trees(SRC.glob("*.py"))
    named = sum(map(_names_read, trees.values()), Counter()) + sum(
        (_names_read(ast.parse(path.read_text(), str(path)))
         for path in (ROOT / "perfbench").rglob("*.py")), Counter())
    assert not _uncalled(trees, named, _methods)
