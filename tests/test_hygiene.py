import ast
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
