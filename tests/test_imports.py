import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# __init__.py imports only to re-export
MODULES = sorted(p for p in (ROOT / "src" / "ambigil").glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "tests").glob("*.py"))


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports():
    assert MODULES
    assert [u for p in MODULES for u in _unused_imports(p)] == []


def _defined_and_read(tree: ast.Module):
    """Per module-level statement, the names it defines (functions, classes,
    assigned names) and the names it reads (a loaded name or an attribute)."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined = {stmt.name}
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            defined = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        else:
            defined = set()
        read = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)
                and isinstance(n.ctx, ast.Load)}
        read |= {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
        yield defined, read


def test_no_dead_module_names():
    """Every module-level function, class or assigned name in ``src/ambigil``
    is read somewhere in ``src/`` or ``tests/`` outside its own definition
    (a re-export in ``__init__.py`` is not a read)."""
    package = sorted((ROOT / "src" / "ambigil").glob("*.py"))
    statements = {p: list(_defined_and_read(ast.parse(p.read_text(encoding="utf-8"))))
                  for p in package + sorted((ROOT / "tests").glob("*.py"))}
    dead = []
    for path in package:
        for defined, _ in statements[path]:
            for name in sorted(defined - {"__version__"}):
                if not any(name in read for stmts in statements.values()
                           for names, read in stmts if name not in names):
                    dead.append(f"{path.relative_to(ROOT)}: {name}")
    assert dead == []
