"""Source hygiene the repository runs no linter for: every name a module
imports is read somewhere in that module, and every private module-level
helper of the package is used somewhere in it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(path: Path) -> list[str]:
    """The names path imports and never reads, each as 'line: name'."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in imported.items() if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    # the package's __init__ imports its public API for callers to read
    paths = [p for p in sorted((ROOT / "src" / "astpn").glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py"))
    unused = {str(p.relative_to(ROOT)): names for p in paths if (names := unused_imports(p))}
    assert unused == {}


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """The module-level functions, classes and constants of tree whose name
    starts with one underscore, each with its line."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    return {name: line for name, line in defined.items()
            if name.startswith("_") and not name.startswith("__")}


def referenced_names(tree: ast.Module) -> set[str]:
    """Every name tree reads, as a bare name, an attribute or an import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_no_private_helper_is_unreferenced():
    trees = {p: ast.parse(p.read_text(), filename=str(p))
             for p in sorted((ROOT / "src" / "astpn").glob("*.py"))}
    referenced = set().union(*map(referenced_names, trees.values()))
    unreferenced = {}
    for p, tree in trees.items():
        names = [f"{line}: {name}" for name, line in private_definitions(tree).items()
                 if name not in referenced]
        if names:
            unreferenced[str(p.relative_to(ROOT))] = names
    assert unreferenced == {}
