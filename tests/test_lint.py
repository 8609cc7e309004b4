"""Source hygiene the repository runs no linter for: every name a module
imports is read somewhere in that module."""

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
