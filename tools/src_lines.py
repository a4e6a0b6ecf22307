"""Print the total and code-only line counts of each ``src/pht/*.py``, then of all.

Code-only lines are the non-blank lines that are neither comment-only nor
inside a module, class or function docstring.  Last come, for each module,
the private names (one leading underscore, no dunders) it imports from other
``pht`` modules.  Run from anywhere:

    python3 tools/src_lines.py
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pht"
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def counts(path: Path) -> tuple[int, int]:
    text = path.read_text()
    lines = text.splitlines()
    docstring = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstring.update(range(first.lineno, first.end_lineno + 1))
    code = sum(
        1
        for n, line in enumerate(lines, 1)
        if line.strip() and not line.strip().startswith("#") and n not in docstring
    )
    return len(lines), code


def private_imports(path: Path) -> list[str]:
    return sorted(
        alias.name
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("pht"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    )


if __name__ == "__main__":
    per_module = {p.name: counts(p) for p in sorted(SRC.glob("*.py"))}
    for name, (total, code) in per_module.items():
        print(f"src/pht/{name}: {total} lines, {code} code-only")
    total, code = map(sum, zip(*per_module.values()))
    print(f"src/pht: {total} lines, {code} code-only")
    for path in sorted(SRC.glob("*.py")):
        names = private_imports(path)
        print(f"src/pht/{path.name} imports {len(names)} private names", *names)
