"""No module in src/, tests/ or demos/ imports a name it never reads.

The scan is by AST over each file as a whole: a name bound by an import
counts as used when the file loads it anywhere (an attribute access
``np.pi`` loads ``np``) or lists it in ``__all__``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    loaded = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for name, line in sorted(bound.items(), key=lambda item: item[1])
        if name not in loaded and name not in exported
    ]


def test_no_unused_imports():
    files = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))
    assert len(files) > 20
    unused = [entry for path in files for entry in _unused_imports(path)]
    assert not unused, "imported but never read:\n" + "\n".join(unused)
