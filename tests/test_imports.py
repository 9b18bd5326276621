"""No module in src/, tests/ or demos/ imports a name it never reads,
src/dropsteady defines no function or class, private or public, that
nothing uses, and no module of src/dropsteady imports another's private
name, that its modules import numpy, the standard library and the
package itself only, and that each imports from the package only modules
of lower layers (``LAYERS``).

The scan is by AST over each file as a whole: a name bound by an import
counts as used when the file loads it anywhere (an attribute access
``np.pi`` loads ``np``) or lists it in ``__all__``.  A module-level
function or class in src/dropsteady counts as used when a name,
an attribute or an import anywhere in src/, tests/, demos/ or bench/
carries it outside its own definition, or a string in bench/spans.py (the
traced targets, ``"Class.method"`` split at the dots) names it.
"""

import ast
import sys
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


def _names(node: ast.AST, strings: bool):
    """Names that ``node`` loads, reads as attributes or imports, and with
    ``strings`` the dotted parts of its string constants."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.split(".")[-1]
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield from sub.value.split(".")


def _definitions():
    """Names used anywhere in src/, tests/, demos/ and bench/, and the
    module-level functions and classes of src/dropsteady as
    ``(entry, name)`` pairs."""
    files = sorted(p for d in ("src", "tests", "demos", "bench") for p in (ROOT / d).rglob("*.py"))
    used = set()
    defined = []
    for path in files:
        strings = path == ROOT / "bench" / "spans.py"
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            own = getattr(stmt, "name", None)
            used.update(name for name in _names(stmt, strings) if name != own)
            if (
                path.parent == ROOT / "src" / "dropsteady"
                and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                and not own.endswith("__")
            ):
                defined.append((f"{path.relative_to(ROOT)}:{stmt.lineno}: {own}", own))
    return used, defined


def test_no_unused_private_definitions():
    used, defined = _definitions()
    private = [(entry, name) for entry, name in defined if name.startswith("_")]
    assert len(private) > 20
    unused = [entry for entry, name in private if name not in used]
    assert not unused, "defined but never used:\n" + "\n".join(unused)


def test_no_unused_public_definitions():
    """A public function or class that only its own definition and its
    module's ``__all__`` name is dead code."""
    used, defined = _definitions()
    public = [(entry, name) for entry, name in defined if not name.startswith("_")]
    assert len(public) > 50
    unused = [entry for entry, name in public if name not in used]
    assert not unused, "defined but never used:\n" + "\n".join(unused)


def test_no_private_imports_across_src_modules():
    """A ``_``-prefixed name (dunders aside) is its module's own: another
    module of the package that needs it calls for a public name instead."""
    files = sorted((ROOT / "src" / "dropsteady").glob("*.py"))
    assert len(files) > 10
    crossing = [
        f"{path.relative_to(ROOT)}:{node.lineno}: {alias.name}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert not crossing, "private names imported from another module:\n" + "\n".join(crossing)


def test_src_imports_numpy_and_the_standard_library_only():
    """numpy is the one dependency in pyproject.toml: a module of
    src/dropsteady imports nothing else but the standard library and its
    own package (scipy, say, is not a dependency even where installed)."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "dropsteady"}
    files = sorted((ROOT / "src" / "dropsteady").glob("*.py"))
    assert len(files) > 10
    foreign = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                continue
            foreign += [f"{path.relative_to(ROOT)}:{node.lineno}: {top}" for top in tops if top not in allowed]
    assert not foreign, "imports outside numpy and the standard library:\n" + "\n".join(foreign)


# the package's modules, bottom up: a module imports from the package only
# modules of lower layers, so none of its imports can reach back to it
LAYERS = [
    {"sphere", "radial", "halfspace", "dropflow"},
    {"volume"},
    {"geometry", "stokes"},
    {"operators"},
    {"driver", "validate"},
    {"io"},
    {"cli"},
]


def _package_imports(path: Path):
    """``(line, module)`` for each package module that ``path`` imports,
    at module level or inside a function; ``from . import a, b`` imports
    ``a`` and ``b``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "dropsteady":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                yield node.lineno, parts[0]
            else:
                yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "dropsteady" and len(parts) > 1:
                    yield node.lineno, parts[1]


def test_src_modules_import_lower_layers_only():
    """Every module but ``__init__`` has a layer, and imports from the
    package only modules of lower layers; io's ``from . import
    __version__`` reads the package's own metadata."""
    layer = {name: k for k, names in enumerate(LAYERS) for name in names}
    files = sorted(p for p in (ROOT / "src" / "dropsteady").glob("*.py") if p.stem != "__init__")
    assert sorted(p.stem for p in files) == sorted(layer)
    upward = [
        f"{path.relative_to(ROOT)}:{line}: {path.stem} imports {name}"
        for path in files
        for line, name in _package_imports(path)
        if (path.stem, name) != ("io", "__version__") and not layer.get(name, len(LAYERS)) < layer[path.stem]
    ]
    assert not upward, "imports of the same or a higher layer:\n" + "\n".join(upward)
