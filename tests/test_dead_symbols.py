"""Dead-symbol guard: every top-level function, class and name of the
package is used by the package, the demos or the benchmark, or is part of
the public API that `gnssgraph/__init__.py` re-exports. A symbol that only
tests call belongs in the tests. Dunders, such as `__all__`, and the
physical constants of `constants.py`, a table kept whole, are exempt."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gnssgraph"
USERS = (ROOT / "src", ROOT / "demos", ROOT / "bench")


def defined(tree: ast.Module, assigned: bool = True) -> set:
    """The names of the module's top-level functions and classes, and,
    with `assigned`, the names that its top-level assignments bind, but
    dunders."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif assigned and isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names.update(name.id for target in targets
                         for name in ast.walk(target)
                         if isinstance(name, ast.Name))
    return {name for name in names
            if not (name.startswith("__") and name.endswith("__"))}


def used(tree: ast.Module) -> set:
    """Every name the module reads: as a name that it loads, an attribute,
    an imported name, or a string that is a name or a dotted path (the
    benchmark names the functions it traces), but not a word of a
    docstring."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and all(part.isidentifier()
                      for part in node.value.split("."))):
            names.update(node.value.split("."))
    return names


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_every_top_level_symbol_is_used_outside_the_tests():
    references = set()
    for folder in USERS:
        for path in sorted(folder.rglob("*.py")):
            if not path.name.startswith("test_"):
                references |= used(parse(path))
    dead = sorted(f"{path.stem}.{name}"
                  for path in sorted(PACKAGE.glob("*.py"))
                  for name in defined(parse(path),
                                      path.name != "constants.py")
                  - references)
    assert dead == [], f"referenced by no module, demo or benchmark: {dead}"
