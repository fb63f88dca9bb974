"""Dead-code checks on the library source, read with ``ast`` only: every
import is used, and every private module-level name or method is
referenced somewhere in the library."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "bwalloc"


def _modules(root: Path = SOURCE) -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text()) for path in sorted(root.glob("*.py"))}


def _exported(tree: ast.Module) -> set[str]:
    """The names that a module lists in ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def _loaded(tree: ast.Module) -> set[str]:
    """Names and attribute names that a module reads."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def unused_imports(modules: dict[str, ast.Module]) -> list[str]:
    found = []
    for name, tree in modules.items():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [(a.asname or a.name).split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            found += [f"{name}:{node.lineno} {b}" for b in bound if b not in used]
    return found


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _definitions(tree: ast.Module):
    """(line, name) of each module-level name and each method, as
    ``Class.method``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield node.lineno, leaf.id
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.lineno, f"{node.name}.{item.name}"


def unreferenced_private_names(modules: dict[str, ast.Module]) -> list[str]:
    referenced = set().union(*map(_loaded, modules.values()))
    return [
        f"{name}:{line} {qualified}"
        for name, tree in modules.items()
        for line, qualified in _definitions(tree)
        if _private(short := qualified.rsplit(".", 1)[-1]) and short not in referenced
    ]


def test_no_unused_imports():
    assert unused_imports(_modules()) == []


def test_every_private_name_is_referenced():
    assert unreferenced_private_names(_modules()) == []


def test_checks_flag_planted_dead_code(tmp_path):
    (tmp_path / "a.py").write_text(
        "import os\nfrom math import pi, tau\n\n_USED = pi\n_DEAD = 1\n\n\n"
        "class Box:\n    def _helper(self):\n        return _USED\n\n    def _gone(self):\n"
        "        return self._helper()\n"
    )
    modules = _modules(tmp_path)
    assert unused_imports(modules) == ["a.py:1 os", "a.py:2 tau"]
    assert unreferenced_private_names(modules) == ["a.py:5 _DEAD", "a.py:12 Box._gone"]
