"""Checks on the library source, read with ``ast`` only: every import is
used, every private module-level name or method is referenced somewhere in
the library, the simulator's sampling path never reads the closed forms
that it cross-checks, only the realization loop's fan-out forks, and no
function rebinds a module-level name with ``global`` (cached state lives in
``functools`` caches, which ``cache_clear()`` resets)."""

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


#: The functions, by module, that draw a network: the draws before the
#: marks, the realization loop, its marks draw, the loop statistics' pass,
#: and the chunk model's samplers in ``allocation``.
SAMPLING_PATH = {
    "simulate.py": ("_networks", "_realizations", "_marks", "_received"),
    "allocation.py": (
        "sample_type",
        "_typical_start",
        "_types_of",
        "_type_law",
        "_overlap_law",
        "_window_starts",
        "_sample_overlaps",
        "_inverse_cdf",
        "_bucket_table",
    ),
}

#: The mix-collapsed overlap table, the closed-form success kernel and the
#: closed-form conditional success probability.
CLOSED_FORMS = {
    "_conditional_success",
    "window_overlap_table",
    "_window_overlap_table",
    "_log_success",
    "_success_probs",
}


def closed_form_loads(modules: dict[str, ast.Module]) -> list[str]:
    """Each closed-form name that a function of ``SAMPLING_PATH`` loads; a
    path function that no longer exists raises ``KeyError``."""
    found = []
    for name, names in SAMPLING_PATH.items():
        functions = {
            node.name: node for node in modules[name].body if isinstance(node, ast.FunctionDef)
        }
        for function in names:
            loads = _loaded(functions[function]) & CLOSED_FORMS
            found += [f"{name} {function} {load}" for load in sorted(loads)]
    return found


#: What ``simulate.py`` reaches only through another module's helper: the
#: overlap table and the closed-form factors (through
#: ``metadist._conditional_success``), the window draw (through
#: ``allocation._typical_start``) and the success kernel.
SIMULATE_BOUNDARY = {
    "window_overlap_table",
    "_sir_scales",
    "_interference_discount",
    "_window_starts",
    "_log_success",
    "_success_probs",
}


def boundary_crossings(modules: dict[str, ast.Module]) -> list[str]:
    """Each name of ``SIMULATE_BOUNDARY`` that ``simulate.py`` imports (by
    its own name, also under an alias) or loads."""
    tree = modules["simulate.py"]
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    crossings = (_loaded(tree) | imported) & SIMULATE_BOUNDARY
    return [f"simulate.py {name}" for name in sorted(crossings)]


def _calls_fork(node: ast.AST) -> bool:
    """Whether ``node`` calls ``os.fork``, or a bare ``fork`` imported from
    ``os``."""
    return any(
        isinstance(call, ast.Call)
        and (
            (isinstance(call.func, ast.Attribute) and call.func.attr == "fork")
            or (isinstance(call.func, ast.Name) and call.func.id == "fork")
        )
        for call in ast.walk(node)
    )


def fork_callers(modules: dict[str, ast.Module]) -> list[str]:
    """Each module-level definition (by name) or statement (by line) that
    forks a process."""
    return [
        f"{name} {getattr(node, 'name', f'line {node.lineno}')}"
        for name, tree in modules.items()
        for node in tree.body
        if _calls_fork(node)
    ]


def global_statements(modules: dict[str, ast.Module]) -> list[str]:
    """Each ``global`` statement, by the function that holds it (the
    innermost one, by name; ``module`` outside any function)."""
    found = []

    def visit(node, module, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Global):
                found.append(f"{module} {function}")
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
            else:
                visit(child, module, function)

    for name, tree in modules.items():
        visit(tree, name, "module")
    return found


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


def test_the_sampling_path_never_reads_the_closed_forms():
    assert closed_form_loads(_modules()) == []


def test_closed_form_check_flags_a_planted_load(tmp_path):
    (tmp_path / "simulate.py").write_text(
        "def _realizations(ba, k):\n    return window_overlap_table(ba, k)[0]\n\n\n"
        + "".join(
            f"def {name}():\n    pass\n\n\n"
            for name in SAMPLING_PATH["simulate.py"]
            if name != "_realizations"
        )
    )
    (tmp_path / "allocation.py").write_text(
        "".join(f"def {name}():\n    pass\n\n\n" for name in SAMPLING_PATH["allocation.py"])
    )
    assert closed_form_loads(_modules(tmp_path)) == [
        "simulate.py _realizations window_overlap_table"
    ]


def test_simulate_reaches_the_chunk_model_and_closed_forms_through_helpers():
    assert boundary_crossings(_modules()) == []


def test_boundary_check_flags_a_planted_load(tmp_path):
    (tmp_path / "simulate.py").write_text(
        "from . import allocation\nfrom .metadist import _sir_scales as scales\n\n\n"
        "def _start(ba, k, u):\n    return allocation._window_starts(ba.n_chunks, k, u)\n\n\n"
        "def _closed(net, k, theta, r, s):\n    return scales(net, k, theta, r, s)\n\n\n"
        "class Check:\n    def success(self, net, ba, k, thetas):\n"
        "        return _success_probs(net, ba, k, thetas)\n"
    )
    assert boundary_crossings(_modules(tmp_path)) == [
        "simulate.py _sir_scales",
        "simulate.py _success_probs",
        "simulate.py _window_starts",
    ]


def test_only_the_fan_out_forks():
    assert fork_callers(_modules()) == ["simulate.py _in_blocks"]


def test_fork_check_flags_a_planted_call(tmp_path):
    (tmp_path / "simulate.py").write_text(
        "import os\nfrom os import fork\n\n\ndef _in_blocks():\n    return os.fork()\n\n\n"
        "def spawn():\n    return os.fork()\n\n\nclass Pool:\n    def start(self):\n"
        "        return fork()\n"
    )
    (tmp_path / "allocation.py").write_text("import os\n\nPID = os.fork()\n")
    assert fork_callers(_modules(tmp_path)) == [
        "allocation.py line 3",
        "simulate.py _in_blocks",
        "simulate.py spawn",
        "simulate.py Pool",
    ]


def test_no_function_uses_a_global_statement():
    assert global_statements(_modules()) == []


def test_global_check_flags_a_planted_statement(tmp_path):
    (tmp_path / "simulate.py").write_text(
        "_held = None\n\n\ndef _received():\n    global _held\n    _held = 1\n\n\n"
        "class Pool:\n    def start(self):\n        def inner():\n            global _held\n\n"
        "        return inner\n"
    )
    (tmp_path / "allocation.py").write_text("global _law\n_law = 1\n")
    assert global_statements(_modules(tmp_path)) == [
        "allocation.py module",
        "simulate.py _received",
        "simulate.py inner",
    ]
