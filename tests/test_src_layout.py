"""``src/`` holds only what the commands run.

Every top-level function, class and assignment of a module under
``src/verisel``, and every method, must be referenced by some code in
``src/`` outside its own definition. A name only tests or scripts call
belongs beside them (``tests/planted.py`` holds the planted-graph generator
and the static and random selectors). An import or a string is not a
reference, so a re-export alone keeps nothing; a dunder method is called
by Python itself and is not checked.

Every parameter of every function is read in its body, unless it is named
``_``. The benchmark's tracer (``perfbench/tracing.py``) wraps some
functions by module attribute and parameter names, and keeps a few names
and parameters that ``src/`` would not need: each site must resolve, and
each parameter kept only for it is listed here.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PERFBENCH = SRC.parent / "perfbench"

# (module, name) -> why it stays with no reference in src/
ENTRY_POINTS = {
    ("verisel", "__version__"): "the package version, read by tools and users",
    ("verisel.frontend", "__all__"): "the frontend's public names, read by tools",
    ("verisel.frontend.parser", "parse_source"):
        "parses a whole source file; the benchmark's ICFG checks and tests call it",
}


# (module, function, parameter) -> why its function never reads it
UNREAD = {
    ("verisel.frontend.dataflow", "reaching_definitions", "ast"):
        "wrapped by name in perfbench/tracing.py",
    ("verisel.model", "gat_layer", "edges"): "wrapped by name in perfbench/tracing.py",
}


def _module_name(path: Path, src: Path) -> str:
    parts = path.relative_to(src).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _references(node: ast.AST) -> Counter:
    """Names read or written as a variable or an attribute under ``node``."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute))
    )


def _definitions(tree: ast.Module):
    """(name, node) of each top-level definition and each method."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield stmt.name, stmt
        elif isinstance(stmt, ast.ClassDef):
            yield stmt.name, stmt
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield item.name, item
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, stmt


def unreferenced(src: Path = SRC) -> set[tuple[str, str]]:
    """(module, name) of every definition under ``src`` that no other code
    there references."""
    modules = {_module_name(path, src): ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(src.rglob("*.py"))}
    everywhere = sum((_references(tree) for tree in modules.values()), Counter())
    return {
        (module, name)
        for module, tree in modules.items()
        for name, node in _definitions(tree)
        if everywhere[name] - _references(node)[name] <= 0
    }


def test_every_definition_in_src_has_a_caller_in_src():
    assert unreferenced() == set(ENTRY_POINTS)


def test_the_probe_finds_a_function_nothing_calls(tmp_path):
    package = tmp_path / "verisel"
    package.mkdir()
    (package / "__init__.py").write_text(
        "from .core import run, unused\n"
        "__all__ = ['run', 'unused']\n", encoding="utf-8")
    (package / "core.py").write_text(
        "LIMIT = 3\n"
        "def run(n):\n    return helper(n) if n < LIMIT else run(n - 1)\n"
        "def helper(n):\n    return Box(n).size()\n"
        "class Box:\n"
        "    def __init__(self, n):\n        self.n = n\n"
        "    def size(self):\n        return self.n\n"
        "    def spare(self):\n        return self.spare()\n"
        "def unused():\n    return unused()\n", encoding="utf-8")
    assert unreferenced(tmp_path) == {
        ("verisel", "__all__"), ("verisel.core", "run"),
        ("verisel.core", "spare"), ("verisel.core", "unused"),
    }


def unread_parameters(src: Path = SRC) -> set[tuple[str, str, str]]:
    """(module, function, parameter) of every parameter under ``src`` that
    its function's body never reads; a lambda is named ``<lambda>``, and a
    method's first parameter, which Python passes, is not checked."""
    found = set()
    for path in sorted(src.rglob("*.py")):
        module = _module_name(path, src)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {id(item) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for item in cls.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.Lambda):
                name, body = "<lambda>", [node.body]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name, body = node.name, node.body
            else:
                continue
            read = {sub.id for stmt in body for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            args = node.args
            positional = [*args.posonlyargs, *args.args][id(node) in methods:]
            found |= {(module, name, arg.arg)
                      for arg in (*positional, args.vararg, *args.kwonlyargs, args.kwarg)
                      if arg is not None and arg.arg != "_" and arg.arg not in read}
    return found


def test_every_parameter_in_src_is_read():
    assert unread_parameters() == set(UNREAD)


def test_the_probe_finds_a_parameter_nothing_reads(tmp_path):
    package = tmp_path / "verisel"
    package.mkdir()
    (package / "core.py").write_text(
        "def run(n, spare, _, *args, scale=1, **opts):\n"
        "    def inner(m):\n        return m * scale + len(args)\n"
        "    return inner(n) + sorted(map(lambda k, v: k, opts, opts))[0]\n"
        "class Box:\n"
        "    def size(self, unit):\n        return 0\n"
        "    @classmethod\n"
        "    def empty(cls):\n        return run(0, 0, 0)\n", encoding="utf-8")
    assert unread_parameters(tmp_path) == {
        ("verisel.core", "run", "spare"), ("verisel.core", "<lambda>", "v"),
        ("verisel.core", "size", "unit"),
    }


def test_every_benchmark_site_resolves(monkeypatch):
    # a renamed or reshaped site only shows up as missing per-layer metrics
    # in a traced benchmark run; this finds it without running one
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    assert len(tracing.SITES) == 23
    assert [f"{site.module}.{site.attr}" for site in tracing.SITES
            if tracing.resolve(site) is None] == []
