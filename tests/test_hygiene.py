import ast
import pathlib

import pytest

from g2rigid import errors

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "g2rigid"


def _unused_imports(path):
    """Names a module imports (``from __future__`` excepted) and never
    reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path) == []


def _eager_layer_imports(path):
    """The layers a module-level ``from .<layer> import`` or ``from .
    import <layer>`` in ``path`` names."""
    layers = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
    named = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            named += [node.module] if node.module else \
                [a.name for a in node.names]
    return sorted(n for n in named if n in layers)


def test_cli_imports_only_cache_and_errors_eagerly():
    """Every other layer is registered lazily by ``cli``, so that a
    command executes only the layers it calls."""
    assert _eager_layer_imports(SRC / "cli.py") == ["cache", "errors"]


def _error_classes():
    """The exception classes ``errors`` defines, ``InputError`` aside."""
    return {name: cls for name, cls in vars(errors).items()
            if isinstance(cls, type) and cls.__module__ == errors.__name__
            and cls is not errors.InputError}


def test_every_error_is_an_input_error():
    """``cli`` reports exactly the InputErrors, so every class ``errors``
    defines is one; each keeps the builtin base its callers catch."""
    classes = _error_classes()
    assert len(classes) > 10
    assert [name for name, cls in classes.items()
            if not issubclass(cls, errors.InputError)
            or not issubclass(cls, (ValueError, RuntimeError))] == []


def test_cli_imports_from_errors_only_input_error_and_what_it_raises():
    """``cli`` catches ``InputError`` alone, so it needs no other error
    class but the ones it raises by name: no list of the classes it
    reports can fall behind ``errors``."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                and node.module == "errors" for alias in node.names}
    raised = {getattr(getattr(node.exc, "func", node.exc), "id", None)
              for node in ast.walk(tree) if isinstance(node, ast.Raise)}
    assert imported == {"InputError"} | (raised & set(_error_classes()))


ROOT = SRC.parent.parent


def _defined_functions():
    """(module, name) of every class, function and method defined in
    src/g2rigid, dunders excepted."""
    return sorted(
        (path.name, node.name) for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__")))


def _referenced_names():
    """Every Name and Attribute name read or written in src/, tests/ and
    bench/ (a definition itself is neither)."""
    names = set()
    for top in ("src", "tests", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_function_is_referenced():
    used = _referenced_names()
    assert [d for d in _defined_functions() if d[1] not in used] == []


def _bound_names(statements):
    """Names a module-level assignment binds, also under a module-level
    ``if``, ``try``, ``for``, ``while`` or ``with``."""
    for node in statements:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            yield from (n.id for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name))
        if not isinstance(node, (ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            for body in ("body", "orelse", "finalbody", "handlers"):
                yield from _bound_names(getattr(node, body, []))


def test_every_module_level_name_is_read():
    """A constant no module, test or bench script reads is left over."""
    read = set()
    for top in ("src", "tests", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(getattr(node, "ctx", None), ast.Load):
                    read.add(getattr(node, "id", getattr(node, "attr", None)))
    bound = {(path.name, name) for path in SRC.glob("*.py")
             for name in _bound_names(
                 ast.parse(path.read_text(encoding="utf-8")).body)
             if not (name.startswith("__") and name.endswith("__"))}
    assert sorted(b for b in bound if b[1] not in read) == []


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def test_no_except_clause_names_assertion_error():
    """An AssertionError is a lost invariant, a fault of the program: no
    handler may swallow it."""
    caught = []
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) \
                    else [node.type]
                caught += [(name, node.lineno) for t in types
                           if getattr(t, "id", None) == "AssertionError"]
    assert caught == []


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def test_no_module_reads_a_private_name_of_another():
    """A ``_name`` belongs to its module: no other module of the package
    reads it, by attribute of the module or by ``from ... import``."""
    trees = _trees()
    reads = []
    for name, tree in trees.items():
        others = set(trees) - {name}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and _is_private(node.attr) \
                    and getattr(node.value, "id", None) in others:
                reads.append((name, f"{node.value.id}.{node.attr}"))
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                reads += [(name, f"{node.module}.{alias.name}")
                          for alias in node.names if _is_private(alias.name)]
    assert reads == []


def test_no_line_exceeds_79_characters():
    long = [f"{path.relative_to(ROOT)}:{number}"
            for path in sorted(SRC.glob("*.py"))
            + sorted((ROOT / "tests").glob("*.py"))
            for number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > 79]
    assert long == []
