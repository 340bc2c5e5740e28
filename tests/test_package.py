import ast
import os
import subprocess
import sys
from pathlib import Path

import cylbuck

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cylbuck"
PERFBENCH = ROOT / "perfbench"
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def test_public_names_resolve_once():
    assert len(set(cylbuck.__all__)) == len(cylbuck.__all__)
    for name in cylbuck.__all__:
        assert getattr(cylbuck, name) is not None, name
    # no name is imported into the package namespace without being exported
    tree = ast.parse(Path(cylbuck.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    imported = [alias.asname or alias.name for node in imports for alias in node.names]
    assert sorted(imported) == sorted(cylbuck.__all__)


def _docstrings(tree: ast.Module) -> set:
    """The ids of the docstring constants of the module and of every def and class in it."""
    owners = [tree] + [node for node in ast.walk(tree) if isinstance(node, _DEFINITIONS)]
    return {
        id(owner.body[0].value)
        for owner in owners
        if owner.body and isinstance(owner.body[0], ast.Expr) and isinstance(owner.body[0].value, ast.Constant)
    }


def _references(tree: ast.Module, strings: bool):
    """(name, node) for every Name and Attribute in tree, and with strings every
    string constant that is not a docstring."""
    docs = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docs:
            yield node.value, node


def _definitions(tree: ast.Module):
    """(qualified name, node) of every top-level def and class of a module, and
    of every method and property of its classes but the dunder methods, which
    Python calls by protocol."""
    for node in tree.body:
        if isinstance(node, _DEFINITIONS):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, _DEFINITIONS) and not member.name.startswith("__"):
                    yield f"{node.name}.{member.name}", member


def test_every_package_definition_has_a_reader():
    # Each top-level def or class of a package module, and each method and
    # property of its classes, is read somewhere in the package or the
    # benchmark outside its own body.  Code that only a test reads belongs
    # in that test's file; perfbench wraps some functions by name, so its
    # string constants count as readers too.
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    sources = [(tree, False) for tree in trees.values()]
    sources += [(ast.parse(path.read_text()), True) for path in sorted(PERFBENCH.glob("*.py"))]
    readers = {}  # name -> the nodes that read it, across every parsed file
    for tree, strings in sources:
        for name, node in _references(tree, strings):
            readers.setdefault(name, []).append(node)
    unread = []
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        for name, definition in _definitions(tree):
            own = {id(node) for node in ast.walk(definition)}
            if all(id(node) in own for node in readers.get(definition.name, [])):
                unread.append(f"{path.stem}.{name}")
    assert unread == []


def test_import_leaves_scipy_optimize_out():
    # the trivial branch is a closed form and the oracle needs only
    # scipy.linalg; scipy.optimize would add ~0.2 s and ~20 MB to every import
    code = "import sys, cylbuck; print('scipy.optimize' in sys.modules)"
    src = os.path.dirname(os.path.dirname(cylbuck.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
