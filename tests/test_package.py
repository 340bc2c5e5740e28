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


def _foreign_names(tree: ast.Module) -> set:
    """The names that an import of a module outside the package binds in tree (np, math, scipy, os)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names if a.name.split(".")[0] != "cylbuck")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] != "cylbuck":
            names.update(a.asname or a.name for a in node.names)
    return names


def _references(tree: ast.Module, strings: bool):
    """(name, node) for every Name and Attribute in tree, and with strings every
    string constant that is not a docstring.  An Attribute of a module from
    outside the package (np.full, scipy.linalg.eigh) reads nothing of ours."""
    docs = _docstrings(tree)
    foreign = _foreign_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if not (isinstance(base, ast.Name) and base.id in foreign):
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


def _unread(package: dict, perfbench: list) -> list:
    """The "<module>.<name>" of each definition of the package modules (stem -> tree)
    that nothing reads outside its own body, in the package or the perfbench trees."""
    sources = [(tree, False) for tree in package.values()] + [(tree, True) for tree in perfbench]
    readers = {}  # name -> the nodes that read it, across every parsed file
    for tree, strings in sources:
        for name, node in _references(tree, strings):
            readers.setdefault(name, []).append(node)
    unread = []
    for stem, tree in package.items():
        if stem == "__init__":
            continue
        for name, definition in _definitions(tree):
            own = {id(node) for node in ast.walk(definition)}
            if all(id(node) in own for node in readers.get(definition.name, [])):
                unread.append(f"{stem}.{name}")
    return unread


def test_every_package_definition_has_a_reader():
    # Each top-level def or class of a package module, and each method and
    # property of its classes, is read somewhere in the package or the
    # benchmark outside its own body.  Code that only a test reads belongs
    # in that test's file; perfbench wraps some functions by name, so its
    # string constants count as readers too.
    package = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert _unread(package, [ast.parse(path.read_text()) for path in sorted(PERFBENCH.glob("*.py"))]) == []


def test_an_attribute_of_a_foreign_module_is_no_reader():
    # mod.full is read only as numpy's np.full, so it is unread; mod.zeros is
    # read through the package's own import, and mod.ones by a perfbench string
    mod = "import numpy as np\n" + "".join(f"def {name}():\n    pass\n" for name in ("full", "zeros", "ones"))
    mod += "x = np.full(3, 0.0)\n"
    user = "from . import mod as m\n\ny = m.zeros()\n"
    bench = "import numpy\nfrom cylbuck import mod\n\nz = (numpy.ones(2), mod, 'ones')\n"
    package = {"mod": ast.parse(mod), "user": ast.parse(user)}
    assert _unread(package, [ast.parse(bench)]) == ["mod.full"]
    assert _unread(package, [ast.parse(bench.replace("'ones'", "'twos'"))]) == ["mod.full", "mod.ones"]


def test_import_leaves_scipy_optimize_out():
    # the trivial branch is a closed form, and only the oracle needs scipy,
    # scipy.linalg alone: scipy.optimize would add ~0.2 s and ~20 MB to every
    # import, and scipy.linalg ~0.25 s and ~27 MB to the closed form's.  In
    # fresh interpreters, the package and each closed-form module load no
    # scipy module; the oracle loads scipy.linalg at its own import, so that
    # its cost falls outside the first scan.
    src = os.path.dirname(os.path.dirname(cylbuck.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))

    def loaded(module: str) -> list:
        code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        return ast.literal_eval(out.stdout.strip())

    closed_form = ("critical_load", "spectral", "modes", "material", "trivial_branch", "errors")
    for module in ["cylbuck"] + [f"cylbuck.{name}" for name in closed_form]:
        assert loaded(module) == [], module
    with_oracle = loaded("cylbuck.oracle")
    assert "scipy.linalg" in with_oracle and "scipy.optimize" not in with_oracle
