"""Every function, method and class in the package is used somewhere.

A definition counts as used when its name appears, as a whole word, more
often across the package, the tests, the demos and the benchmark than it is
defined in the package.  The package's ``__init__.py`` is not searched: a
re-export is not a use.  Dunder methods are exempt: the language calls them.

No module of the package reads the environment, so each value has one way
to be set: a command-line option or a constant.

Every name a package module binds by a top-level import is read in that
module, so a deletion leaves no import behind.  ``__init__.py``, whose
imports are re-exports, and ``from __future__`` imports are exempt.

Importing the command-line entry point loads neither ``dataclasses`` nor
``inspect``: the package's records are plain ``__slots__`` classes, and every
process that starts ``quatorder`` would otherwise pay for that import chain.
"""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "quatorder"
SEARCHED = ("src", "tests", "demos", "perfbench")
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}
HEAVY_IMPORTS = {"dataclasses", "inspect"}


def _definitions() -> Counter:
    names = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    names[node.name] += 1
    return names


def test_no_unused_definitions():
    defined = _definitions()
    text = "\n".join(
        path.read_text()
        for top in SEARCHED
        for path in sorted((ROOT / top).rglob("*.py"))
        if path != PACKAGE / "__init__.py"
    )
    words = Counter(re.findall(r"\w+", text))
    dead = sorted(name for name, n in defined.items() if words[name] <= n)
    assert dead == [], f"defined but never referenced: {dead}"


def _unread_imports(tree: ast.Module) -> list[str]:
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in bound if name not in read]


def test_every_import_is_read():
    unread = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for names in [_unread_imports(ast.parse(path.read_text(), filename=str(path)))]
        if names
    }
    assert unread == {}, f"imported but never read: {unread}"


def test_no_module_reads_the_environment():
    readers = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT)
        or (isinstance(node, ast.Name) and node.id in ENVIRONMENT)
        or (isinstance(node, ast.alias) and node.name in ENVIRONMENT)
    )
    assert readers == [], f"modules reading the environment: {readers}"


def _loaded_modules(prelude: str) -> set[str]:
    """The modules a fresh interpreter holds after running prelude."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    code = prelude + "import sys; print('\\n'.join(sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    return set(out.split())


def test_cli_import_loads_no_heavy_stdlib_modules():
    added = _loaded_modules("import quatorder.cli; ") - _loaded_modules("")
    assert "quatorder.cli" in added
    assert added & HEAVY_IMPORTS == set(), f"importing quatorder.cli loads {added & HEAVY_IMPORTS}"
