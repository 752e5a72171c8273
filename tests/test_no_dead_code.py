"""Every function, method and class in the package is used somewhere.

A definition counts as used when its name appears, as a whole word, more
often across the package, the tests, the demos and the benchmark than it is
defined in the package.  The package's ``__init__.py`` is not searched: a
re-export is not a use.  Dunder methods are exempt: the language calls them.

No module of the package reads the environment, so each value has one way
to be set: a command-line option or a constant.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "quatorder"
SEARCHED = ("src", "tests", "demos", "perfbench")
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


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
