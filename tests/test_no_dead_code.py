"""Every function and method in the package is reached, and the package
exports exactly its declared surface.

The reachability guard runs ``CATALOGUE`` in one process under
``sys.setprofile``: every command as text and as ``--json``, every local-model
case, the exit-2/3/4 paths, a narrowed sweep over all five sections, the
factorisation that needs Pollard–Brent rho, the demos, the README
quickstart and the process exit path ``cli.run``.  Every function and method defined in the package must be
called, apart from the object-protocol dunders in ``PROTOCOL`` and the
entries of ``allowed()``, each with its reason: the targets that
``perfbench/tracer.py`` traces, and the methods a named test uses as the
reference for another method.  A failure lists ``module.py:line qualname``
for each unreached definition.  To cover a new entry point, extend
``CATALOGUE``.

``__all__`` is sorted, has no duplicates, equals the names ``__init__.py``
imports, and holds exactly the names that a README code block, a demo or a
``perfbench/`` file imports from ``quatorder``, plus the error classes of
the exit-code contract.  The README quickstart prints the basis its comment
shows.

No module of the package reads the environment, so each value has one way
to be set: a command-line option or a constant.

Every name a package module binds by a top-level import is read in that
module, so a deletion leaves no import behind.  ``__init__.py``, whose
imports are re-exports, and ``from __future__`` imports are exempt.

Importing the command-line entry point loads neither ``dataclasses`` nor
``inspect``: the package's records are plain ``__slots__`` classes, and every
process that starts ``quatorder`` would otherwise pay for that import chain.

No module's compilation peaks above ``COMPILE_PEAK_BYTES``.

The q-adic roots cross module boundaries as ints: only ``numth.py`` and
``split.py`` (``Q_ADIC_MODULES``) name ``PadicNum``, and only ``numth.py``
calls a ``.residue(`` method, so the relative-precision numbers stay the
print form of a local model's generators.

No function declares a parameter whose name starts with ``_``: a caller
chooses a model's behaviour only through its public arguments, and a fault
is injected from a test, not through a hidden switch.
"""

import ast
import contextlib
import io
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import quatorder.cli
from quatorder import errors

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "quatorder"
README = (ROOT / "README.md").read_text()
DEMOS = sorted((ROOT / "demos").glob("*.py"))
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}
HEAVY_IMPORTS = {"dataclasses", "inspect"}
# split.py's peak under tracemalloc at Python 3.11.7 when the compile-peak
# guard was added; the same on every run.
COMPILE_PEAK_BYTES = 1_747_431
PROTOCOL = {"__init__", "__repr__", "__str__", "__eq__", "__hash__", "__setattr__", "__delattr__"}
Q_ADIC_MODULES = {"numth.py", "split.py"}

PYTHON_BLOCKS = re.findall(r"```python\n(.*?)```", README, re.S)
QUICKSTART = re.search(r"## Library quickstart\s+```python\n(.*?)```", README, re.S).group(1)

# The process exit path, run in this process: ``run`` raises SystemExit with
# ``main``'s code after freezing the collector, which this test then undoes.
EXIT_PATH = """
import gc, sys
from quatorder import cli
argv, sys.argv = sys.argv, ["quatorder", "construct", "--delta", "35", "--level", "3"]
try:
    cli.run()
except SystemExit:
    pass
finally:
    sys.argv = argv
    gc.unfreeze()
"""

# One entry per run: a list is a ``quatorder`` argv, a Path a demo script run
# as __main__, and a str Python source.
CATALOGUE = [
    ["construct", "--delta", "35", "--level", "3"],
    ["construct", "--delta", "35", "--level", "3", "--json"],
    # Trial division leaves 9879027419 = 99391 · 99397 to Pollard–Brent rho.
    ["construct", "--delta", "9879027419", "--json"],
    ["split", "--delta", "1", "--level", "3", "--place", "5"],  # rational
    ["split", "--delta", "1", "--level", "3", "--place", "5", "--json"],
    ["split", "--delta", "35", "--level", "3", "--place", "3"],  # square
    ["split", "--delta", "35", "--level", "3", "--place", "11", "--json"],  # non-square
    ["split", "--delta", "35", "--level", "3", "--place", "p", "--json"],  # at p
    ["split", "--delta", "35", "--level", "3", "--place", "7", "--json"],  # ramified, odd q
    ["split", "--delta", "6", "--level", "1", "--place", "2", "--json"],  # ramified, q = 2
    ["split", "--delta", "35", "--level", "3", "--place", "inf"],  # real place
    ["split", "--delta", "35", "--level", "3", "--place", "inf", "--json"],
    ["degeneracy", "--delta", "35", "--level", "3", "--q", "11"],
    ["degeneracy", "--delta", "35", "--level", "3", "--q", "11", "--json"],
    ["psi", "--delta", "35", "--src", "9", "--dst", "3"],
    ["psi", "--delta", "35", "--src", "3", "--dst", "17", "--json"],
    ["chain", "--delta", "35", "--q", "19", "--family", "3,11,13,19"],
    ["chain", "--delta", "35", "--q", "19", "--json"],
    ["verify", "--deltas", "35,6,1", "--levels", "1,3,9", "--places", "2,3,5,11,13,p,inf"],
    ["verify", "--deltas", "35", "--levels", "3", "--places", "11", "--json"],
    ["construct", "--delta", "30"],  # exit 2: three discriminant primes
    ["degeneracy", "--delta", "35", "--level", "3", "--q", "5"],  # exit 3: ramified q
    ["split", "--delta", "35", "--level", "9", "--place", "3", "--precision", "1"],  # exit 4
    *DEMOS,
    QUICKSTART,
    EXIT_PATH,
]

# Methods kept unreached because a test uses them as the reference for
# another method.
TEST_REFERENCES = {
    "quat.QuatElem.conj": "tests/test_quat.py::test_norm_trace_multiplicative "
    "checks reduced_trace and reduced_norm against u + conj(u) and u·conj(u)",
    "exact.ZLattice4.basis": "tests/test_core_properties.py::"
    "test_scaled_membership_matches_fraction_contains builds lattice vectors from it",
    "split.LocalSplitting.entries": "tests/test_core_properties.py::"
    "test_one_pass_shape_test_matches_the_per_entry_reference splits a matrix into entries",
    "split.LocalSplitting.entry_val_at_least": "tests/test_core_properties.py::"
    "test_one_pass_shape_test_matches_the_per_entry_reference checks matrix_in_shape "
    "against it an entry at a time",
}


def definitions() -> dict:
    """(path, first line of the code object) -> (def line, "module.qualname")
    for every function and method, nested ones included, defined in the package."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A decorated function's code object starts at its first decorator.
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = (child.lineno, prefix + child.name)
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(), filename=str(path)), path, f"{path.stem}.")
    return found


def allowed() -> dict:
    """"module.qualname" -> the reason that definition may go unreached."""
    tracer = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    targets = next(
        ast.literal_eval(node.value)
        for node in tracer.body
        if isinstance(node, ast.Assign) and node.targets[0].id == "TARGETS"
    )
    reasons = {f"{mod}.{name}": "traced by perfbench/tracer.py" for mod, name, _ in targets}
    reasons.update(TEST_REFERENCES)
    return reasons


def clear_package_caches():
    """Empty every ``lru_cache`` of the package, so each memoised body runs again."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("quatorder."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def test_every_package_memo_is_bounded():
    """Every ``lru_cache`` of the package has a finite ``maxsize``, so a
    long-lived process that walks many algebras holds a bounded number of
    results."""
    memos = {
        f"{module.__name__}.{name}": value.cache_info().maxsize
        for module in list(sys.modules.values())
        if getattr(module, "__name__", "").startswith("quatorder.")
        for name, value in vars(module).items()
        if hasattr(value, "cache_info")
    }
    assert "quatorder.quat.hashimoto_basis" in memos
    assert {name: size for name, size in memos.items() if size is None} == {}


def run_catalogue() -> set:
    """The (resolved path, first line) of every code object the catalogue calls."""
    clear_package_caches()
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for entry in CATALOGUE:
                if isinstance(entry, list):
                    quatorder.cli.main(entry)
                elif isinstance(entry, Path):
                    runpy.run_path(str(entry), run_name="__main__")
                else:
                    exec(entry, {})
    finally:
        sys.setprofile(previous)
    return {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in codes}


def test_every_definition_is_reached():
    found, reasons = definitions(), allowed()
    names = {name for _, name in found.values()}
    assert set(TEST_REFERENCES) <= names, "a test reference names no definition"
    reached = run_catalogue()
    unreached = [
        f"{Path(key[0]).name}:{line} {name.split('.', 1)[1]}"
        for key, (line, name) in sorted(found.items())
        if key not in reached
        and name.rsplit(".", 1)[-1] not in PROTOCOL
        and name not in reasons
    ]
    assert unreached == [], "reached by no catalogue entry:\n" + "\n".join(unreached)


def test_readme_quickstart_prints_its_basis_and_all_is_what_init_imports(capsys):
    exec(QUICKSTART, {})
    basis = re.search(r"^# (\[.*\])$", QUICKSTART, re.M).group(1)
    assert capsys.readouterr().out.splitlines()[0] == basis
    exported = quatorder.__all__
    assert exported == sorted(exported)
    assert len(set(exported)) == len(exported)
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(exported) == imported


def _imported_from_package(source: str) -> set:
    """Names that source takes from ``quatorder``: ``from quatorder import x``
    or ``quatorder.x``, submodules excluded."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "quatorder":
            names |= {alias.name for alias in node.names}
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "quatorder"):
            names.add(node.attr)
    return {name for name in names if f"quatorder.{name}" not in sys.modules}


def test_all_is_what_readme_demos_and_benchmark_import_plus_the_errors():
    sources = PYTHON_BLOCKS + [path.read_text() for path in DEMOS]
    sources += [path.read_text() for path in sorted((ROOT / "perfbench").rglob("*.py"))]
    used = set().union(*map(_imported_from_package, sources))
    contract = {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, errors.QuatOrderError)
    }
    assert set(quatorder.__all__) == used | contract


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


def test_no_module_compiles_above_the_peak_bound():
    """A process that starts ``quatorder`` compiles the modules it imports
    (the benchmark runs with no bytecode cache), and the compiler's transient
    memory then sets part of that process's peak RSS, so a module that grows
    past the bound raises ``peak_rss_mb`` with no change in the work done.
    The peaks are read in a fresh interpreter: a compile there interns the
    module's names, as an import would, which a warm process already did."""
    code = (
        "import json, sys, tracemalloc\n"
        "peaks = {}\n"
        "for path in sys.argv[1:]:\n"
        "    source = open(path, encoding='utf-8').read()\n"
        "    tracemalloc.start()\n"
        "    compile(source, path, 'exec')\n"
        "    peaks[path.rsplit('/', 1)[-1]] = tracemalloc.get_traced_memory()[1]\n"
        "    tracemalloc.stop()\n"
        "print(json.dumps(peaks))\n"
    )
    paths = [str(path) for path in sorted(PACKAGE.glob("*.py"))]
    out = subprocess.run(
        [sys.executable, "-I", "-c", code, *paths], capture_output=True, text=True, check=True
    ).stdout
    peaks = json.loads(out)
    assert len(peaks) == len(paths)
    over = {name: peak for name, peak in peaks.items() if peak > COMPILE_PEAK_BYTES}
    assert over == {}, f"compile peaks above {COMPILE_PEAK_BYTES} bytes: {over}"


def test_only_numth_and_split_hold_q_adic_numbers():
    """Elsewhere a q-adic root is an int: no other module names ``PadicNum``
    (as a name, an attribute or an import), and no module but ``numth.py``
    calls ``.residue(``."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = path.name not in Q_ADIC_MODULES and (
                (isinstance(node, ast.Name) and node.id == "PadicNum")
                or (isinstance(node, ast.Attribute) and node.attr == "PadicNum")
                or (isinstance(node, ast.alias) and node.name == "PadicNum")
            )
            calls = (path.name != "numth.py" and isinstance(node, ast.Call)
                     and isinstance(node.func, ast.Attribute) and node.func.attr == "residue")
            if names or calls:
                found.setdefault(path.name, []).append(
                    f"{node.lineno}: {'PadicNum' if names else '.residue('}"
                )
    assert found == {}, f"q-adic numbers outside {sorted(Q_ADIC_MODULES)}: {found}"


def test_no_function_declares_a_hidden_parameter():
    """No function, method or lambda of the package takes a parameter whose
    name starts with ``_``, such as a switch that plants a fault."""
    hidden = [
        f"{path.name}:{node.lineno} {getattr(node, 'name', 'lambda')}({arg.arg})"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs,
                    node.args.vararg, node.args.kwarg)
        if arg is not None and arg.arg.startswith("_")
    ]
    assert hidden == [], f"parameters named with a leading underscore: {hidden}"
