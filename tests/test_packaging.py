"""The declared dependencies are exactly the third-party imports of the
package, so installing it pulls in nothing unused and misses nothing; the
package runs on the standard library alone; no check in the package is
an assert statement, which python -O strips, and a failed one raises
VerificationError, not AssertionError; only the CLI's command handlers
import a sibling module inside a function; and every ring element class
derives its operators from the one protocol base, arith.RingElt.

Each entry point loads only what it uses: a bare `import rankin` loads no
module of the package, each public name loads its defining module on first
access, and the single-check commands never load the catalog; the package
with every module loaded still loads no code-generation machinery
(dataclasses, inspect, ast, dis, tokenize), and the hand-written classes
that replaced dataclasses keep their equality, hash, repr, checks and fresh
default lists; and every coefficient ring of the package rejects floats and
strings."""

import ast
import functools
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import rankin
from rankin.arith import RATIONALS
from rankin.cyclo import CyclotomicField
from rankin.eisenstein import EisensteinSpec, _GmRing
from rankin.euler import SYM_RING, InterpFactors, interpolation_factors
from rankin.forms import Eigenform, load_bundled
from rankin.groupring import GroupRing
from rankin.poly import PolyRing
from rankin.quotring import QuotRing

ROOT = Path(__file__).resolve().parents[1]


@functools.cache
def _package_trees():
    return [(path, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted((ROOT / "src" / "rankin").glob("*.py"))]


def _third_party_imports():
    names = set()
    for _, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names)


def _declared_dependencies():
    tomllib = pytest.importorskip("tomllib")  # in the stdlib from Python 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", d).group().lower() for d in deps}


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements; soundness checks raise explicitly
    found = [f"{path.name}:{node.lineno}" for path, tree in _package_trees()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_failed_checks_raise_verification_error():
    # a failed internal certificate raises arith.VerificationError, so a
    # catalog witness tells it from a crash; AssertionError itself is not
    # raised in the package
    def raised(node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return exc.id if isinstance(exc, ast.Name) else None

    found = [f"{path.name}:{node.lineno}" for path, tree in _package_trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.Raise) and node.exc is not None
             and raised(node) == "AssertionError"]
    assert found == []


def _function_level_sibling_imports(trees):
    """file:line of each relative import inside a function, except in the
    top-level cmd_* handlers of cli.py."""
    found = []
    for path, tree in trees:
        handlers = set()
        if path.name == "cli.py":
            handlers = {node for node in tree.body if isinstance(node, ast.FunctionDef)
                        and node.name.startswith("cmd_")}
        found += [f"{path.name}:{node.lineno}" for func in ast.walk(tree)
                  if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and func not in handlers
                  for node in ast.walk(func)
                  if isinstance(node, ast.ImportFrom) and node.level > 0]
    return found


def test_no_relative_imports_inside_functions():
    # a sibling imported inside a function would compile, the first time a
    # check calls it, inside that check's timing; the CLI's command handlers
    # are the one exception, so that each command loads only what it uses.
    # Stdlib lazy imports stay allowed
    assert _function_level_sibling_imports(_package_trees()) == []


@pytest.mark.parametrize("name, source, found", [
    ("catalog.py", "def run(cfg):\n    from .siegel import distribution_check\n", 1),
    ("cli.py", "def _emit(report):\n    from .forms import ingest\n", 1),
    ("cli.py", "def cmd_x(args):\n    def inner():\n        from . import forms\n", 1),
    ("cli.py", "class C:\n    def cmd_x(self):\n        from . import forms\n", 1),
    ("cli.py", "def cmd_x(args):\n    from .forms import ingest\n    import json\n", 0),
    ("siegel.py", "def f():\n    from importlib.resources import files\n", 0),
])
def test_sibling_import_guard_can_fail(name, source, found):
    trees = [(Path(name), ast.parse(source))]
    assert len(_function_level_sibling_imports(trees)) == found


def test_ring_element_classes_derive_from_ring_elt():
    # a class with both + and * is a ring element; QSeries is the exception,
    # because its .ring is the ring of its coefficients, not its own
    found = []
    for _, tree in _package_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef) or node.name == "QSeries":
                continue
            methods = {item.name for item in node.body
                       if isinstance(item, ast.FunctionDef)}
            bases = {ast.unparse(base) for base in node.bases}
            if {"__add__", "__mul__"} <= methods:
                found.append((node.name, "RingElt" in bases))
    assert {name for name, _ in found} >= {
        "CycloElt", "GroupRingElt", "MPoly", "QuotElt", "RatFunc"}
    assert [name for name, ok in found if not ok] == []


def test_declared_dependencies_are_the_imports():
    assert _third_party_imports() == _declared_dependencies() == set()


@pytest.mark.parametrize("argv", [
    ["verify-norm-relations", "--identity", "weil-bounds"],
    ["euler-factor", "--f", "src/rankin/data/f11.eigenform",
     "--g", "src/rankin/data/g26.eigenform", "--prime", "3"],
])
def test_runs_without_site_packages(argv):
    # python -S leaves site-packages off sys.path: the stdlib must suffice
    run = subprocess.run([sys.executable, "-S", "-m", "rankin.cli", *argv],
                         capture_output=True, text=True, timeout=120, cwd=ROOT,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert run.returncode == 0, run.stderr
    assert "PASS" in run.stdout


def test_report_survives_python_O(tmp_path, capsys):
    # python -O strips assert statements: the full report must not change
    # apart from its timing fields
    from rankin.cli import main
    paths = [tmp_path / "O.json", tmp_path / "in_process.json"]
    run = subprocess.run([sys.executable, "-O", "-m", "rankin.cli",
                          "verify-norm-relations", "--all", "--json", str(paths[0])],
                         capture_output=True, text=True, timeout=300, cwd=ROOT,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert run.returncode == 0, run.stderr
    assert main(["verify-norm-relations", "--all", "--json", str(paths[1])]) == 0
    capsys.readouterr()
    reports = []
    for path in paths:
        report = json.loads(path.read_text())
        for entry in report["entries"]:
            entry.pop("ms")
        reports.append(report)
    assert reports[0] == reports[1]


MODULES = {f"rankin.{path.stem}" for path in (ROOT / "src" / "rankin").glob("*.py")
           if path.stem != "__init__"}


def _loaded(code):
    """The modules that ``code`` loads in a fresh interpreter."""
    script = (f"import sys\nbefore = set(sys.modules)\n{code}\n"
              "print(' '.join(sorted(set(sys.modules) - before)))")
    run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=300, cwd=ROOT,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert run.returncode == 0, run.stderr
    return set(run.stdout.splitlines()[-1].split())


def _package_modules(loaded):
    return {name for name in loaded if name.startswith("rankin.")}


def test_import_loads_no_code_generation_modules():
    # dataclasses imports inspect, ast, dis and tokenize, and each decorated
    # class execs generated code; the package writes its classes by hand.
    # The CLI and the catalog between them load every module, so none is
    # left out of the check
    added = _loaded("import rankin.cli, rankin.catalog")
    assert MODULES <= added
    assert added & {"dataclasses", "inspect", "ast", "dis", "tokenize"} == set()


def test_bare_import_loads_no_module():
    assert _package_modules(_loaded("import rankin")) == set()


def test_loading_a_form_loads_its_modules_only():
    added = _loaded("import rankin\nrankin.load_bundled('f11.eigenform')")
    assert _package_modules(added) == {"rankin.arith", "rankin.poly", "rankin.quotring",
                                       "rankin.forms", "rankin.data"}


_CLI = "from rankin.cli import main\nassert main({argv!r}) == 0"


@pytest.mark.parametrize("argv, absent", [
    (["hecke-check", "--level", "5", "--prime", "2"],
     {"catalog", "euler", "siegel", "eisenstein", "otsuki"}),
    (["qexp", "--k", "2", "--alpha", "1/5", "--prec", "5"], {"catalog"}),
    (["dist-check", "--m", "2", "--N", "5", "--c", "7", "--prec", "10"], {"catalog"}),
    (["euler-factor", "--f", "src/rankin/data/f11.eigenform",
      "--g", "src/rankin/data/g26.eigenform", "--prime", "3"], {"catalog"}),
    (["otsuki-check"], {"catalog"}),
])
def test_single_check_commands_skip_the_catalog(argv, absent):
    added = _package_modules(_loaded(_CLI.format(argv=argv)))
    assert "rankin.cli" in added
    assert added & {f"rankin.{name}" for name in absent} == set()


def test_catalog_command_loads_every_module():
    added = _loaded(_CLI.format(argv=["verify-norm-relations"]))
    assert MODULES <= added


def test_every_export_is_its_defining_modules_object():
    assert len(rankin.__all__) == 57
    for module, names in rankin._EXPORTS.items():
        defining = importlib.import_module(f"rankin.{module}")
        for name in names:
            assert getattr(rankin, name) is getattr(defining, name), name
    assert sorted(rankin._MODULE_OF) == rankin.__all__


def test_submodules_resolve_after_a_bare_import():
    added = _loaded("import rankin\nassert rankin.eisenstein.EisensteinSpec is "
                    "rankin.EisensteinSpec\nassert rankin.zeta.__name__ == 'rankin.zeta'")
    assert {"rankin.eisenstein", "rankin.zeta"} <= added


def test_star_import_and_dir_cover_every_export():
    namespace = {}
    exec("from rankin import *", namespace)
    assert set(rankin.__all__) <= set(namespace) and len(rankin.__all__) == 57
    assert set(rankin.__all__) <= set(dir(rankin))
    assert "__version__" in dir(rankin)


@pytest.mark.parametrize("name", ["no_such_name", "nosuchmodule", "a.b", "_EXPORT"])
def test_unknown_names_raise_attribute_error(name):
    message = f"module 'rankin' has no attribute '{name}'"
    with pytest.raises(AttributeError, match=f"^{re.escape(message)}$"):
        getattr(rankin, name)
    assert not hasattr(rankin, name)


def test_eisenstein_spec_normalizes_validates_and_compares_by_value():
    spec = EisensteinSpec("E", 2, F(6, 5))
    assert spec.alpha == F(1, 5) and spec.j == 0 and spec.conductor == 5
    assert spec == EisensteinSpec("E", 2, F(1, 5), 0) != EisensteinSpec("E", 2, F(2, 5))
    assert spec.__eq__(("E", 2, F(1, 5), 0)) is NotImplemented
    assert hash(spec) == hash(("E", 2, F(1, 5), 0))
    assert repr(spec) == "EisensteinSpec(family='E', k=2, alpha=Fraction(1, 5), j=0)"
    assert EisensteinSpec("F", 2, F(-4, 5)).alpha == F(1, 5)
    assert EisensteinSpec("E", 4, 3).alpha == 0
    for bad in [("G", 2, F(1, 5)), ("E", 0, F(1, 5)), ("Etilde", 3, F(1, 5)),
                ("F", 2, 0), ("E", 2, F(1, 5), 2), ("E", 2, 0, 1)]:
        with pytest.raises(ValueError):
            EisensteinSpec(*bad)


def test_interpolation_factors_compare_by_value():
    p = SYM_RING.var("p")
    fac = interpolation_factors(p ** 2)
    assert fac == interpolation_factors(p ** 2) != interpolation_factors(p)
    fields = (fac.modification, fac.modification_star, fac.convolution)
    assert fac == InterpFactors(*fields) and fac.__eq__(fields) is NotImplemented
    # the hash is that of the tuple of fields, and RatFunc is unhashable
    for value in (fac, fields):
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    assert repr(fac) == (f"InterpFactors(modification={fields[0]!r}, "
                         f"modification_star={fields[1]!r}, convolution={fields[2]!r})")


def test_eigenforms_get_fresh_default_lists():
    f11 = load_bundled("f11.eigenform")
    one, two = (Eigenform(1, 2, f11.character, f11.ring, {1: f11.ring.one()})
                for _ in range(2))
    one.provenance.append("note")
    one.field_poly.append(1)
    assert two.provenance == [] and two.field_poly == []
    # records compare by identity and hash
    assert one != two and len({one, two, one}) == 2


def _ring_classes():
    """The names of the classes defined in the package that have zero(),
    one() and coerce(): its coefficient rings."""
    found = set()
    for info in pkgutil.iter_modules(rankin.__path__):
        module = importlib.import_module(f"rankin.{info.name}")
        for name, cls in vars(module).items():
            if (isinstance(cls, type) and cls.__module__ == module.__name__
                    and all(hasattr(cls, a) for a in ("zero", "one", "coerce"))):
                found.add(name)
    return found


_SQRT2 = QuotRing([("t", 2, [F(2), F(0)])])
RINGS = {
    "RationalRing": lambda: RATIONALS,
    "CyclotomicField": lambda: CyclotomicField(5),
    "GroupRing": lambda: GroupRing(5),
    "_GmRing": lambda: _GmRing(3, _SQRT2),
    "PolyRing": lambda: PolyRing(("x", "s"), invertible={"s"}),
    "QuotRing": lambda: _SQRT2,
}


def test_every_ring_is_covered():
    # a ring added to the package must join RINGS, and so the test below
    assert _ring_classes() == set(RINGS)


@pytest.mark.parametrize("name", sorted(RINGS))
def test_rings_reject_floats_and_strings(name):
    # exact rings take ints and Fractions only: a float such as 0.1 would
    # enter as its binary expansion
    ring = RINGS[name]()
    assert ring.coerce(F(1, 2)) * 2 == ring.one() == ring.coerce(1)
    for bad in (0.5, "1/2"):
        with pytest.raises(TypeError):
            ring.coerce(bad)
