"""Every top-level import of the package and the tests is used, every name a
package module exports is defined there, every package definition and export is
read by the package, the benchmark or the acceptance gate, and the test oracles
read no private name of the package; importing the package keeps freed heap in
the process, and each CLI command loads only the package modules it runs."""

import ast
import ctypes
import json
import os
import subprocess
import sys
from itertools import chain
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "qflag").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def exports(tree: ast.Module) -> list[str]:
    """The names the module's ``__all__`` lists."""
    return [elt.value for stmt in tree.body if isinstance(stmt, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
            for elt in stmt.value.elts]


def unused_imports(source: str) -> list[str]:
    """The names bound by the module's top-level imports (``__future__`` aside) that
    no expression reads and ``__all__`` does not list."""
    tree = ast.parse(source)
    bound = [(alias.asname or alias.name).split(".")[0]
             for stmt in tree.body
             if isinstance(stmt, (ast.Import, ast.ImportFrom))
             and getattr(stmt, "module", None) != "__future__"
             for alias in stmt.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read | set(exports(tree))]


@pytest.mark.parametrize("path", MODULES, ids=[p.relative_to(ROOT).as_posix() for p in MODULES])
def test_every_top_level_import_is_used(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("source, unused", [
    ("import os\n", ["os"]),
    ("import os\nos = 1\n", ["os"]),
    ("import os.path\nos.getcwd()\n", []),
    ("from a import b as c, d\nd()\n", ["c"]),
    ("from __future__ import annotations\n", []),
    ("from .m import f\n__all__ = ['f']\n", []),
    ("import numpy as np\ndef f(x: np.ndarray): pass\n", []),
])
def test_unused_imports_finds_exactly_the_unread_names(source, unused):
    assert unused_imports(source) == unused


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """The top-level def, class or assignment that binds each name of the module."""
    bound = {}
    for stmt in tree.body:
        if isinstance(stmt, DEFINITIONS):
            bound[stmt.name] = stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            bound.update((t.id, stmt) for t in targets if isinstance(t, ast.Name))
    return bound


def undefined_exports(source: str) -> list[str]:
    """The names in the module's ``__all__`` that no top-level def, class or assignment
    of the module binds: an imported name is defined elsewhere."""
    tree = ast.parse(source)
    return [name for name in exports(tree) if name not in definitions(tree)]


PACKAGE = sorted((ROOT / "src" / "qflag").glob("*.py"))


@pytest.mark.parametrize("path", PACKAGE, ids=[p.name for p in PACKAGE])
def test_every_export_is_defined(path):
    # a function removed without its __all__ entry would break ``from qflag.x import *``
    assert undefined_exports(path.read_text()) == []


@pytest.mark.parametrize("source, undefined", [
    ("__all__ = ['f']\n", ["f"]),
    ("def f(): pass\nclass C: pass\nX = 1\nY: int = 2\n__all__ = ['f', 'C', 'X', 'Y']\n", []),
    ("from .m import f\ng = 1\n__all__ = ['f', 'g']\n", ["f"]),
])
def test_undefined_exports_finds_exactly_the_unbound_names(source, undefined):
    assert undefined_exports(source) == undefined


def reads(node: ast.AST) -> set[str]:
    """The names an expression under ``node`` reads, bare or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
            or isinstance(n, ast.Attribute)}


def dead_definitions(sources: dict[str, str], readers: dict[str, str] | None = None) -> list[str]:
    """``module.name`` of each top-level def or class, and each name the module's
    ``__all__`` lists, that nothing outside its own statement reads: no other
    top-level statement of the modules and no module of ``readers``.  Listing a
    name in ``__all__`` does not read it."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    read_by = [(stmt, reads(stmt)) for tree in trees.values() for stmt in tree.body]
    read_by += [(None, reads(ast.parse(src))) for src in (readers or {}).values()]
    dead = []
    for mod, tree in trees.items():
        bound = definitions(tree)
        checked = [name for name, stmt in bound.items() if isinstance(stmt, DEFINITIONS)]
        checked += [name for name in exports(tree) if name not in checked]
        dead += [f"{mod}.{name}" for name in checked
                 if not any(name in names for other, names in read_by
                            if other is None or other is not bound.get(name))]
    return dead


# what the CLI, the benchmark and the acceptance gate run; the unit tests do not count
READERS = [*(ROOT / "perfbench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]


def reader_sources() -> dict[str, str]:
    return {p.relative_to(ROOT).as_posix(): p.read_text() for p in READERS}


def test_every_definition_is_exported_or_read():
    # a helper whose last caller is gone, like a block embedding a loop no longer
    # needs, would otherwise stay behind as untested API; so would an export that
    # only the unit tests read
    assert dead_definitions({p.stem: p.read_text() for p in PACKAGE}, reader_sources()) == []


@pytest.mark.parametrize("sources, dead", [
    ({"a": "def f(): pass\n"}, ["a.f"]),
    ({"a": "def f(): return f()\n"}, ["a.f"]),
    ({"a": "def f(): pass\n__all__ = ['f']\n"}, ["a.f"]),
    ({"a": "def _f(): pass\ndef g(): _f()\n__all__ = ['g']\n"}, ["a.g"]),
    ({"a": "class C: pass\n", "b": "from .a import C\nx = C()\n"}, []),
    ({"a": "def f(): pass\n", "b": "from . import a\na.f()\n"}, []),
    ({"a": "def f(): pass\n", "b": "from .a import f\n"}, ["a.f"]),
    ({"a": "X = 1\n__all__ = ['X']\n"}, ["a.X"]),
    ({"a": "X = 1\ndef f(): return X\n__all__ = ['X', 'f']\n"}, ["a.f"]),
    ({"a": "X: int = 1\nY = X\n__all__ = ['X']\n"}, []),
    ({"a": "X = Y = 1\n__all__ = ['X', 'Y']\n"}, ["a.X", "a.Y"]),
    ({"a": "from .b import f\n__all__ = ['f']\n", "b": "def f(): pass\n"}, ["a.f", "b.f"]),
])
def test_dead_definitions_finds_exactly_the_unread_ones(sources, dead):
    assert dead_definitions(sources) == dead


@pytest.mark.parametrize("sources, readers, dead", [
    ({"a": "X = 1\ndef f(): pass\n__all__ = ['X', 'f']\n"}, {"r": "from qflag.a import f\nf()\n"},
     ["a.X"]),
    ({"a": "X = 1\n__all__ = ['X']\n"}, {"r": "import qflag.a\nqflag.a.X\n"}, []),
    ({"a": "def f(): pass\n"}, {"r": "from qflag.a import f\n"}, ["a.f"]),
    ({"a": "def f(): pass\n__all__ = ['f']\n"}, {"r": "__all__ = ['f']\n"}, ["a.f"]),
])
def test_dead_definitions_counts_what_the_readers_read(sources, readers, dead):
    assert dead_definitions(sources, readers) == dead


def dead_methods(package: dict[str, str], readers: dict[str, str]) -> list[str]:
    """``module.Class.name`` of each method of a top-level class in ``package``, dunders
    aside, that nothing outside its own body reads, in ``package`` or ``readers``: a
    static or class method where ``Class.name`` or ``cls.name`` is loaded, any other
    where an attribute of that name is."""
    trees = {mod: ast.parse(src) for mod, src in package.items()}

    def attrs(node: ast.AST) -> list[tuple[str | None, str]]:
        """(the name or attribute it is read off, the attribute) of each attribute load."""
        return [(getattr(n.value, "id", getattr(n.value, "attr", None)), n.attr)
                for n in ast.walk(node) if isinstance(n, ast.Attribute)
                and isinstance(n.ctx, ast.Load)]

    read = [*chain(*map(attrs, trees.values())), *chain(*(attrs(ast.parse(src))
                                                          for src in readers.values()))]

    def loads(cls: ast.ClassDef, fn: ast.FunctionDef, pairs: list) -> int:
        static = any(isinstance(d, ast.Name) and d.id in ("staticmethod", "classmethod")
                     for d in fn.decorator_list)
        return sum(attr == fn.name and (not static or owner in (cls.name, "cls"))
                   for owner, attr in pairs)

    return [f"{mod}.{cls.name}.{fn.name}" for mod, tree in trees.items() for cls in tree.body
            if isinstance(cls, ast.ClassDef) for fn in cls.body
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (fn.name.startswith("__") and fn.name.endswith("__"))
            and loads(cls, fn, read) == loads(cls, fn, attrs(fn))]


def test_every_method_is_read_outside_the_unit_tests():
    # a method that only unit tests call is API nothing runs; it belongs in tests/util.py
    assert dead_methods({p.stem: p.read_text() for p in PACKAGE}, reader_sources()) == []


METHOD = "class C:\n    def f(self): pass\n"
STATIC_METHOD = "class C:\n    @staticmethod\n    def f(): pass\n"


@pytest.mark.parametrize("package, readers, dead", [
    ({"a": METHOD}, {}, ["a.C.f"]),
    ({"a": "class C:\n    def f(self): return self.f()\n"}, {}, ["a.C.f"]),
    ({"a": METHOD + "    def g(self): return self.f()\n"}, {}, ["a.C.g"]),
    ({"a": METHOD, "b": "from .a import C\nC().f()\n"}, {}, []),
    ({"a": METHOD}, {"r": "x.f\n"}, []),
    ({"a": METHOD}, {"r": "f()\nx.f = 1\n"}, ["a.C.f"]),
    ({"a": "class C:\n    def __init__(self): pass\n    @property\n    def p(self): return 1\n"},
     {"r": "C().p\n"}, []),
    ({"a": "def g():\n    class C:\n        def f(self): pass\n"}, {}, []),
    ({"a": STATIC_METHOD}, {"r": "C.f()\n"}, []),
    ({"a": STATIC_METHOD}, {"r": "D.f()\nx.f()\nC().f\n"}, ["a.C.f"]),
    ({"a": STATIC_METHOD + "    @classmethod\n    def g(cls): return cls.f()\n"}, {"r": "C.g()\n"},
     []),
    ({"a": STATIC_METHOD + "    @staticmethod\n    def g(): return C.g()\n"}, {"r": "C.f()\n"},
     ["a.C.g"]),
    ({"a": "class C:\n    @classmethod\n    def f(cls): pass\n"}, {"r": "from . import a\na.C.f()\n"},
     []),
])
def test_dead_methods_finds_exactly_the_unread_ones(package, readers, dead):
    assert dead_methods(package, readers) == dead


def private_package_reads(source: str) -> list[str]:
    """Each private name of ``qflag`` the module imports (``qflag.module._name``) or
    reads as an attribute of a name that a ``qflag`` import binds (``name._attr``)."""
    tree = ast.parse(source)
    bound, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qflag":
            bound |= {alias.asname or alias.name for alias in node.names}
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if alias.name.startswith("_") and not alias.name.endswith("__")]
        elif isinstance(node, ast.Import):
            bound |= {(alias.asname or alias.name).split(".")[0] for alias in node.names
                      if alias.name.split(".")[0] == "qflag"}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.endswith("__")):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                found.append(ast.unparse(node))
    return found


def test_the_oracles_read_no_private_name_of_the_package():
    # an oracle that calls a private kernel of qflag checks that kernel against itself
    assert private_package_reads((ROOT / "tests" / "util.py").read_text()) == []


@pytest.mark.parametrize("source, found", [
    ("from qflag.liealg import _collect\n", ["qflag.liealg._collect"]),
    ("from qflag.liealg import _rank as rank, sp_basis\n", ["qflag.liealg._rank"]),
    ("from qflag import hp1geom\nhp1geom._jacobians(1, 2)\n", ["hp1geom._jacobians"]),
    ("import qflag.liealg as la\nla._rank\n", ["la._rank"]),
    ("import qflag.liealg\nqflag.liealg._rank\n", ["qflag.liealg._rank"]),
    ("from qflag.liealg import Multivector\nMultivector._of\n", ["Multivector._of"]),
    ("from qflag import __version__\nfrom qflag.hmat import QMatrix\nQMatrix.__matmul__\n", []),
    ("from qflag.hmat import chi\ndef _t(): pass\n_t()\n", []),
    ("import numpy as np\nnp._NoValue\nfrom functools import _lru_cache_wrapper\n", []),
])
def test_private_package_reads_finds_exactly_the_private_names(source, found):
    assert private_package_reads(source) == found


def private_cache_reads(sources: dict[str, str]) -> list[str]:
    """``reader: owner.name`` for each private ``lru_cache`` table of module ``owner``
    that another module imports by name or reads as an attribute of ``owner``."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    cached = {(mod, stmt.name) for mod, tree in trees.items() for stmt in tree.body
              if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("_")
              and any("lru_cache" in reads(dec) for dec in stmt.decorator_list)}
    found = []
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                pairs = [(node.module.rsplit(".", 1)[-1], alias.name) for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                pairs = [(node.value.id, node.attr)]
            else:
                continue
            found += [f"{mod}: {owner}.{name}" for owner, name in pairs
                      if owner != mod and (owner, name) in cached]
    return found


def test_no_module_reads_another_modules_private_cache():
    # a table private to its module has one reader there; a second module that
    # contracts it itself holds a copy of that reader's formula
    assert private_cache_reads({p.stem: p.read_text() for p in PACKAGE}) == []


CACHED = "from functools import lru_cache\n@lru_cache(maxsize=None)\ndef _t(n): return n\n"


@pytest.mark.parametrize("sources, found", [
    ({"a": CACHED, "b": "from .a import _t\n"}, ["b: a._t"]),
    ({"a": CACHED, "b": "from qflag.a import _t as t\n"}, ["b: a._t"]),
    ({"a": CACHED, "b": "from . import a\nx = a._t(2)\n"}, ["b: a._t"]),
    ({"a": CACHED + "x = _t(2)\n"}, []),
    ({"a": CACHED.replace("_t", "t"), "b": "from .a import t\n"}, []),
    ({"a": "def _t(n): return n\n", "b": "from .a import _t\n"}, []),
    ({"a": CACHED.replace("@lru_cache(maxsize=None)", "@functools.lru_cache"),
      "b": "from .a import _t\n"}, ["b: a._t"]),
])
def test_private_cache_reads_finds_exactly_the_foreign_readers(sources, found):
    assert private_cache_reads(sources) == found


# the size of every lru_cache in qflag.* after a fresh process imports every module of qflag
CACHE_SIZES = """
import importlib, json, pkgutil, sys
import qflag
for info in pkgutil.iter_modules(qflag.__path__):
    importlib.import_module(f"qflag.{info.name}")
print(json.dumps({f"{name}.{attr}": f.cache_info().currsize for name, mod in list(sys.modules.items())
                  if name.startswith("qflag") for attr, f in vars(mod).items() if hasattr(f, "cache_info")}))
"""


def test_importing_the_cli_fills_no_cache():
    # a table built at import time would be paid by every cold start of a command
    # that loads its module
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    sizes = json.loads(subprocess.run([sys.executable, "-c", CACHE_SIZES], env=env, check=True,
                                      capture_output=True, text=True).stdout)
    assert "qflag.hp1geom._jacobian_table" in sizes
    assert {name: size for name, size in sizes.items() if size} == {}


# the qflag.* modules a fresh process holds after importing the CLI and running
# the command given as its arguments, if any, with the result sent to --out
LOADED = """
import json, sys
from qflag import cli
if sys.argv[1:]:
    assert cli.main(sys.argv[1:]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith("qflag"))))
"""
BASE = ["qflag", "qflag.cli", "qflag.hmat", "qflag.quat"]
WITH_DECOMP = BASE + ["qflag.decomp"]
WITH_FLAGS = WITH_DECOMP + ["qflag.chart", "qflag.flags"]
WITH_LIEALG = BASE + ["qflag.liealg"]
WITH_HP1GEOM = WITH_LIEALG + ["qflag.chart", "qflag.hp1geom"]


# each command's argv (a matrix file in braces) and the qflag.* modules it loads;
# "import" imports the CLI alone
FOOTPRINT = {
    "import": ([], BASE),
    "decompose-bruhat": (["decompose", "bruhat", "--input", "{m}"], WITH_DECOMP),
    "decompose-iwasawa": (["decompose", "iwasawa", "--input", "{m}"], WITH_DECOMP),
    "ddet": (["ddet", "--input", "{m}"], WITH_DECOMP),
    "dress": (["dress", "--g", "{m}", "--k", "{m}"], WITH_DECOMP),
    "leaf": (["leaf", "--word", "1 2", "--n", "3"], WITH_FLAGS),
    "verify-leaves": (["verify", "leaves", "--n", "3"], WITH_FLAGS),
    "verify-dressing": (["verify", "dressing", "--n", "2"], WITH_FLAGS),
    "verify-lambda": (["verify", "lambda", "--n", "3"], WITH_LIEALG),
    "verify-spheroid": (["verify", "spheroid", "--n", "3"], WITH_LIEALG),
    "verify-schouten": (["verify", "schouten", "--n", "2"], WITH_LIEALG),
    "verify-hp1": (["verify", "hp1"], WITH_HP1GEOM),
    "profile": (["profile", "--rho-min", "1", "--rho-max", "2", "--steps", "2"], WITH_HP1GEOM),
}


@pytest.mark.parametrize("argv, modules", FOOTPRINT.values(), ids=FOOTPRINT)
def test_each_command_loads_only_the_modules_it_runs(argv, modules, tmp_path):
    # a cold start compiles and executes every module it loads, run or not: a
    # top-level import of the CLI costs every command that module's load
    (tmp_path / "m.json").write_text('{"rows": 1, "cols": 1, "entries": [[[1, 0, 0, 0]]]}')
    argv = [a.format(m=tmp_path / "m.json") for a in argv] + (["--out", str(tmp_path / "out")]
                                                              if argv else [])
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    loaded = json.loads(subprocess.run([sys.executable, "-c", LOADED, *argv], env=env, check=True,
                                       capture_output=True, text=True).stdout)
    assert loaded == sorted(modules)


# minor page faults per round of Ad on Lambda_3 and on the moved Lambda_3, and of
# bruhat and expm at n = 32, after a warm-up
FAULTS = """
import resource
import numpy as np
import qflag
from qflag.decomp import bruhat
from qflag.hmat import QMatrix, expm, random_sp_algebra, random_symplectic
from qflag.liealg import ad_group, lambda_element
rng = np.random.default_rng(0)
lam, g = lambda_element(3), random_symplectic(3, rng)
moved = ad_group(g, lam) - lam
a, x = QMatrix(rng.normal(size=(32, 32, 4))), random_sp_algebra(32, rng)
def one_round():
    ad_group(g, lam), ad_group(g, moved), bruhat(a), expm(x)
for _ in range(3):
    one_round()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    one_round()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(sys.platform != "linux" or not hasattr(ctypes.CDLL(None), "mallopt"),
                    reason="the import sets glibc's mallopt parameters, and this libc has none")
def test_repeated_calls_fault_in_no_fresh_pages():
    # with glibc's defaults each call maps its 352 KB apply_exterior transients
    # afresh, and trimming hands smaller ones back: about 320 faults a round
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", FAULTS], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert float(out) < 1.0
