"""Every top-level import of the package and the tests is used, every name a
package module exports is defined there, and every package definition is
exported or read; importing the package keeps freed heap in the process."""

import ast
import ctypes
import json
import os
import subprocess
import sys
from collections import Counter
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


def undefined_exports(source: str) -> list[str]:
    """The names in the module's ``__all__`` that no top-level def, class or assignment
    of the module binds: an imported name is defined elsewhere."""
    tree = ast.parse(source)
    bound = {target.id for stmt in tree.body if isinstance(stmt, (ast.Assign, ast.AnnAssign))
             for target in (stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target])
             if isinstance(target, ast.Name)}
    bound |= {stmt.name for stmt in tree.body
              if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    return [name for name in exports(tree) if name not in bound]


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


def dead_definitions(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each top-level def or class that its module's ``__all__`` does
    not list and that nothing outside its own body reads, in any of the modules."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    read_by = [(stmt, reads(stmt)) for tree in trees.values() for stmt in tree.body]
    return [f"{mod}.{stmt.name}" for mod, tree in trees.items() for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and stmt.name not in exports(tree)
            and not any(stmt.name in names for other, names in read_by if other is not stmt)]


def test_every_definition_is_exported_or_read():
    # a helper whose last caller is gone, like a block embedding a loop no longer
    # needs, would otherwise stay behind as untested API
    assert dead_definitions({p.stem: p.read_text() for p in PACKAGE}) == []


@pytest.mark.parametrize("sources, dead", [
    ({"a": "def f(): pass\n"}, ["a.f"]),
    ({"a": "def f(): return f()\n"}, ["a.f"]),
    ({"a": "def f(): pass\n__all__ = ['f']\n"}, []),
    ({"a": "def _f(): pass\ndef g(): _f()\n__all__ = ['g']\n"}, []),
    ({"a": "class C: pass\n", "b": "from .a import C\nx = C()\n"}, []),
    ({"a": "def f(): pass\n", "b": "from . import a\na.f()\n"}, []),
    ({"a": "def f(): pass\n", "b": "from .a import f\n"}, ["a.f"]),
])
def test_dead_definitions_finds_exactly_the_unread_ones(sources, dead):
    assert dead_definitions(sources) == dead


def dead_methods(package: dict[str, str], readers: dict[str, str]) -> list[str]:
    """``module.Class.name`` of each method of a top-level class in ``package``, dunders
    aside, whose name no attribute read outside its own body names, in ``package`` or
    ``readers``."""
    trees = {mod: ast.parse(src) for mod, src in package.items()}

    def attrs(node: ast.AST) -> list[str]:
        return [n.attr for n in ast.walk(node)
                if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)]

    read = Counter(chain(*map(attrs, trees.values()),
                         *(attrs(ast.parse(src)) for src in readers.values())))
    return [f"{mod}.{cls.name}.{fn.name}" for mod, tree in trees.items() for cls in tree.body
            if isinstance(cls, ast.ClassDef) for fn in cls.body
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (fn.name.startswith("__") and fn.name.endswith("__"))
            and read[fn.name] == attrs(fn).count(fn.name)]


# what the CLI, the benchmark and the acceptance gate run; the unit tests do not count
READERS = [*(ROOT / "perfbench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]


def test_every_method_is_read_outside_the_unit_tests():
    # a method that only unit tests call is API nothing runs; it belongs in tests/util.py
    readers = {p.relative_to(ROOT).as_posix(): p.read_text() for p in READERS}
    assert dead_methods({p.stem: p.read_text() for p in PACKAGE}, readers) == []


METHOD = "class C:\n    def f(self): pass\n"


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
])
def test_dead_methods_finds_exactly_the_unread_ones(package, readers, dead):
    assert dead_methods(package, readers) == dead


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


# the size of every lru_cache in qflag.* after a fresh ``import qflag.cli``
CACHE_SIZES = """
import json, sys
import qflag.cli
print(json.dumps({f"{name}.{attr}": f.cache_info().currsize for name, mod in list(sys.modules.items())
                  if name.startswith("qflag") for attr, f in vars(mod).items() if hasattr(f, "cache_info")}))
"""


def test_importing_the_cli_fills_no_cache():
    # a table built at import time would be paid by every cold start of the CLI
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    sizes = json.loads(subprocess.run([sys.executable, "-c", CACHE_SIZES], env=env, check=True,
                                      capture_output=True, text=True).stdout)
    assert "qflag.hp1geom._jacobian_table" in sizes
    assert {name: size for name, size in sizes.items() if size} == {}


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
