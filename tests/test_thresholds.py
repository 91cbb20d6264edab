"""Every numerical threshold of the library is documented in README.md,
README.md's threshold list names no threshold the library lacks, and every
threshold it lists is read by name in another test module."""

import ast
import re
from pathlib import Path

import pytest

from qflag import cli, decomp, flags, hmat, hp1geom, liealg

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
THRESHOLDS = sorted({(mod.__name__, name) for mod in (cli, decomp, flags, hmat, hp1geom, liealg)
                     for name, value in vars(mod).items()
                     if name.isupper() and isinstance(value, float)})


@pytest.mark.parametrize("module, name", THRESHOLDS, ids=[n for _, n in THRESHOLDS])
def test_threshold_is_named_in_readme(module, name):
    assert f"`{name}" in README, f"{module}.{name} has no entry in README.md"


# the `NAME = value` entries of README.md's "Numerical thresholds" section
LISTED = re.findall(r"`([A-Z][A-Z0-9_]*) = ",
                    README.split("## Numerical thresholds", 1)[1].split("\n## ", 1)[0])


def test_readme_lists_thresholds():
    assert LISTED


@pytest.mark.parametrize("name", LISTED)
def test_readme_threshold_is_defined(name):
    assert name in {n for _, n in THRESHOLDS}, f"README.md lists {name}, which no module defines"


def names_read(source: str) -> set[str]:
    """The names and attributes that the module's expressions read."""
    nodes = list(ast.walk(ast.parse(source)))
    return ({node.id for node in nodes if isinstance(node, ast.Name)
             and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in nodes if isinstance(node, ast.Attribute)})


READ_BY_TESTS = set().union(*(names_read(path.read_text())
                              for path in Path(__file__).resolve().parent.glob("test_*.py")
                              if path.name != Path(__file__).name))


@pytest.mark.parametrize("name", LISTED)
def test_readme_threshold_is_read_by_a_test(name):
    # a test near a threshold's edge reads it by name
    assert name in READ_BY_TESTS, f"README.md lists {name}, which no other test module reads"
