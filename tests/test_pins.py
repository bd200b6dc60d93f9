"""Names other code binds to: the benchmark tracer's pins and the package's exports.

perfbench/tracing.py rebinds each (owner, attribute) of its TIMED and
COUNTED tables, reading the attribute from the owner's __dict__; a pin whose
name has gone fails the traced benchmark run. These tests fail first. The
tracer module is loaded from its file and only read. A name a module imports
and never reads must be one of those pins. No module imports a private
(underscore-prefixed) name of another afcsim module: what two modules share
is public.
"""

import ast
import importlib
import importlib.util
import inspect
import pathlib

import pytest

import afcsim
from afcsim import server

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
SRC = pathlib.Path(afcsim.__file__).parent


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()
PINS = [(name, owner, attr) for name, owners in tracing.TIMED + tracing.COUNTED for owner, attr in owners]


@pytest.mark.parametrize("name, owner, attr", PINS, ids=[f"{owner}.{attr}" for _, owner, attr in PINS])
def test_every_traced_pin_resolves(name, owner, attr):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    if cls:
        obj = getattr(obj, cls)
    assert attr in obj.__dict__, f"{name}: {owner} has no attribute {attr}"
    assert callable(obj.__dict__[attr])


def test_binding_outcome_reads_prot_as_the_fifth_argument():
    # The tracer's binding counter reads prot as args[4] of a positional call.
    assert "propagation.max_permissible_eirp_dbm" in tracing.OUTCOMES
    params = list(inspect.signature(server.max_permissible_eirp_dbm).parameters)
    assert params[4] == "prot"


def test_every_exported_name_resolves():
    assert len(set(afcsim.__all__)) == len(afcsim.__all__)
    for name in afcsim.__all__:
        assert hasattr(afcsim, name), name


def _unread_imports(path: pathlib.Path) -> set[str]:
    """The names the module at path imports at module level and never reads."""
    tree = ast.parse(path.read_text())
    imported = {
        alias.asname or alias.name.partition(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return imported - read


MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_module_imports_a_name_it_never_reads(path):
    module = f"afcsim.{path.stem}"
    bound = {attr for _, owner, attr in PINS if owner == module}
    assert _unread_imports(path) <= bound, f"{module} imports names it never reads"


def _private_imports(path: pathlib.Path) -> set[str]:
    """The underscore-prefixed names the module at path imports from an afcsim module."""
    return {
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("afcsim"))
        for alias in node.names
        if alias.name.startswith("_")
    }


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_imports_a_private_name(path):
    assert _private_imports(path) == set(), f"afcsim.{path.stem} imports private names"
