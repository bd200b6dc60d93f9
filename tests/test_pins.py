"""Names other code binds to: the benchmark tracer's pins and the package's exports.

perfbench/tracing.py rebinds each (owner, attribute) of its TIMED and
COUNTED tables, reading the attribute from the owner's __dict__; a pin whose
name has gone fails the traced benchmark run. These tests fail first. The
tracer module is loaded from its file and only read.
"""

import importlib
import importlib.util
import inspect
import pathlib

import pytest

import afcsim
from afcsim import server

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
