"""Kernel dispatch in ``degstab.backend``, exercised without a compiled
extension: a stub ``degstab._fastcore`` records its calls, and the pure
kernels are replaced by recorders so order-65 inputs cost nothing."""

import importlib
import sys
import types

import pytest

import degstab
from degstab import _purecore, backend
from degstab.backend import backend_name, has_compiled_backend

# Kernel name -> number of leading graph arguments, then the extra ones.
KERNELS = {
    "hom_search": (2, ()),
    "brute_hom": (2, ()),
    "color_search": (1, (3,)),
    "min_edits": (1, (2,)),
    "odd_girth": (1, ()),
}


def test_backend_is_reported():
    assert backend_name() in {"compiled", "pure"}
    assert has_compiled_backend() in {True, False}


def _recorder(calls, label, name):
    def kernel(*args):
        calls.append((label, name, args))
        return label

    return kernel


@pytest.fixture
def routed(monkeypatch):
    """Yields install(env=None), which reloads backend with a recording stub
    extension and recording pure kernels, with DEGSTAB_BACKEND set to env
    if given, and returns the call log. Restores the real backend after."""

    def install(env=None):
        calls = []
        stub = types.ModuleType("degstab._fastcore")
        for name in KERNELS:
            setattr(stub, name, _recorder(calls, "stub", name))
            monkeypatch.setattr(_purecore, name, _recorder(calls, "pure", name))
        monkeypatch.setitem(sys.modules, "degstab._fastcore", stub)
        monkeypatch.setattr(degstab, "_fastcore", stub, raising=False)
        if env is None:
            monkeypatch.delenv("DEGSTAB_BACKEND", raising=False)
        else:
            monkeypatch.setenv("DEGSTAB_BACKEND", env)
        importlib.reload(backend)
        return calls

    yield install
    monkeypatch.undo()
    importlib.reload(backend)


def _graph(order):
    return (0,) * order


def _call(name, orders):
    graphs, extra = KERNELS[name]
    assert len(orders) == graphs
    return getattr(backend, name)(*map(_graph, orders), *extra)


@pytest.mark.parametrize("name", KERNELS)
def test_order_64_goes_to_the_extension_as_lists(routed, name):
    calls = routed()
    graphs, extra = KERNELS[name]
    assert backend.backend_name() == "compiled"
    assert _call(name, (64,) * graphs) == "stub"
    [(label, called, args)] = calls
    assert (label, called) == ("stub", name)
    assert [type(a) for a in args[:graphs]] == [list] * graphs
    assert [len(a) for a in args[:graphs]] == [64] * graphs
    assert args[graphs:] == extra


@pytest.mark.parametrize("name", KERNELS)
def test_order_65_in_any_graph_argument_goes_to_pure(routed, name):
    calls = routed()
    graphs, _ = KERNELS[name]
    for big in range(graphs):
        orders = tuple(65 if i == big else 3 for i in range(graphs))
        calls.clear()
        assert _call(name, orders) == "pure"
        [(label, called, args)] = calls
        assert (label, called) == ("pure", name)
        assert [len(a) for a in args[:graphs]] == list(orders)


@pytest.mark.parametrize("name", KERNELS)
def test_kernel_names(name):
    assert getattr(backend, name).__name__ == name


def test_environment_forces_pure(routed):
    calls = routed("pure")
    assert backend.backend_name() == "pure"
    assert not backend.has_compiled_backend()
    for name, (graphs, _) in KERNELS.items():
        assert _call(name, (3,) * graphs) == "pure"
    assert {label for label, _, _ in calls} == {"pure"}
    assert [name for _, name, _ in calls] == list(KERNELS)

