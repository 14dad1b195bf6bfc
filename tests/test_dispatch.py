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
from degstab.graphs import Graph, Weighting, blow_up, complete, cycle, cycle_complement, join, wheel
from degstab.hom import chromatic_number, clique_number, find_coloring, homomorphism_search

from tests.oracles import mycielskian

# Kernel name -> number of leading graph arguments, then the extra ones.
KERNELS = {
    "hom_search": (2, ()),
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
def test_order_64_goes_to_the_extension_unchanged(routed, name):
    calls = routed()
    graphs, extra = KERNELS[name]
    assert backend.backend_name() == "compiled"
    sent = tuple(_graph(64) for _ in range(graphs))
    assert getattr(backend, name)(*sent, *extra) == "stub"
    [(label, called, args)] = calls
    assert (label, called) == ("stub", name)
    # The very tuples passed in, not copies converted to lists.
    assert all(a is b for a, b in zip(args[:graphs], sent))
    if name == "hom_search":
        # hom_search adds the target record's orbit minima.
        extra = (backend.prepared(sent[1]).minima,)
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


# -- clique-bound refutation --------------------------------------------------


def _clique_vs_wheel_join(r):
    """K_{r+1} and K_{r-3} v W5: clique numbers r + 1 and r."""
    return complete(r + 1).adj, join(complete(r - 3), wheel(5)).adj


@pytest.mark.parametrize("env", [None, "pure"])
def test_clique_bound_refutes_before_either_kernel(routed, env):
    calls = routed(env)
    for r in range(3, 13):
        p_adj, t_adj = _clique_vs_wheel_join(r)
        assert backend.hom_search(p_adj, t_adj) == (None, 0)
        assert backend.clique_number(t_adj) == r
    # A nonempty pattern has no map into the empty graph either.
    assert backend.hom_search(complete(1).adj, ()) == (None, 0)
    assert calls == []


@pytest.mark.parametrize("env", [None, "pure"])
def test_unrefuted_call_returns_what_the_kernel_returns(routed, env):
    calls = routed(env)
    label = "pure" if env else "stub"
    # The boundary: the greedy clique of K3 and the clique number of W5 are
    # both 3, and K3 -> W5 exists.
    assert backend.hom_search(complete(3).adj, wheel(5).adj) == label
    # C5 -> C7 does not exist, but the bound (2 against 2) cannot show it.
    assert backend.hom_search(cycle(5).adj, cycle(7).adj) == label
    assert [(kind, name) for kind, name, _ in calls] == [(label, "hom_search")] * 2


def test_exact_clique_number_only_when_greedy_cannot_decide(routed, monkeypatch):
    routed("pure")
    exact = []
    real = backend.clique_number
    monkeypatch.setattr(backend, "clique_number", lambda adj: exact.append(adj) or real(adj))
    # The target's greedy clique already matches the pattern's: no exact search.
    backend.hom_search(complete(3).adj, wheel(5).adj)
    assert exact == []
    assert backend.hom_search(complete(4).adj, wheel(5).adj) == (None, 0)
    assert exact == [wheel(5).adj]
    # The record keeps it: the same refutation again runs no search.
    assert backend.hom_search(complete(4).adj, wheel(5).adj) == (None, 0)
    assert exact == [wheel(5).adj]


def test_clique_number_of_any_graph_leaves_the_target_memo_alone():
    backend.prepared.cache_clear()
    assert clique_number(join(complete(2), cycle(7))) == 4
    assert backend.prepared.cache_info().currsize == 0


def test_result_does_not_depend_on_the_target_memo():
    # M_1(C_7) -> C7bar does not exist, and symmetry cuts its search.
    p, t = mycielskian(cycle(7), 1).adj, cycle_complement(7).adj
    backend.prepared.cache_clear()
    cold = backend.hom_search(p, t)
    assert backend.hom_search(p, t) == cold
    assert cold[0] is None and 0 < cold[1] < _purecore.hom_search(p, t)[1]
    # Through hom, with the memo cleared before each call that reads a
    # pattern's record: K4 is refuted by its clique, and the blow-up of
    # M_1(C_7) has twins, so its search reads two records.
    twins = blow_up(Weighting(mycielskian(cycle(7), 1), (2,) + (1,) * 14))
    calls = [
        lambda: homomorphism_search(Graph(len(p), p), Graph(len(t), t)),
        lambda: homomorphism_search(twins, cycle_complement(7)),
        lambda: homomorphism_search(complete(4), cycle_complement(7)),
        lambda: homomorphism_search(complete(3), cycle_complement(7)),
        lambda: chromatic_number(twins),
        lambda: find_coloring(twins, 4),
    ]
    warm = [call() for call in calls]
    assert warm[0] == warm[1] == (None, cold[1]) and warm[2] == (None, 0)
    for call, expected in zip(calls, warm):
        backend.prepared.cache_clear()
        assert call() == expected
