import os
import sys
import weakref
from concurrent.futures import ProcessPoolExecutor

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from sawkit import counting
from sawkit.graphs import catalog
from sawkit.quotient import build_quotient, sublattice_action, tree_action


@pytest.fixture(scope="session")
def z1():
    return catalog("zd(1)")


@pytest.fixture(scope="session")
def z2():
    return catalog("zd(2)")


@pytest.fixture(scope="session")
def ladder():
    return catalog("ladder")


@pytest.fixture(scope="session")
def sqoct():
    return catalog("square-octagon")


@pytest.fixture(scope="session")
def q_z1mod3(z1):
    return build_quotient(z1, sublattice_action([[3]]))


@pytest.fixture(scope="session")
def q_z2mod22(z2):
    return build_quotient(z2, sublattice_action([[2, 0], [0, 2]]))


@pytest.fixture(scope="session")
def q_z2mod31(z2):
    return build_quotient(z2, sublattice_action([[3, 0], [0, 1]]))


@pytest.fixture(scope="session")
def q_sqoct_ladder(sqoct):
    return build_quotient(sqoct, sublattice_action([[1, -1]]))


@pytest.fixture(scope="session")
def q_tree_end():
    te = catalog("tree-with-end(3)")
    return build_quotient(te, tree_action("child-swap"))


class _Pools(list):
    """The process count of every pool started, in order; pools started
    after ``context`` is set to a multiprocessing context use it."""

    context = None


@pytest.fixture
def spy_pools(monkeypatch):
    """The max_workers of every real pool started, on a host that reports
    two CPUs."""
    pools = _Pools()

    class SpyPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, initializer=None, initargs=()):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers,
                             mp_context=pools.context,
                             initializer=initializer, initargs=initargs)

    monkeypatch.setattr(counting.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(counting, "ProcessPoolExecutor", SpyPool)
    return pools


@pytest.fixture
def forced_pool(spy_pools, monkeypatch):
    """:func:`spy_pools`, with every split count's tasks sent to the pool,
    though most counts here are below the break-even."""
    monkeypatch.setattr(counting, "_POOL_SAMPLE_NODES", 0)
    monkeypatch.setattr(counting, "_POOL_BREAK_EVEN_NODES", 0)
    return spy_pools


@pytest.fixture
def tables(monkeypatch):
    """A weak reference to every id table made."""
    made = []
    init = counting._IdTable.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(weakref.ref(self))

    monkeypatch.setattr(counting._IdTable, "__init__", spy)
    return made
