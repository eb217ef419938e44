"""Fixtures shared by the test modules."""
import pytest

from ssfp.graph_core import EdgePipeSet


def _pair_set(graph, items):
    """The set of ``(pipe, (u, v))`` items, each edge given by its endpoints."""
    return EdgePipeSet(frozenset((p, graph.edge_id(u, v)) for p, (u, v) in items))


@pytest.fixture(scope="session")
def pair_set():
    return _pair_set
