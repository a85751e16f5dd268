"""Shared fixtures: one session-wide SpectrumCache, the hypothesis
settings every property test uses, and the graph helpers several test
modules share (building from an edge list, converting to and from
networkx).

SR graphs, their spectra and the Gamma classifications are needed by many
tests and by several acceptance criteria; the cache the verification
battery uses computes each once per session, which keeps the suite inside
its runtime budget without changing any assertion.  The terminal summary
hook replays the one-line-per-criterion acceptance record, which default
capture would otherwise swallow.
"""

import sys

import networkx as nx
import pytest
from hypothesis import settings

from rooklab.graphs import Graph
from rooklab.verify import SpectrumCache

# Fixed seed: the suite runs the same examples every time.
property_test = settings(max_examples=150, deadline=None, derandomize=True)


def from_edges(labels, edges):
    """The graph on `labels` whose edges are the given label pairs."""
    labels = tuple(labels)
    index = {lab: i for i, lab in enumerate(labels)}
    rows = [0] * len(labels)
    for a, b in edges:
        i, j = index[a], index[b]
        assert i != j, "loops are not allowed"
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return Graph(labels, rows)


def bits(row):
    """The set bits of a bit row, lowest first."""
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.order))
    h.add_edges_from(g.edges())
    return h


def nx_decode(text):
    h = nx.from_graph6_bytes(text.encode())
    return from_edges(range(h.number_of_nodes()), h.edges())


@pytest.fixture(scope="session")
def spectrum_cache():
    return SpectrumCache()


@pytest.fixture(scope="session")
def sr(spectrum_cache):
    return spectrum_cache.graph


@pytest.fixture(scope="session")
def sr_spectrum(spectrum_cache):
    return spectrum_cache.spectrum


@pytest.fixture(scope="session")
def gamma_classes(spectrum_cache):
    return spectrum_cache.gamma_classes


def pytest_terminal_summary(terminalreporter):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "ACCEPTANCE_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.line(line)
