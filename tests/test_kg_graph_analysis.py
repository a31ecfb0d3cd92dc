"""Graph-analysis tests: connectivity, hop reachability, item distances."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kg.graph_analysis import (
    connectivity_summary,
    hop_reachability,
    item_distance_histogram,
)
from repro.kg.triples import TripleStore


def _networkx_summary(ckg):
    """The statistics of :func:`connectivity_summary`, computed by networkx."""
    nx = pytest.importorskip("networkx")
    graph = nx.Graph()
    graph.add_nodes_from(range(ckg.num_entities))
    graph.add_edges_from(zip(ckg.store.heads.tolist(), ckg.store.tails.tolist()))
    components = list(nx.connected_components(graph))
    giant = max(components, key=len) if components else set()
    degrees = np.array([d for _, d in graph.degree()], dtype=np.float64)
    return {
        "num_nodes": float(graph.number_of_nodes()),
        "num_edges": float(graph.number_of_edges()),
        "num_components": float(len(components)),
        "giant_component_fraction": len(giant) / max(graph.number_of_nodes(), 1),
        "mean_degree": float(degrees.mean()) if degrees.size else 0.0,
        "max_degree": float(degrees.max()) if degrees.size else 0.0,
        "isolated_nodes": float((degrees == 0).sum()),
    }


def _graph(num_entities, edges):
    """A stand-in CKG over one relation holding ``edges`` as given."""
    store = TripleStore(num_entities)
    store.add_triples(
        "r",
        np.array([h for h, _ in edges], dtype=np.int64),
        np.array([t for _, t in edges], dtype=np.int64),
    )
    return SimpleNamespace(num_entities=num_entities, store=store)


@st.composite
def _small_graphs(draw):
    num_entities = draw(st.integers(1, 12))
    ids = st.integers(0, num_entities - 1)
    return _graph(num_entities, draw(st.lists(st.tuples(ids, ids), max_size=30)))


class TestConnectivitySummary:
    def test_keys_and_consistency(self, ooi_ckg):
        s = connectivity_summary(ooi_ckg)
        assert s["num_nodes"] == ooi_ckg.num_entities
        assert s["num_components"] >= 1
        assert 0.0 < s["giant_component_fraction"] <= 1.0
        assert s["mean_degree"] > 0

    def test_ckg_is_mostly_one_component(self, ooi_ckg):
        """Entity alignment should weld the subgraphs into one giant
        component — otherwise propagation cannot carry collaborative signal."""
        s = connectivity_summary(ooi_ckg)
        assert s["giant_component_fraction"] > 0.9

    def test_equals_networkx_on_ooi_ckg(self, ooi_ckg):
        assert connectivity_summary(ooi_ckg) == _networkx_summary(ooi_ckg)


@pytest.mark.parametrize(
    "num_entities, edges",
    [
        (5, []),  # zero edges: every node isolated, its own component
        (3, [(1, 1)]),  # a self-loop adds 2 to the degree
        (4, [(0, 1), (1, 0), (0, 1), (2, 3)]),  # duplicates and reversals
        (6, [(0, 1), (1, 2), (2, 2)]),  # isolated nodes beside a component
    ],
)
def test_connectivity_summary_edge_cases(num_entities, edges):
    ckg = _graph(num_entities, edges)
    assert connectivity_summary(ckg) == _networkx_summary(ckg)


@settings(max_examples=60, deadline=None)
@given(_small_graphs())
def test_connectivity_summary_equals_networkx(ckg):
    """Duplicate and reversed edges, self-loops, isolated nodes and zero
    edges all occur in the generated graphs."""
    assert connectivity_summary(ckg) == _networkx_summary(ckg)


class TestHopReachability:
    def test_monotone_in_hops(self, ooi_ckg):
        r = hop_reachability(ooi_ckg, max_hops=3, sample=10, seed=0)
        assert r[1] <= r[2] <= r[3]

    def test_high_order_reaches_much_more(self, ooi_ckg):
        """The paper's core premise: 1-hop sees a user's own history, 3 hops
        see most of the catalog."""
        r = hop_reachability(ooi_ckg, max_hops=3, sample=10, seed=0)
        assert r[3] > 2 * r[1]
        assert r[3] > 0.5

    def test_specific_users(self, ooi_ckg):
        r = hop_reachability(ooi_ckg, users=[0, 1], max_hops=2)
        assert set(r) == {1, 2}

    def test_validation(self, ooi_ckg):
        with pytest.raises(ValueError):
            hop_reachability(ooi_ckg, max_hops=0)


class TestItemDistances:
    def test_histogram_keys(self, ooi_ckg):
        h = item_distance_histogram(ooi_ckg, num_pairs=30, seed=0)
        assert {"mean_distance", "median_distance", "fraction_beyond_2_hops"} <= set(h)

    def test_some_items_beyond_first_order(self, ooi_ckg):
        """Section II-C: related objects may be far apart — a nonzero share
        of item pairs sits beyond 2 hops."""
        h = item_distance_histogram(ooi_ckg, num_pairs=100, seed=0)
        assert h["mean_distance"] >= 2.0

    def test_validation(self, ooi_ckg):
        with pytest.raises(ValueError):
            item_distance_histogram(ooi_ckg, num_pairs=0)
