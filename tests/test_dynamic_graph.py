"""Unit tests for :mod:`repro.dynamics.dynamic_graph` (Definition 2.1 semantics)."""

import pytest

from repro.errors import TopologyError
from repro.types import Interval
from repro.dynamics.dynamic_graph import DynamicGraph
from repro.dynamics.topology import Topology, TopologyDelta


def topo(edges, nodes=range(4)):
    return Topology(nodes, edges)


class TestRecording:
    def test_rejects_bad_n(self):
        with pytest.raises(TopologyError):
            DynamicGraph(0)

    def test_rejects_node_outside_range(self):
        graph = DynamicGraph(3)
        with pytest.raises(TopologyError):
            graph.append(Topology([0, 5], []))

    def test_rejects_shrinking_node_set(self):
        graph = DynamicGraph(4)
        graph.append(Topology([0, 1, 2], []))
        with pytest.raises(TopologyError):
            graph.append(Topology([0, 1], []))

    def test_round_zero_is_empty(self):
        graph = DynamicGraph(4)
        assert graph.topology(0).num_nodes == 0

    def test_round_indexing(self):
        graph = DynamicGraph(4)
        graph.append(topo([(0, 1)]))
        graph.append(topo([(1, 2)]))
        assert graph.last_round == 2
        assert graph.topology(1).edges == frozenset({(0, 1)})
        assert graph.topology(2).edges == frozenset({(1, 2)})
        with pytest.raises(TopologyError):
            graph.topology(3)


class TestWindowQueries:
    def test_definition_21_round_zero_convention(self):
        """For r <= T - 1 the window includes the empty G_0, so both graphs are empty."""
        graph = DynamicGraph(4)
        graph.append(topo([(0, 1)]))
        graph.append(topo([(0, 1)]))
        T = 3
        assert graph.intersection_graph(1, T).num_nodes == 0
        assert graph.intersection_graph(2, T).num_nodes == 0
        assert graph.union_graph(2, T).num_nodes == 0
        graph.append(topo([(0, 1)]))
        # Round 3 is the first round with a full window of T = 3 real rounds.
        assert graph.intersection_graph(3, T).edges == frozenset({(0, 1)})

    def test_intersection_and_union_content(self):
        graph = DynamicGraph(4)
        graph.append(topo([(0, 1), (1, 2)]))
        graph.append(topo([(0, 1), (2, 3)]))
        inter = graph.intersection_graph(2, 2)
        union = graph.union_graph(2, 2)
        assert inter.edges == frozenset({(0, 1)})
        assert union.edges == frozenset({(0, 1), (1, 2), (2, 3)})

    def test_union_edges_include_recently_woken_neighbours(self):
        graph = DynamicGraph(5)
        graph.append(Topology([0, 1], [(0, 1)]))
        graph.append(Topology([0, 1, 2], [(0, 1), (1, 2)]))
        union = graph.union_graph(2, 2)
        # Node 2 woke mid-window: it is not constrained (not in V^{T∩}), but the
        # edge it contributed counts towards node 1's union degree.
        assert graph.intersection_graph(2, 2).nodes == frozenset({0, 1})
        assert (1, 2) in union.edges
        assert union.degree(1) == 2

    @pytest.mark.parametrize("query", ["intersection_graph", "union_graph"])
    def test_rejects_window_size_below_one(self, query):
        graph = DynamicGraph(4)
        graph.append(topo([(0, 1)]))
        for T in (0, -1):
            with pytest.raises(TopologyError, match="window size"):
                getattr(graph, query)(1, T)


def _growing_history(rng, *, n=8, rounds=16):
    """Random rounds with edge churn and node wake-ups (the awake set never shrinks)."""
    awake: set = set()
    history = []
    for _ in range(rounds):
        awake |= {v for v in range(n) if rng.random() < 0.3}
        nodes = sorted(awake)
        candidates = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1 :]]
        mask = rng.random(len(candidates)) < 0.35
        history.append(Topology(nodes, [e for e, keep in zip(candidates, mask) if keep]))
    return history


def _brute_force_windows(history, r, T):
    """``(G^{T∩}_r, G^{T∪}_r)`` recomputed from scratch, G_0 included in the window."""
    if r < T:
        return Topology([], []), Topology([], [])
    window = history[r - T : r]
    nodes = frozenset.intersection(*(t.nodes for t in window))
    inter_edges = frozenset.intersection(*(t.edges for t in window))
    union_edges = frozenset.union(*(t.edges for t in window))
    endpoints = {v for edge in union_edges for v in edge}
    return Topology(nodes, inter_edges), Topology(nodes | endpoints, union_edges)


def _record(history, method, checkpoint_interval):
    graph = DynamicGraph(8, checkpoint_interval=checkpoint_interval)
    previous = Topology([], [])
    for topology in history:
        item = topology if method == "append" else previous.delta_to(topology)
        assert getattr(graph, method)(item) is None
        previous = topology
    return graph


_STORAGES = [
    pytest.param("append", 32, id="append"),
    *(pytest.param("append_delta", k, id=f"delta-{k}") for k in (1, 3, 8, 64)),
    pytest.param("append_lazy", 32, id="lazy"),
]


class TestWindowGraphsAgainstBruteForce:
    """The window queries agree with a from-scratch recomputation on every storage path."""

    @pytest.mark.parametrize("method, checkpoint_interval", _STORAGES)
    @pytest.mark.parametrize("T", [1, 2, 3, 5])
    def test_matches_brute_force(self, rng_factory, T, method, checkpoint_interval):
        history = _growing_history(rng_factory.stream("window-brute", T))
        graph = _record(history, method, checkpoint_interval)
        rounds = range(1, len(history) + 1)
        # Forward order follows the cursor; the reverse pass walks back to checkpoints.
        for r in (*rounds, *reversed(rounds)):
            inter = graph.intersection_graph(r, T)
            union = graph.union_graph(r, T)
            assert (inter, union) == _brute_force_windows(history, r, T)
            assert inter.edges <= union.edges


_FIRST_ROUND = Topology([0, 1, 2], [(0, 1)])


class TestWindowFold:
    """Rounds after the window's first one are folded from deltas, not materialised."""

    @pytest.mark.parametrize(
        "bad",
        [
            pytest.param(TopologyDelta(removed_edges=[(1, 2)]), id="removes-absent-edge"),
            pytest.param(TopologyDelta(added_edges=[(0, 1)]), id="adds-present-edge"),
            pytest.param(TopologyDelta(added_edges=[(2, 3)]), id="adds-edge-to-sleeping-node"),
        ],
    )
    @pytest.mark.parametrize("query", ["intersection_graph", "union_graph"])
    def test_inexact_delta_inside_window_is_rejected(self, query, bad):
        with pytest.raises(TopologyError) as applied:
            _FIRST_ROUND.apply(bad)
        graph = DynamicGraph(4)
        graph.append_lazy(Topology([], []).delta_to(_FIRST_ROUND))
        graph.append_lazy(TopologyDelta())
        # append_lazy does not materialise, so the inexact delta is only seen
        # when a window folds round 3, strictly after its first round r0 = 2.
        graph.append_lazy(bad)
        with pytest.raises(TopologyError) as folded:
            getattr(graph, query)(3, 2)
        assert str(folded.value) == str(applied.value)

    def test_sequential_check_applies_one_delta_per_round(self, rng_factory, monkeypatch):
        history = _growing_history(rng_factory.stream("window-fold"), rounds=100)
        graph = _record(history, "append_lazy", 32)
        calls = []
        apply = Topology.apply

        def counting_apply(self, delta):
            calls.append(delta)
            return apply(self, delta)

        monkeypatch.setattr(Topology, "apply", counting_apply)
        per_round = []
        for r in range(90, 101):
            before = len(calls)
            graph.intersection_graph(r, 5)
            graph.union_graph(r, 5)
            per_round.append(len(calls) - before)
        # The first query replays the lazy chain up to r0 = 86 once; after
        # that each checked round moves the cursor by one round.
        assert per_round == [86] + [1] * 10


class TestStabilityPredicates:
    def test_is_static_on(self):
        graph = DynamicGraph(4)
        graph.append(topo([(0, 1), (2, 3)]))
        graph.append(topo([(0, 1), (1, 2)]))
        graph.append(topo([(0, 1), (1, 2)]))
        assert graph.is_static_on({0, 1}, Interval(1, 3))
        assert not graph.is_static_on({1, 2, 3}, Interval(1, 2))
        assert graph.is_static_on({1, 2, 3}, Interval(2, 3))

    def test_is_static_interval_bounds_checked(self):
        graph = DynamicGraph(4)
        graph.append(topo([]))
        with pytest.raises(TopologyError):
            graph.is_static_on({0}, Interval(1, 5))

    def test_static_ball_interval(self):
        graph = DynamicGraph(6)
        base = Topology(range(6), [(0, 1), (1, 2), (3, 4), (4, 5)])
        changed = Topology(range(6), [(0, 1), (1, 2), (3, 4)])
        graph.append(base)
        graph.append(changed)
        # Ball around 0 (radius 2) = {0,1,2}; its induced edges never change.
        assert graph.static_ball_interval(0, 2, Interval(1, 2))
        # Ball around 5 loses its only edge.
        assert not graph.static_ball_interval(5, 1, Interval(1, 2))


class TestChangeStatistics:
    def test_edge_changes(self):
        graph = DynamicGraph(4)
        graph.append(topo([(0, 1)]))
        graph.append(topo([(1, 2)]))
        inserted, deleted = graph.edge_changes(2)
        assert inserted == frozenset({(1, 2)})
        assert deleted == frozenset({(0, 1)})
        first_inserted, first_deleted = graph.edge_changes(1)
        assert first_inserted == frozenset({(0, 1)}) and first_deleted == frozenset()

    def test_churn_per_round(self):
        graph = DynamicGraph(4)
        graph.append(topo([(0, 1)]))
        graph.append(topo([(1, 2)]))
        assert graph.churn_per_round() == [1, 2]
