"""Graph loading, traversal, and depth tests."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxovec.errors import RecordError, StructuralError, UnknownNodeError
from taxovec.graph import (
    TaxonomyGraph,
    bfs_distances,
    compute_depths,
    load_edge_list,
    shortest_path_length,
)
from taxovec.metrics import lcs_index

from conftest import (
    edge_lists,
    graphs,
    ids_for,
    random_dag_edges,
    random_dag_graph,
    random_tree_graph,
    rooted_tree_edges,
)
from oracles import ancestor_closure, depth_oracle, floyd_warshall_undirected, lcs_oracle, level_oracle

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, database=None)


class TestLoadEdgeList:
    def test_minimal_chain(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text("a\tb\nb\tc\n")
        g = load_edge_list(p)
        assert g.n == 3
        assert sum(len(ps) for ps in g.parents) == 2
        assert g.roots() == [g.idx("c")]

    def test_utf8_bom_is_not_part_of_the_first_id(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text("\ufeffa\tb\nlone\n", encoding="utf-8")
        assert p.read_bytes().startswith(b"\xef\xbb\xbfa")
        g = load_edge_list(p)
        assert g.ids == ("a", "b", "lone")
        assert g.parents[g.idx("a")] == [g.idx("b")]

    def test_self_loop_rejected(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text("a\ta\n")
        with pytest.raises(StructuralError):
            load_edge_list(p)

    def test_malformed_line_reports_line_number(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text("a\tb\nx\ty\tz\n")
        with pytest.raises(RecordError, match=":2"):
            load_edge_list(p)

    def test_empty_field_reports_line_number(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text("a\t\n")
        with pytest.raises(RecordError, match=":1"):
            load_edge_list(p)

    def test_cycle_names_an_edge(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text("a\tb\nb\tc\nc\ta\n")
        with pytest.raises(StructuralError, match="cycle"):
            load_edge_list(p)

    def test_comments_isolates_and_file_order_indices(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text("# header comment\nb\ta\n\nlone\nc\ta\n")
        g = load_edge_list(p)
        # dense indices follow first mention order: b, a, lone, c
        assert g.ids == ("b", "a", "lone", "c")
        assert g.neighbors[g.idx("lone")] == []

    def test_duplicate_edges_collapse(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text("b\ta\nb\ta\n")
        g = load_edge_list(p)
        assert g.parents[g.idx("b")] == [g.idx("a")]

    def test_virtual_root_attaches_all_roots(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text("b\ta\nd\tc\nlone\n")
        g = load_edge_list(p, virtual_root="ROOT")
        r = g.idx("ROOT")
        assert g.roots() == [r]
        assert sorted(g.children[r]) == sorted(g.idx(x) for x in ("a", "c", "lone"))
        assert shortest_path_length(g, "b", "d") == 4

    @pytest.mark.parametrize("root", ["", "v\tx", "v\rx", "v\nx", " v", "v ", "\u3000v"])
    def test_virtual_root_an_edge_list_could_not_hold_is_rejected(self, tmp_path, root):
        # written into a pairs file, it would split a line or be stripped on reading
        p = tmp_path / "g.tsv"
        p.write_text("a\tr\nb\tr\nc\ta\n")
        with pytest.raises(StructuralError, match="virtual root id .* is empty, padded or holds"):
            load_edge_list(p, virtual_root=root)

    def test_virtual_root_collision(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text("b\ta\n")
        with pytest.raises(StructuralError):
            load_edge_list(p, virtual_root="a")

    def test_id_beginning_with_hash_is_rejected(self, tmp_path):
        # a pair or edge line starting with this id would read back as a comment
        p = tmp_path / "g.tsv"
        p.write_text("x\t#y\nz\tx\n")
        with pytest.raises(RecordError, match=r"g\.tsv:1: node id '#y' begins with '#'"):
            load_edge_list(p)
        p.write_text("b\ta\n")
        with pytest.raises(StructuralError, match="virtual root id '#r' begins with '#'"):
            load_edge_list(p, virtual_root="#r")

    def test_undirected_adjacency_symmetric(self):
        for seed in range(5):
            g = random_dag_graph(25, seed, extra=10)
            for u in range(g.n):
                for w in g.neighbors[u]:
                    assert u in g.neighbors[w]


class TestShortestPath:
    def test_chain_two_hops(self, chain3):
        assert shortest_path_length(chain3, "a", "c") == 2

    def test_identity_zero(self, chain3):
        assert shortest_path_length(chain3, "a", "a") == 0

    def test_unknown_node(self, chain3):
        with pytest.raises(UnknownNodeError):
            shortest_path_length(chain3, "a", "zzz")

    def test_disconnected_is_none(self):
        g = TaxonomyGraph(["a", "b", "c"], [("b", "a")])
        assert shortest_path_length(g, "a", "c") is None

    def test_matches_floyd_warshall_on_random_trees(self):
        for seed in range(5):
            n = 50
            edges = rooted_tree_edges(n, seed)
            g = TaxonomyGraph(ids_for(n), [(f"n{c:03d}", f"n{p:03d}") for c, p in edges])
            dist = floyd_warshall_undirected(n, edges)
            for u in range(n):
                for v in range(n):
                    got = shortest_path_length(g, g.ids[u], g.ids[v])
                    assert got == int(dist[u, v])

    def test_metric_properties_on_random_trees(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            g = random_tree_graph(30, seed)
            nodes = [g.ids[int(i)] for i in rng.integers(0, g.n, size=6)]
            for a in nodes:
                assert shortest_path_length(g, a, a) == 0
                for b in nodes:
                    ab = shortest_path_length(g, a, b)
                    assert ab == shortest_path_length(g, b, a)
                    for c in nodes:
                        bc = shortest_path_length(g, b, c)
                        ac = shortest_path_length(g, a, c)
                        assert ac <= ab + bc


class TestDepths:
    def test_root_depth_is_one(self, chain3):
        d = compute_depths(chain3)
        assert d.depth(chain3.idx("a")) == 1
        assert d.max_depth == 3

    def test_multi_parent_takes_shortest_root_path(self):
        # d has parents b (depth 2) and a (depth 1): depth(d) = 2, not 3
        g = TaxonomyGraph(["a", "b", "d"], [("b", "a"), ("d", "b"), ("d", "a")])
        d = compute_depths(g)
        assert d.depth(g.idx("d")) == 2

    def test_matches_oracle_on_random_dags(self):
        for seed in range(8):
            n = 25
            edges = random_dag_edges(n, seed, extra=10)
            g = TaxonomyGraph(ids_for(n), [(f"n{c:03d}", f"n{p:03d}") for c, p in edges])
            expected = depth_oracle(n, edges)
            got = compute_depths(g)
            assert list(got.depths) == expected
            assert got.max_depth == max(expected)


def lowest_common_subsumer(g, depths, u, v):
    """lcs_index over node ids."""
    lcs = lcs_index(g, depths, g.idx(u), g.idx(v))
    return None if lcs is None else g.ids[lcs]


def second_order_neighborhood(g, v):
    """Nodes the breadth-first reach finds within two edges of `v`, minus `v`."""
    order, _ = bfs_distances(g.neighbors, g.idx(v), max_dist=2)
    return {g.ids[i] for i in order[1:]}


class TestLowestCommonSubsumer:
    def test_star_siblings(self, star3):
        d = compute_depths(star3)
        assert lowest_common_subsumer(star3, d, "x", "y") == "r"

    def test_reflexive(self, star3):
        d = compute_depths(star3)
        assert lowest_common_subsumer(star3, d, "x", "x") == "x"

    def test_none_across_components(self):
        g = TaxonomyGraph(["a", "b", "c", "d"], [("b", "a"), ("d", "c")])
        d = compute_depths(g)
        assert lowest_common_subsumer(g, d, "b", "d") is None

    def test_depth_tie_breaks_to_smaller_index(self):
        # z and w share two depth-2 ancestors p and q; p has the smaller index
        ids = ["r", "p", "q", "z", "w"]
        edges = [("p", "r"), ("q", "r"), ("z", "p"), ("z", "q"), ("w", "p"), ("w", "q")]
        g = TaxonomyGraph(ids, edges)
        d = compute_depths(g)
        assert lowest_common_subsumer(g, d, "z", "w") == "p"

    def test_matches_oracle_on_random_dags(self):
        for seed in range(8):
            n = 30
            edges = random_dag_edges(n, seed, extra=12)
            g = TaxonomyGraph(ids_for(n), [(f"n{c:03d}", f"n{p:03d}") for c, p in edges])
            depths = compute_depths(g)
            anc = ancestor_closure(n, edges)
            for u in range(n):
                for v in range(u, n):
                    expected = lcs_oracle(anc, list(depths.depths), u, v)
                    got = lowest_common_subsumer(g, depths, g.ids[u], g.ids[v])
                    assert got == (None if expected is None else g.ids[expected])


class TestSecondOrderNeighborhood:
    def test_chain4(self):
        g = TaxonomyGraph(["a", "b", "c", "d"], [("b", "a"), ("c", "b"), ("d", "c")])
        assert second_order_neighborhood(g, "a") == {"b", "c"}

    def test_isolated_node_empty(self):
        g = TaxonomyGraph(["a", "b", "lone"], [("b", "a")])
        assert second_order_neighborhood(g, "lone") == set()

    def test_equals_distance_filter(self):
        for seed in range(6):
            g = random_dag_graph(20, seed, extra=8)
            for v in g.ids:
                expected = {
                    u
                    for u in g.ids
                    if u != v and shortest_path_length(g, v, u) in (1, 2)
                }
                assert second_order_neighborhood(g, v) == expected


class TestBfsDistances:
    def test_levels_match_floyd_warshall(self):
        for seed in range(5):
            n = 40
            edges = random_dag_edges(n, seed, extra=seed * 3)
            g = TaxonomyGraph(ids_for(n), [(f"n{c:03d}", f"n{p:03d}") for c, p in edges])
            dist = floyd_warshall_undirected(n, edges)
            for src in range(n):
                order, starts = bfs_distances(g.neighbors, src)
                assert order[0] == src
                assert sorted(order) == [v for v in range(n) if math.isfinite(dist[src, v])]
                for d in range(len(starts) - 1):
                    for v in order[starts[d] : starts[d + 1]]:
                        assert dist[src, v] == d

    def test_max_dist_cuts_the_reach(self):
        g = TaxonomyGraph(["a", "b", "c", "d"], [("b", "a"), ("c", "b"), ("d", "c")])
        assert bfs_distances(g.neighbors, 0, max_dist=0) == ([0], [0, 1])
        assert bfs_distances(g.neighbors, 0, max_dist=1) == ([0, 1], [0, 1, 2])
        order, starts = bfs_distances(g.neighbors, 0)
        assert order == [0, 1, 2, 3]
        assert starts[:4] == [0, 1, 2, 3]


def edges_of(g):
    return [(c, p) for c in range(g.n) for p in g.parents[c]]


@PROPERTY_SETTINGS
@given(g=graphs)
def test_levels_and_depths_match_the_oracles(g):
    assert list(g.levels) == level_oracle(g.n, edges_of(g))
    assert list(compute_depths(g).depths) == depth_oracle(g.n, edges_of(g))


@PROPERTY_SETTINGS
@given(ne=edge_lists(forest=False), data=st.data())
def test_a_named_cycle_edge_lies_on_a_cycle(ne, data):
    n, edges = ne
    # point nodes at their own descendants: each such edge closes a cycle
    anc = ancestor_closure(n, edges)
    down = sorted((a, d) for d in range(n) for a in anc[d] if a != d)
    back = data.draw(st.lists(st.sampled_from(down), min_size=1, max_size=3, unique=True))
    edges = edges + back
    ids = ids_for(n)
    shuffled = data.draw(st.permutations(ids))  # any index order, any edge order
    named = [(ids[c], ids[p]) for c, p in data.draw(st.permutations(edges))]
    with pytest.raises(StructuralError) as err:
        TaxonomyGraph(shuffled, named)
    child, parent = re.fullmatch(r"cycle through edge '(\w+)' -> '(\w+)'", str(err.value)).groups()
    c, p = ids.index(child), ids.index(parent)
    assert (c, p) in edges
    assert c in ancestor_closure(n, edges)[p]


class TestConstruction:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(StructuralError):
            TaxonomyGraph(["a", "a"], [])

    def test_cycle_detected_in_constructor(self):
        with pytest.raises(StructuralError, match="cycle"):
            TaxonomyGraph(["a", "b"], [("a", "b"), ("b", "a")])

    def test_depths_cover_every_node(self):
        for seed in range(5):
            g = random_dag_graph(40, seed, extra=15)
            d = compute_depths(g)
            assert len(d.depths) == g.n
            assert all(1 <= dep <= d.max_depth for dep in d.depths)
            assert not math.isnan(d.max_depth)
