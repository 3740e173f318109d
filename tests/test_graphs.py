import itertools

import numpy as np
import pytest

from shapgraph import (
    BudgetExceededError,
    ConfigurationError,
    chain_graph,
    connected_subsets_containing,
    diameter,
    general_graph,
    graph_distance,
    grid_graph,
    k_neighborhood,
    members_of,
    subset_of,
)
from shapgraph import graphs
from shapgraph.graphs import pack_masks, submasks, unpack_rows

from oracles import (
    bfs_distances,
    components_oracle,
    connected_subsets_oracle,
    interval_count,
)
from reference_path import connected_components


class TestMemberMatrix:
    """The boolean membership matrix of masks, ``unpack_rows(pack_masks(masks, d), d)``."""

    @staticmethod
    def loop_matrix(masks, d):
        out = np.zeros((len(masks), d), dtype=bool)
        for r, m in enumerate(masks):
            for j in members_of(int(m)):
                out[r, j] = True
        return out

    def test_matches_members_of_loop(self):
        rng = np.random.default_rng(0)
        for d in (1, 7, 8, 9, 63, 64, 65, 400):
            full = (1 << d) - 1
            masks = [0, full] + [int.from_bytes(rng.bytes(d // 8 + 1), "little") & full for _ in range(20)]
            got = unpack_rows(pack_masks(masks, d), d)
            assert got.dtype == bool and got.shape == (len(masks), d)
            np.testing.assert_array_equal(got, self.loop_matrix(masks, d))
            narrow = [np.int64(m) for m in masks if m < 1 << 63]
            np.testing.assert_array_equal(unpack_rows(pack_masks(narrow, d), d), self.loop_matrix(narrow, d))

    def test_no_masks(self):
        assert unpack_rows(pack_masks([], 5), 5).shape == (0, 5)

    @pytest.mark.parametrize("d", [0, 1, 7, 8, 9, 10, 16, 64, 65])
    def test_out_of_range_masks_name_the_first(self, d):
        top = (1 << d) - 1
        cases = [(1 << d, f"has bit {d}"), (top + (1 << (d + 5)), f"has bit {d + 5}"), (1 << 200, "has bit 200"), (-1, "is negative")]
        for bad, what in cases:
            with pytest.raises(ConfigurationError, match=f"subset mask {bad:#x} {what}; subsets of {d} features"):
                unpack_rows(pack_masks([0, top, bad, -3], d), d)
            if -1 <= bad < 1 << 63:
                with pytest.raises(ConfigurationError, match=f"subset mask {bad:#x}"):
                    unpack_rows(pack_masks(np.array([0, bad], dtype=np.int64), d), d)
        assert unpack_rows(pack_masks([top], d), d).all()


class TestSubmasks:
    def test_every_subset_in_ascending_order(self):
        rng = np.random.default_rng(0)
        assert submasks(0b10110) == [0, 2, 4, 6, 16, 18, 20, 22]
        for mask in [0, 1, 1 << 5, 0b10110] + rng.integers(0, 1 << 12, 20).tolist():
            assert submasks(mask) == sorted(s for s in range(mask + 1) if s & ~mask == 0)


class TestConstruction:
    def test_chain_single_node_has_no_edges(self):
        assert chain_graph(1).edges == ()

    def test_chain_three_nodes(self):
        assert set(chain_graph(3).edges) == {(0, 1), (1, 2)}

    def test_chain_diameter_is_length(self):
        assert diameter(chain_graph(5)) == 4

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            chain_graph(0)
        with pytest.raises(ValueError):
            grid_graph(0, 3)

    def test_one_row_grid_matches_chain(self):
        assert set(grid_graph(1, 6).edges) == set(chain_graph(6).edges)

    def test_2x2_grid_has_four_edges(self):
        assert len(grid_graph(2, 2).edges) == 4

    def test_3x3_center_degree_four(self):
        g = grid_graph(3, 3)
        assert bin(g.neighbors(4)).count("1") == 4

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            general_graph(2, [(0, 0), (0, 1)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            general_graph(2, [(0, 1), (1, 0)])

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            general_graph(4, [(0, 1), (2, 3)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            general_graph(2, [(0, 2)])


class TestDistance:
    def test_chain_endpoints(self):
        assert graph_distance(chain_graph(5), 0, 4) == 4

    def test_identity_is_zero(self):
        g = grid_graph(3, 4)
        for i in range(g.d):
            assert graph_distance(g, i, i) == 0

    def test_grid_corner_to_corner_is_manhattan(self):
        assert graph_distance(grid_graph(3, 3), 0, 8) == 4

    def test_grid_distances_are_manhattan_everywhere(self):
        g = grid_graph(4, 5)
        for i in range(g.d):
            for j in range(g.d):
                ri, ci = divmod(i, 5)
                rj, cj = divmod(j, 5)
                assert graph_distance(g, i, j) == abs(ri - rj) + abs(ci - cj)

    def test_matches_bfs_oracle_on_random_graph(self):
        rng = np.random.default_rng(1)
        edges = [(i, i + 1) for i in range(7)]
        extra = [(0, 5), (2, 7), (3, 6)]
        g = general_graph(8, edges + extra)
        for start in range(8):
            dist = bfs_distances(8, g.edges, start)
            for j in range(8):
                assert graph_distance(g, start, j) == dist[j]

    def test_out_of_range_index(self):
        with pytest.raises(IndexError):
            graph_distance(chain_graph(3), 0, 3)

    def test_symmetry(self):
        g = grid_graph(3, 3)
        for i, j in itertools.combinations(range(9), 2):
            assert graph_distance(g, i, j) == graph_distance(g, j, i)


class TestNeighborhood:
    def test_chain_interior_k1(self):
        assert members_of(k_neighborhood(chain_graph(5), 2, 1)) == (1, 2, 3)

    def test_chain_boundary_truncation(self):
        assert members_of(k_neighborhood(chain_graph(5), 0, 2)) == (0, 1, 2)

    def test_grid_center_k2_is_manhattan_ball(self):
        g = grid_graph(5, 5)
        ball = k_neighborhood(g, 12, 2)
        assert bin(ball).count("1") == 13

    def test_contains_self_and_nested(self):
        g = grid_graph(3, 4)
        for i in range(g.d):
            prev = 0
            for k in range(6):
                nb = k_neighborhood(g, i, k)
                assert (nb >> i) & 1
                assert nb & prev == prev  # monotone nesting
                prev = nb
            assert prev == (1 << g.d) - 1  # radius beyond diameter reaches all

    def test_radius_zero_is_singleton(self):
        assert k_neighborhood(chain_graph(4), 2, 0) == 1 << 2

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            k_neighborhood(chain_graph(4), 2, -1)

    def test_bad_index(self):
        with pytest.raises(IndexError):
            k_neighborhood(chain_graph(4), 7, 1)


class TestConnectedSubsets:
    def test_chain_example(self):
        got = connected_subsets_containing(chain_graph(5), 2, 1)
        expected = [subset_of(s) for s in [(2,), (1, 2), (2, 3), (1, 2, 3)]]
        assert sorted(got) == sorted(expected)
        assert len(got) == 4

    def test_chain_counts_match_interval_formula(self):
        for d in (1, 2, 5, 9):
            g = chain_graph(d)
            for i in range(d):
                for k in range(d + 1):
                    got = connected_subsets_containing(g, i, k)
                    assert len(got) == interval_count(d, i, k)

    def test_canonical_order_size_then_mask(self):
        got = connected_subsets_containing(grid_graph(3, 3), 4, 2)
        keys = [(bin(m).count("1"), m) for m in got]
        assert keys == sorted(keys)
        assert len(got) == len(set(got))

    def test_matches_brute_force_on_chain_and_grid(self):
        cases = [
            (chain_graph(8), 3, 2),
            (chain_graph(12), 0, 3),
            (grid_graph(3, 3), 4, 1),
            (grid_graph(3, 4), 5, 2),
            (general_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)]), 1, 2),
        ]
        for g, i, k in cases:
            nb = members_of(k_neighborhood(g, i, k))
            expected = connected_subsets_oracle(g.d, g.edges, i, nb)
            expected = [m for m in expected if (m >> i) & 1]
            got = connected_subsets_containing(g, i, k)
            assert got == expected

    def test_matches_brute_force_on_dense_cyclic_graph(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 4), (2, 4), (0, 3)]
        g = general_graph(5, edges)
        for i in range(5):
            for k in (1, 2):
                nb = members_of(k_neighborhood(g, i, k))
                expected = [
                    m
                    for m in connected_subsets_oracle(g.d, edges, i, nb)
                    if (m >> i) & 1
                ]
                assert connected_subsets_containing(g, i, k) == expected

    def test_grid_excludes_disconnected_includes_connected(self):
        # two cells in a row with a gap are not summed over; the filled
        # three-cell row is
        g = grid_graph(5, 5)
        center = 12
        subsets = set(connected_subsets_containing(g, center, 2))
        disconnected = subset_of([center, center - 2])
        connected = subset_of([center, center - 1, center - 2])
        assert disconnected not in subsets
        assert connected in subsets

    def test_budget_error_names_count(self, monkeypatch):
        monkeypatch.setattr(graphs, "ENUMERATION_LIMIT", 10)
        with pytest.raises(BudgetExceededError, match="node 5 on 16 features") as err:
            connected_subsets_containing(grid_graph(4, 4), 5, 3)
        # the listing stops at the first subset over the limit
        assert err.value.count == 11
        assert "over the limit of 10" in str(err.value)

    def test_every_result_is_one_component(self):
        g = grid_graph(3, 3)
        for m in connected_subsets_containing(g, 4, 2):
            assert connected_components(g, m) == [m]


class TestCheckSize:
    @pytest.mark.parametrize("over", [-1, 0, 1])
    def test_refuses_only_past_the_limit_read_at_call_time(self, over, monkeypatch):
        monkeypatch.setattr(graphs, "ENUMERATION_LIMIT", 100)
        if over <= 0:
            graphs.check_size(100 + over, "rows of a table on 7 features")
            return
        with pytest.raises(BudgetExceededError) as err:
            graphs.check_size(101, "rows of a table on 7 features")
        assert str(err.value) == "rows of a table on 7 features: 101, over the limit of 100"
        assert err.value.count == 101


class TestConnectedComponents:
    def test_connected_subset_is_single_component(self):
        g = chain_graph(5)
        s = subset_of([1, 2, 3])
        assert connected_components(g, s) == [s]

    def test_chain_gap_example(self):
        pieces = connected_components(chain_graph(5), subset_of([0, 1, 3]))
        assert [members_of(p) for p in pieces] == [(0, 1), (3,)]

    def test_empty_set(self):
        assert connected_components(chain_graph(5), 0) == []

    def test_partition_properties_random(self):
        rng = np.random.default_rng(7)
        g = grid_graph(3, 4)
        for _ in range(50):
            s = int(rng.integers(0, 1 << g.d))
            pieces = connected_components(g, s)
            union = 0
            for p in pieces:
                assert union & p == 0  # pairwise disjoint
                union |= p
            assert union == s
            expect = components_oracle(g.d, g.edges, members_of(s))
            assert sorted(frozenset(members_of(p)) for p in pieces) == sorted(expect)

