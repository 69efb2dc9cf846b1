from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hublab as hl
from hublab import families

from bruteforce import all_pairs_bruteforce, gen_random_directed, path_vertices_bruteforce
from conftest import edge2, path_graph, seeded_graphs


def test_parse_minimal():
    g = hl.parse_graph("p undirected 2 1\na 0 1 1\n")
    assert not g.directed and g.n == 2 and g.arcs == ((0, 1, 1),)


def test_parse_bad_g_family_file():
    g3 = families.gen_bad_g(3)
    text = "# header comment\n" + hl.serialize_graph(g3)
    assert hl.parse_graph(text) == g3
    assert g3.n == 19


@pytest.mark.parametrize(
    "text, fragment, line_no",
    [
        ("p undirected 2 1\na 0 1 -2\n", "negative length", 2),
        ("p undirected 2 1\na 0 1\n", "malformed arc", 2),
        ("p undirected 2 1\na 0 5 1\n", "out of range", 2),
        ("p undirected 2 1\na 1 1 0\n", "self-loop", 2),
        ("p sideways 2 1\na 0 1 1\n", "malformed problem", 1),
        ("a 0 1 1\n", "before problem", 1),
        ("p undirected 2 1\nz 0 1 1\n", "unknown record", 2),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment, line_no):
    with pytest.raises(hl.GraphFormatError) as exc:
        hl.parse_graph(text)
    assert fragment in str(exc.value)
    assert exc.value.line_no == line_no


def test_parse_arc_count_mismatch():
    with pytest.raises(hl.GraphFormatError, match="expected 2 arc lines"):
        hl.parse_graph("p undirected 3 2\na 0 1 1\n")


def test_zero_length_cycle_rejected():
    with pytest.raises(hl.GraphFormatError, match="zero-length cycle"):
        hl.parse_graph("p directed 2 2\na 0 1 0\na 1 0 0\n")
    with pytest.raises(ValueError, match="zero-length cycle"):
        hl.Graph(False, 3, [(0, 1, 0), (1, 2, 0), (0, 2, 0)])
    # zero-length arcs without a cycle are fine
    g = hl.Graph(True, 3, [(0, 1, 0), (1, 2, 0)])
    assert hl.all_pairs_distances(g).dist(0, 2) == 0


def test_total_arc_length_below_2_pow_53():
    # float64 distances round above 2^53: 2^60 + 2 would come back as 2^60
    with pytest.raises(ValueError, match="2\\^53"):
        hl.Graph(True, 3, [(0, 1, 2**60), (1, 2, 2)])
    with pytest.raises(hl.GraphFormatError, match="2\\^53"):
        hl.parse_graph(f"p undirected 3 2\na 0 1 {2**52}\na 1 2 {2**52}\n")
    g = hl.Graph(False, 3, [(0, 1, 2**52), (1, 2, 2**52 - 1)])
    assert hl.all_pairs_distances(g).dist(0, 2) == 2**53 - 1


def test_parallel_arcs_collapse_to_minimum():
    g = hl.parse_graph("p undirected 2 3\na 0 1 5\na 1 0 2\na 0 1 9\n")
    assert g.arcs == ((0, 1, 2),)


def test_serialize_normalizes_whitespace():
    messy = "p undirected 2 1\n#  note\na   0\t 1    1\n"
    assert hl.serialize_graph(hl.parse_graph(messy)) == "p undirected 2 1\na 0 1 1\n"


def test_serialize_round_trip_idempotent():
    for g in [families.gen_bad_g(2), families.gen_bad_w(2), families.gen_separator(3)]:
        text = hl.serialize_graph(g)
        assert hl.parse_graph(text) == g
        assert hl.serialize_graph(hl.parse_graph(text)) == text


def test_all_pairs_single_vertex():
    d = hl.all_pairs_distances(hl.Graph(False, 1, []))
    assert d.dist(0, 0) == 0 and d.diameter == 0


def test_all_pairs_family_values():
    g3 = families.gen_bad_g(3)
    ids = families.bad_g_ids(3)
    d = hl.all_pairs_distances(g3)
    assert d.dist(ids.a[0], ids.c_id(1, 1)) == 2
    assert d.dist(ids.c_id(1, 1), ids.a[0]) == hl.INF  # one-way layers
    w2 = families.gen_bad_w(2)
    idw = families.bad_w_ids(2)
    dw = hl.all_pairs_distances(w2)
    assert dw.dist(idw.a, idw.c[0]) == 5


@pytest.mark.parametrize("seed", range(8))
def test_all_pairs_matches_bruteforce(seed):
    g = families.gen_random(3 + seed % 6, 3 + seed % 6, 3, 4000 + seed)
    d = hl.all_pairs_distances(g)
    expect = all_pairs_bruteforce(g)
    for u in range(g.n):
        for v in range(g.n):
            assert d.dist(u, v) == expect[u][v]


@pytest.mark.parametrize("seed", range(5))
def test_all_pairs_matches_bruteforce_directed(seed):
    g = gen_random_directed(3 + seed, 2, 3, 5000 + seed)
    d = hl.all_pairs_distances(g)
    expect = all_pairs_bruteforce(g)
    for u in range(g.n):
        for v in range(g.n):
            assert d.dist(u, v) == expect[u][v]


def test_symmetric_distances():
    for g in seeded_graphs(8, 8, 6000):
        d = hl.all_pairs_distances(g)
        for u in range(g.n):
            for v in range(g.n):
                assert d.dist(u, v) == d.dist(v, u)


def test_on_shortest_path_examples():
    g3 = families.gen_bad_g(3)
    ids = families.bad_g_ids(3)
    d = hl.all_pairs_distances(g3)
    assert hl.on_shortest_path(d, 0, 0, 0)
    assert hl.on_shortest_path(d, ids.a[0], ids.c_id(1, 1), ids.b[0])
    assert not hl.on_shortest_path(d, ids.a[0], ids.c_id(1, 1), ids.a[1])


def test_shortest_path_vertices_examples():
    g3 = families.gen_bad_g(3)
    ids = families.bad_g_ids(3)
    d = hl.all_pairs_distances(g3)
    assert hl.shortest_path_vertices(d, 5, 5) == {5}
    assert hl.shortest_path_vertices(d, ids.a[0], ids.c_id(1, 1)) == {
        ids.a[0],
        ids.b[0],
        ids.c_id(1, 1),
    }
    c4 = families.gen_cycle4(False)
    dc = hl.all_pairs_distances(c4)
    assert hl.shortest_path_vertices(dc, 0, 2) == {0, 1, 2, 3}
    with pytest.raises(hl.UnreachablePairError):
        hl.shortest_path_vertices(d, ids.c_id(1, 1), ids.a[0])


@pytest.mark.parametrize("seed", range(6))
def test_shortest_path_vertices_matches_bruteforce(seed):
    n = 4 + seed % 4
    m = min(n * (n - 1) // 2, n - 1 + seed % 3)
    g = families.gen_random(n, m, 2, 7000 + seed)
    d = hl.all_pairs_distances(g)
    for u in range(g.n):
        for w in range(g.n):
            if d.finite(u, w):
                assert hl.shortest_path_vertices(d, u, w) == path_vertices_bruteforce(g, u, w)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_prefix_closure(seed):
    n = 2 + seed % 7
    m = min(n * (n - 1) // 2, n - 1 + seed % 3)
    g = families.gen_random(n, m, 3, seed)
    d = hl.all_pairs_distances(g)
    for u in range(g.n):
        for w in range(g.n):
            if not d.finite(u, w):
                continue
            for v in hl.shortest_path_vertices(d, u, w):
                for x in hl.shortest_path_vertices(d, u, v):
                    assert hl.on_shortest_path(d, u, v, x)


def test_undirect():
    g = families.gen_bad_g(2)
    u = hl.undirect(g)
    assert not u.directed and u.n == g.n and u.m == g.m
    du = hl.all_pairs_distances(u)
    ids = families.bad_g_ids(2)
    assert du.dist(ids.c_id(1, 1), ids.a[0]) == 2
    assert hl.undirect(u) is u


def test_dist_matrix_reachable_pairs():
    d = hl.all_pairs_distances(edge2())
    assert d.reachable_pairs() == [(0, 0), (0, 1), (1, 1)]
    d3 = hl.all_pairs_distances(path_graph(2))
    assert len(d3.reachable_pairs()) == 6
