from __future__ import annotations

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hublab as hl
from hublab import families, graphs
from hublab.centers import PathIndex

from bruteforce import (
    UnreachablePairError,
    all_pairs_bruteforce,
    canonical_hhl_loop,
    gen_random_directed,
    on_shortest_path,
    path_vertices_bruteforce,
    shortest_path_vertices,
    undirect,
    verify_cover_loop,
    with_zero_arcs,
)
from conftest import edge2, path_graph, seeded_graphs


def test_parse_minimal():
    g = hl.parse_graph("p undirected 2 1\na 0 1 1\n")
    assert not g.directed and g.n == 2 and g.arcs == ((0, 1, 1),)


def test_graph_refuses_ids_and_lengths_that_are_not_ints():
    # Graph(False, 3, [(0, 1, 1.5)]) used to store length 1, and "7" the int 7.
    for bad in (1.5, 1.0, np.float64(1), "1", None):
        for arc in ((0, 1, bad), (bad, 2, 1), (0, bad, 1)):
            for directed in (False, True):
                with pytest.raises(ValueError, match="not an int"):
                    hl.Graph(directed, 3, [(1, 2, 4), arc])
    g = hl.Graph(True, 3, [(np.uint16(0), np.int64(1), np.int8(2)), (1, 2, True)])
    assert g.arcs == ((0, 1, 2), (1, 2, 1))


def test_exact_reads_source_first():
    # On the directed path 0 -> 1 -> 2, exact()[u, w] is dist(u, w).
    d = hl.all_pairs_distances(hl.Graph(True, 3, [(0, 1, 1), (1, 2, 1)]))
    into = d.exact()
    assert into[0, 2] == 2 and into[2, 0] == d.unreachable == 3
    assert into.tolist() == [[0, 1, 2], [3, 0, 1], [3, 3, 0]]
    assert not into.flags.writeable


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
        ("p undirected 2 0\np undirected 2 0\n", "duplicate problem", 2),
        ("p undirected two 0\n", "malformed problem", 1),
        ("p undirected 2 1\na 0 1 1.5\n", "malformed arc", 2),
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


def test_zero_length_cycles_match_scipy():
    # The peeling pass against scipy on the collapsed zero-length arcs: a directed
    # cycle is a strong component of two or more vertices (there are no loops),
    # an undirected one an edge beyond a spanning forest (edges > n - components).
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    rng = random.Random(14400)
    seen = {(d, c): 0 for d in (False, True) for c in (False, True)}
    for trial in range(10_000):
        directed, n = trial % 2 == 1, rng.randint(1, 9)
        arcs = [
            (*rng.sample(range(n), 2), rng.choice((0, 0, rng.randint(1, 5))))
            for _ in range(rng.randint(0, 14) if n > 1 else 0)
        ]
        zero = {(t, h) if directed else (min(t, h), max(t, h)) for t, h, ln in arcs if ln == 0}
        t, h = np.array(sorted(zero), dtype=np.int64).reshape(-1, 2).T
        adj = coo_matrix((np.ones(len(zero)), (t, h)), shape=(n, n))
        count = connected_components(adj, directed=directed, connection="strong")[0]
        cyclic = count < n if directed else len(zero) > n - count
        try:
            hl.Graph(directed, n, arcs)
        except hl.GraphFormatError as exc:
            assert cyclic and str(exc) == "zero-length cycle", (directed, n, arcs)
        else:
            assert not cyclic, (directed, n, arcs)
        seen[directed, cyclic] += 1
    assert min(seen.values()) > 1000, seen


def test_graph_constructor_checks_its_arguments():
    with pytest.raises(ValueError, match="non-negative"):
        hl.Graph(False, -1, [])
    with pytest.raises(ValueError, match="out of vertex range"):
        hl.Graph(True, 2, [(0, 2, 1)])
    with pytest.raises(ValueError, match="negative length -1"):
        hl.Graph(False, 2, [(0, 1, -1)])


def test_total_arc_length_below_2_pow_53():
    # float64 distances round above 2^53: 2^60 + 2 would come back as 2^60
    with pytest.raises(ValueError, match="2\\^53"):
        hl.Graph(True, 3, [(0, 1, 2**60), (1, 2, 2)])
    with pytest.raises(hl.GraphFormatError, match="2\\^53"):
        hl.parse_graph(f"p undirected 3 2\na 0 1 {2**52}\na 1 2 {2**52}\n")
    g = hl.Graph(False, 3, [(0, 1, 2**52), (1, 2, 2**52 - 1)])
    assert hl.all_pairs_distances(g).dist(0, 2) == 2**53 - 1


def test_vertex_count_above_limit_refused_before_allocating():
    # n^2 distance cells would be 8e18 bytes; the header alone must be refused
    with pytest.raises(hl.TooLargeError, match="vertex limit"):
        hl.Graph(False, 10**9, [])
    with pytest.raises(hl.TooLargeError, match="vertex limit"):
        hl.parse_graph("p undirected 1000000000 0\n")


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
    assert on_shortest_path(d, 0, 0, 0)
    assert on_shortest_path(d, ids.a[0], ids.c_id(1, 1), ids.b[0])
    assert not on_shortest_path(d, ids.a[0], ids.c_id(1, 1), ids.a[1])


def test_shortest_path_vertices_examples():
    g3 = families.gen_bad_g(3)
    ids = families.bad_g_ids(3)
    d = hl.all_pairs_distances(g3)
    assert shortest_path_vertices(d, 5, 5) == {5}
    assert shortest_path_vertices(d, ids.a[0], ids.c_id(1, 1)) == {
        ids.a[0],
        ids.b[0],
        ids.c_id(1, 1),
    }
    c4 = families.gen_cycle4(False)
    dc = hl.all_pairs_distances(c4)
    assert shortest_path_vertices(dc, 0, 2) == {0, 1, 2, 3}
    with pytest.raises(UnreachablePairError):
        shortest_path_vertices(d, ids.c_id(1, 1), ids.a[0])


@pytest.mark.parametrize("seed", range(6))
def test_shortest_path_vertices_matches_bruteforce(seed):
    n = 4 + seed % 4
    m = min(n * (n - 1) // 2, n - 1 + seed % 3)
    g = families.gen_random(n, m, 2, 7000 + seed)
    d = hl.all_pairs_distances(g)
    for u in range(g.n):
        for w in range(g.n):
            if d.finite(u, w):
                assert shortest_path_vertices(d, u, w) == path_vertices_bruteforce(g, u, w)


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
            for v in shortest_path_vertices(d, u, w):
                for x in shortest_path_vertices(d, u, v):
                    assert on_shortest_path(d, u, v, x)


def test_undirect():
    g = families.gen_bad_g(2)
    u = undirect(g)
    assert not u.directed and u.n == g.n and u.m == g.m
    du = hl.all_pairs_distances(u)
    ids = families.bad_g_ids(2)
    assert du.dist(ids.c_id(1, 1), ids.a[0]) == 2
    assert undirect(u) is u


def test_dist_matrix_reachable_pairs():
    d = hl.all_pairs_distances(edge2())
    assert d.reachable_pairs() == [(0, 0), (0, 1), (1, 1)]
    d3 = hl.all_pairs_distances(path_graph(2))
    assert len(d3.reachable_pairs()) == 6


@pytest.mark.parametrize("block", [1, 7, graphs.BLOCK])
def test_reachable_arrays_match_the_whole_table(block, monkeypatch):
    # The blocked scan against np.nonzero of the n x n reachability table (its
    # upper triangle when undirected), dtypes included. Blocks of 1 and 7 cells
    # put scan edges between sources; the default takes these graphs whole.
    monkeypatch.setattr(graphs, "BLOCK", block)
    rng = random.Random(14000)
    cases = [hl.Graph(False, 0, []), hl.Graph(True, 0, []), hl.Graph(False, 1, [])]
    cases += [hl.Graph(True, 7, [(0, 1, 2), (2, 3, 1), (3, 2, 0), (4, 0, 3), (5, 6, 0)])]
    cases += [families.gen_bad_g(2), hl.Graph(True, 1, [])]
    cases += [with_zero_arcs(g, rng) for g in seeded_graphs(4, 9, 14100)]
    cases += [gen_random_directed(6 + i, 4 + 2 * i, 3, 14200 + i) for i in range(4)]
    assert {g.directed for g in cases} == {False, True}
    for g in cases:
        d = hl.all_pairs_distances(g)
        fin = d.exact() < d.unreachable
        want = np.nonzero(fin if g.directed else np.triu(fin))
        got = d.reachable_arrays()
        for a, b in zip(got, want):
            assert (a.dtype, a.shape) == (b.dtype, b.shape) and a.tobytes() == b.tobytes(), g


def test_source_runs_hold_block_cells_and_at_least_32_rows():
    # Every n <= 512 keeps runs of BLOCK cells; above, a run holds 32 rows, not
    # one strided column read each. The runs cover the sources in order.
    for n in (1, 300, 512, 513, 2000):
        d = hl.all_pairs_distances(hl.Graph(True, n, []))
        starts = [a for a, _, _ in d.source_runs()]
        want = max(1, graphs.BLOCK // n) if n <= 512 else 32
        assert starts == list(range(0, n, want)), n
        for a, rows, fin in d.source_runs():
            assert rows.flags.c_contiguous and rows.shape == fin.shape == (min(want, n - a), n)
            assert fin.tolist() == (np.arange(n) == np.arange(a, a + len(rows))[:, None]).tolist()


def test_reachable_scan_peaks_near_the_arrays_it_returns():
    # Each run's pairs wait as uint16 until the one join into intp, so the scan
    # holds little beyond the two arrays it returns.
    d = hl.all_pairs_distances(families.gen_random(461, 922, 10, 11))
    tracemalloc.start()
    try:
        us, ws = d.reachable_arrays()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert us.dtype == ws.dtype == np.intp and us.size > 100_000
    assert peak < 1.4 * (us.nbytes + ws.nbytes)


@pytest.mark.parametrize("directed", [False, True])
def test_pair_set_builds_no_n_by_n_table(directed):
    # Three reachable pairs besides the n self pairs: an n x n bool table would
    # be 8.6 MiB, and the scan and the index each peak far below 1 MiB.
    d = hl.all_pairs_distances(hl.Graph(directed, 3000, [(0, 1, 1), (1, 2, 1)]))
    for build in (d.reachable_pairs, lambda: PathIndex(d)):
        tracemalloc.start()
        try:
            result = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result) == 3003
        assert peak < 1 << 20


def _counted_source_runs(monkeypatch) -> list[list[int]]:
    """Wrap ``DistMatrix.source_runs``: one list per pass started, holding the
    first source of each run it yields."""
    passes, inner = [], graphs.DistMatrix.source_runs

    def counted(self, *args, **kwargs):
        passes.append([])
        for run in inner(self, *args, **kwargs):
            passes[-1].append(run[0])
            yield run

    monkeypatch.setattr(graphs.DistMatrix, "source_runs", counted)
    return passes


def test_each_builder_reads_the_distance_array_once(monkeypatch):
    # PathIndex on the full pair set and canonical_hhl take their pairs from
    # the same pass that gives their rows, both kinds; runs of 5 sources here.
    monkeypatch.setattr(graphs, "BLOCK", 200)
    passes = _counted_source_runs(monkeypatch)
    for g in (families.gen_random(40, 80, 6, 3), gen_random_directed(40, 90, 6, 3)):
        d = hl.all_pairs_distances(g)
        for build in (lambda: PathIndex(d), lambda: hl.canonical_hhl(d, hl.Order(range(1, 41)))):
            passes.clear()
            build()
            assert passes == [list(range(0, 40, 5))], g


@pytest.mark.parametrize("directed", [False, True])
def test_explicit_pairs_read_only_the_runs_holding_them(directed, monkeypatch):
    # 5,000 vertices make 157 runs of 32 sources; the three pairs lie in the
    # first, so PathIndex and verify_cover read that run alone. Unreachable
    # pairs added to the list are refused by PathIndex, the first in sorted
    # order named.
    n, trio = 5000, [(0, 1), (0, 2), (1, 2)]
    d = hl.all_pairs_distances(hl.Graph(directed, n, [(0, 1, 1), (1, 2, 1)]))
    selves = [[(v, 0)] for v in range(n)]
    lab = hl.Labeling(directed, n, selves, selves if directed else None)
    passes = _counted_source_runs(monkeypatch)
    assert len(list(d.source_runs())) == 157
    passes.clear()
    index = PathIndex(d, trio)
    assert index.pairs(slice(None)) == trio and passes == [[0]]
    assert [index[p].tolist() for p in range(3)] == [[0, 1], [0, 1, 2], [1, 2]]
    passes.clear()
    assert hl.verify_cover(lab, d, pairs=trio).uncovered == tuple(trio) and passes == [[0]]
    first = r"\(3,0\)" if directed else r"\(0,3\)"
    with pytest.raises(ValueError, match=f"pair {first} is unreachable and can never be covered"):
        PathIndex(d, trio + [(4000, 4001), (3, 0), (3, 4)])


@pytest.mark.parametrize("directed", [False, True])
def test_path_membership_refuses_a_bad_target(directed):
    # Vertex 2 is unreachable from 0: it was marked as on a shortest 0-2 path,
    # and -1 read vertex 2 from the end; 3 ended in numpy's own message.
    d = hl.all_pairs_distances(hl.Graph(directed, 3, [(0, 1, 1)]))
    row = d.exact()[0]
    assert hl.path_membership(d, row, [1, 0]).tolist() == [[True, True, False], [True, False, False]]
    with pytest.raises(ValueError, match="vertex 2 is unreachable"):
        hl.path_membership(d, row, [0, 2])
    for bad in (-1, -3, 3, 2**40):
        with pytest.raises(IndexError, match=f"vertex {bad} out of range for 3 vertices"):
            hl.path_membership(d, row, np.array([1, bad]))
    for none in (np.zeros(0, np.intp), []):
        assert hl.path_membership(d, row, none).shape == (0, 3)


def test_ranges_match_concatenated_aranges():
    rng = random.Random(14300)
    for trial in range(60):
        size = rng.choice((0, 1, 2, 5, 30))
        for dtype in (np.int32, np.int64):
            starts = np.array([rng.randrange(-50, 10**6) for _ in range(size)], dtype)
            counts = np.array([rng.choice((0, 0, 1, 3, 17)) for _ in range(size)], np.int64)
            got = graphs.ranges(starts, counts)
            parts = [np.arange(s, s + c) for s, c in zip(starts.tolist(), counts.tolist())]
            want = np.concatenate([np.zeros(0, np.int64), *parts])
            assert got.dtype == dtype and got.tolist() == want.tolist()


@pytest.mark.parametrize("block", [1, 7, graphs.BLOCK])
def test_transpose_matches_a_stable_argsort(block, monkeypatch):
    # The counting transpose against one stable argsort of all keys, with
    # pointers from their bincount, dtypes included. Blocks of 1 and 7 entries
    # cut the pass into runs inside and between rows; rows, keys and n may be
    # empty.
    monkeypatch.setattr(graphs, "BLOCK", block)
    rng = random.Random(14400 + block)
    for trial in range(60):
        n = rng.choice((0, 1, 2, 5, 30))
        lens = [rng.choice((0, 0, 1, 2, 9)) if n else 0 for _ in range(rng.choice((0, 1, 3, 40)))]
        ptr = np.concatenate(([0], np.cumsum(lens, dtype=np.int64)))
        owner = np.repeat(np.arange(len(lens), dtype=np.int32), lens)
        for dtype in (np.uint16, np.int64):
            keys = np.array([rng.randrange(n) for _ in owner], dtype)
            kptr, rows = graphs.transpose(ptr, keys, n)
            want_ptr = np.concatenate(([0], np.cumsum(np.bincount(keys, minlength=n))))
            want = owner[np.argsort(keys, kind="stable")]
            assert (kptr.dtype, kptr.tolist()) == (want_ptr.dtype, want_ptr.tolist())
            assert (rows.dtype, rows.shape) == (want.dtype, want.shape)
            assert rows.tobytes() == want.tobytes()


def test_dist_matrix_equal_whatever_the_arc_lengths_sum_to():
    # The redundant 2^40 edge makes the search fill int64; D = 2 narrows it to int16.
    arcs = [(0, 1, 1), (1, 2, 1)]
    a = hl.all_pairs_distances(hl.Graph(False, 3, arcs))
    b = hl.all_pairs_distances(hl.Graph(False, 3, arcs + [(0, 2, 2**40)]))
    assert a == b and hash(a) == hash(b)
    assert a.exact().dtype == b.exact().dtype == np.int16


def _differential_graphs() -> list[hl.Graph]:
    """Arcless graphs of 0 to 5 vertices, then per seed: an undirected and a
    directed graph, each again with zero-length arcs, two disjoint copies of
    the undirected one, the undirected one with lengths near 2^20 and the
    directed one with lengths near 2^40; so int16, int32 and int64 arrays."""
    rng = random.Random(15)
    out = [hl.Graph(directed, n, []) for directed in (False, True) for n in (0, 1, 2, 5)]
    for i in range(50):
        n = 2 + i % 19
        und = families.gen_random(n, min(n * (n - 1) // 2, n - 1 + i % 7), 1 + i % 5, 1500 + i)
        dig = gen_random_directed(n, i % 7, 1 + i % 5, 1600 + i)
        twice = und.arcs + tuple((t + n, h + n, ln) for t, h, ln in und.arcs)
        wide = [(t, h, 2**20 + ln) for t, h, ln in und.arcs]
        huge = [(t, h, 2**40 - ln) for t, h, ln in dig.arcs]
        out += [
            und,
            dig,
            with_zero_arcs(und, rng),
            with_zero_arcs(dig, rng),
            hl.Graph(False, 2 * n, twice),
            hl.Graph(False, n, wide),
            hl.Graph(True, n, huge),
        ]
    return out


def test_pivot_loop_matches_the_per_source_searches():
    dtypes, unreachable = set(), 0
    checked = _differential_graphs()
    assert len(checked) >= 300
    for g in checked:
        a = graphs._distances(g, graphs._pivot_fill)
        b = graphs._distances(g, graphs._dijkstra_fill)
        assert a.exact().dtype == b.exact().dtype, g
        assert a.exact().tobytes() == b.exact().tobytes(), g
        assert a.diameter == b.diameter, g
        dtypes.add(a.exact().dtype)
        unreachable += bool((a.exact() == a.unreachable).any())
    assert dtypes == {np.dtype(np.int16), np.dtype(np.int32), np.dtype(np.int64)}
    assert unreachable >= 100


def test_all_pairs_above_the_pivot_cut_runs_the_searches(monkeypatch):
    n = graphs.PIVOT_MAX_N + 1
    g = families.gen_random(n, n + 40, 10, 15)
    expect = graphs._distances(g, graphs._pivot_fill)
    monkeypatch.setattr(graphs, "_pivot_fill", None)
    d = hl.all_pairs_distances(g)
    assert d.exact().dtype == expect.exact().dtype
    assert d == expect and d.diameter == expect.diameter


def _chain(lengths, directed: bool = True) -> hl.Graph:
    """A path 0-1-...-k with the given arc lengths, then one lone vertex."""
    arcs = [(i, i + 1, x) for i, x in enumerate(lengths)]
    return hl.Graph(directed, len(lengths) + 2, arcs)


def _shortcut(length: int) -> hl.Graph:
    """The path 0-1-2 of unit edges beside a redundant edge 0-2: D = 2, and a fill
    bound of length + 2, from the n - 1 = 2 largest arc lengths (length and 1)."""
    return hl.Graph(False, 3, [(0, 1, 1), (1, 2, 1), (0, 2, length)])


# (graph, fill dtype, stored dtype). A fill bound b = far (the sum of the n - 1
# largest arc lengths + 1) and a stored bound b = D + 1 take int16 when 2b < 2^15,
# int32 when 2b < 2^31.
_DTYPE_CUTS = {
    "2(D+1) = 2^15 - 2": (_chain([2047, 1, 2047, 1, 12286]), np.int16, np.int16),
    "2(D+1) = 2^15": (_chain([2047, 1, 2047, 1, 12287]), np.int32, np.int32),
    "2(D+1) = 2^15, undirected": (_chain([2047, 1, 2047, 1, 12287], False), np.int32, np.int32),
    "2(D+1) = 2^31 - 2": (_chain([2**29, 2**29 - 2]), np.int32, np.int32),
    "2(D+1) = 2^31": (_chain([2**29, 2**29 - 1]), np.int64, np.int64),
    "2 far = 2^15 - 2": (_shortcut(2**14 - 3), np.int16, np.int16),
    "2 far = 2^15": (_shortcut(2**14 - 2), np.int32, np.int16),
    "2 far = 2^31 - 2": (_shortcut(2**30 - 3), np.int32, np.int16),
    "2 far = 2^31": (_shortcut(2**30 - 2), np.int64, np.int16),
}


@pytest.mark.parametrize("g, fill_dtype, dtype", _DTYPE_CUTS.values(), ids=_DTYPE_CUTS.keys())
def test_distance_dtype_at_its_cuts(g, fill_dtype, dtype):
    fills = []

    def recorded(fill):
        def run(g, far, dt):
            fills.append(np.dtype(dt))
            return fill(g, far, dt)

        return run

    expect = all_pairs_bruteforce(g)
    for fill in (graphs._pivot_fill, graphs._dijkstra_fill):
        d = graphs._distances(g, recorded(fill))
        assert d.exact().dtype == dtype
        assert [[d.dist(u, w) for w in range(g.n)] for u in range(g.n)] == expect
    assert fills == [np.dtype(fill_dtype)] * 2
    d = hl.all_pairs_distances(g)
    for u in range(g.n):
        cols = np.flatnonzero(d.exact()[u] < d.unreachable)
        table = hl.path_membership(d, d.exact()[u], cols)
        for j, w in enumerate(cols.tolist()):
            assert set(np.flatnonzero(table[j]).tolist()) == path_vertices_bruteforce(g, u, w)
    pi = hl.Order.from_sequence(reversed(range(g.n)))
    labels = hl.canonical_hhl(d, pi)
    assert labels == canonical_hhl_loop(d, pi)
    assert hl.verify_cover(labels, d) == verify_cover_loop(labels, d) == hl.CoverReport((), ())
    # A stored distance of 2^40 is wrong against any of the three arrays; the
    # cover, read from the exact distances, is unchanged.
    (h, _), *rest = labels.fwd[0]
    fwd = [[(h, 2**40), *rest], *labels.fwd[1:]]
    wrong = hl.Labeling(g.directed, g.n, fwd, labels.bwd if g.directed else None)
    report = hl.verify_cover(wrong, d)
    assert report == verify_cover_loop(wrong, d)
    assert report.wrong_distance == ((0, h),) and not report.uncovered


def _bound_binding_graphs() -> list[hl.Graph]:
    """Graphs with more arcs than n - 1, so the fill bound (the n - 1 largest arc
    lengths + 1) lies below the total: heavy arcs off every shortest path,
    parallel arcs of both kinds, input duplicates and zero-length arcs."""
    rng = random.Random(2300)
    k7 = [(u, w, rng.randint(950, 1000)) for u in range(7) for w in range(u + 1, 7)]
    chords = [(i, j, 10**4 + i * j) for i in range(8) for j in range(i + 2, 8)]
    out = [
        hl.Graph(False, 7, k7),  # the total needs int32, the bound int16
        hl.Graph(False, 8, [(i, i + 1, 1) for i in range(7)] + chords),
        hl.Graph(True, 8, [(i, i + 1, 1) for i in range(7)] + chords),
        # Both directions of each arc, the backward ones heavy; repeated inputs
        # collapse to their lightest copy.
        hl.Graph(True, 6, [(i, i + 1, 2) for i in range(5)] + [(i + 1, i, 500) for i in range(5)]
                 + [(i, i + 1, 700) for i in range(5)] + [(0, 5, 3000), (5, 0, 9)]),
        hl.Graph(False, 6, [(i, (i + 1) % 6, 1 + i % 3) for i in range(6)]
                 + [(0, 3, 5000), (3, 0, 7), (1, 4, 6000), (2, 5, 7000)]),
    ]
    out += [with_zero_arcs(g, rng) for g in out]
    out += [gen_random_directed(7, 14, 4000, 2300 + i) for i in range(3)]
    return out


def test_fill_bound_is_the_n_minus_1_largest_arcs_and_exact():
    cuts = 0
    for g in _bound_binding_graphs():
        lengths = sorted(ln for _, _, ln in g.arcs)
        far = sum(lengths[len(lengths) - (g.n - 1):]) + 1
        assert g.m > g.n - 1 and far < sum(lengths) + 1
        best = all_pairs_bruteforce(g)
        diameter = max(x for row in best for x in row if x != math.inf)
        want = np.array(
            [[best[v][w] if best[v][w] != math.inf else diameter + 1 for w in range(g.n)]
             for v in range(g.n)]
        )
        want = want.astype(np.int16 if 2 * (diameter + 1) < 2**15 else np.int32)
        for fill in (graphs._pivot_fill, graphs._dijkstra_fill):
            seen = []

            def recorded(g, bound, dtype, fill=fill):
                seen.append((bound, np.dtype(dtype)))
                return fill(g, bound, dtype)

            d = graphs._distances(g, recorded)
            assert seen[0][0] == far
            assert seen[0][1] == (np.int16 if 2 * far < 2**15 else np.int32)
            assert d.exact().dtype == want.dtype and d.exact().tobytes() == want.tobytes()
            assert d.diameter == diameter
            cuts += 2 * far < 2**15 <= 2 * (sum(lengths) + 1)
    assert cuts >= 4


def test_path_index_level_is_floor_log2_across_the_int16_cut():
    for last, top, dtype in ((12286, 16382, np.int16), (12287, 16383, np.int32)):
        d = hl.all_pairs_distances(_chain([2047, 1, 2047, 1, last]))
        assert d.exact().dtype == dtype
        index = PathIndex(d)
        dists = [d.dist(u, w) for u, w in index.pairs(slice(None))]
        assert {2047, 2048, 4095, 4096, top} <= set(dists)
        assert index.level.tolist() == [math.floor(math.log2(x)) if x else -1 for x in dists]


def _few_pivot_graphs() -> list[hl.Graph]:
    """Graphs where most vertices can end a simple path but not pass one on:
    stars both ways, layered DAGs, parallel arcs, zero-length arcs, bad-g."""
    rng = random.Random(20)
    out = []
    for k in range(1, 13):
        lengths = [rng.choice((0, 1, 3, 2**20)) for _ in range(k)]
        out.append(hl.Graph(False, k + 1, [(0, i + 1, x) for i, x in enumerate(lengths)]))
        out.append(hl.Graph(True, k + 1, [(0, i + 1, x) for i, x in enumerate(lengths)]))
        out.append(hl.Graph(True, k + 1, [(i + 1, 0, x) for i, x in enumerate(lengths)]))
        # Layers of width k: every arc goes one layer down, so only inner layers pass paths on.
        layers = 2 + k % 3
        arcs = [
            (i * k + a, (i + 1) * k + b, rng.choice((0, 1, 2, 5)))
            for i in range(layers - 1)
            for a in range(k)
            for b in range(k)
            if rng.random() < 0.5
        ]
        out.append(hl.Graph(True, layers * k, arcs))
        # Each leaf's two arcs are parallel, so they collapse to one and the leaf stays an end.
        doubled = [(0, i, 2) for i in range(1, k + 1)] + [(i, 0, 1) for i in range(1, k + 1)]
        out.append(hl.Graph(False, k + 1, doubled))
        out.append(hl.Graph(True, k + 1, doubled[:k] + [(t, h, 1) for t, h, _ in doubled[:k]]))
    out += [families.gen_bad_g(k) for k in (2, 3, 4, 5)]
    return out


def test_pivot_loop_matches_the_searches_where_few_vertices_are_pivots():
    with pytest.raises(ValueError, match="self-loop"):  # so no arc makes its own vertex a pivot
        hl.Graph(True, 2, [(0, 1, 1), (1, 1, 1)])
    skipped = total = 0
    for g in _few_pivot_graphs():
        tails, heads = {t for t, _, _ in g.arcs}, {h for _, h, _ in g.arcs}
        if g.directed:
            inner = tails & heads
        else:
            inner = {v for v in range(g.n) if len({w for w, _ in g.adjacency[v]}) > 1}
        skipped, total = skipped + g.n - len(inner), total + g.n
        a = graphs._distances(g, graphs._pivot_fill)
        b = graphs._distances(g, graphs._dijkstra_fill)
        assert a.exact().dtype == b.exact().dtype, g
        assert a.exact().tobytes() == b.exact().tobytes(), g
        assert a.diameter == b.diameter, g
    assert 4 * skipped > 3 * total
