from __future__ import annotations

import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hublab as hl
from hublab import cohen, families, graphs, greedy
from hublab.centers import PathIndex

from bruteforce import (
    arcs,
    build_center_graph,
    canonical_hhl_loop,
    center_weight_sum,
    density,
    endpoint_count_graphs,
    gen_random_directed,
    level_profile,
    on_shortest_path,
    pair_level,
    path_index_reference,
    side_nodes,
    shortest_path_vertices,
    with_zero_arcs,
)
from conftest import edge2, seeded_graphs


def _reachable_count_bfs(g: hl.Graph) -> int:
    # Independent reachability count: BFS over arcs, ignoring lengths.
    out = [[] for _ in range(g.n)]
    for t, h, _ in g.arcs:
        out[t].append(h)
        if not g.directed:
            out[h].append(t)
    total = 0
    for s in range(g.n):
        seen = {s}
        stack = [s]
        while stack:
            v = stack.pop()
            for w in out[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if g.directed:
            total += len(seen)
        else:
            total += sum(1 for v in seen if v >= s)
    return total


def test_initial_uncovered_counts():
    d1 = hl.all_pairs_distances(hl.Graph(False, 1, []))
    assert d1.reachable_pairs() == [(0, 0)]
    d2 = hl.all_pairs_distances(edge2())
    u2 = d2.reachable_pairs()
    assert len(u2) == 3 and set(u2) == {(0, 0), (0, 1), (1, 1)}
    g3 = families.gen_bad_g(3)
    d3 = hl.all_pairs_distances(g3)
    u3 = d3.reachable_pairs()
    assert len(u3) == _reachable_count_bfs(g3) == 79


def _same_index(a: PathIndex, b: PathIndex) -> bool:
    fields = ("u", "w", "level", "verts", "ptr", "vpairs", "vptr")
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in fields)


def _index_cases():
    rng = random.Random(13000)
    yield hl.Graph(False, 0, [])
    yield hl.Graph(True, 0, [])
    yield hl.Graph(False, 1, [])
    yield hl.Graph(True, 1, [])
    # Unreachable pairs and zero-length arcs (directed: a 2-cycle, one arc of length 0).
    yield hl.Graph(False, 7, [(0, 1, 2), (2, 3, 1), (3, 4, 0), (4, 2, 3)])
    yield hl.Graph(True, 7, [(0, 1, 2), (2, 3, 1), (3, 2, 0), (4, 0, 3), (5, 6, 0)])
    yield families.gen_bad_g(2)
    for i, g in enumerate(seeded_graphs(6, 9, 13100)):
        yield with_zero_arcs(g, rng) if i % 2 else g
    for i in range(4):
        g = gen_random_directed(5 + 2 * i, 3 + i, 3, 13200 + i)
        yield with_zero_arcs(g, rng) if i % 2 else g


@pytest.mark.parametrize("block", [1, 7, graphs.BLOCK])
def test_path_index_matches_the_whole_array_reference(block, monkeypatch):
    # Every array byte for byte, dtypes included, against the construction that
    # builds each from whole arrays. Blocks of 1 and 7 entries (and cells, so
    # mostly one source per reachable-pair scan) put block edges inside sources
    # and between them; the default takes these graphs whole. Explicit pair lists come
    # shuffled, with repeats, and undirected ones partly reversed.
    monkeypatch.setattr(graphs, "BLOCK", block)
    rng = random.Random(13300 + block)
    fields = ("u", "w", "level", "verts", "ptr", "vpairs", "vptr")
    for g in _index_cases():
        d = hl.all_pairs_distances(g)
        reach = d.reachable_pairs()
        part = rng.sample(reach, len(reach) // 2)
        part += rng.choices(part, k=len(part) // 3)
        if not g.directed:
            part = [(w, u) if rng.random() < 0.5 else (u, w) for u, w in part]
        for pairs in (None, part, reach[::-1], []):
            index, ref = PathIndex(d, pairs), path_index_reference(d, pairs)
            for f in fields:
                got, want = getattr(index, f), getattr(ref, f)
                assert (got.dtype, got.shape) == (want.dtype, want.shape), (g, f)
                assert got.tobytes() == want.tobytes(), (g, f)
            # The runs tile the pairs (or given ids) in order; a run of more
            # than BLOCK entries is one row.
            pids = np.array(rng.sample(range(len(index)), len(index)), dtype=np.int64)
            for ids in (None, pids):
                runs = list(graphs.runs(index.ptr, ids))
                ids = np.arange(len(index)) if ids is None else ids
                bounds = [0] + [hi for _, hi in runs]
                assert [lo for lo, _ in runs] == bounds[:-1] and bounds[-1] == len(ids)
                for lo, hi in runs:
                    size = int(np.diff(index.ptr)[ids[lo:hi]].sum())
                    assert size <= block or hi - lo == 1
                    assert hi == len(ids) or size + np.diff(index.ptr)[ids[hi]] > block


@pytest.mark.parametrize("block", [20, 45, 200])
def test_path_index_reads_sources_in_runs_of_several(block, monkeypatch):
    # PathIndex takes each source's row from a run of source_runs, BLOCK // n
    # rows here, and joins a run's rows once: against the reference, both kinds,
    # on the full pair set and on lists that leave sources, and whole runs,
    # without pairs.
    monkeypatch.setattr(graphs, "BLOCK", block)
    cases = list(_index_cases()) + [families.gen_random(60, 120, 5, 13400)]
    cases += [gen_random_directed(50, 40, 4, 13500)]
    fields = ("u", "w", "level", "verts", "ptr", "vpairs", "vptr")
    several = 0
    for g in cases:
        d = hl.all_pairs_distances(g)
        reach = d.reachable_pairs()
        sizes = [len(rows) for _, rows, _ in d.source_runs()]
        several += max(sizes, default=0) > 1 and len(sizes) > 2
        thirds = [(u, w) for u, w in reach if u % 3 == 1]
        tail = [(u, w) for u, w in reach if u >= 2 * g.n // 3]
        for pairs in (None, thirds, tail, reach[:1], []):
            index, ref = PathIndex(d, pairs), path_index_reference(d, pairs)
            for f in fields:
                got, want = getattr(index, f), getattr(ref, f)
                assert (got.dtype, got.shape) == (want.dtype, want.shape), (g, f)
                assert got.tobytes() == want.tobytes(), (g, f)
    assert several >= 2


def test_path_index_peaks_near_what_it_keeps():
    # No temporary spans every incidence entry or n x n cells: the peak is the
    # kept arrays plus one source's membership table or one block's arrays.
    d = hl.all_pairs_distances(families.gen_random(300, 600, 10, 11))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        index = PathIndex(d)
        kept, peak = (x - base for x in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    arrays = (index.u, index.w, index.level, index.verts, index.ptr)
    assert kept >= sum(a.nbytes for a in arrays + (index.vpairs, index.vptr)) > 2 << 20
    assert peak < kept + (3 << 19)  # 1.5 MiB


def test_path_index_peaks_under_1_2_times_its_arrays():
    # The pass keeps each run's pairs, lengths and rows narrow until the joins,
    # so the peak stays within a fifth above the arrays the index keeps.
    d = hl.all_pairs_distances(families.gen_random(300, 600, 10, 11))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        index = PathIndex(d)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    kept = sum(getattr(index, f).nbytes for f in "u w level ptr verts vptr vpairs".split())
    assert kept > 2 << 20 and peak <= 1.2 * kept


def test_path_index_canonicalizes_caller_pairs():
    # Undirected pairs are put min-first, duplicates dropped and the list sorted,
    # so any spelling of a pair set yields the index of its canonical list.
    rng = random.Random(3)
    for g in seeded_graphs(3, 8, 11600) + [gen_random_directed(6, 4, 3, 11700)]:
        d = hl.all_pairs_distances(g)
        canon = d.reachable_pairs()
        assert _same_index(PathIndex(d), PathIndex(d, canon))
        spelled = [(w, u) if not g.directed and rng.random() < 0.5 else (u, w) for u, w in canon]
        spelled += rng.sample(spelled, len(spelled) // 3)
        rng.shuffle(spelled)
        assert _same_index(PathIndex(d, spelled), PathIndex(d, canon))
        part = canon[::2]
        assert PathIndex(d, reversed(part)).pairs(slice(None)) == part
    d = hl.all_pairs_distances(edge2())
    index = PathIndex(d, [(1, 0), (0, 1), (1, 1)])
    assert index.pairs(slice(None)) == [(0, 1), (1, 1)]
    assert len(PathIndex(d, [])) == 0
    for bad in ([(0, 5)], [(-1, 0)], [(0, 0), (2, 1)]):
        with pytest.raises(ValueError, match="out of range"):
            PathIndex(d, bad)
    dg = hl.all_pairs_distances(families.gen_bad_g(2))
    ids = families.bad_g_ids(2)
    with pytest.raises(ValueError, match="unreachable"):
        PathIndex(dg, [(ids.a[0], ids.a[0]), (ids.c_id(1, 1), ids.a[0])])


def test_center_graph_bad_g_initial_counts():
    k = 3
    g = families.gen_bad_g(k)
    ids = families.bad_g_ids(k)
    d = hl.all_pairs_distances(g)
    u = d.reachable_pairs()
    assert build_center_graph(d, u, ids.a[0]).edge_count == (k + 1) ** 2 + 1 == 17
    assert build_center_graph(d, u, ids.b[0]).edge_count == (k + 1) ** 2 == 16
    assert build_center_graph(d, u, ids.c_id(1, 1)).edge_count == k + 2 == 5


def test_center_graph_empty_after_everything_covered():
    d = hl.all_pairs_distances(edge2())
    cg = build_center_graph(d, [], 0)
    assert cg.edge_count == 0
    with pytest.raises(hl.EmptyCenterGraphError):
        density(cg)


def test_density_examples():
    loop = hl.CenterGraph(0, False, ((0, 0),))
    assert density(loop) == Fraction(1, 1)
    k = 2
    w = families.gen_bad_w(k)
    dw = hl.all_pairs_distances(w)
    uw = dw.reachable_pairs()
    for v in (0, 1, 5):
        assert build_center_graph(dw, uw, v).nonisolated_count == w.n
    g = families.gen_bad_g(3)
    dg = hl.all_pairs_distances(g)
    ug = dg.reachable_pairs()
    cg_a1 = build_center_graph(dg, ug, 0)
    assert density(cg_a1) == Fraction(17, 18)


def test_level_profile_examples():
    k = 3
    g = families.gen_bad_g(k)
    ids = families.bad_g_ids(k)
    d = hl.all_pairs_distances(g)
    u = d.reachable_pairs()
    p_a = level_profile(build_center_graph(d, u, ids.a[0]), d)
    assert p_a.count(1) == k * (k + 1) == 12
    p_b = level_profile(build_center_graph(d, u, ids.b[0]), d)
    assert p_b.count(1) == k * k == 9
    loop = hl.CenterGraph(0, False, ((0, 0),))
    d1 = hl.all_pairs_distances(hl.Graph(False, 1, []))
    p_loop = level_profile(loop, d1)
    assert p_loop.counts == ((hl.NEG_INF_LEVEL, 1),)
    assert p_a.total == 17 and p_b.total == 16


def test_profile_key_orders_like_bigint_weight_sums():
    graphs = seeded_graphs(10, 8, 11000) + [gen_random_directed(6, 4, 3, 11100)]
    for g in graphs:
        d = hl.all_pairs_distances(g)
        u = d.reachable_pairs()
        scored = []
        for v in range(g.n):
            cg = build_center_graph(d, u, v)
            scored.append((level_profile(cg, d).key(), center_weight_sum(cg, d)))
        for (ka, wa), (kb, wb) in zip(scored, scored[1:]):
            assert (ka > kb) == (wa > wb) and (ka == kb) == (wa == wb)


def test_path_index_views_match_shortest_path_vertices():
    graphs = seeded_graphs(8, 7, 11400) + [gen_random_directed(6, 4, 3, 11500)]
    for g in graphs:
        d = hl.all_pairs_distances(g)
        index = PathIndex(d)
        assert index.pairs(slice(None)) == d.reachable_pairs()
        through = {v: [] for v in range(g.n)}
        for pid, (u, w) in enumerate(index.pairs(slice(None))):
            assert index[pid].tolist() == sorted(shortest_path_vertices(d, u, w))
            level = pair_level(d.dist(u, w))
            assert index.level[pid] == (-1 if level == hl.NEG_INF_LEVEL else level)
            for v in index[pid].tolist():
                through[v].append(pid)
            table = hl.path_membership(d, d.exact()[u], np.array([w, u]))  # reachable, any order
            for j, t in enumerate((w, u)):
                assert table[j].tolist() == [on_shortest_path(d, u, t, v) for v in range(g.n)]
        for v in range(g.n):
            assert index.through(v).tolist() == through[v]


# Zero-length arcs, and lengths near 2^40 so that sums leave int32.
_LENGTHS = st.one_of(st.just(0), st.integers(1, 4), st.integers(2**40 - 2, 2**40 + 2))


@st.composite
def _graphs(draw):
    directed, n = draw(st.booleans()), draw(st.integers(1, 6))
    ends = st.integers(0, n - 1)
    arcs = draw(st.lists(st.tuples(ends, ends, _LENGTHS), max_size=10))
    try:
        return hl.Graph(directed, n, [a for a in arcs if a[0] != a[1]])
    except ValueError:  # a zero-length cycle
        assume(False)


@settings(max_examples=80, deadline=None)
@given(_graphs(), st.randoms(use_true_random=False))
@example(hl.Graph(True, 4, [(0, 1, 2**40), (1, 2, 2**40 + 1), (2, 0, 0)]), random.Random(0))
@example(hl.Graph(False, 4, [(0, 1, 0), (1, 2, 2**40)]), random.Random(1))
@example(hl.Graph(True, 4, [(0, 1, 2**14), (1, 2, 0), (2, 3, 2**14)]), random.Random(2))
@example(hl.Graph(False, 4, [(0, 1, 2**14 - 3), (1, 2, 0), (0, 3, 1)]), random.Random(3))
def test_membership_kernel_matches_bruteforce(g, rnd):
    d = hl.all_pairs_distances(g)
    cap = d.diameter + 1
    into = d.exact()
    narrowest = np.int16 if 2 * cap < 2**15 else np.int32 if 2 * cap < 2**31 else np.int64
    assert into.dtype == narrowest
    rows = [[d.dist(u, v) if d.finite(u, v) else cap for v in range(g.n)] for u in range(g.n)]
    assert into.tolist() == rows
    index = PathIndex(d)
    assert index.pairs(slice(None)) == d.reachable_pairs()
    for pid, (u, w) in enumerate(index.pairs(slice(None))):
        assert index[pid].tolist() == sorted(shortest_path_vertices(d, u, w))
    order = list(range(g.n))
    rnd.shuffle(order)
    pi = hl.Order.from_sequence(order)
    assert hl.canonical_hhl(d, pi) == canonical_hhl_loop(d, pi)


def _engine_cases():
    """Seeded graphs of both kinds, each again with zero-length arcs, and an
    explicit pair list of each kind."""
    rng = random.Random(11400)
    graphs = seeded_graphs(6, 7, 11200) + [gen_random_directed(5, 3, 2, 11300)]
    for g in graphs + [with_zero_arcs(g, rng) for g in graphs]:
        yield g, None
    for g in (families.gen_random(8, 12, 3, 11500), gen_random_directed(7, 5, 3, 11600)):
        reach = hl.all_pairs_distances(g).reachable_pairs()
        yield g, rng.sample(reach, len(reach) // 2)


def test_engine_matches_from_scratch_after_random_covers():
    rng = random.Random(7)
    zero = explicit = own = 0
    for g, pairs in _engine_cases():
        d = hl.all_pairs_distances(g)
        engine = hl.CoverageState(d, pairs)
        order = list(range(g.n))
        rng.shuffle(order)
        for v in order[: g.n // 2 + 1]:
            engine.cover_pairs(engine.pairs_through(v))
            u = engine.index.pairs(np.flatnonzero(engine.uncovered))
            for x in range(g.n):
                cg = build_center_graph(d, u, x)
                assert engine.center_graph(x) == cg
                assert engine.edges[x] == cg.edge_count
                if pairs is None:  # noniso refuses explicit pairs by design
                    assert engine.noniso[x] == cg.nonisolated_count
                prof = level_profile(cg, d)
                assert engine.profile_key(x) == prof.key()
                # a directed own pair (x, x) joins the tail and the head of one id
                own += g.directed and {(0, x), (1, x)} <= set(cg.nodes) and (x, x) in arcs(cg)
        zero += any(ln == 0 for _, _, ln in g.arcs)
        explicit += pairs is not None
    assert zero >= 3 and explicit == 2 and own


def test_center_graph_matches_the_side_node_reference():
    # Arcs as callers may give them: repeats, undirected pairs either way round,
    # loops, directed pairs (v, v), and ids far past any vertex count.
    rng = random.Random(11700)
    for i in range(400):
        directed = i % 2 == 1
        pool = rng.sample([*range(12), 2**31, 2**40, 2**62], rng.randint(1, 8))
        pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randint(0, 12))]
        pairs += rng.sample(pairs, len(pairs) // 3)
        for arcs_in in (pairs, np.array(pairs, np.int64).reshape(-1, 2)):
            cg = hl.CenterGraph(5, directed, arcs_in)
            nodes, adj, loop = side_nodes(directed, pairs)
            assert (list(cg.nodes), list(cg.adj), list(cg.loop)) == (nodes, adj, loop)
            distinct = {(u, w) if directed else (min(u, w), max(u, w)) for u, w in pairs}
            assert arcs(cg) == sorted(distinct) and cg.edge_count == len(distinct)
            assert (cg.center, cg.directed, cg.nonisolated_count) == (5, directed, len(nodes))


def test_center_graph_refuses_non_int_and_negative_ids():
    # These reached the solvers as vertices: 1.0 as a float in the sets, -1 as a vertex.
    for directed in (False, True):
        for bad, match in [
            (((0, 1.0),), "1.0 is not an int"),
            (((0, "1"),), "'1' is not an int"),
            (((-1, 2),), "-1 is negative"),
            (((3, 1), (2, -5)), "-5 is negative"),
            (((0, 2**63),), "fit in int64"),
            (((0, 2**70),), "fit in int64"),
        ]:
            with pytest.raises(ValueError, match=match):
                hl.CenterGraph(0, directed, bad)
    # Nothing is allocated per id: an id of 2^40 solves as a small one does.
    big = 2**40
    for directed, want in [
        (False, (frozenset({3, big}),)),
        (True, (frozenset({big}), frozenset({3}))),
    ]:
        cg = hl.CenterGraph(0, directed, ((big, 3),))
        assert hl.mds_peel(cg) == hl.exact_mds(cg) == (want, Fraction(1, 2))


def test_cover_center_covers_exactly_its_arcs():
    g = families.gen_bad_g(2)
    d = hl.all_pairs_distances(g)
    engine = hl.CoverageState(d)
    u_before = set(engine.index.pairs(np.flatnonzero(engine.uncovered)))
    cg_arcs = set(arcs(engine.center_graph(0)))
    pids = engine.pairs_through(0)
    engine.cover_pairs(pids)
    assert set(engine.index.pairs(pids)) == cg_arcs
    assert set(engine.index.pairs(np.flatnonzero(engine.uncovered))) == u_before - cg_arcs
    with pytest.raises(ValueError, match="still uncovered"):
        engine.cover_pairs(pids[:1])


def test_cover_pairs_rejects_repeated_ids_and_takes_any_order():
    d = hl.all_pairs_distances(families.gen_bad_g(2))
    engine, again = hl.CoverageState(d), hl.CoverageState(d)
    pids = engine.pairs_through(0)
    for bad in ([pids[0], pids[0]], [pids[1], pids[0], pids[1]]):
        with pytest.raises(ValueError, match="distinct"):
            engine.cover_pairs(bad)
    assert engine.uncovered.all()  # a refused call changes nothing
    engine.cover_pairs(pids[::-1])
    again.cover_pairs(pids)
    assert (engine.uncovered == again.uncovered).all()
    assert (engine.noniso == again.noniso).all()
    # Checking distinctness of unsorted ids must not import numpy.ma, as a
    # plain np.unique does: every build child would pay for it.
    script = (
        "import sys\n"
        "import hublab as hl\n"
        "from hublab import families\n"
        "engine = hl.CoverageState(hl.all_pairs_distances(families.gen_bad_g(2)))\n"
        "pids = engine.pairs_through(0)\n"
        "print(len(pids) > 1, 'numpy.ma' in sys.modules)\n"
        "engine.cover_pairs(pids[::-1])\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(hl.__file__).resolve().parents[1]))
    res = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["True", "False", "False"]


def _lazy_cases():
    rng = random.Random(12100)
    for i, g in enumerate(seeded_graphs(6, 8, 12000)):
        yield g if i % 2 else with_zero_arcs(g, rng), None
    for i in range(6):
        g = gen_random_directed(4 + i, 2 + i, 3, 12200 + i)
        yield g if i % 2 else with_zero_arcs(g, rng), None
    for g in (families.gen_random(8, 12, 3, 12300), gen_random_directed(7, 5, 3, 12400)):
        reach = hl.all_pairs_distances(g).reachable_pairs()
        yield g, rng.sample(reach, len(reach) // 2)


def test_lazy_counters_match_from_scratch_from_their_first_read(monkeypatch):
    # noniso and lvl_counts exist only from their first read; read first
    # before any cover, after one, or after about n/2, each must equal the
    # center graphs rebuilt from scratch then and after every later cover.
    # Every case covers random parts of one center at a time; on the full pair
    # set it runs again covering whole centers. noniso counts pair ends, which
    # equal the non-isolated counts only there, so it is read only in that
    # second run, and an engine on explicit pairs refuses it.
    # Both at the default block and at blocks of 7 entries, which split the
    # cover counts inside a center's pairs.
    for block in (graphs.BLOCK, 7):
        monkeypatch.setattr(graphs, "BLOCK", block)
        _check_lazy_counters(random.Random(12500))


def _check_lazy_counters(rng):
    for i, (g, pairs) in enumerate(_lazy_cases()):
        d = hl.all_pairs_distances(g)
        width = d.diameter.bit_length()  # finite levels 0..floor(log2 diameter)
        points = (0, 1, max(2, g.n // 2))
        for whole in (False, True) if pairs is None else (False,):
            engine = hl.CoverageState(d, pairs)
            if pairs is not None:
                with pytest.raises(ValueError, match="full pair set"):
                    engine.noniso
            names = ("noniso", "lvl_counts") if whole else ("lvl_counts",)
            first = {"noniso": points[i % 3], "lvl_counts": points[(i + 2) % 3]}
            read, covers = set(), 0
            while True:
                for name in names:
                    if first[name] == covers or not engine.uncovered_count and name not in read:
                        assert name in read or name not in vars(engine)
                        getattr(engine, name)
                        read.add(name)
                live = engine.index.pairs(np.flatnonzero(engine.uncovered))
                for x in range(g.n):
                    cg = build_center_graph(d, live, x)
                    assert engine.edges[x] == cg.edge_count
                    if "noniso" in read:
                        assert engine.noniso[x] == cg.nonisolated_count
                    if "lvl_counts" in read:
                        prof = level_profile(cg, d)
                        assert engine.lvl_counts[x].tolist() == [
                            prof.count(lv) for lv in range(width)
                        ]
                if not engine.uncovered_count:
                    break
                # Cover one center's pairs, or a random part of them, in a shuffled order.
                v = rng.choice(np.flatnonzero(engine.edges).tolist())
                pids = engine.pairs_through(v).tolist()
                rng.shuffle(pids)
                engine.cover_pairs(pids if whole else pids[: rng.randint(1, len(pids))])
                covers += 1
            assert read == set(names)


def test_noniso_is_the_nonisolated_count_after_whole_center_covers():
    # The endpoint form of w-HHL's denominator against the center graphs
    # rebuilt from scratch, after every cover of a whole center, in a shuffled
    # order and in w-HHL's own pick order, first read before any cover and
    # after about half of them.
    rng = random.Random(12700)
    for g in endpoint_count_graphs(12800):
        d = hl.all_pairs_distances(g)
        picks = [rec.vertex for rec in greedy.run_w_hhl(d)[2].iterations]
        for order in (rng.sample(range(g.n), g.n), picks):
            for start in (0, len(order) // 2):
                engine = hl.CoverageState(d)
                for k in range(len(order) + 1):
                    if k >= start:
                        live = engine.index.pairs(np.flatnonzero(engine.uncovered))
                        cgs = [build_center_graph(d, live, x) for x in range(g.n)]
                        assert engine.noniso.tolist() == [cg.nonisolated_count for cg in cgs]
                    if k < len(order):
                        engine.cover_pairs(engine.pairs_through(order[k]))
                assert engine.uncovered_count == 0


@pytest.mark.parametrize("algo", ["g-hhl", "w-hhl", "d-hhl", "cohen"])
def test_each_run_builds_only_the_counters_its_picker_reads(algo, monkeypatch):
    engines = []

    class Recorded(hl.CoverageState):
        def __init__(self, *args):
            super().__init__(*args)
            engines.append(self)

    monkeypatch.setattr(greedy, "CoverageState", Recorded)
    monkeypatch.setattr(cohen, "CoverageState", Recorded)
    run = {"g-hhl": greedy.run_g_hhl, "w-hhl": greedy.run_w_hhl, "d-hhl": greedy.run_d_hhl}
    run["cohen"] = cohen.run_cohen_hl
    reads = {"w-hhl": {"noniso"}, "d-hhl": {"lvl_counts"}}.get(algo, set())
    for g in (families.gen_random(12, 20, 4, 12600), families.gen_bad_g(2)):
        run[algo](hl.all_pairs_distances(g))
        (engine,) = engines
        assert vars(engine).keys() & {"noniso", "lvl_counts"} == reads
        engines.clear()


def test_engine_rejects_unreachable_pairs():
    g = families.gen_bad_g(2)
    d = hl.all_pairs_distances(g)
    ids = families.bad_g_ids(2)
    bad = [(ids.c_id(1, 1), ids.a[0])]
    with pytest.raises(ValueError, match="unreachable"):
        hl.CoverageState(d, bad)
    # D = 3: the unreachable pair (0, 2) is stored as 4, a power of two
    d4 = hl.all_pairs_distances(hl.parse_graph("p undirected 4 1\na 0 1 3\n"))
    with pytest.raises(ValueError, match="unreachable"):
        PathIndex(d4, [(0, 2)])


def test_directed_density_counts_side_occurrences():
    # the directed self pair puts its vertex on both sides
    g = hl.Graph(True, 2, [(0, 1, 1)])
    d = hl.all_pairs_distances(g)
    u = d.reachable_pairs()
    cg0 = build_center_graph(d, u, 0)
    assert set(arcs(cg0)) == {(0, 0), (0, 1)}
    assert cg0.nonisolated_count == 3  # tails {0}, heads {0, 1}
    assert density(cg0) == Fraction(2, 3)
    assert hl.CoverageState(d).noniso[0] == 3  # (0, 0) as a tail and as a head, (0, 1)
    # undirected, the self pair [0, 0] counts once
    du = hl.all_pairs_distances(hl.Graph(False, 2, [(0, 1, 1)]))
    cu0 = build_center_graph(du, du.reachable_pairs(), 0)
    assert set(arcs(cu0)) == {(0, 0), (0, 1)} and cu0.nonisolated_count == 2
    assert hl.CoverageState(du).noniso[0] == 2
