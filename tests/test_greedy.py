from __future__ import annotations

import math
import random
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import hublab as hl
from hublab import cohen, families, greedy
from hublab.graphs import MAX_VERTICES

from bruteforce import (
    build_center_graph,
    endpoint_count_graphs,
    level_profile,
    reachable_pairs,
    respects_order,
    run_cohen_hl_reference,
    select_reference,
)
from conftest import complete_graph, edge2, seeded_graphs


def test_g_hhl_bad_g_order_and_size():
    k = 3
    g = families.gen_bad_g(k)
    ids = families.bad_g_ids(k)
    d = hl.all_pairs_distances(g)
    order, lab, trace = hl.run_g_hhl(d)
    assert order.by_rank() == list(ids.a) + list(ids.b) + list(ids.c)
    assert lab.size == 2 * k + (k + 1) * (k + 2) + k * (k + 1) * (k + 3) == 98
    assert hl.verify_cover(lab, d).valid
    assert trace.iterations[0].score == (k + 1) ** 2 + 1


def test_g_hhl_single_vertex():
    d = hl.all_pairs_distances(hl.Graph(False, 1, []))
    order, lab, trace = hl.run_g_hhl(d)
    assert order.by_rank() == [0] and lab.size == 1
    assert len(trace.iterations) == 1


@pytest.mark.parametrize("algo", ["g-hhl", "w-hhl", "d-hhl"])
@pytest.mark.parametrize(
    "text, picked",
    [("p undirected 2 1\na 0 1 0\n", [0]), ("p undirected 3 2\na 0 1 0\na 1 2 1\n", [0, 2])],
    ids=["edge", "path"],
)
def test_zero_length_edge_order_is_full(algo, text, picked):
    # d(0, 1) = 0 puts 1 on a shortest path of [0, 0], so picking 0 covers [1, 1]
    # and 1 is never picked; it still gets a rank, after the picks.
    d = hl.all_pairs_distances(hl.parse_graph(text))
    run = {"g-hhl": hl.run_g_hhl, "w-hhl": hl.run_w_hhl, "d-hhl": hl.run_d_hhl}[algo]
    order, lab, trace = run(d)
    assert [rec.vertex for rec in trace.iterations] == picked
    assert order.n == d.n and order.by_rank() == picked + [1]
    assert trace.order is order
    assert hl.verify_cover(lab, d).valid


def test_g_hhl_two_vertex_edge():
    d = hl.all_pairs_distances(edge2())
    order, lab, trace = hl.run_g_hhl(d)
    # the first pick covers its own two pairs; [1,1] waits for vertex 1
    assert trace.iterations[0].covered == 2
    assert lab.size == 3
    # both orders give size 3
    other = hl.canonical_hhl(d, hl.Order.from_sequence([1, 0]))
    assert other.size == 3


def test_w_hhl_bad_w_order_and_size():
    k = 4
    g = families.gen_bad_w(k)
    ids = families.bad_w_ids(k)
    d = hl.all_pairs_distances(g)
    order, lab, _ = hl.run_w_hhl(d)
    assert order.by_rank() == [ids.a] + list(ids.c) + [ids.b] + list(ids.d)
    l = ids.l
    assert lab.size == g.n + sum(1 + t + t * l for t in range(1, k + 1)) + 1 + k * l == 597


def test_w_hhl_single_vertex():
    d = hl.all_pairs_distances(hl.Graph(False, 1, []))
    order, lab, _ = hl.run_w_hhl(d)
    assert order.by_rank() == [0] and lab.size == 1


def test_d_hhl_bad_g_matches_g_hhl():
    g = families.gen_bad_g(3)
    d = hl.all_pairs_distances(g)
    og, labg, _ = hl.run_g_hhl(d)
    od, labd, trace = hl.run_d_hhl(d)
    assert od == og and labd.size == 98
    # first pick is an a-vertex: 12 level-1 pairs beat 9
    first = trace.iterations[0]
    assert first.vertex in families.bad_g_ids(3).a
    assert first.score[0] == 12
    u = reachable_pairs(d)
    p_b = level_profile(build_center_graph(d, u, families.bad_g_ids(3).b[0]), d)
    assert p_b.count(1) == 9


def test_d_hhl_equals_g_hhl_when_all_distances_at_most_one():
    for g in (complete_graph(4), complete_graph(5), edge2()):
        d = hl.all_pairs_distances(g)
        og, labg, _ = hl.run_g_hhl(d)
        od, labd, _ = hl.run_d_hhl(d)
        assert og == od and labg == labd


def test_vertex_levels_bad_g():
    g = families.gen_bad_g(3)
    ids = families.bad_g_ids(3)
    d = hl.all_pairs_distances(g)
    _, _, trace = hl.run_d_hhl(d)
    levels = hl.vertex_levels(trace)
    assert all(levels[a] == 1 for a in ids.a)
    # once the a's are chosen every level-1 pair is covered, so the b's are
    # selected at level 0 and the c's see only their own zero-distance pairs
    assert all(levels[b] == 0 for b in ids.b)
    assert all(levels[c] in (0, hl.NEG_INF_LEVEL) for c in ids.c)


def test_vertex_levels_single_vertex_and_wrong_algo():
    d = hl.all_pairs_distances(hl.Graph(False, 1, []))
    _, _, trace = hl.run_d_hhl(d)
    assert hl.vertex_levels(trace) == {0: hl.NEG_INF_LEVEL}
    _, _, gtrace = hl.run_g_hhl(d)
    with pytest.raises(hl.TraceNotFromDHHLError):
        hl.vertex_levels(gtrace)


def test_trace_invariants():
    instances = [families.gen_bad_g(2), families.gen_bad_w(2)] + seeded_graphs(5, 7, 12000)
    for g in instances:
        d = hl.all_pairs_distances(g)
        for run in (hl.run_g_hhl, hl.run_w_hhl, hl.run_d_hhl):
            order, lab, trace = run(d)
            seen = set()
            prev = None
            for rec in trace.iterations:
                assert rec.uncovered_after < rec.uncovered_before
                assert rec.vertex not in seen
                seen.add(rec.vertex)
                if run is hl.run_d_hhl:
                    if prev is not None:
                        assert rec.level <= prev
                    prev = rec.level
            assert trace.iterations[-1].uncovered_after == 0
            assert hl.verify_cover(lab, d).valid
            assert respects_order(lab, order)


def test_w_hhl_density_is_pairs_covered_over_labels_added():
    # The picked density's denominator is the labels the pick adds.
    for g in endpoint_count_graphs(12900):
        trace = hl.run_w_hhl(hl.all_pairs_distances(g))[2]
        for rec in trace.iterations:
            assert rec.score == Fraction(rec.covered, rec.labels_added)


def _pick_density(edges, noniso):
    stub = SimpleNamespace(edges=np.array(edges, np.int64), noniso=np.array(noniso, np.int64))
    return greedy._pick_density(stub)


def _densest(edges, noniso):
    """The exact reference: the lowest id of greatest ``Fraction(e, k)`` among e > 0."""
    best = max((Fraction(e, k), -v) for v, (e, k) in enumerate(zip(edges, noniso)) if e)
    return -best[1], best[0], None


def _farey_next(e: int, k: int, bound: int) -> tuple[int, int]:
    """The density e'/k' just above e/k (e' k - e k' = 1) with the largest k' <= bound."""
    k0 = -pow(e, -1, k) % k
    k1 = k0 + (bound - k0) // k * k
    return (1 + e * k1) // k, k1


def test_float_density_argmax_premise_holds_at_the_vertex_limit():
    # max(k, k') n^2 <= 2 n^3 must stay below 2^52 for the float argmax to be exact.
    assert 2 * MAX_VERTICES**3 < 2**52


def test_density_pick_matches_exact_fractions_up_to_the_vertex_limit():
    # Stub engines with e up to n^2 and k up to 2n at n = MAX_VERTICES, many of
    # them with scaled copies (ties) or Farey neighbours (the closest distinct
    # densities) of another candidate, and centers with no edge in between.
    n, rng = MAX_VERTICES, random.Random(14700)
    ties = farey = 0
    for _ in range(3000):
        size = rng.randint(1, 10)
        edges = [rng.randint(1, n * n) for _ in range(size)]
        noniso = [rng.randint(1, 2 * n) for _ in range(size)]
        for i in range(size):
            j, mode = rng.randrange(size), rng.random()
            if mode < 0.3 and noniso[j] <= n:
                c = rng.randint(1, 2 * n // noniso[j])
                if edges[j] * c <= n * n:
                    edges[i], noniso[i] = edges[j] * c, noniso[j] * c
                    ties += i != j
            elif mode < 0.6:
                k = rng.randint(n, 2 * n)
                e = rng.randint(1, n * n // 2)
                while math.gcd(e, k) != 1:
                    e += 1
                edges[i], noniso[i] = _farey_next(e, k, 2 * n)
                edges[j], noniso[j] = (e, k) if j != i else (edges[i], noniso[i])
                farey += i != j
        for _ in range(rng.randint(0, 3)):
            at = rng.randint(0, len(edges))
            edges.insert(at, 0)
            noniso.insert(at, rng.randint(0, 2 * n))
        assert max(edges) <= n * n and max(noniso) <= 2 * n
        assert _pick_density(edges, noniso) == _densest(edges, noniso)
    assert ties > 500 and farey > 1000


def test_density_pick_separates_farey_neighbours_and_breaks_ties_by_id():
    n = MAX_VERTICES
    for e, k in ((1, 2 * n - 1), (n * n // 2 - 1, 2 * n - 1), (12_345_679, n + 3)):
        e1, k1 = _farey_next(e, k, 2 * n)
        assert e1 * k - e * k1 == 1 and e1 <= n * n and k1 <= 2 * n
        for edges, noniso, want in (
            ([e, 0, e1], [k, 0, k1], 2),
            ([e1, 0, e], [k1, 5, k], 0),
        ):
            assert _pick_density(edges, noniso) == (want, Fraction(e1, k1), None)
        # An exact tie goes to the lowest id.
        assert _pick_density([0, e, e1, e1], [1, k, k1, k1]) == (2, Fraction(e1, k1), None)
    # So does a tie between two forms of one density.
    assert _pick_density([1, n * n // 2, n * n], [1, n, 2 * n]) == (1, Fraction(n, 2), None)


def test_g_hhl_ratio_grows_on_bad_g():
    prev = 0.0
    for k in range(3, 11):
        g = families.gen_bad_g(k)
        ids = families.bad_g_ids(k)
        d = hl.all_pairs_distances(g)
        _, lab, _ = hl.run_g_hhl(d)
        better = hl.canonical_hhl(
            d, hl.Order.from_sequence(list(ids.b) + list(ids.a) + list(ids.c))
        )
        ratio = lab.size / better.size
        assert ratio >= (k + 3) / 8
        assert ratio > prev
        prev = ratio


def test_trace_to_dict_is_json_friendly():
    import json

    g = families.gen_bad_w(2)
    d = hl.all_pairs_distances(g)
    _, _, trace = hl.run_w_hhl(d)
    blob = json.dumps(trace.to_dict(), sort_keys=True)
    assert '"algo": "w-hhl"' in blob
    _, _, dtrace = hl.run_d_hhl(d)
    json.dumps(dtrace.to_dict())


def test_g_hhl_selection_peaks_near_the_engine(monkeypatch):
    # Above the engine's kept arrays, a g-HHL run holds one block of cover
    # counts at a time (the first pick covers 10,046 of 45,150 pairs), one
    # hub table (undirected) and the labeling it builds.
    kept = []

    class Marked(hl.CoverageState):
        def __init__(self, *args):
            super().__init__(*args)
            kept.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()

    monkeypatch.setattr(greedy, "CoverageState", Marked)
    d = hl.all_pairs_distances(families.gen_random(300, 600, 10, 11))
    tracemalloc.start()
    try:
        trace = greedy.run_g_hhl(d)[2]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.iterations[0].covered == 10_046
    assert peak - kept[0] < 5 << 18  # 1.25 MiB


@pytest.mark.parametrize("directed", [False, True])
def test_g_hhl_on_few_pairs_allocates_no_n_by_n_table(directed):
    # 3,000 vertices and two edges: the labeling has about 2n entries, so the run
    # after APSP (engine, selection and assembly) must stay far below the 8.6 MiB
    # of one n x n bool table, which an assembly from owner-by-hub tables needs.
    d = hl.all_pairs_distances(hl.Graph(directed, 3000, [(0, 1, 1), (1, 2, 1)]))
    tracemalloc.start()
    try:
        lab = hl.run_g_hhl(d)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lab.size == (6002 if directed else 3002)
    assert peak < 4 << 20


RUNS = {"g-hhl": hl.run_g_hhl, "w-hhl": hl.run_w_hhl, "d-hhl": hl.run_d_hhl}


def counting_select(monkeypatch, calls: list, engines: list) -> None:
    """Route every run's selection loop through ``_select`` while counting its
    ``step`` calls and keeping its engine."""
    select = greedy._select

    def counted(d, engine, algo, step):
        engines.append(engine)
        return select(d, engine, algo, lambda e: calls.append(algo) or step(e))

    monkeypatch.setattr(greedy, "_select", counted)
    monkeypatch.setattr(cohen, "_select", counted)


def _tail_cases():
    """(name, graph, pairs): both kinds, with zero-length arcs (a self pair's
    row then may hold 2 vertices), unreachable pairs, bad-g 2-5, bad-w 2 and
    n = 0/1 (``endpoint_count_graphs``); then explicit pair subsets for Cohen,
    each drawn with its self pairs, again without them and as self pairs alone."""
    for i, g in enumerate(endpoint_count_graphs(2600)):
        yield f"graph-{i}", g, None
    rng = random.Random(2700)
    for i, g in enumerate(endpoint_count_graphs(2800)[:16]):
        pairs = [p for p in reachable_pairs(hl.all_pairs_distances(g)) if rng.random() < 0.6]
        yield f"subset-{i}", g, pairs
        yield f"subset-{i}-no-self", g, [(u, w) for u, w in pairs if u != w]
        yield f"subset-{i}-self", g, [(u, w) for u, w in pairs if u == w]


def test_tail_shortcut_matches_the_step_by_step_loop(monkeypatch):
    # Labels, trace and order equal the loop that calls every step, for
    # g/w/d-HHL and for Cohen peeled and exact, and the shortcut fires.
    calls, engines, records = [], [], 0
    for name, g, pairs in _tail_cases():
        d = hl.all_pairs_distances(g)
        runs = []
        if pairs is None:
            for algo, run in RUNS.items():
                with monkeypatch.context() as m:
                    counting_select(m, calls, engines)
                    order, lab, trace = run(d)
                with monkeypatch.context() as m:
                    m.setattr(greedy, "_select", select_reference)
                    want_order, want_lab, want_trace = run(d)
                assert order == want_order, (name, algo)
                runs.append((algo, lab, trace, want_lab, want_trace))
        for exact in (False, True) if g.n <= 8 else (False,):
            with monkeypatch.context() as m:
                counting_select(m, calls, engines)
                lab, trace = hl.run_cohen_hl(d, pairs, exact_mds=exact)
            runs.append((f"cohen exact={exact}", lab, trace, *run_cohen_hl_reference(d, pairs, exact)))
        for algo, lab, trace, want_lab, want_trace in runs:
            assert hl.serialize_labeling(lab) == hl.serialize_labeling(want_lab), (name, algo)
            assert trace.to_dict() == want_trace.to_dict(), (name, algo)
            records += len(trace.iterations)
    assert not any(e.uncovered_count or e.edges.any() or e.uncovered.any() for e in engines)
    assert len(calls) < records


@pytest.mark.parametrize(
    "graph, steps",
    [
        (families.gen_bad_g(20), {"g-hhl": 42, "w-hhl": 22, "d-hhl": 42}),
        (families.gen_random(300, 600, 10, 11), {"g-hhl": 172, "w-hhl": 273, "d-hhl": 169}),
    ],
    ids=["bad-g-20", "random-300"],
)
def test_tail_of_own_pairs_takes_one_step(monkeypatch, graph, steps):
    # From the first step after which every uncovered pair is a one-vertex own
    # pair, one step call finishes the run; the trace still has a record per
    # pick (bad-g k=20: 420, 440 and 420 of its 461 are own-pair steps), and
    # the engine ends with no uncovered pair and no edge.
    d = hl.all_pairs_distances(graph)
    for algo, run in RUNS.items():
        calls, engines = [], []
        counting_select(monkeypatch, calls, engines)
        trace = run(d)[2]
        assert (len(calls), len(trace.iterations)) == (steps[algo], graph.n), algo
        (engine,) = engines
        assert engine.uncovered_count == 0 and not engine.edges.any() and not engine.uncovered.any()
