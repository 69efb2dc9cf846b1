"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every check is an exact equality. The two ``*_as_stated`` checks derive
their closed forms term by term from the construction and confirm them with
oracles that share no code with the engine: a canonical labeling rebuilt from
simple-path enumeration for the layered family, and scipy's MILP optimum for
the cover reduction. The ``*_observed`` companions pin the same identities
from the measured runs.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager

import numpy as np
import pytest

import hublab as hl
from hublab import families

from bruteforce import arcs, build_center_graph, is_sublabeling, optimal_hl_milp
from bruteforce import path_vertices_bruteforce, respects_order, undirect
from conftest import edge2, path_graph, star_graph, triangle


@contextmanager
def criterion(cid: str):
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {cid}: FAIL")
        raise
    else:
        print(f"\nACCEPTANCE {cid}: PASS")


# ---------------------------------------------------------------------------
# shared instances


@pytest.fixture(scope="module")
def bad_g_runs():
    out = {}
    for k in range(2, 9):
        g = families.gen_bad_g(k)
        d = hl.all_pairs_distances(g)
        out[k] = {
            "graph": g,
            "dist": d,
            "ids": families.bad_g_ids(k),
            "g": hl.run_g_hhl(d),
            "d": hl.run_d_hhl(d),
        }
    return out


@pytest.fixture(scope="module")
def bad_w_runs():
    out = {}
    for k in range(3, 7):
        g = families.gen_bad_w(k)
        d = hl.all_pairs_distances(g)
        ids = families.bad_w_ids(k)
        order, lab, trace = hl.run_w_hhl(d)
        better = hl.canonical_hhl(
            d, hl.Order.from_sequence([ids.a, ids.b] + list(ids.c) + list(ids.d))
        )
        out[k] = {
            "graph": g,
            "dist": d,
            "ids": ids,
            "run": (order, lab, trace),
            "better": better,
        }
    return out


@pytest.fixture(scope="module")
def reduction_bases():
    return {
        "K2": edge2(),
        "P3": path_graph(2),
        "triangle": triangle(),
        "C5": hl.Graph(False, 5, [(i, (i + 1) % 5, 1) for i in range(5)]),
    }


@pytest.fixture(scope="module")
def sphs_instances():
    out = []
    for name, g in (
        ("star", star_graph(5)),
        ("path8", path_graph(8)),
        ("bad-w-2", families.gen_bad_w(2)),
    ):
        d = hl.all_pairs_distances(g)
        ms = hl.greedy_multiscale_sphs(d)
        order, lab = hl.sphs_to_hhl(d, ms)
        out.append((name, g, d, ms, order, lab))
    return out


@pytest.fixture(scope="module")
def labeling_catalog(bad_g_runs, bad_w_runs, reduction_bases, sphs_instances,
                     random_graphs_8, random_graphs_7):
    """Every labeling the suite produces, paired with its distance matrix."""
    catalog = []
    for k, bundle in bad_g_runs.items():
        d = bundle["dist"]
        catalog.append((f"bad-g-{k}-ghhl", d, bundle["g"][1]))
        catalog.append((f"bad-g-{k}-dhhl", d, bundle["d"][1]))
    for k, bundle in bad_w_runs.items():
        d = bundle["dist"]
        catalog.append((f"bad-w-{k}-whhl", d, bundle["run"][1]))
        catalog.append((f"bad-w-{k}-better", d, bundle["better"]))
    for k in (3, 4, 5):
        d = hl.all_pairs_distances(families.gen_separator(k))
        catalog.append((f"separator-{k}", d, families.construct_separator_hl(k)))
    for name, base in reduction_bases.items():
        vc = hl.min_vertex_cover(base)
        gp = families.reduce_vc_undirected(base)
        catalog.append(
            (
                f"vc-und-{name}",
                hl.all_pairs_distances(gp),
                families.construct_reduction_labeling_undirected(base, vc),
            )
        )
        gd = families.reduce_vc_directed(base)
        catalog.append(
            (
                f"vc-dir-{name}",
                hl.all_pairs_distances(gd),
                families.construct_reduction_labeling_directed(base, vc),
            )
        )
    dc4p = hl.all_pairs_distances(families.gen_cycle4(True))
    catalog.append(("c4prime", dc4p, families.construct_c4prime_hl()))
    catalog.append(("c4prime-bnb", dc4p, hl.optimal_hl_bnb(dc4p).labeling))
    dc4 = hl.all_pairs_distances(families.gen_cycle4(False))
    catalog.append(
        ("c4-canonical", dc4, hl.canonical_hhl(dc4, hl.Order.from_sequence([0, 1, 2, 3])))
    )
    for name, g, d, ms, order, lab in sphs_instances:
        catalog.append((f"sphs-{name}", d, lab))
    g5 = families.gen_bad_g(5)
    d5 = hl.all_pairs_distances(g5)
    catalog.append(("bad-g-5-cohen", d5, hl.run_cohen_hl(d5, d5.reachable_pairs())[0]))
    for i, g in enumerate(random_graphs_7[:6]):
        d = hl.all_pairs_distances(g)
        for exact in (False, True):
            lab, _ = hl.run_cohen_hl(d, d.reachable_pairs(), exact_mds=exact)
            catalog.append((f"random7-{i}-cohen-{exact}", d, lab))
    for i, g in enumerate(random_graphs_8[:10]):
        d = hl.all_pairs_distances(g)
        for run in (hl.run_g_hhl, hl.run_w_hhl, hl.run_d_hhl):
            _, lab, _ = run(d)
            catalog.append((f"random8-{i}-{run.__name__}", d, lab))
        pi = hl.Order.from_sequence(list(range(g.n)))
        catalog.append((f"random8-{i}-canonical", d, hl.canonical_hhl(d, pi)))
    return catalog


# ---------------------------------------------------------------------------
# criteria


def test_c01_bad_g_greedy_orders_and_initial_counts(bad_g_runs):
    with criterion("1 (layered-family orders and initial center-graph counts)"):
        for k, bundle in bad_g_runs.items():
            ids = bundle["ids"]
            expected = list(ids.a) + list(ids.b) + list(ids.c)
            for algo in ("g", "d"):
                order = bundle[algo][0]
                assert order.by_rank() == expected
            d = bundle["dist"]
            u = d.reachable_pairs()
            assert build_center_graph(d, u, ids.a[0]).edge_count == (k + 1) ** 2 + 1
            assert build_center_graph(d, u, ids.b[0]).edge_count == (k + 1) ** 2
            assert build_center_graph(d, u, ids.c_id(1, 1)).edge_count == k + 2


def _bad_g_better_size(bundle, k):
    ids = bundle["ids"]
    d = bundle["dist"]
    order = hl.Order.from_sequence(list(ids.b) + list(ids.a) + list(ids.c))
    return hl.canonical_hhl(d, order).size


def _canonical_hub_sets(g, d, order):
    """Forward and backward hub sets of the canonical labeling for ``order``,
    rebuilt from simple-path enumeration without the package's engine."""
    fwd = [set() for _ in range(g.n)]
    bwd = [set() for _ in range(g.n)]
    for u, w in d.reachable_pairs():
        hub = min(path_vertices_bruteforce(g, u, w), key=order.rank)
        fwd[u].add(hub)
        bwd[w].add(hub)
    return fwd, bwd


def test_c02_bad_g_sizes_as_stated(bad_g_runs):
    with criterion("2 (layered-family size formulas, derived per layer)"):
        ratios = {}
        for k, bundle in bad_g_runs.items():
            better = _bad_g_better_size(bundle, k)
            assert better == k * (k + 3) + 2 * (k + 1) + 3 * k * (k + 1)
            ratios[k] = bundle["g"][1].size / better
        assert ratios[8] >= 2.4
        assert all(ratios[k] < ratios[k + 1] for k in range(2, 8))
        for k, bundle in bad_g_runs.items():
            # Both greedy runs rank a, b, c (criterion 1) and return the
            # canonical labeling of that order (criterion 8), which fixes each
            # vertex's fwd+bwd size: an a holds itself twice (2); a b holds
            # itself twice plus the k a's in its backward list (k+2); a c
            # holds itself twice plus the k a's and its own b backward (k+3).
            ids = bundle["ids"]
            per_layer = {"a": 2, "b": k + 2, "c": k + 3}
            for algo in ("g", "d"):
                lab = bundle[algo][1]
                for layer, size in per_layer.items():
                    for v in getattr(ids, layer):
                        assert len(lab.fwd[v]) + len(lab.bwd[v]) == size
                assert lab.size == 2 * k + (k + 1) * (k + 2) + k * (k + 1) * (k + 3)
        for k in (2, 3, 4):
            # Independent confirmation: 46, 98 and 178 entries for k = 2, 3, 4.
            bundle = bad_g_runs[k]
            order, lab, _ = bundle["g"]
            fwd, bwd = _canonical_hub_sets(bundle["graph"], bundle["dist"], order)
            assert fwd == [{h for h, _ in lst} for lst in lab.fwd]
            assert bwd == [{h for h, _ in lst} for lst in lab.bwd]


def test_c02_bad_g_sizes_observed(bad_g_runs):
    with criterion("2-observed (layered-family sizes, measured identities)"):
        ratios = {}
        for k, bundle in bad_g_runs.items():
            size = bundle["g"][1].size
            assert size == 2 * k + (k + 1) * (k + 2) + k * (k + 1) * (k + 3)
            assert size == bundle["d"][1].size
            better = _bad_g_better_size(bundle, k)
            assert better == k * (k + 3) + 2 * (k + 1) + 3 * k * (k + 1)
            ratios[k] = size / better
        assert ratios[8] >= 2.4
        assert all(ratios[k] < ratios[k + 1] for k in range(2, 8))


def test_c03_bad_w_order_and_sizes(bad_w_runs):
    with criterion("3 (density-trap orders and exact sizes)"):
        for k, bundle in bad_w_runs.items():
            ids = bundle["ids"]
            l = ids.l
            n = bundle["graph"].n
            order, lab, _ = bundle["run"]
            assert order.by_rank() == [ids.a] + list(ids.c) + [ids.b] + list(ids.d)
            expected = n + sum(1 + t + t * l for t in range(1, k + 1)) + 1 + k * l
            assert lab.size == expected
            better = bundle["better"].size
            assert better == n + (1 + k + k * l) + k * (1 + l) + k * l
            if k >= 4:
                assert lab.size > better


def test_c04_bad_w_eq1_eq2_regression(bad_w_runs):
    with criterion("4 (per-step center-graph edge counts match the closed forms)"):
        k = 4
        bundle = bad_w_runs[k]
        ids = bundle["ids"]
        l = ids.l
        d = bundle["dist"]
        m = d.matrix
        order, _, trace = bundle["run"]
        chosen = order.by_rank()
        for step in range(1, k + 1):
            rec = trace.iterations[step]
            t = k - (step - 1)
            assert rec.vertex == chosen[step] == ids.c[k - t]
            # A hierarchical run has covered exactly the pairs with a shortest
            # path through a vertex it chose earlier; the center graphs are
            # rebuilt from the distance matrix over the rest.
            blocked = np.zeros(m.shape, dtype=bool)
            for x in chosen[:step]:
                blocked |= m[:, x, None] + m[None, x, :] == m
            uncovered = [(u, w) for u, w in d.reachable_pairs() if not blocked[u, w]]
            eq_b = t * (t - 1) // 2 + t * (t - 1) * l + (1 + t + t * l)
            eq_c = l * (l - 1) // 2 + l * (t - 1) + l + (1 + t + t * l)
            assert build_center_graph(d, uncovered, ids.b).edge_count == eq_b
            for c in ids.c[k - t:]:
                assert build_center_graph(d, uncovered, c).edge_count == eq_c


def test_c05_optimality_oracles_on_the_4_cycles():
    with criterion("5 (4-cycle optima and the explicit directed labeling)"):
        dc4 = hl.all_pairs_distances(families.gen_cycle4(False))
        res = hl.optimal_hl_bnb(dc4)
        assert res.complete and res.lower == res.upper == 9
        hhl_size, _ = hl.optimal_hhl_bruteforce(dc4)
        assert hhl_size == 9
        dc4p = hl.all_pairs_distances(families.gen_cycle4(True))
        resp = hl.optimal_hl_bnb(dc4p)
        assert resp.complete and resp.lower == resp.upper == 16
        lab = families.construct_c4prime_hl()
        assert lab.size == 16
        assert hl.verify_cover(lab, dc4p).valid


def _reduction_data(bases):
    for name, base in bases.items():
        vc = hl.min_vertex_cover(base)
        gp = families.reduce_vc_undirected(base)
        dp = hl.all_pairs_distances(gp)
        lab_u = families.construct_reduction_labeling_undirected(base, vc)
        gd = families.reduce_vc_directed(base)
        dd = hl.all_pairs_distances(gd)
        lab_d = families.construct_reduction_labeling_directed(base, vc)
        yield name, base, vc, gp, dp, lab_u, gd, dd, lab_d


def _crossings_per_edge(base, lab):
    out = []
    for t, h, _ in sorted(base.arcs):
        u, v = min(t, h), max(t, h)
        u_side = (3 * u, 3 * u + 1, 3 * u + 2)
        v_side = (3 * v, 3 * v + 1, 3 * v + 2)
        count = sum(1 for x in u_side for hub in lab.hubs(x) if hub in v_side)
        count += sum(1 for x in v_side for hub in lab.hubs(x) if hub in u_side)
        out.append(count)
    return out


def _reduction_terms(base, lab):
    """Split the entries of an undirected reduction labeling into selves and
    root hubs, hubs inside one path gadget, and hubs across a base edge."""
    s = 3 * base.n
    root_or_self = gadget = crossing = other = 0
    for x in range(lab.n):
        for h, _ in lab.fwd[x]:
            if h in (x, s):
                root_or_self += 1
            elif x < s and h < s:
                if x // 3 == h // 3:
                    gadget += 1
                else:
                    crossing += 1
            else:
                other += 1
    assert other == 0
    return root_or_self, gadget, crossing


def _min_cover_size(base):
    """Vertex-cover number by exhaustive search over vertex subsets."""
    edges = [(t, h) for t, h, _ in base.arcs]
    for size in range(base.n + 1):
        for cover in itertools.combinations(range(base.n), size):
            if all(t in cover or h in cover for t, h in edges):
                return size


def test_c06_reductions_as_stated(reduction_bases):
    with criterion("6 (cover-gadget reductions, derived term by term)"):
        for name, base, vc, gp, dp, lab_u, gd, dd, lab_d in _reduction_data(reduction_bases):
            assert hl.verify_cover(lab_u, dp).valid
            assert hl.verify_cover(lab_d, dd).valid
            assert lab_d.size == 2 * gd.n + gd.m + len(vc)
            assert all(c == 3 for c in _crossings_per_edge(base, lab_u))
        for name, base, vc, gp, dp, lab_u, gd, dd, lab_d in _reduction_data(reduction_bases):
            # Each of the 6|V| non-root vertices holds itself and s, and s
            # holds itself: 12|V|+1. Each 3-path gadget carries three more
            # hubs for a cover vertex and two for any other: 2|V|+|vc|. Each
            # base edge is crossed three times: 3|E|.
            root_or_self, gadget, crossing = _reduction_terms(base, lab_u)
            assert root_or_self == 12 * base.n + 1
            assert gadget == 2 * base.n + len(vc)
            assert crossing == 3 * base.m
            assert lab_u.size == 14 * base.n + 1 + 3 * base.m + len(vc)
        for name in ("K2", "P3", "triangle"):
            # The reduction's claim: the optimum HL size is 14|V|+1+3|E|+tau,
            # affine in the vertex-cover number tau (33, 50 and 54 here).
            base = reduction_bases[name]
            tau = _min_cover_size(base)
            assert len(hl.min_vertex_cover(base)) == tau
            dp = hl.all_pairs_distances(families.reduce_vc_undirected(base))
            assert optimal_hl_milp(dp) == 14 * base.n + 1 + 3 * base.m + tau


def test_c06_reductions_observed(reduction_bases):
    with criterion("6-observed (cover-gadget reductions, measured identities)"):
        for name, base, vc, gp, dp, lab_u, gd, dd, lab_d in _reduction_data(reduction_bases):
            assert hl.verify_cover(lab_u, dp).valid
            assert hl.verify_cover(lab_d, dd).valid
            assert lab_u.size == 14 * base.n + 1 + 3 * base.m + len(vc)
            assert lab_d.size == 2 * gd.n + gd.m + len(vc)
            assert all(c == 3 for c in _crossings_per_edge(base, lab_u))
            # branch and bound proves the construction optimal on K2
            if base.n == 2:
                res = hl.optimal_hl_bnb(dp, budget=500_000)
                assert res.complete and res.lower == lab_u.size
                assert res.nodes == 112_189


def test_c07_separator_family():
    with criterion("7 (star-clique family: flat labeling size and forced crossings)"):
        for k in (3, 4, 5):
            lab = families.construct_separator_hl(k)
            d = hl.all_pairs_distances(families.gen_separator(k))
            assert hl.verify_cover(lab, d).valid
            assert lab.size == 3 * k * (k - 1) + k * (k + 1) + 1
        k = 3
        g = families.gen_separator(k)
        ids = families.separator_ids(k)
        d = hl.all_pairs_distances(g)
        own = {
            ids.leaf_id(star, j): ids.centers[star]
            for star in range(k)
            for j in range(k - 1)
        }
        centers = set(ids.centers)
        counts = []
        for perm in itertools.permutations(ids.centers):
            seq = [ids.s] + list(perm) + sorted(ids.leaves)
            lab = hl.canonical_hhl(d, hl.Order.from_sequence(seq))
            crossings = 0
            for v in range(g.n):
                for h, _ in lab.fwd[v]:
                    if v in own and h in centers and h != own[v]:
                        crossings += 1
                    elif h in own and v in centers and v != own[h]:
                        crossings += 1
            counts.append(crossings)
        assert len(counts) == 6
        assert min(counts) >= k * (k - 1) ** 2 // 2 == 6


def test_c08_canonical_minimality_and_greedy_identity(random_graphs_8):
    import random

    with criterion("8 (canonical minimality under extension; greedy = canonical)"):
        rng = random.Random(2024)
        assert len(random_graphs_8) == 50
        for g in random_graphs_8:
            d = hl.all_pairs_distances(g)
            for _ in range(20):
                seq = list(range(g.n))
                rng.shuffle(seq)
                pi = hl.Order.from_sequence(seq)
                lab = hl.canonical_hhl(d, pi)
                assert hl.verify_cover(lab, d).valid
                assert respects_order(lab, pi)
                fwd = [dict(lst) for lst in lab.fwd]
                for v in range(g.n):
                    for h in range(g.n):
                        if pi.rank(h) <= pi.rank(v) and rng.random() < 0.25:
                            fwd[v][h] = d.dist(v, h)
                ext = hl.Labeling(False, g.n, fwd)
                assert hl.verify_cover(ext, d).valid
                assert is_sublabeling(lab, ext)
            for run in (hl.run_g_hhl, hl.run_w_hhl, hl.run_d_hhl):
                order, glab, _ = run(d)
                assert glab == hl.canonical_hhl(d, order)


def test_c09_cohen_bounds(random_graphs_7):
    with criterion("9 (set-cover approximation bound; peeling within half of exact)"):
        checked = 0
        for g in random_graphs_7:
            d = hl.all_pairs_distances(g)
            res = hl.optimal_hl_bnb(d, budget=400_000)
            if not res.complete:
                continue
            checked += 1
            lab, _ = hl.run_cohen_hl(d, d.reachable_pairs(), exact_mds=True)
            assert lab.size <= (1 + math.log(g.n**2)) * res.upper
            _, trace = hl.run_cohen_hl(d, d.reachable_pairs())
            # Replay the trace: each pick covers the uncovered pairs through its
            # vertex with the tail among its forward receivers and the head
            # among its backward ones (the forward ones when undirected).
            uncovered = set(d.reachable_pairs())
            for rec in trace.iterations:
                u = sorted(uncovered)
                for v in range(g.n):
                    cg = build_center_graph(d, u, v)
                    if cg.edge_count == 0:
                        continue
                    _, peel_dens = hl.mds_peel(cg)
                    _, exact_dens = hl.exact_mds(cg)
                    assert peel_dens * 2 >= exact_dens
                heads = rec.receivers_bwd if d.directed else rec.receivers_fwd
                covered = {
                    (a, b)
                    for a, b in arcs(build_center_graph(d, u, rec.vertex))
                    if a in rec.receivers_fwd and b in heads
                }
                assert len(covered) == rec.covered
                uncovered -= covered
            assert not uncovered
        assert checked >= 25


def test_c10_highway_machinery(sphs_instances):
    with criterion("10 (highway dimension, multiscale labeling, level audit)"):
        und = undirect(families.gen_bad_g(3))
        h = hl.highway_dimension_bruteforce(und)
        assert h in (4, 5)
        for name, g, d, ms, order, lab in sphs_instances:
            assert hl.verify_cover(lab, d).valid
            assert respects_order(lab, order)
            bound = 1 + sum(ms.ball_caps)
            assert max(len(lab.fwd[v]) for v in range(g.n)) <= bound
        du = hl.all_pairs_distances(und)
        _, _, trace = hl.run_d_hhl(du)
        audit = hl.audit_dhhl_levels(trace, h)
        assert 3 + 2 in audit.label_sizes.values()
        assert math.isfinite(audit.bound_ratio)


def test_c11_query_exactness_for_every_labeling(labeling_catalog):
    with criterion("11 (query equals distance on every labeling the suite built)"):
        assert len(labeling_catalog) >= 50
        for name, d, lab in labeling_catalog:
            for s, t in d.reachable_pairs():
                got = lab.query(s, t)
                assert got == d.dist(s, t), (name, s, t, got)
