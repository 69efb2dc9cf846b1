from __future__ import annotations

import hashlib
import itertools
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import hublab as hl
from hublab import families

from conftest import edge2, path_graph, triangle
from bruteforce import all_pairs_bruteforce, gen_random_reference


def test_gen_bad_g_counts():
    for k in (2, 3, 5):
        g = families.gen_bad_g(k)
        assert g.directed
        assert g.n == k + (k + 1) + k * (k + 1)
        assert g.m == 2 * k * (k + 1)
    assert families.gen_bad_g(2).n == 11
    assert families.gen_bad_g(3).n == 19
    with pytest.raises(families.InfeasibleParamsError):
        families.gen_bad_g(1)


def test_gen_bad_w_counts():
    for k in (2, 4):
        g = families.gen_bad_w(k)
        l = 2 * k * k
        assert not g.directed
        assert g.n == 2 + k + k * l
        assert g.m == 2 * k * l + k
    assert families.gen_bad_w(2).n == 20
    assert families.gen_bad_w(4).n == 134


def test_gen_separator_counts():
    for k in (2, 3, 4):
        g = families.gen_separator(k)
        ids = families.separator_ids(k)
        assert g.n == k * k + 1
        clique = sum(
            1 for t, h, _ in g.arcs if t in ids.centers and h in ids.centers
        )
        assert clique == k * (k - 1) // 2
        s_degree = sum(1 for t, h, _ in g.arcs if ids.s in (t, h))
        assert s_degree == k * (k - 1)
    assert families.gen_separator(3).n == 10


def test_gen_cycle4():
    c4 = families.gen_cycle4(False)
    assert (c4.n, c4.m) == (4, 4)
    c4p = families.gen_cycle4(True)
    assert (c4p.n, c4p.m) == (4, 8)
    d = hl.all_pairs_distances(c4)
    assert d.dist(0, 2) == 2


def test_reduce_vc_undirected_counts():
    k2 = edge2()
    gp = families.reduce_vc_undirected(k2)
    assert gp.n == 3 * 2 + 6 + 1 == 13
    assert gp.m == 4 + 1 + 6 + 2 == 13
    tri = triangle()
    assert families.reduce_vc_undirected(tri).n == 9 + 9 + 1 == 19


def test_reduce_vc_undirected_scaled_variant_has_unique_paths():
    from hublab.highway import _all_shortest_paths

    gp = families.reduce_vc_undirected(edge2(), unique_shortest_paths=True)
    lengths = {ln for _, _, ln in gp.arcs}
    assert lengths == {9, 10}
    s = 3 * 2
    head_edges = [
        ln for t, h, ln in gp.arcs if s in (t, h) and min(t, h) < s and min(t, h) % 3 == 0
    ]
    assert head_edges and all(ln == 9 for ln in head_edges)
    d = hl.all_pairs_distances(gp)
    per_pair: dict[tuple[int, int], int] = {}
    for p in _all_shortest_paths(gp, d):
        key = (p[0], p[-1])
        per_pair[key] = per_pair.get(key, 0) + 1
    assert set(per_pair.values()) == {1}


def test_construct_reduction_labeling_undirected():
    cases = [
        (edge2(), 1),
        (path_graph(2), 1),
        (triangle(), 2),
        (hl.Graph(False, 5, [(i, (i + 1) % 5, 1) for i in range(5)]), 3),
    ]
    for base, k_min in cases:
        vc = hl.min_vertex_cover(base)
        assert len(vc) == k_min
        gp = families.reduce_vc_undirected(base)
        d = hl.all_pairs_distances(gp)
        lab = families.construct_reduction_labeling_undirected(base, vc)
        assert hl.verify_cover(lab, d).valid
        # selves + s everywhere, two or three hubs per path gadget, three
        # crossings per base edge
        assert lab.size == 14 * base.n + 1 + 3 * base.m + k_min
        s = 3 * base.n
        assert all(s in lab.hubs(x) for x in range(gp.n))
        for t, h, _ in base.arcs:
            u, v = min(t, h), max(t, h)
            crossings = sum(
                1
                for yj in (3 * u, 3 * u + 1, 3 * u + 2)
                for hub in lab.hubs(yj)
                if hub in (3 * v, 3 * v + 1, 3 * v + 2)
            ) + sum(
                1
                for yj in (3 * v, 3 * v + 1, 3 * v + 2)
                for hub in lab.hubs(yj)
                if hub in (3 * u, 3 * u + 1, 3 * u + 2)
            )
            assert crossings == 3


def test_construct_reduction_labeling_undirected_rejects_non_cover():
    with pytest.raises(families.NotAVertexCoverError):
        families.construct_reduction_labeling_undirected(triangle(), {0})
    with pytest.raises(families.NotAVertexCoverError):
        families.construct_reduction_labeling_undirected(triangle(), {0, 7})


def test_generators_and_reductions_refuse_bad_input():
    for gen in (families.gen_bad_w, families.gen_separator):
        with pytest.raises(families.InfeasibleParamsError, match="k must be at least 2"):
            gen(1)
    for reduce in (families.reduce_vc_undirected, families.reduce_vc_directed):
        with pytest.raises(ValueError, match="base graph must be undirected"):
            reduce(families.gen_cycle4(True))
    for construct in (
        families.construct_reduction_labeling_undirected,
        families.construct_reduction_labeling_directed,
    ):
        with pytest.raises(ValueError, match="base graph must be undirected"):
            construct(families.gen_cycle4(True), {0, 1, 2, 3})
    with pytest.raises(families.NotAVertexCoverError, match="non-base vertices"):
        families.construct_reduction_labeling_directed(edge2(), {0, 2})


def test_reduce_vc_directed_counts():
    k2 = edge2()
    gp = families.reduce_vc_directed(k2)
    assert (gp.n, gp.m) == (6, 8)
    assert 2 * gp.n + gp.m == 20
    # one root, two chain vertices per base vertex, one sink per base edge
    assert families.reduce_vc_directed(triangle()).n == 1 + 6 + 3 == 10


def test_construct_reduction_labeling_directed():
    cases = [(edge2(), 1), (path_graph(2), 1), (triangle(), 2)]
    for base, k_min in cases:
        vc = hl.min_vertex_cover(base)
        gp = families.reduce_vc_directed(base)
        d = hl.all_pairs_distances(gp)
        lab = families.construct_reduction_labeling_directed(base, vc)
        assert hl.verify_cover(lab, d).valid
        assert lab.size == 2 * gp.n + gp.m + k_min
    p3 = path_graph(2)
    lab3 = families.construct_reduction_labeling_directed(p3, hl.min_vertex_cover(p3))
    assert lab3.size == 33
    with pytest.raises(families.NotAVertexCoverError):
        families.construct_reduction_labeling_directed(p3, set())


def _cycle(n: int) -> hl.Graph:
    return hl.Graph(False, n, [(i, (i + 1) % n, 1) for i in range(n)])


REDUCTION_BASES = {
    "K2": edge2,
    "P3": lambda: path_graph(2),
    "triangle": triangle,
    "C4": lambda: _cycle(4),
    "C5": lambda: _cycle(5),
}

# sha256 of serialize_labeling for (base, cover): the undirected construction
# without and with unique shortest paths, then the directed one. The cover is
# min_vertex_cover(base) or every base vertex. Captured when each construction
# looked up every hub distance itself.
REDUCTION_DIGESTS = {
    ("K2", "min"): (
        "609904d8bf22330371226c1157e6fc15074542504ffc5a98f25d3913e45d5de3",
        "990b9be705393ca5a44af420d5f5f235b721c0b0fb33741bdc16bfaac47097be",
        "0d87e26f8d1338eaba4035591aa381f1b6fe6396c352b6065691eae98bbc85e7",
    ),
    ("K2", "all"): (
        "faee447bbd0c81c3352bfb1499080df98e999d4dae6cc401db510a2fc80258e4",
        "4fe8b90311b913677c9dd7ec7537ed2bb6374bca72b11f26bf002883a2a020c6",
        "31882b23db3e1f322d92deb65938880623572e5c974d3676f11d8fa4ce8d3103",
    ),
    ("P3", "min"): (
        "f8f04f4dcfa027824a1f02d68534552c51d6bc396b285e2acdcfebdb9ece44c4",
        "fadf43899896cd7d56286a1ad23f9bdecbf9c83b46fbc7dde54580b67eeb56b1",
        "83d942ac06601b92b7d68885b1dc6b224829cb845fa847722e432a2d3308bbf3",
    ),
    ("P3", "all"): (
        "9b23fddda8895dcea3d26de5a60d546a9bd5ad42a804421422e66a5af820dc83",
        "9e09a5510e43277ab7d6f7bc641e2f9b40abc01e3bd6762f717986b8fd6fabea",
        "adb4c0e679f4e278ed2fa6c8868f149fa381663516228137165292977bc466d8",
    ),
    ("triangle", "min"): (
        "5097848bed2a037ec4e880d9084b235f2b6da65104077d5169300f7aba768e2c",
        "4cf082ef1c4052465ca7d273d4a3131236342a5d4b5c51e717444447256ac4ab",
        "ec8a4de84ee4ca0dae5c6b03125e85f7b2d10325204c48a7c43930c690c094ec",
    ),
    ("triangle", "all"): (
        "9ad635e487f36151d4af406c57db7a364e6d529add921b16b04218f48d31e686",
        "b0fba968613844f2b9d1b89947383c6ae44128d4f822196f2d470e2b76173e8e",
        "13e6c8f2983caf8c4ec4ad4144ad5c379d7bb8ed4168d50bc99549ac5401f368",
    ),
    ("C4", "min"): (
        "44783ec92004d370e1e4192597cea8c5e832260b00ae051c26c50b110cb1285d",
        "dfe8eb201704c2f8dd9c6a2d852ce30fd30a0f12d7125991d48d1b5d0514405a",
        "7b80ae433ca65c45e34c0c6840c2d1ddc528fd04c789886fe15e265954e4b5a0",
    ),
    ("C4", "all"): (
        "be0d3ce8ac46e8d3b0031c00347a1a9475a6e357f1dfc2494b3d3c8eb2f1c1a0",
        "3566b1aa1cfce6374468bbc34bc2d5664c54b3e60754944aa43818c64918ba6e",
        "e1a94f1483aa4f8d46d89faab871956d5f82a8a338a476d70f5542f39ff70d50",
    ),
    ("C5", "min"): (
        "b4c96f46569528583c557457fac268ca70ff6e470a7ec0dee9d72e8ad1ccbf1b",
        "39a5fcb4408e30112179b6b8638d9b5b160f090cf05f512bdb01c851862e22a9",
        "6d1b338ec33633ab22c9ce1e17269bb1cc8a14134739c52f05e3eddce20535c3",
    ),
    ("C5", "all"): (
        "26ecc1ea1778bcd4babbc71a9875cf83fe308223181f3f1872e00c3935a6fd87",
        "865dbcb85887dc5e285ecb10a6b4b5f9a4e69a6d94f268aa37073e7bfaed5047",
        "3c14b5ff579ab18f321661665567939516034619480276177a2ecc2cf791dbe2",
    ),
}


@pytest.mark.parametrize("key", sorted(REDUCTION_DIGESTS))
def test_reduction_labelings_unchanged(key):
    name, cover = key
    base = REDUCTION_BASES[name]()
    vc = hl.min_vertex_cover(base) if cover == "min" else range(base.n)
    labelings = [
        families.construct_reduction_labeling_undirected(base, vc, unique)
        for unique in (False, True)
    ]
    labelings.append(families.construct_reduction_labeling_directed(base, vc))
    digests = tuple(
        hashlib.sha256(hl.serialize_labeling(lab).encode()).hexdigest() for lab in labelings
    )
    assert digests == REDUCTION_DIGESTS[key]


def test_construct_separator_hl():
    for k in (3, 4):
        lab = families.construct_separator_hl(k)
        g = families.gen_separator(k)
        d = hl.all_pairs_distances(g)
        assert hl.verify_cover(lab, d).valid
        assert lab.size == 3 * k * (k - 1) + k * (k + 1) + 1
        ids = families.separator_ids(k)
        for leaf in ids.leaves:
            assert len(lab.fwd[leaf]) == 3
        assert len(lab.fwd[ids.s]) == 1
    assert families.construct_separator_hl(3).size == 31
    assert families.construct_separator_hl(4).size == 57


def test_separator_crossing_lower_bound_over_all_center_orders():
    for k in (3, 4, 5):
        g = families.gen_separator(k)
        ids = families.separator_ids(k)
        d = hl.all_pairs_distances(g)
        own = {
            ids.leaf_id(star, j): ids.centers[star]
            for star in range(k)
            for j in range(k - 1)
        }
        centers = set(ids.centers)
        bound = k * (k - 1) ** 2 // 2
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
            assert crossings >= bound


def test_construct_c4prime_hl():
    lab = families.construct_c4prime_hl()
    assert lab.size == 16
    assert [h for h, _ in lab.fwd[0]] == [0, 3]
    assert [h for h, _ in lab.bwd[0]] == [0, 1]
    assert lab.fwd[0] != lab.bwd[0]
    d = hl.all_pairs_distances(families.gen_cycle4(True))
    assert hl.verify_cover(lab, d).valid


def test_gen_random_determinism_and_shapes():
    a = families.gen_random(6, 8, 4, 123)
    b = families.gen_random(6, 8, 4, 123)
    assert hl.serialize_graph(a) == hl.serialize_graph(b)
    assert (a.n, a.m) == (6, 8)
    assert families.gen_random(1, 0, 3, 5).n == 1
    d = hl.all_pairs_distances(a)
    expect = all_pairs_bruteforce(a)
    assert all(d.finite(0, v) for v in range(a.n))  # connected
    assert all(d.dist(0, v) == expect[0][v] for v in range(a.n))


# sha256 of serialize_graph(gen_random(n, m, maxlen, seed)), seeds 0-2, as the
# generator gave them when it sampled from an explicit sorted candidate list.
GEN_RANDOM_DIGESTS = {
    (7, 10, 3): (
        "d206095f626f703f1d12261555f3fdc8338a5d584a423f6e73644edf8620f108",
        "e4fcca45c36d52f4971b4225609126cd3df609c7efba0ccf36b817b56c2c3642",
        "674e2e032b7e6f0c10c3fe83ada696c4ab77f3f37e85727710319dbe9db980ee",
    ),
    (25, 300, 5): (
        "11c6f6c89cce80d67677fe4b2a1ed50992d96999fd15b849319bbe260b042b46",
        "c91e03cb76eba3c927cecc2f531d1c4d583794e2839ca51ff69d8b695e5d8a66",
        "ad956a108a783192dbb2c72f2c4c4e9ac3e479e7a6258093f83bc8e4d113841c",
    ),
    (40, 80, 4): (
        "3bbede462722b0cb3e3621bca4ea13b43ffa9523c50ffba89bb92bcb675a5727",
        "8c62a97077e2623f41f4f3ebd9e94b334d033be654cb098d996a04359c2d173d",
        "86e426a2bb5b071d493d9ee54b30a501bd5f8620bf931b327c82a6ce41a60d07",
    ),
    (60, 120, 10): (
        "732584a5a9797dffd2514e5a98723a364203387b0bfb24679a4d049f6d042cf9",
        "be18b01b3fb10735c15e09240b1c4be9e0075f50b5adc0c336788ce6b83cbd78",
        "a5fc9c5875b1907e6fe2a1e8b107ddddb23b91d9cde2d07f546e645160ffef43",
    ),
    (300, 600, 10): (
        "f75bfa25aff865fe3accaa175b2f5b9cc1fcb5d832670330a0d3ce0c75a99f31",
        "a3343a67bb948621aaaad0e89200315ad588a4341858f7bd7e55da2a0cfc547b",
        "3ed3b2edd053aba9c4e6b0f5fc9bf5f8565fa4506efcc577b29376cbb73f7e02",
    ),
}


@pytest.mark.parametrize("size", sorted(GEN_RANDOM_DIGESTS))
def test_gen_random_graphs_unchanged(size):
    for seed, digest in enumerate(GEN_RANDOM_DIGESTS[size]):
        text = hl.serialize_graph(families.gen_random(*size, seed))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_non_tree_pairs_view_matches_sorted_list():
    for n in range(1, 30):
        rng = random.Random(n)
        tree = [(rng.randrange(i), i) for i in range(1, n)]
        present = set(tree)
        expect = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present]
        count, pair = families._non_tree_pairs(n, tree)
        assert count == len(expect)
        assert [pair(i) for i in range(count)] == expect
        for i in (-1, count):
            with pytest.raises(IndexError):
                pair(i)


def test_gen_random_matches_sampling_an_explicit_candidate_list():
    # Both branches of random.sample: a pool copy for small counts, a set of
    # drawn indices for large ones.
    for n in range(1, 41):
        top = n * (n - 1) // 2
        for m in sorted({min(m, top) for m in (n - 1, n, 2 * n, 3 * n, top)}):
            for seed in range(3):
                got = hl.serialize_graph(families.gen_random(n, m, 10, seed))
                assert got == hl.serialize_graph(gen_random_reference(n, m, 10, seed)), (n, m, seed)


def test_generate_random_at_vertex_limit_under_memory_cap(tmp_path):
    # 2*10^8 candidate pairs: listing them exceeds the cap, sampling a view does not.
    cap = 1 << 30

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = str(Path(hl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    out = tmp_path / "big.gr"
    cmd = [sys.executable, "-m", "hublab.cli", "generate", "random", "--n", "20000"]
    cmd += ["--m", "40000", "--out", str(out)]
    res = subprocess.run(cmd, env=env, preexec_fn=limit, capture_output=True, text=True)
    assert res.returncode in (0, 3), res.stderr
    assert "Traceback" not in res.stderr
    if res.returncode == 0:
        g = hl.parse_graph(out.read_text())
        assert (g.n, g.m) == (20000, 40000)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=0, m=0, maxlen=1, seed=0),
        dict(n=3, m=1, maxlen=1, seed=0),
        dict(n=3, m=4, maxlen=1, seed=0),
        dict(n=3, m=3, maxlen=0, seed=0),
    ],
)
def test_gen_random_infeasible(kwargs):
    with pytest.raises(families.InfeasibleParamsError):
        families.gen_random(**kwargs)


@pytest.mark.parametrize(
    "gen, args",
    [
        (families.gen_bad_g, (10**5,)),
        (families.gen_bad_w, (10**4,)),
        (families.gen_separator, (10**6,)),
        (families.gen_random, (10**6, 2 * 10**6, 10, 0)),
    ],
    ids=["bad-g", "bad-w", "separator", "random"],
)
def test_generators_refuse_oversize_before_building_arcs(gen, args):
    # Each instance has at least 10^10 arcs or candidate edges, so only a
    # refusal taken from the vertex count alone returns at all.
    with pytest.raises(hl.TooLargeError, match="vertex limit"):
        gen(*args)
