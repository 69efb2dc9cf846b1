"""Byte-identity pins for the selection engine and the exact oracles.

Each case hashes the serialized labeling and the sorted-key JSON of the run
trace (or the oracle's result). The digests were captured from the
from-scratch reference engine that kept one Python tuple per pair; any change
to an order, a label entry, a score or a trace counter shows up here.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

import hublab as hl
from hublab import families

from bruteforce import gen_random_directed, with_zero_arcs

INSTANCES = {
    "bad-g-5": lambda: families.gen_bad_g(5),
    "bad-w-3": lambda: families.gen_bad_w(3),
    "separator-3": lambda: families.gen_separator(3),
    "cycle4-directed": lambda: families.gen_cycle4(True),
    **{f"random-40-s{s}": (lambda s=s: families.gen_random(40, 80, 4, s)) for s in range(3)},
}
# Exact densest subgraphs enumerate subsets, so only instances whose center
# graphs fit the default limit of 20 run Cohen with ``exact_mds``.
EXACT_MDS = ("separator-3", "cycle4-directed")
ORACLE_INSTANCES = {
    "cycle4": lambda: families.gen_cycle4(False),
    "cycle4-directed": lambda: families.gen_cycle4(True),
    **{f"random-7-s{s}": (lambda s=s: families.gen_random(7, 10, 3, s)) for s in range(3)},
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run(name: str, algo: str) -> tuple[str, str]:
    d = hl.all_pairs_distances(INSTANCES[name]())
    if algo.startswith("cohen"):
        lab, trace = hl.run_cohen_hl(d, exact_mds=algo == "cohen-exact")
    else:
        runner = {"g-hhl": hl.run_g_hhl, "w-hhl": hl.run_w_hhl, "d-hhl": hl.run_d_hhl}[algo]
        _, lab, trace = runner(d)
    return _sha(hl.serialize_labeling(lab)), _sha(json.dumps(trace.to_dict(), sort_keys=True))


def _run_oracles(name: str) -> tuple[str, str]:
    d = hl.all_pairs_distances(ORACLE_INSTANCES[name]())
    size, order = hl.optimal_hhl_bruteforce(d)
    res = hl.optimal_hl_bnb(d)
    canon = hl.canonical_hhl(d, hl.Order(range(d.n, 0, -1)))
    summary = {
        "opt_hhl": [size, order.by_rank()],
        "bnb": [res.lower, res.upper, res.complete, res.nodes],
    }
    labels = hl.serialize_labeling(res.labeling) + hl.serialize_labeling(canon)
    return _sha(labels), _sha(json.dumps(summary, sort_keys=True))


CASES = [
    (name, algo)
    for name in INSTANCES
    for algo in ("g-hhl", "w-hhl", "d-hhl", "cohen")
    + (("cohen-exact",) if name in EXACT_MDS else ())
]

GOLDEN: dict[str, tuple[str, str]] = {
    "bad-g-5/g-hhl": (
        "fd26b35c5a5856ffc6e8292950dc9b0b8e7ae466630e8a30ae8d85c4bce3aa1d",
        "b1fd9b56c668865df75c1d54a3da47934f773fe38d9c13319fdc39e0f0d4e57d",
    ),
    "bad-g-5/w-hhl": (
        "e1c5746a2b0e0570bde3b1aef4c65ea059cbfd136348d9daf4eba91c944aa247",
        "b67bedf5db6b010f4a5cc4344ae1a30adfa1bcac04644bce0a35645162eb8798",
    ),
    "bad-g-5/d-hhl": (
        "fd26b35c5a5856ffc6e8292950dc9b0b8e7ae466630e8a30ae8d85c4bce3aa1d",
        "283ea8aac1e57c12bfd685a881bf8eba93af8d41d0a9410f533e2a9a3b32a359",
    ),
    "bad-g-5/cohen": (
        "e1c5746a2b0e0570bde3b1aef4c65ea059cbfd136348d9daf4eba91c944aa247",
        "0497467d014a3df962743ef0a5de01bdbfa69234b83acf67dbb30f97138a5bb9",
    ),
    "bad-w-3/g-hhl": (
        "6f614e603af7ee3f3ecc8c132175809b106953adacace17560a01e8c622a0593",
        "70c869082b86e411f1cd5ab378f4ab9a3c0911aefecd88433f384e1f4083f17b",
    ),
    "bad-w-3/w-hhl": (
        "6f614e603af7ee3f3ecc8c132175809b106953adacace17560a01e8c622a0593",
        "fc00adf2159ac23714791c9569f64118a7485c78c760bf74faebbbf4c6d77f31",
    ),
    "bad-w-3/d-hhl": (
        "6f614e603af7ee3f3ecc8c132175809b106953adacace17560a01e8c622a0593",
        "4d3409921af8d41387f184f464c5fd05a78484f5facfaab6b0a6d86060d114a4",
    ),
    "bad-w-3/cohen": (
        "8a4537d3625b9b8dbcdc6eab2e346b9a078690490b9694ea5330742ec902ffac",
        "65ca0391c5461def33316755020669ba72970b0e42f808d3fc32e4c452a10ea8",
    ),
    "separator-3/g-hhl": (
        "9eb7a2ea22113903aba58ec127895a18dd5bd8a07809766b862d281591ea7af3",
        "4870acd9532d54cea44589ee6fad3a199db313c33a5a937310c1d43857da07fd",
    ),
    "separator-3/w-hhl": (
        "9eb7a2ea22113903aba58ec127895a18dd5bd8a07809766b862d281591ea7af3",
        "2464439172a60113af89e8f2de96d7d783d3b3093727dc63c887c507dbc3a17d",
    ),
    "separator-3/d-hhl": (
        "9eb7a2ea22113903aba58ec127895a18dd5bd8a07809766b862d281591ea7af3",
        "dc969f6ec75ed18eff076d6b559e8c129370e39d1f07e701658dc0eb68dbe0c1",
    ),
    "separator-3/cohen": (
        "a6b0ab3abf74b284bbfadfe97ffd3ce2db3b109d42f960ff5bf5e056b117fda5",
        "a70a43792fd7f52ee3d92892bab5478e49695fdbffe9ac221fc6112246f7f53e",
    ),
    "separator-3/cohen-exact": (
        "a6b0ab3abf74b284bbfadfe97ffd3ce2db3b109d42f960ff5bf5e056b117fda5",
        "a70a43792fd7f52ee3d92892bab5478e49695fdbffe9ac221fc6112246f7f53e",
    ),
    "cycle4-directed/g-hhl": (
        "8cb0d5cc6910ae8178b8ca1ac715e2af9b720ab997786351d2e2fc68f6a54b9a",
        "dcfb83a1787555cbeef65a251094bd3f6298f852ca014c11c0191d05ec8a70d5",
    ),
    "cycle4-directed/w-hhl": (
        "8cb0d5cc6910ae8178b8ca1ac715e2af9b720ab997786351d2e2fc68f6a54b9a",
        "22a13f82f265223ddcd35535cd915d96d93f24dbd1d09125d7318b61d47e70c9",
    ),
    "cycle4-directed/d-hhl": (
        "8cb0d5cc6910ae8178b8ca1ac715e2af9b720ab997786351d2e2fc68f6a54b9a",
        "7d6fb82ec26f55720717a89341ba2b76d11031a90d121b05ed93e523fb20ddd0",
    ),
    "cycle4-directed/cohen": (
        "db56b3f72564afd6e45bfb311a10b0ec16c420f0134bc475b1c8ca4aa8ac616c",
        "0203ef567af704735692fe8057f70ad03229b4cc8398e3a7058ef90de9b4b097",
    ),
    "cycle4-directed/cohen-exact": (
        "db56b3f72564afd6e45bfb311a10b0ec16c420f0134bc475b1c8ca4aa8ac616c",
        "0203ef567af704735692fe8057f70ad03229b4cc8398e3a7058ef90de9b4b097",
    ),
    "random-40-s0/g-hhl": (
        "f7ae842ccc14505a9d1adbb22b95ad4ccd183dbc25bfc517e5852873738219f9",
        "ecd068dc84bc833506ca7d1eedaf637a3f21d31119faf1244a4438964f7244a7",
    ),
    "random-40-s0/w-hhl": (
        "d00c7f578a8719ee61c8c1d31107e762dd122f918801125c0fa5a033585f0708",
        "ac3604f78a74ef6b25e361b7b8b0ece22bb23bcc0a16f9a2e01baa5fd2fc131c",
    ),
    "random-40-s0/d-hhl": (
        "de1bba2727a360d8678840009a5e274a760bbc317f42890e1553b48c316280ca",
        "a89b844714ef67abe9ce3fbaaeb24691c9e20e59cbb6c2f3b006ba0384febeab",
    ),
    "random-40-s0/cohen": (
        "66c216846689daf150142b1a77e0af13a97dd07060bf447258465168f963210e",
        "c968aab7673a62ebe47962185e55002b5a95e55be3db79f1e27813062159d2be",
    ),
    "random-40-s1/g-hhl": (
        "cf7db23f6098316d5c55ffe4e8e2a1b892095ec5f8e5659fb578838cb3e5dea7",
        "5f8f5c878fbbda9649bf255a5db27f7a5501cc8bd327f0bdf46a80c20076d10e",
    ),
    "random-40-s1/w-hhl": (
        "82be19f16eb92fee8658d9c4dc6d5074005da54b9e7201fa078c5fb88b5e90c4",
        "b157517ced797fddce94c94b6bf448eaa7e9fd2c0b28fb2f743e298c09290520",
    ),
    "random-40-s1/d-hhl": (
        "2ee2fd8c4df2ef41ee2890b8691224ff0f9f809b9354c794e9e328594ff652fe",
        "3c16ed0090ea77457f6b9a2742914e26abdb02337f1eb3e2e708608118e1a679",
    ),
    "random-40-s1/cohen": (
        "302fc0c6b07d47b124f9ab7b6c4ccc6bfad7ec78bbc6562df74c5d0723ef3a33",
        "89cd8546523f86633e730d3189b46b8601948aead3a71bde99167c93c8052ece",
    ),
    "random-40-s2/g-hhl": (
        "1c335ee23be19b1457c144a370f29939e58947096fd4c218a0fb53221abb6d6d",
        "897d60b90ca9c3fd1e0da213d57e0d02dc4008a3a5eb77071eeaf3573a4855fe",
    ),
    "random-40-s2/w-hhl": (
        "ac9ed749080a46945ff83c6273cb314257ec8b2f8922e76fa024cfeabe130344",
        "b97d1422f39ffae0ad30990b33f06cd3ba473b3ce2e511ceaf6d04c945887f74",
    ),
    "random-40-s2/d-hhl": (
        "6fcbd5b7f67767ca8e2a9602f9e41a839b54b208842c2e269a1f20f30d3a5a15",
        "1a85f811e3f8acdc5ebcc5fa0b37ac28b62c1eb6d00d5cf07e47236cb640e803",
    ),
    "random-40-s2/cohen": (
        "dc3910a6d82719c8674328654545f5e07d8744372fc6bd44f3cffb3eb433d3db",
        "4a7030263bc726a8c5f5f3ebbc6524e5c7294011f67d1a382d1e81ceb8cbe96b",
    ),
}

ORACLE_GOLDEN: dict[str, tuple[str, str]] = {
    "cycle4": (
        "b429758aeb83fc4186076e9eaac62b0e7dc3001944aaf2bd67a613711caba58f",
        "e5a7206f55f0007f76841b5087d465a988a8bd551b51f3968d4f1c3ab04f897e",
    ),
    "cycle4-directed": (
        "26ba03dc90ad697f89ce3768441553326b2b06c7c868885987598a3c1288338a",
        "7689e32358c55e63f990cc1f9d85a83f1203a296296d3cfa28b4000efbba4f73",
    ),
    "random-7-s0": (
        "ff3393058dbfa657a71da1f4f4271515f103489d4cfe9316a39525517bea309d",
        "4c90c9ee26436fdb36fbd98430c3ff1d024d76d8534192212a95b9ac5b166c86",
    ),
    "random-7-s1": (
        "55dbc550e5c235454cad514f8b39805a4dda82e6a88b69a18fc39404fb9bc3ab",
        "68b6afb5b9a1938838419afb2ffe730a8d50854d29eae716d4e26551250a6230",
    ),
    "random-7-s2": (
        "b8398863a80d28937367cc550998572ecfe3055c470d207d7604926a047cb905",
        "1c9c39eb39ed4290dfa440764dd7b248087dbdeca7b84e358258f3dc611d55c4",
    ),
}


@pytest.mark.parametrize("name,algo", CASES)
def test_engine_output_is_byte_identical(name, algo):
    assert _run(name, algo) == GOLDEN[f"{name}/{algo}"]


@pytest.mark.parametrize("name", sorted(ORACLE_INSTANCES))
def test_oracle_output_is_byte_identical(name):
    assert _run_oracles(name) == ORACLE_GOLDEN[name]


def test_benchmark_branch_and_bound_is_pinned():
    # The search behind the small-exact benchmark's compare: vc-dir on C4, at
    # its budget; the digest is the label file that search wrote.
    c4 = hl.Graph(False, 4, [(i, (i + 1) % 4, 1) for i in range(4)])
    d = hl.all_pairs_distances(families.reduce_vc_directed(c4))
    res = hl.optimal_hl_bnb(d, budget=20_000)
    assert (res.lower, res.upper, res.complete, res.nodes) == (35, 54, False, 20014)
    labels = "e20d6c4debbe36b13750b8618eca5d5da835a45d28cdaa4a499cb7247dfef0a6"
    assert _sha(hl.serialize_labeling(res.labeling)) == labels


# d-HHL on zero-length arcs: each trace holds finite levels and, once only
# distance-0 pairs are left, level -inf. Captured before the trace level was
# read from the picked center's own level counts.
ZERO_ARC_INSTANCES = {
    "zero-und": lambda: with_zero_arcs(families.gen_random(14, 24, 4, 5), random.Random(5)),
    "zero-dir": lambda: with_zero_arcs(gen_random_directed(14, 10, 4, 6), random.Random(6)),
}
ZERO_ARC_GOLDEN: dict[str, tuple[str, str]] = {
    "zero-und": (
        "c4108a08c2bb97833344093703c90a88b55afc91f1f48142e595a1f31d5cea0e",
        "c1b657eb26279dc00f0d181dd3b5005accad4ccc70951ce5227963493e4e28ef",
    ),
    "zero-dir": (
        "8d67033b1a8476504b6ccd319f3de0132613b21924d8be61031f6fdd6b561310",
        "288207f610f781d5a028ecb5212cc082a9c848c3d0fd33579c634ff8631fc89d",
    ),
}


@pytest.mark.parametrize("name", sorted(ZERO_ARC_INSTANCES))
def test_d_hhl_levels_with_zero_length_arcs_are_pinned(name):
    g = ZERO_ARC_INSTANCES[name]()
    assert any(ln == 0 for _, _, ln in g.arcs)
    _, lab, trace = hl.run_d_hhl(hl.all_pairs_distances(g))
    levels = {rec.level for rec in trace.iterations}
    assert hl.NEG_INF_LEVEL in levels and len(levels) > 1
    text = json.dumps(trace.to_dict(), sort_keys=True)
    assert (_sha(hl.serialize_labeling(lab)), _sha(text)) == ZERO_ARC_GOLDEN[name]
