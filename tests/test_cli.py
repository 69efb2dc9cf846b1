from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hublab as hl
from hublab import families, highway
from hublab.cli import main

from conftest import path_graph


def _json_payload(capsys) -> dict:
    out = capsys.readouterr().out
    line = [ln for ln in out.splitlines() if ln.startswith("@json ")][-1]
    return json.loads(line[len("@json "):])


def test_generate_bad_g(tmp_path, capsys):
    out = tmp_path / "badg3.gr"
    assert main(["generate", "bad-g", "--k", "3", "--out", str(out)]) == 0
    payload = _json_payload(capsys)
    assert payload["n"] == 19
    g = hl.parse_graph(out.read_text())
    assert g == families.gen_bad_g(3)
    assert out.read_text().startswith("# hublab bad-g")


def test_generate_separator_with_hl(tmp_path, capsys):
    out = tmp_path / "sep3.gr"
    assert main(["generate", "separator", "--k", "3", "--with-hl", "--out", str(out)]) == 0
    payload = _json_payload(capsys)
    assert payload["labeling_size"] == 31
    labels = tmp_path / "sep3.labels"
    assert main(["verify", str(out), str(labels)]) == 0


def test_generate_vc_reduction(tmp_path, capsys):
    base = tmp_path / "k2.gr"
    base.write_text(hl.serialize_graph(hl.Graph(False, 2, [(0, 1, 1)])))
    out = tmp_path / "red.gr"
    assert main(["generate", "vc-und", "--graph", str(base), "--with-hl", "--out", str(out)]) == 0
    payload = _json_payload(capsys)
    assert payload["n"] == 13
    assert main(["verify", str(out), str(tmp_path / "red.labels")]) == 0


def test_generate_bad_w(tmp_path, capsys):
    out = tmp_path / "badw2.gr"
    assert main(["generate", "bad-w", "--k", "2", "--out", str(out)]) == 0
    payload = _json_payload(capsys)
    assert (payload["n"], payload["m"]) == (20, 34)  # 2 + k + k l vertices, 2 k l + k edges
    assert hl.parse_graph(out.read_text()) == families.gen_bad_w(2)


def _c5_base(tmp_path) -> Path:
    base = tmp_path / "c5.gr"
    base.write_text(hl.serialize_graph(hl.Graph(False, 5, [(i, (i + 1) % 5, 1) for i in range(5)])))
    return base


def test_generate_vc_dir_with_hl(tmp_path, capsys):
    out = tmp_path / "vd.gr"
    argv = ["generate", "vc-dir", "--graph", str(_c5_base(tmp_path)), "--with-hl"]
    assert main([*argv, "--out", str(out)]) == 0
    payload = _json_payload(capsys)
    # |V'| = 1 + 2|V| + |E|, |A'| = 2|V| + 4|E|; a minimum cover of C5 has 3 vertices
    assert (payload["n"], payload["m"]) == (16, 30)
    assert payload["labeling_size"] == 2 * 16 + 30 + 3 == 65
    assert main(["verify", str(out), str(tmp_path / "vd.labels")]) == 0


def test_generate_vc_und_with_hl_and_unique_paths(tmp_path, capsys):
    out = tmp_path / "vu.gr"
    argv = ["generate", "vc-und", "--graph", str(_c5_base(tmp_path)), "--with-hl", "--unique"]
    assert main([*argv, "--out", str(out)]) == 0
    payload = _json_payload(capsys)
    assert payload["n"] == 6 * 5 + 1 == 31
    assert payload["labeling_size"] == 14 * 5 + 1 + 3 * 5 + 3 == 89
    assert main(["verify", str(out), str(tmp_path / "vu.labels")]) == 0


def test_generate_cycle4_variants(tmp_path, capsys):
    und = tmp_path / "c4.gr"
    assert main(["generate", "cycle4", "--out", str(und)]) == 0
    assert hl.parse_graph(und.read_text()) == families.gen_cycle4(False)
    dird = tmp_path / "c4p.gr"
    assert main(["generate", "cycle4", "--directed", "--with-hl", "--out", str(dird)]) == 0
    payload = _json_payload(capsys)
    assert payload["labeling_size"] == 16
    assert main(["verify", str(dird), str(tmp_path / "c4p.labels")]) == 0
    # the explicit labeling only exists for the directed variant
    assert main(["generate", "cycle4", "--with-hl", "--out", str(tmp_path / "x.gr")]) == 2


# The flags without a default that each family reads (README, "Command line").
TAKES = {
    "bad-g": set(),
    "bad-w": set(),
    "random": set(),
    "separator": {"with-hl", "labels-out"},
    "cycle4": {"directed", "with-hl", "labels-out"},
    "vc-und": {"graph", "unique", "with-hl", "labels-out"},
    "vc-dir": {"graph", "with-hl", "labels-out"},
}
UNREAD = [
    (family, flag)
    for family, takes in TAKES.items()
    for flag in ("graph", "directed", "unique", "with-hl", "labels-out")
    if flag not in takes
]


@pytest.mark.parametrize("family, flag", UNREAD + [(f, "labels-out") for f in TAKES if TAKES[f]])
def test_generate_refuses_a_flag_its_family_does_not_read(tmp_path, capsys, family, flag):
    # Outside the vc families --graph names an existing file, and --labels-out
    # comes without --with-hl in the second group, so only the flag is at fault.
    base = tmp_path / "c5.base"
    base.write_text(hl.serialize_graph(hl.Graph(False, 5, [(i, (i + 1) % 5, 1) for i in range(5)])))
    value = {"graph": [str(base)], "labels-out": [str(tmp_path / "x.lab")]}.get(flag, [])
    argv = ["generate", family, "--k", "2", "--out", str(tmp_path / "x.gr"), f"--{flag}", *value]
    argv += ["--graph", str(base)] if family.startswith("vc-") else []
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {family} does not take --{flag}"), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c5.base"]


def test_build_and_verify_g_hhl(tmp_path, capsys):
    graph = tmp_path / "badg3.gr"
    graph.write_text(hl.serialize_graph(families.gen_bad_g(3)))
    labels = tmp_path / "badg3.labels"
    trace = tmp_path / "badg3.trace.json"
    code = main(
        ["build", str(graph), "--algo", "g-hhl", "--out", str(labels), "--trace", str(trace)]
    )
    assert code == 0
    payload = _json_payload(capsys)
    assert payload["size"] == 98 and payload["valid"]
    assert payload["wrong_distance"] == 0 and payload["uncovered"] == 0
    assert payload["order"][:3] == [0, 1, 2]
    blob = json.loads(trace.read_text())
    assert blob["algo"] == "g-hhl"
    assert main(["verify", str(graph), str(labels)]) == 0
    out = capsys.readouterr().out
    assert "wrong_distance: 0\nuncovered: 0\n" in out


def test_build_canonical_with_order_file(tmp_path, capsys):
    graph = tmp_path / "c4.gr"
    graph.write_text(hl.serialize_graph(families.gen_cycle4(False)))
    order = tmp_path / "order.txt"
    order.write_text("0\n1\n2\n3\n")
    labels = tmp_path / "c4.labels"
    assert main(
        ["build", str(graph), "--algo", "canonical", "--order", str(order), "--out", str(labels)]
    ) == 0
    assert _json_payload(capsys)["size"] == 9
    # comment lines may be indented, and ids may carry surrounding blanks
    order.write_text("# order\n  # note\n0\n 1\n2 \n\t# tab\n3\n")
    again = tmp_path / "again.labels"
    assert main(
        ["build", str(graph), "--algo", "canonical", "--order", str(order), "--out", str(again)]
    ) == 0
    assert again.read_bytes() == labels.read_bytes()


@pytest.mark.parametrize("ids", ["0\n1\n7\n", "0\n-1\n1\n", "0\n1\n1\n"])
def test_build_canonical_rejects_bad_order_ids(tmp_path, capsys, ids):
    graph = tmp_path / "p3.gr"
    graph.write_text(hl.serialize_graph(hl.Graph(False, 3, [(0, 1, 1), (1, 2, 1)])))
    order = tmp_path / "order.txt"
    order.write_text(ids)
    argv = ["build", str(graph), "--algo", "canonical", "--order", str(order)]
    assert main(argv + ["--out", str(tmp_path / "x.labels")]) == 2
    assert capsys.readouterr().err.startswith("error: vertex")


def test_build_rejects_inexact_distances(tmp_path, capsys):
    graph = tmp_path / "big.gr"
    graph.write_text(f"p directed 3 2\na 0 1 {2**60}\na 1 2 2\n")
    assert main(["build", str(graph), "--algo", "g-hhl", "--out", str(tmp_path / "x")]) == 2
    assert "2^53" in capsys.readouterr().err


def test_build_outputs_are_byte_identical(tmp_path, capsys):
    graph = tmp_path / "w.gr"
    graph.write_text(hl.serialize_graph(families.gen_bad_w(2)))
    out1, out2 = tmp_path / "a.labels", tmp_path / "b.labels"
    assert main(["build", str(graph), "--algo", "w-hhl", "--out", str(out1)]) == 0
    assert main(["build", str(graph), "--algo", "w-hhl", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # Only the program freezes the heap before it exits, never main in process.
    assert gc.get_freeze_count() == 0
    # As a program (python -m hublab.cli, and run() as the hublab script calls
    # it), each command gives main's stdout, stderr, exit code (0 to 3) and files.
    lines = out1.read_text().splitlines(keepends=True)
    drop = next(i for i, line in enumerate(lines) if len(line.split()) > 3)
    broken = tmp_path / "broken.labels"
    broken.write_text("".join(lines[:drop] + [lines[drop].rsplit(" ", 1)[0] + "\n"] + lines[drop + 1 :]))
    huge, missing, out = tmp_path / "huge.gr", tmp_path / "missing.gr", tmp_path / "c.labels"
    huge.write_text("p undirected 1000000000 0\n")
    cases = [
        (["build", str(graph), "--algo", "w-hhl", "--out", str(out)], 0),
        (["verify", str(graph), str(out1)], 0),
        (["verify", str(graph), str(broken)], 1),
        (["verify", str(missing), str(out1)], 2),
        (["generate", "nonsense", "--out", str(out)], 2),
        (["build", str(huge), "--algo", "g-hhl", "--out", str(out)], 3),
    ]
    src = str(Path(hl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    programs = ([sys.executable, "-m", "hublab.cli"],
                [sys.executable, "-c", "from hublab.cli import run; run()"])
    capsys.readouterr()
    for argv, code in cases:
        try:
            got = main(argv)
        except SystemExit as exc:  # argparse exits on a usage error
            got = exc.code
        expected = (got, *capsys.readouterr())
        assert got == code and (expected[1] or expected[2])
        label_file = out1.read_bytes() if argv[0] == "build" and not code else None
        for program in programs:
            out.unlink(missing_ok=True)
            res = subprocess.run(program + argv, env=env, capture_output=True, text=True)
            assert (res.returncode, res.stdout, res.stderr) == expected, argv
            assert (out.read_bytes() if out.exists() else None) == label_file, argv


def test_verify_detects_broken_labels(tmp_path, capsys):
    graph = tmp_path / "c4.gr"
    graph.write_text(hl.serialize_graph(families.gen_cycle4(False)))
    d = hl.all_pairs_distances(families.gen_cycle4(False))
    lab = hl.canonical_hhl(d, hl.Order.from_sequence([0, 1, 2, 3]))
    # drop one hub entry from the serialized form
    lines = hl.serialize_labeling(lab).splitlines()
    broken = []
    removed = False
    for line in lines:
        parts = line.split()
        if not removed and len(parts) > 3:
            parts.pop()
            removed = True
        broken.append(" ".join(parts))
    labels = tmp_path / "broken.labels"
    labels.write_text("\n".join(broken) + "\n")
    assert main(["verify", str(graph), str(labels)]) == 1
    payload = _json_payload(capsys)
    assert payload["violations"]
    assert payload["wrong_distance"] == 0
    assert payload["uncovered"] == len(payload["violations"])


@pytest.mark.parametrize("dd", [2**53, 10**400], ids=["2^53", "10^400"])
def test_verify_refuses_impossible_hub_distances(tmp_path, capsys, dd):
    graph = tmp_path / "edge.gr"
    graph.write_text("p undirected 2 1\na 0 1 1\n")
    labels = tmp_path / "huge.labels"
    labels.write_text(f"l 0 0:0\nl 1 0:{dd} 1:0\n")
    assert main(["verify", str(graph), str(labels)]) == 2
    err = capsys.readouterr().err
    assert "2^53" in err and "Traceback" not in err


def test_verify_reports_largest_accepted_hub_distance_as_wrong(tmp_path, capsys):
    graph = tmp_path / "edge.gr"
    graph.write_text("p undirected 2 1\na 0 1 1\n")
    labels = tmp_path / "big.labels"
    labels.write_text(f"l 0 0:0\nl 1 0:{2**53 - 1} 1:0\n")
    assert main(["verify", str(graph), str(labels)]) == 1
    out = capsys.readouterr().out
    assert "violations: 1\nwrong_distance: 1\nuncovered: 0\n" in out
    payload = json.loads(out.splitlines()[-1][len("@json "):])
    assert payload["violations"] == [[0, 1]]
    assert (payload["wrong_distance"], payload["uncovered"]) == (1, 0)


def test_verify_flags_a_hub_distance_equal_to_the_unreachable_value(tmp_path, capsys):
    # D = 5, and the entry 2:6 claims the unreachable pair (0, 2) at D + 1
    graph = tmp_path / "edge.gr"
    graph.write_text("p undirected 3 1\na 0 1 5\n")
    labels = tmp_path / "trap.labels"
    labels.write_text("l 0 0:0 2:6\nl 1 0:5 1:0\nl 2 2:0\n")
    assert main(["verify", str(graph), str(labels)]) == 1
    payload = _json_payload(capsys)
    assert (payload["wrong_distance"], payload["uncovered"]) == (1, 0)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("p undirected 4 1\na 0 1 3\n", "l 0 0:0\nl 1 0:3 1:0\nl 2 2:0\nl 3 3:0\n"),
        (
            f"p undirected 3 3\na 0 1 1\na 1 2 1\na 0 2 {2**40}\n",
            "l 0 0:0 1:1\nl 1 1:0\nl 2 1:1 2:0\n",
        ),
    ],
    ids=["unreachable-equals-top-radius", "int32-distances-beside-2^40-edge"],
)
def test_build_sphs_at_the_edges_of_the_integer_distances(tmp_path, text, expected):
    graph, labels = tmp_path / "g.gr", tmp_path / "g.labels"
    graph.write_text(text)
    assert main(["build", str(graph), "--algo", "sphs", "--out", str(labels)]) == 0
    assert labels.read_text() == expected
    assert main(["verify", str(graph), str(labels)]) == 0


def test_verify_rejects_mismatched_labels(tmp_path):
    graph = tmp_path / "c4.gr"
    graph.write_text(hl.serialize_graph(families.gen_cycle4(False)))
    labels = tmp_path / "tiny.labels"
    labels.write_text("l 0 0:0\nl 1 0:1 1:0\n")
    assert main(["verify", str(graph), str(labels)]) == 2


def test_query_command(tmp_path, capsys):
    graph = tmp_path / "badg3.gr"
    graph.write_text(hl.serialize_graph(families.gen_bad_g(3)))
    labels = tmp_path / "badg3.labels"
    main(["build", str(graph), "--algo", "g-hhl", "--out", str(labels)])
    capsys.readouterr()
    ids = families.bad_g_ids(3)
    assert main(["query", str(graph), str(labels), "5", "5"]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert main(["query", str(graph), str(labels), str(ids.a[0]), str(ids.c_id(1, 1))]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["query", str(graph), str(labels), str(ids.c_id(1, 1)), str(ids.a[0])]) == 0
    assert capsys.readouterr().out.strip() == "unreachable"
    assert main(["query", str(graph), str(labels), "99", "0"]) == 2
    for s, t in (("-1", "0"), ("0", "-1")):
        assert main(["query", str(graph), str(labels), s, t]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert "vertex id out of range" in captured.err


def test_query_command_prints_sums_above_2_to_the_53(tmp_path, capsys):
    graph = tmp_path / "three.gr"
    graph.write_text(hl.serialize_graph(hl.Graph(True, 3, [])))
    labels = tmp_path / "three.labels"
    fwd, bwd = [[(2, 2**53 - 1)], [], []], [[], [(0, 1), (2, 2**53 - 2)], []]
    labels.write_text(hl.serialize_labeling(hl.Labeling(True, 3, fwd, bwd)))
    assert main(["query", str(graph), str(labels), "0", "1"]) == 0
    assert capsys.readouterr().out == f"{2**54 - 3}\n"


def test_compare_with_oracle(tmp_path, capsys):
    graph = tmp_path / "c4.gr"
    graph.write_text(hl.serialize_graph(families.gen_cycle4(False)))
    assert main(["compare", str(graph), "--algos", "g-hhl,d-hhl", "--oracle"]) == 0
    payload = _json_payload(capsys)
    assert payload["optimal_hhl"] == 9
    assert payload["optimal_hl"]["upper"] == 9
    assert payload["sizes"]["g-hhl"] == 9


def test_compare_oracle_above_the_limit_skips_the_dp(tmp_path, capsys):
    # bad-w 2 has 20 vertices, above the default limit of 19; the 21-vertex path
    # is above the DP's ceiling of 20 whatever the limit says.
    graph = tmp_path / "w2.gr"
    graph.write_text(hl.serialize_graph(families.gen_bad_w(2)))
    path21 = tmp_path / "p21.gr"
    path21.write_text(hl.serialize_graph(path_graph(20)))
    for argv in ([str(graph)], [str(path21), "--oracle-limit", "5000"]):
        assert main(["compare", *argv, "--oracle", "--budget", "2000"]) == 0
        out = capsys.readouterr().out
        assert "optimal_hhl: skipped\n" in out
        payload = json.loads(out.splitlines()[-1][len("@json "):])
        assert payload["optimal_hhl"] is None
        assert 0 < payload["optimal_hl"]["lower"] <= payload["optimal_hl"]["upper"]
        assert set(payload["ratios"]) == {"g-hhl", "w-hhl", "d-hhl"}


def test_compare_oracle_on_20_random_vertices_runs_branch_and_bound(tmp_path, capsys):
    graph = tmp_path / "r20.gr"
    gen = ["generate", "random", "--n", "20", "--m", "40", "--maxlen", "4", "--seed", "1"]
    assert main([*gen, "--out", str(graph)]) == 0
    capsys.readouterr()
    compare = ["compare", str(graph), "--oracle", "--budget", "2000"]
    assert main(compare) == 0
    skipped = capsys.readouterr().out
    assert main([*compare, "--oracle-limit", "20"]) == 0
    ran = capsys.readouterr().out
    d = hl.all_pairs_distances(hl.parse_graph(graph.read_text()))
    opt_hhl = hl.optimal_hhl_bruteforce(d, limit_n=20)[0]
    bnb = hl.optimal_hl_bnb(d, budget=2000)
    sizes = json.loads(ran.splitlines()[-1][len("@json "):])["sizes"]
    # The search stops above w-HHL's 81 and the DP's 80; each valid labeling
    # and the HHL optimum bound the HL optimum from above as well.
    assert (bnb.upper, sizes["w-hhl"], opt_hhl) == (86, 81, 80)
    for out, dp, upper in ((skipped, None, 81), (ran, opt_hhl, 80)):
        payload = json.loads(out.splitlines()[-1][len("@json "):])
        assert payload["optimal_hhl"] == dp
        assert payload["optimal_hl"] == {"lower": bnb.lower, "upper": upper, "complete": bnb.complete}
        assert payload["ratios"] == {a: s / upper for a, s in sizes.items()}
    # Only the DP's line, the upper bound and the ratios differ between the two runs.
    moved = ("optimal_hhl:", "optimal_hl_upper:", "ratio[", "@json")
    assert [ln for ln in skipped.splitlines() if not ln.startswith(moved)] == [
        ln for ln in ran.splitlines() if not ln.startswith(moved)
    ]


def test_compare_oracle_ratios_are_never_below_one(tmp_path, capsys):
    graph = tmp_path / "r20.gr"
    gen = ["generate", "random", "--n", "20", "--m", "40", "--maxlen", "4", "--seed", "1"]
    assert main([*gen, "--out", str(graph)]) == 0
    capsys.readouterr()
    compare = ["compare", str(graph), "--oracle", "--budget", "2000"]
    for limit in ("19", "20"):
        assert main([*compare, "--oracle-limit", limit]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out.splitlines()[-1][len("@json "):])
        assert payload["optimal_hl"]["upper"] <= min(payload["sizes"].values())
        assert min(payload["ratios"].values()) >= 1
        assert all(float(ln.split(": ")[1]) >= 1 for ln in out.splitlines() if ln.startswith("ratio["))


def test_compare_oracle_default_limit_takes_the_13_vertex_k2_reduction(tmp_path, capsys):
    g = families.reduce_vc_undirected(hl.Graph(False, 2, [(0, 1, 1)]))
    assert g.n == 13
    graph = tmp_path / "k2.gr"
    graph.write_text(hl.serialize_graph(g))
    assert main(["compare", str(graph), "--oracle", "--budget", "2000"]) == 0
    payload = _json_payload(capsys)
    assert payload["optimal_hl"]["lower"] <= payload["optimal_hhl"] == 33


def test_compare_oracle_on_the_empty_graph_has_no_ratios(tmp_path, capsys):
    graph = tmp_path / "empty.gr"
    graph.write_text("p undirected 0 0\n")
    assert main(["compare", str(graph), "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "ratio[" not in out
    assert json.loads(out.splitlines()[-1][len("@json "):])["ratios"] is None


ALGOS = ["g-hhl", "w-hhl", "d-hhl", "cohen", "canonical", "sphs"]


def test_cli_never_builds_the_float_export(tmp_path, monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("DistMatrix.matrix built")

    monkeypatch.setattr(hl.DistMatrix, "matrix", property(refuse))
    order = tmp_path / "order"
    order.write_text("4\n3\n2\n1\n0\n")
    graphs = {
        "directed": "p directed 5 5\na 0 1 1\na 1 2 1\na 0 2 2\na 2 3 4\na 4 3 1\n",
        "undirected": "p undirected 5 4\na 0 1 1\na 1 2 2\na 0 2 3\na 3 4 1\n",
    }
    for kind, text in graphs.items():
        graph, labels = tmp_path / f"{kind}.gr", tmp_path / f"{kind}.labels"
        graph.write_text(text)
        algos = ALGOS[:-1] if kind == "directed" else ALGOS
        for algo in algos:
            build = ["build", str(graph), "--algo", algo, "--order", str(order)]
            assert main(build + ["--out", str(labels)]) == 0
            assert main(["verify", str(graph), str(labels)]) == 0
            assert main(["query", str(graph), str(labels), "0", "3"]) == 0
        compared = ",".join(a for a in algos if a != "canonical")
        assert main(["compare", str(graph), "--oracle", "--algos", compared]) == 0


def _run_quiet(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert "Traceback" not in err.getvalue()
    return code


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cli_keeps_its_exit_codes_on_small_graphs(data):
    # n = 0..7, both kinds, zero-length arcs and any number of components
    directed = data.draw(st.booleans(), label="directed")
    n = data.draw(st.integers(0, 7), label="n")
    vertex = st.integers(0, max(n - 1, 0))
    arc = st.tuples(vertex, vertex, st.integers(0, 3))
    arcs = [a for a in data.draw(st.lists(arc, max_size=2 * n), label="arcs") if a[0] != a[1]]
    order = data.draw(st.permutations(range(n)), label="order")
    kind = "directed" if directed else "undirected"
    text = f"p {kind} {n} {len(arcs)}\n" + "".join(f"a {t} {h} {ln}\n" for t, h, ln in arcs)
    with tempfile.TemporaryDirectory() as tmp:
        graph, order_file = Path(tmp) / "g.gr", Path(tmp) / "order"
        graph.write_text(text)
        order_file.write_text("".join(f"{v}\n" for v in order))
        for algo in ALGOS:
            labels = Path(tmp) / f"{algo}.labels"
            code = _run_quiet(["build", graph, "--algo", algo, "--order", order_file, "--out", labels])
            assert code in (0, 2, 3)
            if labels.exists():
                assert code == 0
                assert _run_quiet(["verify", graph, labels]) == 0
        assert _run_quiet(["compare", graph, "--oracle", "--budget", "2000"]) in (0, 2, 3)


def test_oversize_header_exits_3(tmp_path, capsys):
    graph = tmp_path / "huge.gr"
    graph.write_text("p undirected 1000000000 0\n")
    assert main(["build", str(graph), "--algo", "g-hhl", "--out", str(tmp_path / "x")]) == 3
    assert "vertex limit" in capsys.readouterr().err


def test_generate_oversize_family_exits_3(tmp_path, capsys):
    out = tmp_path / "huge.gr"
    assert main(["generate", "bad-g", "--k", "100000", "--out", str(out)]) == 3
    assert "vertex limit" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["undirected", "directed"])
def test_empty_graph_labels_round_trip(tmp_path, capsys, kind):
    graph, labels = tmp_path / "empty.gr", tmp_path / "empty.labels"
    graph.write_text(f"p {kind} 0 0\n")
    assert main(["build", str(graph), "--algo", "g-hhl", "--out", str(labels)]) == 0
    assert main(["verify", str(graph), str(labels)]) == 0
    assert "valid: True" in capsys.readouterr().out
    assert main(["query", str(graph), str(labels), "0", "0"]) == 2
    assert "vertex id out of range" in capsys.readouterr().err
    # a label line at n = 0 still names a vertex the graph does not have
    labels.write_text("l 0 0:0\n")
    assert main(["verify", str(graph), str(labels)]) == 2
    assert "does not match" in capsys.readouterr().err


def test_usage_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.gr"
    bad.write_text("p undirected 2 1\na 0 1 -1\n")
    assert main(["build", str(bad), "--algo", "g-hhl", "--out", str(tmp_path / "x")]) == 2
    missing = tmp_path / "missing.gr"
    assert main(["verify", str(missing), str(missing)]) == 2
    assert main(["generate", "vc-und", "--out", str(tmp_path / "y.gr")]) == 2
    c4 = tmp_path / "c4.gr"
    c4.write_text(hl.serialize_graph(families.gen_cycle4(False)))
    assert main(["compare", str(c4), "--oracle", "--budget", "-5"]) == 2
    assert "budget must be non-negative" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["generate", "nonsense", "--out", "z"])
    assert exc.value.code == 2


def test_generate_random_deterministic(tmp_path):
    out1, out2 = tmp_path / "r1.gr", tmp_path / "r2.gr"
    args = ["generate", "random", "--n", "6", "--m", "8", "--maxlen", "4", "--seed", "9"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    g = hl.parse_graph(out1.read_text())
    assert (g.n, g.m) == (6, 8)


def test_build_and_verify_at_vertex_limit_under_memory_cap(tmp_path):
    # The n x n int16 distance array alone is 0.8 GB at 20,000 vertices.
    cap = 1 << 29

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    graph, labels = tmp_path / "big.gr", tmp_path / "big.lab"
    graph.write_text("p undirected 20000 0\n")
    labels.write_text("".join(f"l {v}\n" for v in range(20000)))
    src = str(Path(hl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    for args in (["build", str(graph), "--algo", "g-hhl", "--out", str(tmp_path / "out.lab")],
                 ["verify", str(graph), str(labels)]):
        cmd = [sys.executable, "-m", "hublab.cli", *args]
        res = subprocess.run(cmd, env=env, preexec_fn=limit, capture_output=True, text=True)
        assert res.returncode == 3, res.stderr
        assert "Traceback" not in res.stderr
        assert res.stderr.startswith("error: ")


@pytest.mark.parametrize("kind", ["undirected", "directed"])
def test_commands_at_the_vertex_limit_fit_beside_the_distance_array(kind, tmp_path):
    # At 1 GiB the 0.8 GB int16 distance array fits, and no command path may
    # allocate a second n x n table: verify on identity labels, the g-HHL build
    # with its closing cover check, and (undirected) canonical on the identity
    # order and SPHS, also on two edges, whose path enumeration is cached by
    # graph and distances, then verified. Run one child at a time: each holds
    # the 0.8 GB array.
    cap, n = 1 << 30, 20000

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    graph, labels, order = tmp_path / "big.gr", tmp_path / "big.lab", tmp_path / "order.txt"
    graph.write_text(f"p {kind} {n} 0\n")
    sides = ("l",) if kind == "undirected" else ("f", "b")
    labels.write_text("".join(f"{t} {v} {v}:0\n" for v in range(n) for t in sides))
    order.write_text("".join(f"{v}\n" for v in range(n)))
    out = str(tmp_path / "out.lab")
    build = ["build", str(graph), "--out", out, "--algo"]
    commands = [["verify", str(graph), str(labels)], [*build, "g-hhl"]]
    if kind == "undirected":
        commands += [[*build, "canonical", "--order", str(order)], [*build, "sphs"]]
        edges, sphs = tmp_path / "edges.gr", str(tmp_path / "edges.lab")
        edges.write_text(f"p undirected {n} 2\na 0 1 1\na 1 2 1\n")
        commands += [["build", str(edges), "--out", sphs, "--algo", "sphs"]]
        commands += [["verify", str(edges), sphs]]
    src = str(Path(hl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    for args in commands:
        cmd = [sys.executable, "-m", "hublab.cli", *args]
        res = subprocess.run(cmd, env=env, preexec_fn=limit, capture_output=True, text=True)
        assert res.returncode == 0, (args, res.stderr)
        assert "valid: True" in res.stdout.splitlines()


def test_exact_cohen_past_its_subset_cap_exits_3_quickly(tmp_path):
    # Every center graph of bad-w k=2 has 20 side nodes: 2^20 subsets per call.
    graph = tmp_path / "w2.gr"
    graph.write_text(hl.serialize_graph(families.gen_bad_w(2)))
    src = str(Path(hl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, "-m", "hublab.cli", "build", str(graph), "--algo", "cohen",
           "--exact-mds", "--out", str(tmp_path / "w2.lab")]
    start = time.monotonic()
    res = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=30)
    assert time.monotonic() - start < 10
    assert res.returncode == 3, res.stderr
    assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr


def test_compare_oracle_with_a_deep_search_exits_0(tmp_path):
    # The branch and bound on this graph goes deeper than the interpreter's
    # recursion limit; exit 1 is only for an invalid labeling.
    graph = tmp_path / "r120.gr"
    graph.write_text(hl.serialize_graph(families.gen_random(120, 240, 9, 4)))
    src = str(Path(hl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, "-m", "hublab.cli", "compare", "--oracle", "--budget", "2000", str(graph)]
    res = subprocess.run(cmd, env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert "Traceback" not in res.stderr


def test_generate_vc_dir_on_a_large_matching_exits_0(tmp_path):
    # The minimum vertex cover takes one vertex per edge, 1,000 here: a recursive
    # search went deeper than the interpreter's recursion limit and exited 1.
    base, out = tmp_path / "m.gr", tmp_path / "md.gr"
    matching = hl.Graph(False, 2000, [(2 * i, 2 * i + 1, 1) for i in range(1000)])
    base.write_text(hl.serialize_graph(matching))
    src = str(Path(hl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    cli = [sys.executable, "-m", "hublab.cli"]
    res = subprocess.run([*cli, "generate", "vc-dir", "--graph", str(base), "--with-hl",
                          "--out", str(out)], env=env, capture_output=True, text=True)
    assert res.returncode == 0 and "Traceback" not in res.stderr, res.stderr
    res = subprocess.run([*cli, "verify", str(out), str(tmp_path / "md.labels")],
                         env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[0] == "valid: True"


def test_build_verify_and_compare_never_import_numpy_ma(tmp_path):
    # A plain np.unique imports numpy.ma (numpy 2.4); no child should pay for it.
    graph, labels = tmp_path / "r.gr", tmp_path / "r.lab"
    graph.write_text(hl.serialize_graph(families.gen_random(8, 12, 4, 5)))
    script = (
        "import sys\n"
        "from hublab.cli import main\n"
        "g, lab = sys.argv[1:]\n"
        "assert main(['build', g, '--algo', 'cohen', '--out', lab]) == 0\n"
        "assert main(['verify', g, lab]) == 0\n"
        "assert main(['compare', g, '--oracle', '--budget', '200']) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(hl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, "-c", script, str(graph), str(labels)]
    res = subprocess.run(cmd, env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "False"


def test_sphs_build_enumerates_shortest_paths_once(tmp_path, monkeypatch, capsys):
    calls = []
    enumerate_paths = highway._all_shortest_paths

    def counted(*args):
        calls.append(args)
        return enumerate_paths(*args)

    monkeypatch.setattr(highway, "_all_shortest_paths", counted)
    highway._path_family.cache_clear()
    graph = tmp_path / "r.gr"
    graph.write_text(hl.serialize_graph(families.gen_random(8, 12, 4, 5)))
    assert main(["build", str(graph), "--algo", "sphs", "--out", str(tmp_path / "r.lab")]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_canonical_without_order_exits_2_before_reading_the_graph(tmp_path, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("graph work before the argument check")

    monkeypatch.setattr("hublab.cli.parse_graph", refuse)
    monkeypatch.setattr("hublab.cli.all_pairs_distances", refuse)
    graph = tmp_path / "p3.gr"
    graph.write_text(hl.serialize_graph(path_graph(2)))
    argv = ["build", str(graph), "--algo", "canonical", "--out", str(tmp_path / "x.labels")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: canonical requires --order FILE\n"
    assert not (tmp_path / "x.labels").exists()


@pytest.mark.parametrize(
    "algos, message",
    [
        ("g-hhl,nope", "unknown algorithm nope"),
        ("canonical", "compare cannot build canonical, which needs an order"),
    ],
)
def test_compare_refuses_its_algorithms_before_reading_the_graph(
    algos, message, tmp_path, monkeypatch, capsys
):
    def refuse(*args):
        raise AssertionError("graph work before the argument check")

    monkeypatch.setattr("hublab.cli.parse_graph", refuse)
    monkeypatch.setattr("hublab.cli.all_pairs_distances", refuse)
    graph = tmp_path / "p3.gr"
    graph.write_text(hl.serialize_graph(path_graph(2)))
    assert main(["compare", str(graph), "--algos", algos]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("algo", ["canonical", "sphs"])
def test_trace_for_an_algorithm_without_one_exits_2_before_reading_the_graph(
    algo, tmp_path, monkeypatch, capsys
):
    def refuse(*args):
        raise AssertionError("graph work before the argument check")

    monkeypatch.setattr("hublab.cli.parse_graph", refuse)
    monkeypatch.setattr("hublab.cli.all_pairs_distances", refuse)
    graph, order = tmp_path / "p3.gr", tmp_path / "p3.order"
    graph.write_text(hl.serialize_graph(path_graph(3)))
    order.write_text("0\n1\n2\n")
    labels, trace = tmp_path / "x.labels", tmp_path / "x.trace.json"
    argv = ["build", str(graph), "--algo", algo, "--order", str(order)]
    assert main([*argv, "--out", str(labels), "--trace", str(trace)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: --trace is not available for --algo {algo}\n"
    assert not labels.exists() and not trace.exists()


def test_sphs_build_past_the_path_cap_exits_3(tmp_path, monkeypatch, capsys):
    def over_cap(g, d):
        raise hl.CapExceededError(f"more than {highway.MAX_PATHS} shortest paths")

    monkeypatch.setattr(highway, "_all_shortest_paths", over_cap)
    highway._path_family.cache_clear()
    graph = tmp_path / "r.gr"
    graph.write_text(hl.serialize_graph(families.gen_random(8, 12, 4, 5)))
    assert main(["build", str(graph), "--algo", "sphs", "--out", str(tmp_path / "r.lab")]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: more than ") and err.count("\n") == 1
    assert "Traceback" not in err
