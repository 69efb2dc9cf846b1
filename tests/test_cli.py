from __future__ import annotations

import json

import pytest

import hublab as hl
from hublab import families
from hublab.cli import main


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
    assert payload["order"][:3] == [0, 1, 2]
    blob = json.loads(trace.read_text())
    assert blob["algo"] == "g-hhl"
    assert main(["verify", str(graph), str(labels)]) == 0


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


def test_build_outputs_are_byte_identical(tmp_path):
    graph = tmp_path / "w.gr"
    graph.write_text(hl.serialize_graph(families.gen_bad_w(2)))
    out1, out2 = tmp_path / "a.labels", tmp_path / "b.labels"
    assert main(["build", str(graph), "--algo", "w-hhl", "--out", str(out1)]) == 0
    assert main(["build", str(graph), "--algo", "w-hhl", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


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
    assert _json_payload(capsys)["violations"]


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


def test_compare_with_oracle(tmp_path, capsys):
    graph = tmp_path / "c4.gr"
    graph.write_text(hl.serialize_graph(families.gen_cycle4(False)))
    assert main(["compare", str(graph), "--algos", "g-hhl,d-hhl", "--oracle"]) == 0
    payload = _json_payload(capsys)
    assert payload["optimal_hhl"] == 9
    assert payload["optimal_hl"]["upper"] == 9
    assert payload["sizes"]["g-hhl"] == 9


def test_compare_oracle_too_large_exits_3(tmp_path):
    graph = tmp_path / "w2.gr"
    graph.write_text(hl.serialize_graph(families.gen_bad_w(2)))
    assert main(["compare", str(graph), "--oracle"]) == 3


def test_usage_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.gr"
    bad.write_text("p undirected 2 1\na 0 1 -1\n")
    assert main(["build", str(bad), "--algo", "g-hhl", "--out", str(tmp_path / "x")]) == 2
    missing = tmp_path / "missing.gr"
    assert main(["verify", str(missing), str(missing)]) == 2
    assert main(["generate", "vc-und", "--out", str(tmp_path / "y.gr")]) == 2
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
