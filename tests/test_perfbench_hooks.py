"""The benchmark's tracer patches hublab attributes by name; a rename would make
``--trace 1`` fail only inside the benchmark, so its hooks are resolved here."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import hublab as hl
from hublab import families
from hublab.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracing_patch_resolves():
    tracing = _load_tracing()
    for module, path, _, _ in tracing.PATCHES:
        owner = importlib.import_module(module)
        for attr in path.split("."):
            owner = getattr(owner, attr)
        assert callable(owner), (module, path)
    d = hl.all_pairs_distances(families.gen_bad_g(2))
    engine = hl.CoverageState(d)
    assert sum(map(len, engine.pair_path)) == int(engine.edges.sum()) > 0


def test_traced_cohen_build_records_its_spans(tmp_path, capsys):
    tracing = _load_tracing()
    graph = tmp_path / "c4.gr"
    graph.write_text(hl.serialize_graph(families.gen_cycle4(True)))
    tracer = tracing.Tracer()
    args = ["build", str(graph), "--algo", "cohen", "--exact-mds", "--out", str(tmp_path / "x")]
    with tracer.operation("cohen"):
        assert main(args) == 0
    capsys.readouterr()
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["cohen.picks"] > 0 and metrics["oracles.exact_mds_calls"] > 0
    assert metrics["centers.incidence_nnz"] > 0 and metrics["labeling.verify_pairs"] == 16
    assert [s.attrs["exact"] for s in tracer.spans if s.name == "cohen.run"] == [True]


def test_traced_oracle_compare_records_the_dp_and_the_search(tmp_path, capsys):
    tracing = _load_tracing()
    graph = tmp_path / "c4.gr"
    graph.write_text(hl.serialize_graph(families.gen_cycle4(True)))
    tracer = tracing.Tracer()
    with tracer.operation("compare"):
        assert main(["compare", str(graph), "--oracle", "--budget", "2000"]) == 0
    capsys.readouterr()
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["oracles.opt_hhl_s"] > 0 and metrics["oracles.bnb_nodes"] > 0
    assert [s.name for s in tracer.spans].count("oracles.opt_hhl") == 1


def test_traced_sphs_build_enumerates_once_per_call(tmp_path, capsys):
    tracing = _load_tracing()
    g = hl.Graph(False, 6, [(i, i + 1, 1) for i in range(5)])
    assert hl.greedy_multiscale_sphs(hl.all_pairs_distances(g)).top == 3  # D = 5
    graph = tmp_path / "p5.gr"
    graph.write_text(hl.serialize_graph(g))
    tracer = tracing.Tracer()
    with tracer.operation("sphs"):
        assert main(["build", str(graph), "--algo", "sphs", "--out", str(tmp_path / "x")]) == 0
    capsys.readouterr()
    names = {s.idx: s.name for s in tracer.spans}
    sigpaths = [s for s in tracer.spans if s.name == "highway.sigpaths"]
    assert [names[s.parent] for s in sigpaths] == ["highway.msphs", "highway.sphs_to_hhl"]
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["highway.msphs_s"] > 0 and metrics["highway.sphs_to_hhl_s"] > 0
    assert metrics["highway.sigpath_calls"] == 2 and metrics["highway.sigpaths"] > 0
