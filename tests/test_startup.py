"""Start-up contract: each subcommand imports only the hublab modules it runs.

Every check runs in a fresh interpreter, since inside pytest every module is
already imported.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hublab as hl
from hublab import families
from hublab.cli import main

SRC = Path(hl.__file__).resolve().parents[1]
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
EVERY_MODULE = {"centers", "cohen", "families", "graphs", "greedy", "highway", "labeling", "oracles"}


def _fresh(script: str, *args: str) -> object:
    """The JSON value on the last stdout line of ``script`` run in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    res = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


LOADED = "sorted(m[len('hublab.'):] for m in sys.modules if m.startswith('hublab.'))"
RUN_CLI = (
    "import json, sys\n"
    "from hublab.cli import main\n"
    "assert main(sys.argv[1:]) == 0\n"
    f"print(json.dumps({LOADED}))\n"
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("startup")
    graph, labels, order = tmp / "r.gr", tmp / "r.lab", tmp / "order.txt"
    graph.write_text(hl.serialize_graph(families.gen_random(10, 16, 4, 3)))
    order.write_text("".join(f"{v}\n" for v in range(10)))
    argv = ["build", str(graph), "--algo", "canonical", "--order", str(order), "--out", str(labels)]
    assert main(argv) == 0
    return {"graph": str(graph), "labels": str(labels), "order": str(order), "dir": tmp}


@pytest.mark.parametrize("command", ["verify", "query", "build-canonical"])
def test_verify_query_and_canonical_load_only_graphs_and_labeling(files, command):
    argv = {
        "verify": ["verify", files["graph"], files["labels"]],
        "query": ["query", files["graph"], files["labels"], "0", "9"],
        "build-canonical": ["build", files["graph"], "--algo", "canonical", "--order",
                            files["order"], "--out", str(files["dir"] / "c.lab")],
    }[command]
    assert _fresh(RUN_CLI, *argv) == ["cli", "graphs", "labeling"]


@pytest.mark.parametrize(
    "algo, needs, never",
    [
        ("g-hhl", {"greedy", "centers"}, {"cohen", "highway", "oracles", "families"}),
        ("cohen", {"cohen", "greedy", "centers"}, {"highway", "oracles", "families"}),
    ],
)
def test_greedy_and_cohen_builds_load_no_other_algorithm(files, algo, needs, never):
    argv = ["build", files["graph"], "--algo", algo, "--out", str(files["dir"] / "g.lab")]
    loaded = set(_fresh(RUN_CLI, *argv))
    assert needs <= loaded and not loaded & never


@pytest.mark.parametrize(
    "argv, needs",
    [
        (["build", "{graph}", "--algo", "cohen", "--exact-mds", "--out", "{dir}/e.lab"], "cohen"),
        (["compare", "{graph}", "--oracle", "--budget", "200"], "greedy"),
    ],
)
def test_exact_cohen_and_oracle_compare_load_no_highway(files, argv, needs):
    loaded = set(_fresh(RUN_CLI, *(a.format(**files) for a in argv)))
    assert {"oracles", needs} <= loaded and not loaded & {"highway", "families"}


def test_sphs_build_loads_only_highway(files):
    argv = ["build", files["graph"], "--algo", "sphs", "--out", str(files["dir"] / "s.lab")]
    assert _fresh(RUN_CLI, *argv) == ["cli", "graphs", "highway", "labeling"]


def test_sphs_build_imports_no_fractions(files):
    # The radii are ints, so nothing loads fractions (nor the decimal it imports).
    argv = ["build", files["graph"], "--algo", "sphs", "--out", str(files["dir"] / "s.lab")]
    script = RUN_CLI.replace(LOADED, "sorted({'fractions', 'decimal'} & set(sys.modules))")
    assert _fresh(script, *argv) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "{graph}", "--algo", "g-hhl", "--trace", "{dir}/t.json", "--out", "{dir}/f.lab"],
        ["build", "{graph}", "--algo", "d-hhl", "--trace", "{dir}/t.json", "--out", "{dir}/f.lab"],
        ["build", "{graph}", "--algo", "canonical", "--order", "{order}", "--out", "{dir}/f.lab"],
        ["verify", "{graph}", "{labels}"],
    ],
    ids=["g-hhl", "d-hhl", "canonical", "verify"],
)
def test_g_d_canonical_builds_and_verify_import_no_fractions(files, argv):
    # Only w-HHL's densities and Cohen's are Fractions; the trace encoder names no class.
    script = RUN_CLI.replace(LOADED, "sorted({'fractions', 'decimal'} & set(sys.modules))")
    assert _fresh(script, *(a.format(**files) for a in argv)) == []


@pytest.mark.parametrize("enabled", [True, False])
def test_cli_import_keeps_the_callers_collector_setting(enabled):
    script = (
        "import gc, json, sys\n"
        f"gc.{'enable' if enabled else 'disable'}()\n"
        "import hublab.cli\n"
        "print(json.dumps([gc.isenabled(), 'numpy' in sys.modules]))\n"
    )
    assert _fresh(script) == [enabled, True]


def test_run_freezes_the_loaded_heap_before_main_and_main_never_does(files):
    script = (
        "import gc, json, sys\n"
        "import hublab.cli\n"
        "assert hublab.cli.main(sys.argv[1:]) == 0\n"
        "in_process = gc.get_freeze_count()\n"
        "frozen = []\n"
        "hublab.cli.main = lambda: frozen.append(gc.get_freeze_count()) or 0\n"
        "try:\n"
        "    hublab.cli.run()\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(json.dumps([in_process, frozen[0] > 0, code]))\n"
    )
    assert _fresh(script, "verify", files["graph"], files["labels"]) == [0, True, 0]


@pytest.mark.parametrize("command", ["verify", "build"])
def test_a_cli_run_walks_none_of_the_import_time_objects(files, command):
    # Run as ``python -m hublab.cli`` runs it: each collection walks its
    # generation and the younger ones, counted at its start. Loading numpy
    # makes about 34,000 objects; collected during the load, or once after
    # it, they put the total walked at 20,000 to 40,000.
    script = (
        "import gc, json, runpy, sys\n"
        "walked = []\n"
        "def count(phase, info):\n"
        "    if phase == 'start':\n"
        "        walked.append(sum(len(gc.get_objects(g)) for g in range(info['generation'] + 1)))\n"
        "gc.callbacks.append(count)\n"
        "sys.argv = ['hublab', *sys.argv[1:]]\n"
        "try:\n"
        "    runpy.run_module('hublab.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0\n"
        "print(json.dumps(sum(walked)))\n"
    )
    argv = {
        "verify": ["verify", files["graph"], files["labels"]],
        "build": ["build", files["graph"], "--algo", "w-hhl", "--out", str(files["dir"] / "w.lab")],
    }[command]
    assert _fresh(script, *argv) < 10_000


def test_vc_dir_with_labeling_loads_the_cover_oracle_and_no_selection(files):
    argv = ["generate", "vc-dir", "--graph", files["graph"], "--with-hl",
            "--out", str(files["dir"] / "vd.gr")]
    loaded = set(_fresh(RUN_CLI, *argv))
    assert {"families", "oracles", "centers"} <= loaded and not loaded & {"highway", "greedy"}


def test_generate_random_loads_no_algorithm(files):
    argv = ["generate", "random", "--n", "6", "--m", "8", "--out", str(files["dir"] / "g.gr")]
    loaded = set(_fresh(RUN_CLI, *argv))
    assert "families" in loaded
    assert not loaded & {"centers", "greedy", "cohen", "highway", "oracles"}


def test_bare_import_loads_no_submodule():
    assert _fresh(f"import json, sys, hublab\nprint(json.dumps({LOADED}))") == []


def test_every_public_name_resolves_to_its_home_object():
    script = (
        "import importlib, json, sys\n"
        "import hublab\n"
        "star = {}\n"
        "exec('from hublab import *', star)\n"
        "bad = []\n"
        "for name in hublab.__all__:\n"
        "    home = importlib.import_module('hublab.' + hublab._HOME[name])\n"
        "    obj = home if home.__name__ == 'hublab.' + name else getattr(home, name)\n"
        "    if star.get(name) is not obj or getattr(hublab, name) is not obj:\n"
        "        bad.append(name)\n"
        "    if callable(obj) and obj.__module__ != home.__name__:\n"
        "        bad.append(name + ' is defined in ' + obj.__module__)\n"
        "for name in hublab._EXPORTS:\n"
        "    if getattr(hublab, name) is not sys.modules['hublab.' + name]:\n"
        "        bad.append('module ' + name)\n"
        "missing = sorted(set(hublab.__all__) - set(dir(hublab)))\n"
        f"print(json.dumps([bad, missing, {LOADED}]))\n"
    )
    bad, missing, loaded = _fresh(script)
    assert bad == [] and missing == []
    assert set(loaded) == EVERY_MODULE


def test_cap_exceeded_error_is_one_class_in_every_namespace():
    assert hl.CapExceededError is hl.graphs.CapExceededError is hl.highway.CapExceededError
    assert issubclass(hl.CapExceededError, RuntimeError)


def test_tracer_patches_reach_lazily_bound_names(files):
    # The tracer is loaded first, so it patches hublab.cli's algorithm names
    # before anything has bound them; the spans show the handlers called the
    # patched objects, and the originals are back afterwards.
    script = (
        "import importlib.util, json, sys\n"
        "spec = importlib.util.spec_from_file_location('tracing', sys.argv[1])\n"
        "tracing = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracing)\n"
        "assert not any(m.startswith('hublab') for m in sys.modules)\n"
        "import hublab.cli\n"
        "assert 'run_g_hhl' not in vars(hublab.cli)\n"
        "tracer = tracing.Tracer()\n"
        "graph, out = sys.argv[2:]\n"
        "with tracer.operation('build'):\n"
        "    assert hublab.cli.main(['build', graph, '--algo', 'g-hhl', '--out', out]) == 0\n"
        "with tracer.operation('verify'):\n"
        "    assert hublab.cli.main(['verify', graph, out]) == 0\n"
        "import hublab.greedy\n"
        "assert hublab.cli.run_g_hhl is hublab.greedy.run_g_hhl\n"
        "print(json.dumps([[s.op, s.name, s.attrs] for s in tracer.spans]))\n"
    )
    spans = _fresh(script, str(TRACING), files["graph"], str(files["dir"] / "t.lab"))
    by = {}
    for op, name, attrs in spans:
        by.setdefault((op, name), []).append(attrs)
    assert [a["iterations"] > 0 for a in by["build", "greedy.run"]] == [True]
    assert [a["nnz"] > 0 for a in by["build", "centers.engine_init"]] == [True]
    for op in ("build", "verify"):
        assert [a["pairs"] > 0 for a in by[op, "graphs.apsp"]] == [True]
        assert [a["pairs"] > 0 for a in by[op, "labeling.verify_cover"]] == [True]
    assert ("verify", "greedy.run") not in by
