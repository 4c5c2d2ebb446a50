"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

Run from the root of a source checkout.  They send one small request per
workload (the quick mode), show that the correctness gate counts a wrong
answer, a non-zero exit and a raised exception as failures, and that the
per-layer self times of a traced request add up to its traced time.
"""

from __future__ import annotations

import ast
import copy
import importlib
import json
import sys
from pathlib import Path

import pytest

import run
import workloads as W
from tracing import Tracer

sys.path.insert(0, str(run.SRC))

REFERENCES = W.load_references()


def smallest_key(bench: run.Bench) -> str:
    return min(bench.cases.values(), key=lambda case: (case.size, case.key)).key


@pytest.fixture(scope="module", params=sorted(W.WORKLOADS))
def bench(request):
    return run.Bench(W.WORKLOADS[request.param], REFERENCES[request.param])


def test_generators_are_seeded_and_import_no_engine_code():
    assert W.people_kb(12, 3) == W.people_kb(12, 3)
    assert W.people_kb(12, 3) != W.people_kb(12, 4)
    assert W.chain_kb(5) == W.chain_kb(5)
    assert W.chain_kb(5) != W.chain_kb(6)
    first = W.WORKLOADS["chain-pruned"].passes(7)
    second = W.WORKLOADS["chain-pruned"].passes(7)
    assert [next(first) for _ in range(30)] == [next(second) for _ in range(30)]
    tree = ast.parse(Path(W.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names
    } | {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not any(name and name.split(".")[0] == "tmln" for name in imported)


def test_every_case_has_a_reference():
    for name, workload in W.WORKLOADS.items():
        assert set(workload.cases()) == set(REFERENCES[name])


def test_quick_one_small_request_per_workload(bench):
    bench.request(smallest_key(bench), "quick")
    assert bench.failures == 0
    assert bench.records[-1]["ok"]


def test_gate_fails_on_corrupted_reference(bench):
    key = smallest_key(bench)
    corrupted = copy.deepcopy(bench.references)
    corrupted[key]["answer"] = "0" * 64
    broken = run.Bench(bench.workload, corrupted)
    broken.request(key, "quick")
    assert broken.failures == 1
    assert not broken.records[-1]["ok"]


def test_gate_fails_on_raised_exception(bench, monkeypatch):
    def explode(argv):
        raise RuntimeError("engine bug")

    key = smallest_key(bench)
    before = bench.failures
    monkeypatch.setattr(bench.cli, "main", explode)
    bench.request(key, "quick")
    assert bench.failures == before + 1
    assert not bench.records[-1]["ok"]


def test_gate_fails_on_nonzero_exit(bench, monkeypatch):
    key = smallest_key(bench)
    before = bench.failures
    monkeypatch.setattr(bench.cli, "main", lambda argv: 1)
    bench.request(key, "quick")
    assert bench.failures == before + 1


def test_layer_self_times_add_up_to_traced_request_time(bench):
    key = smallest_key(bench)
    kernel = sys.modules["tmln.kernel"]
    original = kernel.closure_literals
    tracer = Tracer()
    with tracer:
        assert kernel.closure_literals is not original
        elapsed = bench.request(key, "traced")
    assert kernel.closure_literals is original
    assert bench.records[-1]["ok"]
    self_s, calls = tracer.self_times()
    assert all(s >= 0 for s in self_s)
    assert sum(self_s) == pytest.approx(tracer.root_time(), rel=1e-9, abs=1e-12)
    assert 0 < tracer.root_time() <= elapsed
    entered = {name for name, count in zip(tracer.layers, calls) if count}
    assert {"cli.render", "kbformat.parse", "network.ground", "kernel.closure"} <= entered
    if bench.workload.name != "people-ground":
        assert {"inference.search", "semantics.aggregate"} <= entered


def test_imported_names_and_methods_are_rebound():
    semantics = importlib.import_module("tmln.semantics")
    call = semantics.Aggregator.__call__
    with Tracer():
        for module in ("tmln.kernel", "tmln.network", "tmln.inference", "tmln.semantics"):
            assert sys.modules[module].closure_literals.__wrapped__ is not None
        assert semantics.Aggregator.__call__ is not call
    assert semantics.Aggregator.__call__ is call


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail([float(i) for i in range(100)]) == (90.0, 89.0)
    assert run.tail([float(i) for i in range(999)]) == (90.0, 899.0)
    assert run.tail([float(i) for i in range(1000)]) == (99.0, 989.0)
    assert run.tail([float(i) for i in range(30)])[0] == 50.0


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_reports_every_declared_metric(trace, section, capsys):
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[section]
    argv = ["--workload", "oresme-sweep", "--seed", "0", "--seconds", "0.2", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in declared}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
