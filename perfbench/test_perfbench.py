"""Tests of the cell benchmark's ledger, tracer and printed metric names."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

from repro.workloads.request import Request, RequestStatus

from perfbench import run as bench
from perfbench.cell import HORIZON_S, trace_points
from perfbench.ledger import LedgerError, cell_ledger, pooled_metrics
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _request(sent, *, first=None, finish=None, status=RequestStatus.RUNNING, prompt=4, out=2):
    request = Request(prompt_tokens=tuple(range(prompt)), output_len=out)
    request.sent_time = sent
    request.lb_arrival_time = sent
    request.status = status
    if first is not None:
        request.schedule_time = sent
        request.first_token_time = first
    if finish is not None:
        request.finish_time = finish
        request.generated_tokens = out
    return request


def test_censored_percentiles_have_the_known_answer():
    horizon = 10.0
    done = RequestStatus.FINISHED
    issued = [
        _request(0.0, first=1.0, finish=2.0, status=done),
        _request(0.0, first=2.0, finish=3.0, status=done),
        _request(0.0, first=3.0, finish=4.0, status=done),
        _request(0.0, first=4.0, finish=5.0, status=done),
        _request(2.0),  # no first token: TTFT and E2E censored at 8
        _request(9.5),  # sent just before the horizon: censored at 0.5
        _request(1.0, status=RequestStatus.FAILED),  # censored at 9, a miss
    ]
    ledger = cell_ledger(issued, horizon)
    assert (ledger["issued"], ledger["completed"], ledger["failed"], ledger["in_flight"]) == (
        7,
        4,
        1,
        2,
    )
    metrics = pooled_metrics([ledger])
    # TTFTs: 1, 2, 3, 4 observed; 8, 0.5, 9 censored -> sorted
    # [0.5, 1, 2, 3, 4, 8, 9]; linear interpolation at rank q * 6.
    assert metrics["sim_ttft_p50_s"] == pytest.approx(3.0)
    assert metrics["sim_ttft_p99_s"] == pytest.approx(8.0 + 0.94 * 1.0)
    # E2E: 2, 3, 4, 5 observed; 8, 0.5, 9 censored.
    assert metrics["sim_e2e_p50_s"] == pytest.approx(4.0)
    assert metrics["sim_ttft_slo_attainment"] == pytest.approx(1 / 7)
    assert metrics["sim_unfinished_fraction"] == pytest.approx(3 / 7)
    assert metrics["sim_throughput_tok_per_s"] == pytest.approx(4 * (4 + 2) / horizon)
    # Completed-only percentiles would report a p99 TTFT below 4 s.
    assert metrics["sim_ttft_p99_s"] > 4.0


def test_pooling_cells_pools_their_requests():
    done = RequestStatus.FINISHED
    one = cell_ledger([_request(0.0, first=1.0, finish=2.0, status=done)], 10.0)
    two = cell_ledger([_request(0.0, first=3.0, finish=4.0, status=done), _request(5.0)], 10.0)
    metrics = pooled_metrics([one, two])
    assert metrics["sim_ttft_p50_s"] == pytest.approx(3.0)
    assert metrics["sim_unfinished_fraction"] == pytest.approx(1 / 3)
    assert metrics["sim_throughput_tok_per_s"] == pytest.approx(2 * 6 / 20.0)


@pytest.mark.parametrize(
    "broken",
    [
        _request(0.0, status=RequestStatus.CREATED),
        _request(0.0, first=5.0, finish=4.0, status=RequestStatus.FINISHED),
        _request(0.0, first=1.0, finish=20.0, status=RequestStatus.FINISHED),
        _request(11.0),
    ],
)
def test_ledger_rejects_unaccounted_or_impossible_requests(broken):
    with pytest.raises(LedgerError):
        cell_ledger([broken], 10.0)


class _Layered:
    def outer(self, request):
        return self.inner() + 1

    def inner(self):
        return 1


class _Override(_Layered):
    def inner(self):
        return 2


def test_tracer_attributes_self_time_and_counts_calls():
    request = Request(prompt_tokens=(1,), output_len=1)
    points = [
        ("a", _Layered, "outer", 1, None),
        ("b", _Layered, "inner", None, None),
    ]
    with Tracer(points) as tracer:
        assert _Layered().outer(request) == 2
        assert _Override().outer(request) == 3
    assert tracer.count("_Layered.outer") == 2
    assert tracer.count(".inner") == 2
    assert tracer.root_ns() == sum(tracer.self_ns)
    assert set(tracer.layer_self_s()) == {"a", "b"}
    roots = [index for index, parent in enumerate(tracer.parent) if parent < 0]
    assert [tracer.request[index] for index in roots] == [request.request_id] * 2
    assert all(tracer.parent[index] in roots for index in range(len(tracer.kind)) if index not in roots)


def test_tracer_restores_every_attribute_even_when_the_run_raises():
    targets = {
        (owner, name)
        for _layer, base, name, _arg, _hook in trace_points([0])
        for owner in ([base] + _all_subclasses(base) if isinstance(base, type) else [base])
        if name in vars(owner)
    }
    before = {key: vars(key[0])[key[1]] for key in targets}
    with pytest.raises(RuntimeError, match="boom"):
        with Tracer(trace_points([0])):
            assert any(vars(owner)[name] is not before[(owner, name)] for owner, name in targets)
            raise RuntimeError("boom")
    assert {key: vars(key[0])[key[1]] for key in targets} == before


def _all_subclasses(cls):
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_all_subclasses(sub))
    return found


def test_module_functions_are_wrapped_and_restored():
    module = types.ModuleType("fake")
    module.work = lambda: 7
    original = module.work
    with Tracer([("metrics", module, "work", None, None)]) as tracer:
        assert module.work() == 7
    assert module.work is original
    assert tracer.count("fake.work") == 1


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOAD_NAMES)
    assert set(bench.WORKLOAD_NAMES) == set(HORIZON_S)
    for section, table in (("end_to_end", bench.END_TO_END), ("per_layer", bench.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[section]}
        assert declared == table
    names = [m["name"] for s in ("workloads", "end_to_end", "per_layer") for m in spec[s]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_the_command_prints_the_declared_names(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if trace == "1" else "end_to_end"
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tot-prefix", "--seed", "0",
         "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 2000
    printed = {name: value["unit"] for name, value in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in spec[section]}
    assert all(NAME.match(name) for name in printed)


def test_the_command_fails_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tot-prefix", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
