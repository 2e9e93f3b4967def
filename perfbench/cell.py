"""One benchmark cell: build a workload, simulate it, check it, summarize it.

Run as a script, it simulates one (workload, seed) cell in this process and
prints the result as one JSON line::

    python3 perfbench/cell.py --workload tot-prefix --seed 0 [--traced]

``perfbench/run.py`` starts one such process per repetition, so every
repetition pays its own set-up and reports its own peak resident memory.

Every cell runs in one process (``workers=1``), starts with cold simulated
caches and stops at a fixed simulated horizon.  Requests still in flight at
the horizon are right-censored by the ledger (``perfbench/ledger.py``).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

if __name__ == "__main__":  # run as a script: import this checkout's code
    _ROOT = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

import repro.experiments.runner as runner_module
from repro.cluster import Deployment, Frontend, ReplicaSpec, RequestTracker, TraceReplayClient
from repro.core import AvailabilityMonitor, PrefixTree
from repro.core.selection import SelectionPolicy
from repro.experiments import REGISTRY, ClusterConfig, ExperimentConfig
from repro.experiments.runner import build_system
from repro.experiments.systems import SkyWalkerConfig
from repro.experiments.workloads import build_tot_workload
from repro.metrics import RunMetrics, collect_run_metrics
from repro.metrics.summary import percentile
from repro.net import NetConfig, RoutedNetwork
from repro.network import Network, default_topology
from repro.replica import LLAMA_8B_L4
from repro.replica.batching import ContinuousBatcher
from repro.replica.kv_cache import RadixCache
from repro.sim import Environment
from repro.workloads.diurnal import COUNTRY_PROFILES
from repro.workloads.streams import DiurnalRequestStream

from perfbench.calibrate import REFERENCE_S, calibration_s
from perfbench.ledger import (
    LedgerError,
    RecordingStream,
    cell_ledger,
    issued_requests,
    pooled_metrics,
)
from perfbench.tracer import Tracer

__all__ = ["HORIZON_S", "run_cell", "trace_points"]

#: Simulated horizon of each workload's cell (simulated seconds).
HORIZON_S = {"tot-prefix": 120.0, "diurnal-offload": 600.0, "wan-contended": 120.0}

#: Where traced cells write their spans (ignored by git).
SPANS_DIR = Path(__file__).resolve().parent / "out"

#: Region -> diurnal profile: the three patterns of the streamed day in
#: ``repro.perf.engine_bench``.  At UTC hour 0 the US is near its evening
#: peak, Asia is ramping up and the EU is at night.
_DIURNAL_REGIONS = {
    "us": COUNTRY_PROFILES["united-states"],
    "eu": COUNTRY_PROFILES["united-kingdom"],
    "asia": COUNTRY_PROFILES["china"],
}


def trace_points(decode_batch: List[int]):
    """The layer entry points the traced run wraps.

    ``decode_batch[0]`` accumulates the batch size of every decode step.
    """

    def note_decode(args) -> None:
        decode_batch[0] += len(args[0].running)

    return [
        ("sim", Environment, "step", None, None),
        ("sim", Environment, "run", None, None),
        ("replica", ContinuousBatcher, "plan_step", None, None),
        ("replica", ContinuousBatcher, "complete_prefill", None, None),
        ("replica", ContinuousBatcher, "complete_decode_step", None, note_decode),
        ("replica", ContinuousBatcher, "enqueue", 1, None),
        ("replica", RadixCache, "match_prefix", None, None),
        ("replica", RadixCache, "insert", None, None),
        ("core", SelectionPolicy, "select_replica", 2, None),
        ("core", SelectionPolicy, "select_balancer", 2, None),
        ("core", PrefixTree, "best_target", None, None),
        ("core", PrefixTree, "insert", None, None),
        ("core", PrefixTree, "match_length", None, None),
        ("core", AvailabilityMonitor, "available_local_replicas", None, None),
        ("core", AvailabilityMonitor, "available_remote_balancers", None, None),
        # The balancers probe through probe_delay; probe is the generator form.
        ("network", Network, "probe", None, None),
        ("network", Network, "probe_delay", None, None),
        ("network", Network, "deliver", 1, None),
        ("network", Network, "call_after_delay", None, None),
        ("net", RoutedNetwork, "deliver", 1, None),
        ("net", RoutedNetwork, "call_after_delay", None, None),
        ("net", RoutedNetwork, "stream_response", 1, None),
        ("cluster", Frontend, "dispatch", 1, None),
        ("cluster", RequestTracker, "complete", 1, None),
        ("metrics", runner_module, "collect_run_metrics", None, None),
    ]


class _FirstEvent:
    """Records the host time at which ``Environment.run`` is first entered."""

    def __init__(self) -> None:
        self.at: Optional[float] = None

    def __enter__(self) -> "_FirstEvent":
        self._original = original = Environment.run

        def run(env, until=None):
            if self.at is None:
                self.at = time.perf_counter()
            return original(env, until)

        Environment.run = run
        return self

    def __exit__(self, *exc_info) -> None:
        Environment.run = self._original


@dataclass
class _Stack:
    """What a finished cell leaves behind for the checks and counters."""

    issued: list
    issued_by_clients: int
    tracker: RequestTracker
    deployment: Deployment
    balancers: list
    network: Network
    run_metrics: RunMetrics


def _closed_loop(name: str, seed: int, span) -> _Stack:
    with span("workloads", "build_tot_workload"):
        spec = build_tot_workload(scale=1.0, seed=seed)
    if name == "tot-prefix":
        system = REGISTRY.spec("skywalker", hash_key=spec.hash_key)
        cluster = ClusterConfig()
    else:
        # Fig. 14: every US request crosses a contended 1 Gb/s backbone.
        system = SkyWalkerConfig(kind="skywalker", pushing="BP", hash_key=spec.hash_key)
        cluster = ClusterConfig(
            replicas_per_region={"us": 0, "eu": 4, "asia": 4},
            network=NetConfig(topology="backbone", wan_bandwidth_bytes_per_s=1.25e8),
        )
    config = ExperimentConfig(
        system=system, cluster=cluster, duration_s=HORIZON_S[name], seed=seed
    )
    with span("experiments", "run_experiment"):
        result = runner_module.run_experiment(config, spec)
    candidates = (
        request
        for programs in spec.programs_by_region.values()
        for program in programs
        for request in program.all_requests()
    )
    return _Stack(
        issued=issued_requests(candidates),
        issued_by_clients=result.metrics.num_issued,
        tracker=result.tracker,
        deployment=result.deployment,
        balancers=result.balancers,
        network=result.frontend.network,
        run_metrics=result.metrics,
    )


def _timed_stream(stream, span):
    """Iterate ``stream``, recording each ``next`` as a span."""
    iterator = iter(stream)
    while True:
        try:
            with span:
                item = next(iterator)
        except StopIteration:
            return
        yield item


def _open_loop(name: str, seed: int, span, tracer: Optional[Tracer]) -> _Stack:
    horizon = HORIZON_S[name]
    with span("experiments", "build_stack"):
        env = Environment()
        topology = default_topology()
        network = Network(env, topology, jitter_fraction=0.05, seed=seed)
        deployment = Deployment(
            env,
            [
                ReplicaSpec(region=region, count=2, profile=LLAMA_8B_L4)
                for region in _DIURNAL_REGIONS
            ],
            topology=topology,
            network=network,
        )
        tracker = RequestTracker(env)
        for replica in deployment.replicas:
            replica.add_completion_listener(tracker.complete)
        frontend = Frontend(env, network)
        balancers = build_system(
            REGISTRY.spec("skywalker"),
            env,
            network,
            deployment,
            frontend,
            client_regions=list(_DIURNAL_REGIONS),
            hash_key="user",
        )
        recorders = []
        clients = []
        for region, pattern in _DIURNAL_REGIONS.items():
            stream = DiurnalRequestStream(
                pattern=pattern, region=region, hours=1, seed=seed, rate_scale=2.0
            )
            if tracer is not None:
                stream = _timed_stream(stream, tracer.span("workloads", "DiurnalRequestStream"))
            recorder = RecordingStream(stream)
            recorders.append(recorder)
            clients.append(
                TraceReplayClient(
                    env,
                    name=f"{region}/replay",
                    region=region,
                    frontend=frontend,
                    tracker=tracker,
                    timed_requests=recorder,
                )
            )
    env.run(until=horizon)
    issued_by_clients = sum(client.issued_requests for client in clients)
    with span("metrics", "collect_run_metrics"):
        metrics = collect_run_metrics(
            system="skywalker",
            workload=name,
            duration_s=horizon,
            completed=tracker.completed,
            issued=issued_by_clients,
            deployment=deployment,
        )
    issued = []
    for recorder in recorders:
        for request in issued_requests(recorder.requests):
            # A simulated client sends at its scheduled arrival time, so the
            # generator cannot run late; this check proves it.
            lateness = request.sent_time - recorder.scheduled[request.request_id]
            if abs(lateness) > 1e-6:
                raise LedgerError(f"request {request.request_id} sent {lateness}s late")
            issued.append(request)
    return _Stack(
        issued=issued,
        issued_by_clients=issued_by_clients,
        tracker=tracker,
        deployment=deployment,
        balancers=balancers,
        network=network,
        run_metrics=metrics,
    )


def _check_conservation(stack: _Stack, ledger: Dict[str, object]) -> None:
    """The ledger agrees with the program's own counters: every issued
    request is completed, failed or still in flight."""
    tracker = stack.tracker
    expected = {
        "issued": stack.issued_by_clients,
        "completed": tracker.num_completed,
        "failed": tracker.num_failed,
        "in_flight": tracker.outstanding,
    }
    for key, value in expected.items():
        if ledger[key] != value:
            raise LedgerError(f"ledger {key}={ledger[key]} but the program counts {value}")
    throughput = stack.run_metrics.throughput_tokens_per_s
    ledger_throughput = ledger["served_tokens"] / ledger["horizon_s"]
    if abs(ledger_throughput - throughput) > 1e-9 * max(1.0, throughput):
        raise LedgerError(
            f"ledger throughput {ledger_throughput} != RunMetrics throughput {throughput}"
        )


def _simulated_outputs(stack: _Stack, ledger: Dict[str, object]) -> Dict[str, float]:
    """Deterministic outputs of the cell: ledger metrics and program counters."""
    replicas = stack.deployment.replicas
    busy = sum(replica.stats.busy_time for replica in replicas)
    network = stack.network
    queue_delays = ledger["queue_delay"]
    sim = pooled_metrics([ledger])
    sim.update({key: ledger[key] for key in ("issued", "completed", "failed", "in_flight")})
    sim.update(
        {
            "core.queue_delay_p90_s": percentile(queue_delays, 90) if queue_delays else 0.0,
            "replica.busy_fraction": busy / (len(replicas) * ledger["horizon_s"]),
            "replica.prefix_hit_rate": stack.deployment.aggregate_cache_hit_rate(),
            "replica.preemptions": sum(r.batcher.total_preemptions for r in replicas),
            "core.forwarded_fraction": sum(b.remote_forwards for b in stack.balancers)
            / ledger["issued"],
            "core.lb_wait_events": sum(b.queue_wait_events for b in stack.balancers),
            "core.probes": network.probe_count,
            "network.messages": network.messages_sent,
            "network.dropped": network.dropped_messages,
            "net.wire_bytes": getattr(network, "wire_bytes_sent", 0.0)
            + getattr(network, "response_bytes", 0.0),
        }
    )
    return sim


def _layer_metrics(
    tracer: Tracer, sim: Dict[str, float], decode_batch: int, wall_s: float, scale: float
) -> Dict[str, float]:
    """Per-layer metrics only the traced run can measure; host times are
    multiplied by the cell's calibration ``scale``."""
    self_s = {layer: seconds * scale for layer, seconds in tracer.layer_self_s().items()}
    events = tracer.count("Environment.step")
    decode_steps = tracer.count("ContinuousBatcher.complete_decode_step")
    lookups = ("PrefixTree.best_target", "PrefixTree.match_length")
    return {
        "sim.events": events,
        "sim.events_per_request": events / sim["issued"],
        "sim.self_s": self_s.get("sim", 0.0),
        "replica.self_s": self_s.get("replica", 0.0),
        "replica.decode_steps": decode_steps,
        "replica.prefill_steps": tracer.count("ContinuousBatcher.complete_prefill"),
        "replica.decode_batch_mean": decode_batch / decode_steps if decode_steps else 0.0,
        "core.self_s": self_s.get("core", 0.0),
        "core.route_calls": tracer.count(".select_replica") + tracer.count(".select_balancer"),
        "core.trie_lookups": sum(tracer.count(label) for label in lookups),
        "core.trie_inserts": tracer.count("PrefixTree.insert"),
        "core.trie_lookup_us": tracer.mean_us(lookups) * scale,
        "network.self_s": self_s.get("network", 0.0),
        "net.self_s": self_s.get("net", 0.0),
        "cluster.self_s": self_s.get("cluster", 0.0),
        "workloads.gen_s": self_s.get("workloads", 0.0),
        "experiments.build_s": self_s.get("experiments", 0.0),
        "metrics.collect_s": self_s.get("metrics", 0.0),
        "trace.unattributed_s": wall_s * scale - sum(self_s.values()),
    }


def run_cell(name: str, seed: int, *, traced: bool = False) -> Dict[str, object]:
    """Simulate one cell and return its checked outputs.

    ``sim`` holds the deterministic simulated outputs (identical for every
    run of the same seed, traced or not), ``ledger`` the censored samples
    that runs pool across cells, ``host`` the wall-clock measurements with
    the calibration ``scale`` (see ``perfbench/calibrate.py``) and, for
    traced cells, ``layers`` the per-layer metrics, already scaled.
    """
    calibration_before = calibration_s()
    decode_batch = [0]
    tracer = Tracer(trace_points(decode_batch)) if traced else None
    span = tracer.span if tracer is not None else (lambda layer, label: nullcontext())
    start = time.perf_counter()
    with _FirstEvent() as first_event, (tracer if tracer is not None else nullcontext()):
        if name == "diurnal-offload":
            stack = _open_loop(name, seed, span, tracer)
        else:
            stack = _closed_loop(name, seed, span)
    ledger = cell_ledger(stack.issued, HORIZON_S[name])
    _check_conservation(stack, ledger)
    sim = _simulated_outputs(stack, ledger)
    end = time.perf_counter()
    scale = REFERENCE_S / ((calibration_before + calibration_s()) / 2)
    result: Dict[str, object] = {
        "workload": name,
        "seed": seed,
        "sim": sim,
        "ledger": ledger,
        "host": {
            # Building the workload and wiring the stack, up to the first event.
            "setup_s": first_event.at - start,
            # First event through metric collection and the ledger.
            "run_s": end - first_event.at,
            "wall_s": end - start,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "scale": scale,
        },
    }
    if tracer is not None:
        result["layers"] = _layer_metrics(tracer, sim, decode_batch[0], end - start, scale)
        result["root_ns"] = tracer.root_ns()
        result["self_ns"] = sum(tracer.self_ns)
        tracer.write(SPANS_DIR, name)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(HORIZON_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(run_cell(args.workload, args.seed, traced=args.traced), sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
