"""SkyWalker simulator cell benchmark: one command, every metric, checked.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload tot-prefix --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md`` for what each workload stresses
and what each metric means.

A run simulates the ``CELLS_PER_RUN`` cells of its seed (cell seeds
``CELLS_PER_RUN * seed + i``), one child process per cell, then repeats
them until ``--seconds`` have passed.  Simulated metrics pool the issued
requests of those cells; host metrics are medians over every cell run, each
cell's host times scaled by its host-speed calibration
(``perfbench/calibrate.py``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
CELL = Path(__file__).resolve().parent / "cell.py"

#: Cells (distinct cell seeds) pooled into one run's simulated metrics.
CELLS_PER_RUN = 4
#: Upper bound on one child process; a cell takes a few seconds.
CELL_TIMEOUT_S = 150.0

WORKLOAD_NAMES = ("tot-prefix", "diurnal-offload", "wan-contended")

#: name -> (unit, better).  Simulated latencies are in simulated seconds
#: (``sim_s``); every other time is host wall-clock seconds.  A per-layer
#: metric's layer is its name's prefix.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "sim_requests_per_host_s": ("req/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "sim_ttft_p50_s": ("sim_s", "lower"),
    "sim_ttft_p99_s": ("sim_s", "lower"),
    "sim_e2e_p50_s": ("sim_s", "lower"),
    "sim_throughput_tok_per_s": ("tok/sim_s", "higher"),
    "sim_ttft_slo_attainment": ("fraction", "higher"),
    "sim_unfinished_fraction": ("fraction", "lower"),
}

PER_LAYER: Dict[str, Tuple[str, str]] = {
    "sim.events": ("count", "lower"),
    "sim.events_per_request": ("count", "lower"),
    "sim.self_s": ("s", "lower"),
    "replica.self_s": ("s", "lower"),
    "replica.decode_steps": ("count", "lower"),
    "replica.prefill_steps": ("count", "lower"),
    "replica.decode_batch_mean": ("count", "higher"),
    "replica.busy_fraction": ("fraction", "higher"),
    "replica.prefix_hit_rate": ("fraction", "higher"),
    "replica.preemptions": ("count", "lower"),
    "core.self_s": ("s", "lower"),
    "core.route_calls": ("count", "lower"),
    "core.trie_lookups": ("count", "lower"),
    "core.trie_inserts": ("count", "lower"),
    "core.trie_lookup_us": ("us", "lower"),
    "core.probes": ("count", "lower"),
    "core.forwarded_fraction": ("fraction", "lower"),
    "core.lb_wait_events": ("count", "lower"),
    "core.queue_delay_p90_s": ("sim_s", "lower"),
    "network.self_s": ("s", "lower"),
    "network.messages": ("count", "lower"),
    "net.self_s": ("s", "lower"),
    "net.wire_bytes": ("bytes", "lower"),
    "cluster.self_s": ("s", "lower"),
    "cluster.issued": ("count", "higher"),
    "cluster.completed": ("count", "higher"),
    "cluster.unfinished": ("count", "lower"),
    "cluster.failed": ("count", "lower"),
    "workloads.gen_s": ("s", "lower"),
    "experiments.build_s": ("s", "lower"),
    "metrics.collect_s": ("s", "lower"),
    "trace.overhead_fraction": ("fraction", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}

#: Per-layer metrics read from the simulated outputs every cell reports,
#: with the key each is stored under.
_FROM_SIM = {
    **{
        name: name
        for name in (
            "replica.busy_fraction",
            "replica.prefix_hit_rate",
            "replica.preemptions",
            "core.probes",
            "core.forwarded_fraction",
            "core.lb_wait_events",
            "core.queue_delay_p90_s",
            "network.messages",
            "net.wire_bytes",
        )
    },
    "cluster.issued": "issued",
    "cluster.completed": "completed",
    "cluster.unfinished": "in_flight",
    "cluster.failed": "failed",
}
#: Traced per-layer metrics that are counts: equal across traced runs.
_COUNTS = (
    "sim.events",
    "sim.events_per_request",
    "replica.decode_steps",
    "replica.prefill_steps",
    "replica.decode_batch_mean",
    "core.route_calls",
    "core.trie_lookups",
    "core.trie_inserts",
)


class CellFailed(RuntimeError):
    """A child cell process crashed or printed no result."""


def cell_seeds(seed: int) -> List[int]:
    return [CELLS_PER_RUN * seed + index for index in range(CELLS_PER_RUN)]


def run_cell(workload: str, seed: int, *, traced: bool) -> Dict[str, object]:
    """Simulate one cell in a fresh child process and return its result."""
    command = [sys.executable, str(CELL), "--workload", workload, "--seed", str(seed)]
    if traced:
        command.append("--traced")
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=CELL_TIMEOUT_S
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise CellFailed(
            f"cell {workload} seed {seed} exited {completed.returncode}:\n{completed.stderr}"
        )
    return json.loads(lines[-1])


def _failed_ops(cell: Dict[str, object]) -> int:
    """Simulated requests that failed plus messages the network dropped."""
    return int(cell["sim"]["failed"] + cell["sim"]["network.dropped"])


def _median_scaled_wall(cells: Sequence[Dict[str, object]]) -> float:
    return statistics.median(cell["host"]["wall_s"] * cell["host"]["scale"] for cell in cells)


def end_to_end(workload: str, seed: int, seconds: float) -> Tuple[Dict[str, float], List[str], list]:
    """Repeat the run's cells for ``seconds``; return metrics, problems, cells."""
    deadline = time.perf_counter() + seconds
    seeds = cell_seeds(seed)
    first: Dict[int, Dict[str, object]] = {}
    cells: List[Dict[str, object]] = []
    problems: List[str] = []
    durations: List[float] = []
    while True:
        cell_seed = seeds[len(cells) % len(seeds)]
        started = time.perf_counter()
        cell = run_cell(workload, cell_seed, traced=False)
        durations.append(time.perf_counter() - started)
        cells.append(cell)
        reference = first.setdefault(cell_seed, cell)
        if cell["sim"] != reference["sim"] or cell["ledger"] != reference["ledger"]:
            problems.append(f"cell seed {cell_seed} is not deterministic")
        if len(cells) >= len(seeds) and (
            time.perf_counter() + statistics.median(durations) > deadline
        ):
            break
    sims = [first[cell_seed]["sim"] for cell_seed in seeds]
    if any(sims[0] == other for other in sims[1:]):
        problems.append("two cell seeds gave identical simulated outputs")
    # Imported here, after main() has checked that the simulator is present.
    from perfbench.ledger import pooled_metrics

    metrics = pooled_metrics([first[cell_seed]["ledger"] for cell_seed in seeds])
    hosts = [cell["host"] for cell in cells]
    metrics["setup_s"] = statistics.median(host["setup_s"] * host["scale"] for host in hosts)
    metrics["sim_requests_per_host_s"] = statistics.median(
        cell["sim"]["completed"] / (cell["host"]["run_s"] * cell["host"]["scale"])
        for cell in cells
    )
    metrics["peak_rss_mb"] = statistics.median(host["peak_rss_mb"] for host in hosts)
    print(
        f"{workload:<16} unscaled wall clock: setup_s "
        f"{statistics.median(host['setup_s'] for host in hosts):.6g} s, "
        f"sim_requests_per_host_s "
        f"{statistics.median(c['sim']['completed'] / c['host']['run_s'] for c in cells):.6g} "
        f"req/s, calibration scale {statistics.median(host['scale'] for host in hosts):.4g}, "
        f"{len(cells)} cells"
    )
    return metrics, problems, cells


def per_layer(workload: str, seed: int, seconds: float) -> Tuple[Dict[str, float], List[str], list]:
    """Alternate untraced and traced runs of the run's first cell."""
    deadline = time.perf_counter() + seconds
    cell_seed = cell_seeds(seed)[0]
    plain: List[Dict[str, object]] = []
    traced: List[Dict[str, object]] = []
    problems: List[str] = []
    pair_s: List[float] = []
    while True:
        started = time.perf_counter()
        plain.append(run_cell(workload, cell_seed, traced=False))
        traced.append(run_cell(workload, cell_seed, traced=True))
        pair_s.append(time.perf_counter() - started)
        if len(traced) >= 2 and time.perf_counter() + statistics.median(pair_s) > deadline:
            break
    reference = plain[0]
    for cell in plain[1:] + traced:
        if cell["sim"] != reference["sim"] or cell["ledger"] != reference["ledger"]:
            problems.append("tracing changed the simulated outputs")
            break
    for cell in traced[1:]:
        if any(cell["layers"][name] != traced[0]["layers"][name] for name in _COUNTS):
            problems.append("traced per-layer counts differ between runs")
            break
    for cell in traced:
        if cell["root_ns"] != cell["self_ns"]:
            problems.append("span self times do not add up to the root spans")
        if cell["layers"]["trace.unattributed_s"] < 0:
            problems.append("spans cover more than the traced wall time")
    metrics: Dict[str, float] = {}
    for name in PER_LAYER:
        if name in _FROM_SIM:
            metrics[name] = reference["sim"][_FROM_SIM[name]]
        elif name == "trace.overhead_fraction":
            metrics[name] = _median_scaled_wall(traced) / _median_scaled_wall(plain) - 1.0
        else:
            metrics[name] = statistics.median(cell["layers"][name] for cell in traced)
    return metrics, problems, plain + traced


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    try:
        if args.trace:
            metrics, problems, cells = per_layer(args.workload, args.seed, args.seconds)
            units = PER_LAYER
        else:
            metrics, problems, cells = end_to_end(args.workload, args.seed, args.seconds)
            units = END_TO_END
    except (CellFailed, subprocess.TimeoutExpired) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (unit, _better) in units.items():
        print(f"{args.workload:<16} {name:<28} {metrics[name]:>16.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": sum(int(cell["sim"]["issued"]) for cell in cells),
        "failed": sum(_failed_ops(cell) for cell in cells),
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, (unit, _better) in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
