"""Issued-request ledger with right-censored latencies.

``repro.metrics.collect_run_metrics`` takes its latency percentiles over
completed requests only, which hides a saturated system's tail: the slowest
requests never finish, so they never count.  The ledger instead accounts for
every *issued* request.  A request that has no first token (or no final
token) by the horizon contributes ``horizon - sent_time``: a right-censored
lower bound on its latency.  Percentiles over that mixed sample are
therefore lower bounds too, and they can only grow when the system gets
slower.

The ledger is built from outside the program: for closed loops it walks the
requests of the workload's programs, for open loops it records every request
the benchmark's own stream hands to a client.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.metrics.summary import percentile
from repro.workloads.request import Request, RequestStatus

__all__ = [
    "LedgerError",
    "RecordingStream",
    "cell_ledger",
    "issued_requests",
    "pooled_metrics",
]

#: TTFT limit of ``sim_ttft_slo_attainment`` (simulated seconds).
TTFT_SLO_S = 1.0


class LedgerError(AssertionError):
    """An issued request is unaccounted for, or its timestamps are impossible."""


class RecordingStream:
    """Wraps a timed ``(arrival, Request)`` stream and records what it yields.

    ``scheduled`` maps each yielded request's ID to its scheduled arrival,
    so the open-loop ledger can check that the client sent it on time.
    """

    def __init__(self, stream: Iterable[Tuple[float, Request]]) -> None:
        self._stream = stream
        self.requests: List[Request] = []
        self.scheduled: Dict[int, float] = {}

    def __iter__(self) -> Iterator[Tuple[float, Request]]:
        for arrival, request in self._stream:
            self.requests.append(request)
            self.scheduled[request.request_id] = arrival
            yield arrival, request


def issued_requests(candidates: Iterable[Request]) -> List[Request]:
    """The candidates a client actually sent (``sent_time`` is stamped)."""
    return [request for request in candidates if request.sent_time is not None]


def _check_timestamps(request: Request, horizon: float) -> None:
    """Completed requests must have a monotone, in-horizon timeline."""
    # schedule_time is the *last* admission, which a preemption can move
    # past the first token, so it is checked apart from the main chain.
    chain = (
        request.sent_time,
        request.lb_arrival_time,
        request.first_token_time,
        request.finish_time,
        horizon,
    )
    scheduled = request.schedule_time
    if any(stamp is None for stamp in chain) or scheduled is None:
        raise LedgerError(f"completed request {request.request_id} lacks a timestamp")
    if not all(a <= b for a, b in zip(chain, chain[1:])) or not (
        request.lb_arrival_time <= scheduled <= request.finish_time
    ):
        raise LedgerError(
            f"request {request.request_id} has an impossible timeline: "
            f"{chain[:-1]} scheduled at {scheduled}"
        )
    if request.generated_tokens != request.output_len:
        raise LedgerError(
            f"request {request.request_id} finished with {request.generated_tokens} "
            f"of {request.output_len} tokens"
        )


def cell_ledger(issued: Sequence[Request], horizon: float) -> Dict[str, object]:
    """Counts and censored latency samples of one cell's issued requests.

    Latencies of requests with no first (or final) token by ``horizon`` are
    censored at ``horizon - sent_time``.  Failed requests are censored the
    same way and always miss the TTFT limit, as do requests still in flight.
    Raises :class:`LedgerError` when a request is in no known state or a
    completed request's timeline is impossible.
    """
    if not issued:
        raise LedgerError("the cell issued no requests")
    completed = failed = 0
    served_tokens = 0
    slo_hits = 0
    ttfts: List[float] = []
    e2es: List[float] = []
    queue_delays: List[float] = []
    for request in issued:
        censored = horizon - request.sent_time
        if censored < 0:
            raise LedgerError(f"request {request.request_id} was sent after the horizon")
        status = request.status
        if status == RequestStatus.FINISHED:
            _check_timestamps(request, horizon)
            completed += 1
            served_tokens += request.prompt_len + request.generated_tokens
            ttft = request.ttft
            ttfts.append(ttft)
            e2es.append(request.e2e_latency)
            if ttft <= TTFT_SLO_S:
                slo_hits += 1
        elif status == RequestStatus.FAILED:
            failed += 1
            ttfts.append(censored)
            e2es.append(censored)
        elif status in _IN_FLIGHT:
            ttft = request.ttft
            ttfts.append(censored if ttft is None else ttft)
            e2es.append(censored)
        else:
            raise LedgerError(f"request {request.request_id} is in unknown state {status!r}")
        if request.lb_arrival_time is not None:
            if request.schedule_time is not None:
                queue_delays.append(request.schedule_time - request.lb_arrival_time)
            else:
                queue_delays.append(horizon - request.lb_arrival_time)
    return {
        "horizon_s": horizon,
        "issued": len(issued),
        "completed": completed,
        "failed": failed,
        "in_flight": len(issued) - completed - failed,
        "served_tokens": served_tokens,
        "slo_hits": slo_hits,
        "ttft": ttfts,
        "e2e": e2es,
        "queue_delay": queue_delays,
    }


def pooled_metrics(ledgers: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """Every ``sim_*`` metric over the union of the cells' issued requests."""
    issued = sum(ledger["issued"] for ledger in ledgers)
    completed = sum(ledger["completed"] for ledger in ledgers)
    simulated_s = sum(ledger["horizon_s"] for ledger in ledgers)
    ttfts = [value for ledger in ledgers for value in ledger["ttft"]]
    e2es = [value for ledger in ledgers for value in ledger["e2e"]]
    return {
        "sim_ttft_p50_s": percentile(ttfts, 50),
        "sim_ttft_p99_s": percentile(ttfts, 99),
        "sim_e2e_p50_s": percentile(e2es, 50),
        "sim_throughput_tok_per_s": sum(l["served_tokens"] for l in ledgers) / simulated_s,
        "sim_ttft_slo_attainment": sum(l["slo_hits"] for l in ledgers) / issued,
        "sim_unfinished_fraction": (issued - completed) / issued,
    }


_IN_FLIGHT = frozenset(
    {
        RequestStatus.QUEUED_AT_LB,
        RequestStatus.FORWARDED,
        RequestStatus.PENDING_AT_REPLICA,
        RequestStatus.RUNNING,
    }
)
