"""The network: message delivery and probing over a routed WAN graph.

:class:`Network` is the one transport between simulation actors.  It
samples a latency along a routed path over a :class:`~repro.net.graph.WanGraph`
(with optional jitter), waits for it, and then delivers the payload into
the destination's inbox store or invokes a callback.  Probes (heartbeat
RTTs) are modelled the same way, which is what makes "probe all replicas
from every load balancer" measurably more expensive than SkyWalker's
two-layer design.  When any edge carries finite bandwidth, cross-region
messages instead serialise through per-edge FIFO queues as simulation
processes (store-and-forward per hop).

Determinism contract:

* **Contention off** (every edge bandwidth 0, the default): on the default
  ``"mesh"`` graph every route is the single direct edge, its latency is
  the topology's matrix entry, fault surcharges key on the same
  ``(src, dst)`` pairs, and the jitter RNG and the fault RNG are consumed
  once per message in a fixed order.  The golden fixture
  ``tests/net/data/mesh_golden.json`` pins the samples, the loss draws and
  the arrival times.
* **Contention on**: transit becomes event-driven (queue, transmit
  ``size/bandwidth``, propagate per hop), so latencies depend on concurrent
  traffic -- but the whole schedule is still a pure function of
  (spec, workload, seed): serial, ``workers=N`` and forced-spawn sweeps
  produce identical results.
* **Re-convergence**: route tables are recomputed whenever an edge goes
  down/up or a region pair is (un)blocked, by the registered routing policy
  with its deterministic tie-break; every table diff is appended to
  :attr:`Network.route_events` in sorted pair order, so two runs agree on
  the exact ``route_changed`` sequence.

A pair whose route is cut keeps its *last-known-good* path in the table
(latency sampling stays finite for code that asks) but is marked
unreachable: messages sent across it are dropped, exactly like a blocked
pair, and :meth:`Network.link_blocked` reports it down so availability
probes see the cut.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set, Tuple

from ..sim import Environment, Resource, Store
from .config import NetConfig
from .graph import make_wan_topology
from .routing import make_routing_policy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..network.topology import NetworkTopology

__all__ = ["Network", "RouteChange"]

Path = Tuple[str, ...]
Pair = Tuple[str, str]
#: One edge of a route with its nominal latency: ``(u, v, latency_s)``.
Leg = Tuple[str, str, float]

#: Sentinel payload for phantom transfers (response streams) that occupy
#: link bandwidth but are never delivered into an inbox.
_PHANTOM = object()


@dataclass(frozen=True)
class RouteChange:
    """One observable ``route_changed`` event: a region pair's path diff."""

    time: float
    #: What triggered the re-convergence: ``"partition"``, ``"heal"``,
    #: ``"link-down"`` or ``"link-up"``.
    reason: str
    src: str
    dst: str
    #: Previous path (``None`` = the pair was unreachable).
    old_path: Optional[Path]
    #: New path (``None`` = the pair is now unreachable).
    new_path: Optional[Path]

    def as_tuple(self) -> tuple:
        """Hashable, comparison-friendly form (times rounded to ns so a
        serialisation round-trip cannot perturb equality checks)."""
        return (round(self.time, 9), self.reason, self.src, self.dst,
                self.old_path, self.new_path)


class Network:
    """Latency-faithful message transport over a routed WAN graph.

    config:
        The frozen :class:`~repro.net.NetConfig` naming the WAN graph
        builder, the routing policy and the contention model's wire sizes.
        The default is the uncontended ``"mesh"`` graph over ``topology``.
        Edge bandwidths are fixed at build time, so
        :attr:`contention_enabled` is too.
    default_kv_bytes_per_token:
        The model profile's KV footprint, used when the config leaves
        ``kv_bytes_per_token`` at 0 (the physically faithful default:
        pushed prefixes weigh what the profile says they do).
    """

    def __init__(
        self,
        env: Environment,
        topology: "NetworkTopology",
        config: NetConfig = NetConfig(),
        *,
        jitter_fraction: float = 0.05,
        seed: int = 0,
        default_kv_bytes_per_token: float = 0.0,
    ) -> None:
        self.env = env
        self.topology = topology
        self.jitter_fraction = jitter_fraction
        self.seed = seed
        self._rng = random.Random(seed)
        self.graph = make_wan_topology(
            config.topology,
            topology,
            wan_bandwidth_bytes_per_s=config.wan_bandwidth_bytes_per_s,
            **dict(config.topology_args),
        )
        self.policy = make_routing_policy(config.routing, **dict(config.routing_args))
        # Wire-size coefficients of the contention model (read only while
        # contended: dispatch skips computing sizes otherwise).
        self.request_bytes_per_token = config.request_bytes_per_token
        self.response_bytes_per_token = config.response_bytes_per_token
        self.kv_bytes_per_token = config.kv_bytes_per_token or default_kv_bytes_per_token
        #: Finished responses become phantom reverse-path transfers
        #: (:meth:`stream_response`) when contended.
        self.model_responses = config.model_responses
        #: Whether messages contend for finite link bandwidth: true when
        #: any graph edge has it, which is what switches dispatch into
        #: computing wire sizes.
        self.contention_enabled = self.graph.has_finite_bandwidth
        # Traffic accounting (useful for the architecture ablation).
        self.messages_sent = 0
        self.cross_region_messages = 0
        self.probe_count = 0
        self.dropped_messages = 0
        # Contention accounting.
        self.wire_bytes_sent = 0.0
        self.response_bytes = 0.0
        # Link-fault state (driven by repro.faults), keyed by directed graph
        # edge (or same-region pair): blocked region pairs drop messages,
        # extra latency models congestion spikes, and gray degrades add
        # loss probability / extra jitter.  All start empty so fault-free
        # runs take the cached-route fast path; the fault RNG is created
        # lazily on the first degrade so fault-free runs draw nothing.
        self._blocked_links: Dict[Pair, int] = {}
        self._extra_latency: Dict[Pair, float] = {}
        self._link_loss: Dict[Pair, float] = {}
        self._link_extra_jitter: Dict[Pair, float] = {}
        self._fault_rng: Optional[random.Random] = None
        # Route table over region pairs: the path, its legs and their
        # summed latency (the hot no-active-fault sampling path).  A
        # same-region pair is one pseudo-leg at the intra-region latency.
        self._routes: Dict[Pair, Path] = {}
        self._legs: Dict[Pair, Tuple[Leg, ...]] = {}
        self._route_base: Dict[Pair, float] = {}
        for region in topology.region_names():
            latency = topology.one_way(region, region)
            self._legs[(region, region)] = ((region, region, latency),)
            self._route_base[(region, region)] = latency
        self._down_edges: Dict[Pair, int] = {}
        self._unreachable: Set[Pair] = set()
        #: Every route-table diff, in event order (sorted pair order within
        #: one re-convergence) -- the observable ``route_changed`` stream.
        self.route_events: List[RouteChange] = []
        # One FIFO queue per finite-bandwidth edge, created lazily.
        self._edge_queues: Dict[Pair, Resource] = {}
        self._reconverge(None)

    # ------------------------------------------------------------------
    # routes and re-convergence
    # ------------------------------------------------------------------
    def route(self, src: str, dst: str) -> Optional[Path]:
        """The current path for a region pair (``None`` when unreachable;
        same-region pairs route trivially)."""
        if src == dst:
            return (src,)
        if (src, dst) in self._unreachable:
            return None
        return self._routes[(src, dst)]

    def reachable(self, src: str, dst: str) -> bool:
        return src == dst or (src, dst) not in self._unreachable

    def _reconverge(self, reason: Optional[str]) -> None:
        """Recompute every region pair's route and record the diffs.

        ``reason=None`` is the initial table build: no events, and a
        disconnected pair is a construction error rather than an outage.
        Pairs are visited in sorted order so the event sequence of one
        re-convergence is deterministic.
        """
        down = frozenset(self._down_edges)
        regions = sorted(self.graph.region_names())
        for src in regions:
            for dst in regions:
                if src == dst:
                    continue
                pair = (src, dst)
                old_path: Optional[Path] = (
                    self._routes[pair] if pair in self._routes and pair not in self._unreachable
                    else None
                )
                if pair in self._blocked_links:
                    # A blocked *pair* is a policy statement that these two
                    # regions must not communicate (the partition fault), so
                    # routing around it is not allowed.
                    new_path: Optional[Path] = None
                else:
                    new_path = self.policy.compute_path(self.graph, src, dst, down)
                if new_path is None:
                    if reason is None:
                        raise ValueError(
                            f"no route from {src!r} to {dst!r} in the WAN graph; "
                            "a topology must connect every region pair"
                        )
                    # Keep the last-known-good path for latency sampling;
                    # deliveries across the pair drop until it heals.
                    self._unreachable.add(pair)
                else:
                    self._unreachable.discard(pair)
                    legs = tuple(
                        (u, v, self.graph.latency(u, v))
                        for u, v in zip(new_path, new_path[1:])
                    )
                    self._routes[pair] = new_path
                    self._legs[pair] = legs
                    self._route_base[pair] = sum(latency for _, _, latency in legs)
                if reason is not None and old_path != new_path:
                    self.route_events.append(
                        RouteChange(self.env.now, reason, src, dst, old_path, new_path)
                    )

    # ------------------------------------------------------------------
    # fault surface: pairs blocked, edges down
    # ------------------------------------------------------------------
    def set_link_blocked(
        self, src: str, dst: str, blocked: bool = True, *, symmetric: bool = True
    ) -> None:
        """(Un)block a region pair: a partition, as a graph cut.

        Messages across a blocked pair are dropped and counted in
        :attr:`dropped_messages`; any *direct* edge between the two nodes
        goes down too so third-party routes avoid it, and the route table
        re-converges -- which is what makes the partition observable as
        ``route_changed`` events.

        Blocks are reference-counted per direction, so overlapping faults
        compose: a link stays down until *every* fault that blocked it has
        healed (an unblock without a matching block is a no-op).
        """
        for pair in _directions(src, dst, symmetric):
            _adjust_count(self._blocked_links, pair, blocked)
            if self.graph.has_edge(*pair):
                _adjust_count(self._down_edges, pair, blocked)
        self._reconverge("partition" if blocked else "heal")

    def link_blocked(self, src: str, dst: str) -> bool:
        """Is ``src -> dst`` down?  True when the pair is blocked *or* the
        route to it is cut, so availability probes detect graph cuts the
        same way they detect partitions."""
        return (src, dst) in self._blocked_links or (src, dst) in self._unreachable

    def set_edge_down(
        self, u: str, v: str, down: bool = True, *, symmetric: bool = True
    ) -> None:
        """Take one graph edge down (or back up) and re-converge routes.

        Downs are reference-counted per direction, like pair blocks, so
        overlapping faults compose.  Unlike a blocked pair, traffic *routes
        around* a downed edge when the policy finds an alternative."""
        pairs = _directions(u, v, symmetric)
        for a, b in pairs:
            if not self.graph.has_edge(a, b):
                raise KeyError(f"no edge {a!r} -> {b!r} in the graph")
        for pair in pairs:
            _adjust_count(self._down_edges, pair, down)
        self._reconverge("link-down" if down else "link-up")

    def check_link(self, src: str, dst: str, *, symmetric: bool = True) -> None:
        """Raise ``ValueError`` unless per-link faults can target ``src``
        -> ``dst``: a same-region pair or an edge of the WAN graph.

        Spikes and degrades key on graph edges, so on a pair that is not
        an edge they would silently never apply; the error names the edges
        the pair's route crosses instead."""
        for u, v in _directions(src, dst, symmetric):
            if u == v or self.graph.has_edge(u, v):
                continue
            path = self._routes.get((u, v))
            if path is None:
                detail = f"graph nodes: {sorted(self.graph.nodes())}"
            else:
                detail = "its route crosses " + ", ".join(
                    f"{a!r} -> {b!r}" for a, b in zip(path, path[1:])
                )
            raise ValueError(
                f"link {u!r} -> {v!r} is not an edge of the WAN graph, so a "
                f"link fault on it would never apply; {detail}"
            )

    # ------------------------------------------------------------------
    # latency spikes
    # ------------------------------------------------------------------
    def add_link_extra_latency(
        self, src: str, dst: str, extra_s: float, *, symmetric: bool = True
    ) -> None:
        """Add a latency-spike *contribution* to a link.

        Contributions from overlapping faults sum; each fault later removes
        exactly what it added (:meth:`remove_link_extra_latency`), so spikes
        compose instead of clobbering each other.  Jitter applies to the
        inflated latency, the way real congestion inflates variance along
        with the mean."""
        if extra_s < 0:
            raise ValueError("extra latency must be non-negative")
        self.check_link(src, dst, symmetric=symmetric)
        if extra_s == 0:
            return
        for pair in _directions(src, dst, symmetric):
            self._extra_latency[pair] = self._extra_latency.get(pair, 0.0) + extra_s

    def remove_link_extra_latency(
        self, src: str, dst: str, extra_s: float, *, symmetric: bool = True
    ) -> None:
        """Remove a contribution previously added with
        :meth:`add_link_extra_latency` (clamped at zero)."""
        if extra_s <= 0:
            return
        for pair in _directions(src, dst, symmetric):
            _subtract(self._extra_latency, pair, extra_s)

    def link_extra_latency(self, src: str, dst: str) -> float:
        """The current latency-spike surcharge on ``src -> dst``."""
        return self._extra_latency.get((src, dst), 0.0)

    # ------------------------------------------------------------------
    # gray link degrades (loss probability + extra jitter)
    # ------------------------------------------------------------------
    def _ensure_fault_rng(self) -> random.Random:
        if self._fault_rng is None:
            # Derived from the network seed but independent of the jitter
            # stream: installing a degrade must not shift the draws that
            # fault-free traffic would have made.
            self._fault_rng = random.Random(
                zlib.crc32(f"link-faults:{self.seed}".encode("utf-8"))
            )
        return self._fault_rng

    def add_link_degrade(
        self,
        src: str,
        dst: str,
        *,
        loss_probability: float = 0.0,
        extra_jitter_fraction: float = 0.0,
        symmetric: bool = True,
    ) -> None:
        """Degrade a link: per-message loss probability and extra jitter.

        Contributions from overlapping degrades are additive (loss is
        clamped to 1.0 when drawn).  Probes feel the jitter but are never
        lost -- a gray link looks slow, not dead."""
        if not 0.0 <= loss_probability <= 1.0:
            raise ValueError("loss probability must be in [0, 1]")
        if extra_jitter_fraction < 0:
            raise ValueError("extra jitter fraction must be non-negative")
        self.check_link(src, dst, symmetric=symmetric)
        self._ensure_fault_rng()
        for pair in _directions(src, dst, symmetric):
            if loss_probability:
                self._link_loss[pair] = (
                    self._link_loss.get(pair, 0.0) + loss_probability
                )
            if extra_jitter_fraction:
                self._link_extra_jitter[pair] = (
                    self._link_extra_jitter.get(pair, 0.0) + extra_jitter_fraction
                )

    def remove_link_degrade(
        self,
        src: str,
        dst: str,
        *,
        loss_probability: float = 0.0,
        extra_jitter_fraction: float = 0.0,
        symmetric: bool = True,
    ) -> None:
        """Remove a degrade contribution previously added with
        :meth:`add_link_degrade` (clamped at zero)."""
        for pair in _directions(src, dst, symmetric):
            if loss_probability > 0:
                _subtract(self._link_loss, pair, loss_probability)
            if extra_jitter_fraction > 0:
                _subtract(self._link_extra_jitter, pair, extra_jitter_fraction)

    def link_loss_probability(self, src: str, dst: str) -> float:
        """Current per-message loss probability on ``src -> dst``."""
        return min(1.0, self._link_loss.get((src, dst), 0.0))

    def _message_lost(self, src: str, dst: str) -> bool:
        """Per-edge loss checks along the route, in path order."""
        if not self._link_loss:
            return False
        for u, v, _latency in self._legs[(src, dst)]:
            loss = min(1.0, self._link_loss.get((u, v), 0.0))
            if loss > 0.0 and self._ensure_fault_rng().random() < loss:
                return True
        return False

    # ------------------------------------------------------------------
    # latency sampling
    # ------------------------------------------------------------------
    def _leg_with_faults(self, u: str, v: str, latency: float) -> float:
        """One leg's pre-jitter latency: spike surcharge plus degrade
        jitter.  Degrade jitter only ever inflates (congestion variance)
        and draws from the fault RNG, so the nominal jitter stream is
        untouched by the degrade being installed."""
        latency += self._extra_latency.get((u, v), 0.0)
        extra = self._link_extra_jitter.get((u, v), 0.0)
        if extra > 0:
            latency += self._ensure_fault_rng().uniform(0.0, latency * extra)
        return latency

    def sample_one_way(self, src: str, dst: str) -> float:
        """One-way latency sample: the route's summed leg latencies (with
        any fault surcharges) plus bounded jitter."""
        if self._extra_latency or self._link_extra_jitter:
            base = 0.0
            for u, v, latency in self._legs[(src, dst)]:
                base += self._leg_with_faults(u, v, latency)
        else:
            base = self._route_base[(src, dst)]
        if self.jitter_fraction <= 0:
            return base
        jitter = base * self.jitter_fraction
        return max(0.0, base + self._rng.uniform(-jitter, jitter))

    def sample_rtt(self, src: str, dst: str) -> float:
        return self.sample_one_way(src, dst) + self.sample_one_way(dst, src)

    # ------------------------------------------------------------------
    # wire sizes (the contention model's inputs)
    # ------------------------------------------------------------------
    def request_wire_bytes(self, request: Any) -> float:
        """Wire size of a request message."""
        return self.request_bytes_per_token * request.prompt_len

    def push_wire_bytes(self, tokens: int) -> float:
        """Wire size of ``tokens`` worth of pushed KV prefix."""
        return self.kv_bytes_per_token * max(0, tokens)

    def response_wire_bytes(self, request: Any) -> float:
        """Wire size of a finished request's response stream."""
        tokens = request.generated_tokens or request.output_len
        return self.response_bytes_per_token * tokens

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------
    def _dropped(self, src: str, dst: str) -> bool:
        """Count one message and decide whether the network drops it:
        across a blocked pair or a cut route, or lost to a degrade."""
        self.messages_sent += 1
        if src != dst:
            self.cross_region_messages += 1
        if (
            (src, dst) in self._blocked_links
            or (src, dst) in self._unreachable
            or self._message_lost(src, dst)
        ):
            self.dropped_messages += 1
            return True
        return False

    def deliver(
        self,
        item: Any,
        src: str,
        dst: str,
        inbox: Store,
        *,
        extra_delay: float = 0.0,
        size_bytes: float = 0.0,
    ) -> None:
        """Asynchronously place ``item`` into ``inbox`` after the network delay.

        ``extra_delay`` is serialised on top of the sampled link delay --
        used for payload-dependent costs such as shipping pushed KV prefixes
        (the latency sample itself stays payload-independent so RNG draws
        are unchanged).  ``size_bytes`` is the message's wire size, which
        serialises through each finite-bandwidth edge on the path when
        contention is on.  Dropped messages never arrive, even if the link
        heals."""
        if self._dropped(src, dst):
            return
        if self.contention_enabled and src != dst:
            self.wire_bytes_sent += size_bytes
            self.env.process(
                self._transit(item, src, dst, inbox, extra_delay, size_bytes)
            )
            return
        delay = self.sample_one_way(src, dst) + extra_delay
        self._after(delay, lambda _event: inbox.put(item))

    def call_after_delay(self, src: str, dst: str, callback: Callable[[], None]) -> None:
        """Run ``callback`` after a one-way delay (used for notifications)."""
        if self._dropped(src, dst):
            return
        delay = self.sample_one_way(src, dst)
        self._after(delay, lambda _event: callback())

    def _after(self, delay: float, callback: Callable[[Any], None]) -> None:
        """Run ``callback`` ``delay`` seconds after a start event.

        A callback chain instead of a process: the start event keeps the
        place a process's first step held in the schedule, so the timeout
        gets the same insertion order, without a generator or an
        end-of-process event.
        """
        env = self.env

        def start(_event) -> None:
            env.timeout(delay).callbacks.append(callback)

        event = env.event()
        event.callbacks.append(start)
        event.succeed()

    # ------------------------------------------------------------------
    # contended transit
    # ------------------------------------------------------------------
    def _edge_queue(self, u: str, v: str) -> Resource:
        key = (u, v)
        queue = self._edge_queues.get(key)
        if queue is None:
            queue = self._edge_queues[key] = Resource(self.env, capacity=1)
        return queue

    def _transit(
        self,
        item: Any,
        src: str,
        dst: str,
        inbox: Optional[Store],
        extra_delay: float,
        size_bytes: float,
    ):
        """Store-and-forward transit: per edge, acquire the shared FIFO,
        transmit ``size/bandwidth``, release, then propagate the hop's
        latency.  Zero-size messages still pass through the queue (they
        wait behind in-flight transmissions -- shared-FIFO semantics), and
        a message already in flight completes over its captured path even
        if an edge on it goes down mid-transit."""
        if extra_delay > 0:
            yield self.env.timeout(extra_delay)
        for u, v, latency in self._legs[(src, dst)]:
            link = self.graph.link(u, v)
            if link.bandwidth_bytes_per_s > 0:
                queue = self._edge_queue(u, v)
                grant = queue.request()
                yield grant
                try:
                    if size_bytes > 0:
                        yield self.env.timeout(size_bytes / link.bandwidth_bytes_per_s)
                finally:
                    queue.release(grant)
            yield self.env.timeout(self._hop_delay(u, v, latency))
        if inbox is not None:
            yield inbox.put(item)

    def _hop_delay(self, u: str, v: str, latency: float) -> float:
        """One hop's propagation delay: edge latency, fault surcharges and
        bounded jitter, drawn at forwarding time (hop by hop, rather than
        once end-to-end, because contended hops happen at different sim
        times)."""
        leg = self._leg_with_faults(u, v, latency)
        if self.jitter_fraction > 0:
            jitter = leg * self.jitter_fraction
            leg = max(0.0, leg + self._rng.uniform(-jitter, jitter))
        return leg

    def stream_response(self, request: Any) -> None:
        """Completion listener: occupy the reverse path with the finished
        response's bytes.

        The experiment runner registers it when contention is on and
        ``model_responses`` is set.  The client-observed latency itself
        stays the analytic ``response_network_delay`` stamp (so the metric
        identity payload is untouched); what this models is the *load*
        responses place on shared WAN edges, which is the other half of
        the contention story -- pushes and response streams queue behind
        each other."""
        src = request.serving_region or request.region
        dst = request.region
        if src == dst:
            return
        size = self.response_wire_bytes(request)
        self.response_bytes += size
        if self.link_blocked(src, dst):
            return
        self.env.process(self._transit(_PHANTOM, src, dst, None, 0.0, size))

    # ------------------------------------------------------------------
    # probes
    # ------------------------------------------------------------------
    def probe(self, src: str, dst: str, read: Callable[[], Any]):
        """A probe generator: yields for one RTT, then returns ``read()``.

        Usage inside a process::

            value = yield from network.probe(my_region, replica.region,
                                             lambda: replica.num_pending)
        """
        self.probe_count += 1
        self.messages_sent += 1
        if src != dst:
            self.cross_region_messages += 1
        yield self.env.timeout(self.sample_rtt(src, dst))
        return read()

    def probe_delay(self, src: str, dst: str):
        """Timeout event covering a full probe round trip."""
        self.probe_count += 1
        return self.env.timeout(self.sample_rtt(src, dst))


def _directions(src: str, dst: str, symmetric: bool) -> List[Pair]:
    """The directed pairs one (possibly symmetric) link fault touches."""
    return [(src, dst), (dst, src)] if symmetric else [(src, dst)]


def _adjust_count(counts: Dict[Pair, int], pair: Pair, up: bool) -> None:
    """Reference-count one fault's hold on ``pair`` (a release without a
    matching hold is a no-op and never goes negative)."""
    if up:
        counts[pair] = counts.get(pair, 0) + 1
        return
    count = counts.get(pair, 0)
    if count <= 1:
        counts.pop(pair, None)
    else:
        counts[pair] = count - 1


def _subtract(table: Dict[Pair, float], pair: Pair, amount: float) -> None:
    """Remove one fault's additive contribution, dropping the entry once
    what remains is (numerically) zero."""
    remaining = table.get(pair, 0.0) - amount
    if remaining <= 1e-12:
        table.pop(pair, None)
    else:
        table[pair] = remaining
