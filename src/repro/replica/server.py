"""The replica server: a simulated SGLang/vLLM-style inference engine.

A :class:`ReplicaServer` is a simulation process that consumes requests from
its inbox, runs them through a :class:`ContinuousBatcher`, and notifies
listeners when first tokens and completions happen.  Load balancers never
call into the batcher directly -- they observe the replica the same way the
real system does, through the probe properties (``num_pending``,
``num_outstanding``, ...) exposed here and accessed via the network layer
with realistic probe latency.

Decode spans
------------
While a batch's makeup cannot change -- nothing waits, no sequence finishes
and no preemption is possible -- the replica plans its decode steps as one
*span* of k steps and waits on a single event at the last boundary (the
simulator's analogue of vLLM ``--num-scheduler-steps``).  The boundaries
t_1..t_k come from the same float chain as stepping one token at a time,
so every simulated output is bit-identical to per-token stepping:

* an inbox put or a performance-level change cuts the span at its first
  boundary after ``now``, where the replica re-plans;
* ``fail()`` and reads of :attr:`ReplicaServer.stats` /
  :attr:`ReplicaServer.batcher` first apply the boundaries already elapsed;
* probe signals read the state at the last elapsed boundary.

Tie rule: an interior boundary counts as elapsed once the clock reaches it
(``t_i <= now``).  An arrival landing exactly on interior boundary t_j is
therefore drained at t_{j+1}, and a read at t_j sees the state after step j.
The last boundary is a real event, so there the usual event order decides.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, List, Optional, Tuple

from ..mem import MemoryConfig
from ..sim import Environment, Interrupt, Store
from ..sim.resources import StorePut
from ..workloads.request import Request, RequestStatus
from .batching import ContinuousBatcher
from .model_profile import LLAMA_8B_L4, ModelProfile, resolve_performance_scale

__all__ = ["ReplicaServer", "ReplicaStats"]

RequestCallback = Callable[[Request], None]


class ReplicaStats:
    """Aggregated, monotonic counters for one replica."""

    def __init__(self) -> None:
        self.busy_time = 0.0
        self.prefill_time = 0.0
        self.decode_time = 0.0
        self.steps = 0
        self.utilization_samples: List[Tuple[float, float]] = []

    def record_step(self, kind: str, duration: float) -> None:
        self.busy_time += duration
        self.steps += 1
        if kind == "prefill":
            self.prefill_time += duration
        else:
            self.decode_time += duration


class _DecodeSpan:
    """k planned decode steps of a batch whose makeup cannot change."""

    __slots__ = ("times", "durations", "width", "used0", "capacity", "applied", "wake")

    def __init__(
        self, times: List[float], durations: List[float], width: int, used0: int, capacity: int
    ) -> None:
        #: Boundary times t_1..t_k and the step durations that produced them.
        self.times = times
        self.durations = durations
        #: Running sequences: each step adds this many KV tokens.
        self.width = width
        #: KV tokens in use, and the KV budget, when the span started.
        self.used0 = used0
        self.capacity = capacity
        #: Steps already applied to the batcher.
        self.applied = 0
        #: 1-based index of the boundary whose event wakes the replica.
        self.wake = len(times)

    def elapsed(self, now: float) -> int:
        """Interior boundaries at or before ``now`` (the last boundary is
        only ever applied by its own event)."""
        return min(bisect_right(self.times, now), len(self.times) - 1)

    def utilization(self, steps: int) -> float:
        """KV utilization after ``steps`` steps (no sequence finishes inside
        a span, so memory grows by ``width`` per step)."""
        if self.capacity == 0:
            return 0.0
        return (self.used0 + steps * self.width) / self.capacity


class _Inbox(Store):
    """A replica's request inbox: every put cuts an in-flight decode span.

    The network delivers straight into the inbox, not through
    :meth:`ReplicaServer.submit`, so the hook lives here.
    """

    def __init__(self, env: Environment, on_put: Callable[[], None]) -> None:
        super().__init__(env)
        self._on_put = on_put

    def put(self, item) -> StorePut:
        event = super().put(item)
        self._on_put()
        return event


class ReplicaServer:
    """One model replica in one region.

    Parameters
    ----------
    env:
        The simulation environment.
    name:
        Unique replica name, e.g. ``"us/replica-0"``.
    region:
        Region the replica is deployed in.
    profile:
        Latency/memory model; defaults to Llama-3.1-8B on an L4, the paper's
        configuration.
    enable_prefix_cache:
        Disable to model a replica without RadixAttention-style caching.
    memory:
        Optional :class:`~repro.mem.MemoryConfig` turning the flat KV budget
        into a paged, tiered hierarchy; ``None`` keeps the legacy model.
    record_utilization:
        When set, the replica appends ``(time, kv_utilization)`` samples after
        every step; used to reproduce the paper's Fig. 4b.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        region: str,
        profile: ModelProfile = LLAMA_8B_L4,
        *,
        enable_prefix_cache: bool = True,
        memory: Optional[MemoryConfig] = None,
        record_utilization: bool = False,
    ) -> None:
        self.env = env
        self.name = name
        self.region = region
        self.profile = profile
        self.memory_config = memory
        self._batcher = ContinuousBatcher(
            profile, enable_prefix_cache=enable_prefix_cache, memory=memory
        )
        self.inbox: Store = _Inbox(env, self._cut_span)
        self._stats = ReplicaStats()
        self._span: Optional[_DecodeSpan] = None
        self.record_utilization = record_utilization
        self.healthy = True
        # Gray-failure state: a degraded replica stays healthy and keeps
        # serving, just slower.  ``_degrade_until is None`` means "until an
        # explicit restore"; the epoch counter guards against a stale timed
        # restore clobbering a newer degrade.
        self._degrade_level: Optional[str] = None
        self._degrade_scale: float = 1.0
        self._degrade_until: Optional[float] = None
        self._degrade_epoch: int = 0
        self._on_first_token: List[RequestCallback] = []
        self._on_complete: List[RequestCallback] = []
        self._on_health: List[Callable[["ReplicaServer"], None]] = []
        self._process = env.process(self._run())

    # ------------------------------------------------------------------
    # control plane
    # ------------------------------------------------------------------
    def add_completion_listener(self, callback: RequestCallback) -> None:
        """Register a callback invoked (with the request) on completion."""
        self._on_complete.append(callback)

    def add_first_token_listener(self, callback: RequestCallback) -> None:
        """Register a callback invoked when a request emits its first token."""
        self._on_first_token.append(callback)

    def add_health_listener(self, callback: Callable[["ReplicaServer"], None]) -> None:
        """Register a callback invoked (with the replica) on fail/recover."""
        self._on_health.append(callback)

    def remove_completion_listener(self, callback: RequestCallback) -> None:
        """Detach a completion listener (no-op if not registered)."""
        if callback in self._on_complete:
            self._on_complete.remove(callback)

    def remove_health_listener(self, callback: Callable[["ReplicaServer"], None]) -> None:
        """Detach a health listener (no-op if not registered)."""
        if callback in self._on_health:
            self._on_health.remove(callback)

    def _emit_health_change(self) -> None:
        for callback in self._on_health:
            callback(self)

    def submit(self, request: Request):
        """Hand a request to the replica (returns the store-put event)."""
        if not self.healthy:
            raise RuntimeError(f"replica {self.name} is down")
        return self.inbox.put(request)

    def fail(self) -> List[Request]:
        """Crash the replica: abort all work and stop the serving loop."""
        if not self.healthy:
            return []
        self.healthy = False
        self._sync()
        self._span = None
        aborted = self._batcher.abort_all(self.env.now)
        while self.inbox.items:
            request = self.inbox.items.popleft()
            request.status = RequestStatus.FAILED
            aborted.append(request)
        if self._process.is_alive:
            self._process.interrupt("replica-failure")
        self._emit_health_change()
        return aborted

    def recover(self, *, preserve_disk: bool = False) -> None:
        """Bring a failed replica back with a cold cache.

        HBM (and host RAM) contents never survive a crash, but with
        ``preserve_disk`` the disk tier's segments carry over into the fresh
        batcher -- modelling durable KV offload that a restarted engine can
        re-attach (only meaningful with a tiered :class:`MemoryConfig`).
        """
        if self.healthy:
            return
        self.healthy = True
        old_tiers = self._batcher.memory.tiers
        self._batcher = ContinuousBatcher(
            self.profile,
            enable_prefix_cache=self._batcher.memory.enable_prefix_cache,
            memory=self.memory_config,
        )
        if preserve_disk and old_tiers is not None:
            new_tiers = self._batcher.memory.tiers
            if new_tiers is not None:
                new_tiers.restore_tier("disk", old_tiers.export_tier("disk"), self.env.now)
        # Degrade/crash precedence: a restart clears transient slowness (the
        # replacement engine comes up at full rate) UNLESS the degrade window
        # is still open -- an environmental cause (thermal, power cap) outlasts
        # the process, so it re-applies to the fresh batcher.
        if self._degrade_scale != 1.0 and (
            self._degrade_until is None or self.env.now < self._degrade_until
        ):
            self._batcher.performance_scale = self._degrade_scale
        else:
            self._clear_degrade()
        # A fresh inbox: the crashed serving loop may have left an orphaned
        # get() registered on the old store, which would silently swallow the
        # first request delivered after recovery.
        self.inbox = _Inbox(self.env, self._cut_span)
        self._process = self.env.process(self._run())
        self._emit_health_change()

    # ------------------------------------------------------------------
    # gray failures (slow-but-alive)
    # ------------------------------------------------------------------
    @property
    def performance_level(self) -> Optional[str]:
        """Name of the active degrade level, ``None`` when nominal."""
        return self._degrade_level

    @property
    def performance_scale(self) -> float:
        """Current compute-rate multiplier (1.0 = nominal)."""
        return self._degrade_scale

    def set_performance_level(self, level, *, until: Optional[float] = None) -> int:
        """Degrade the replica to ``level`` (a name or a float in (0, 1]).

        The replica stays healthy and keeps accepting work; only compute
        stretches.  ``until`` records when a timed degrade is scheduled to
        lift (used by crash-recovery precedence).  Returns an epoch token to
        pass to :meth:`restore_performance` so a stale timed restore cannot
        clobber a newer degrade.  Works on unhealthy replicas too: the level
        is remembered and applied when (if) the crash recovery keeps it.
        """
        scale = resolve_performance_scale(level)
        self._degrade_level = level if isinstance(level, str) else None
        self._degrade_scale = scale
        self._degrade_until = until
        self._degrade_epoch += 1
        self._batcher.performance_scale = scale
        self._cut_span()
        return self._degrade_epoch

    def restore_performance(self, token: Optional[int] = None) -> None:
        """Return to nominal rates.

        With ``token``, only restores if no newer degrade has been applied
        since the token was issued; ``None`` forces the restore.
        """
        if token is not None and token != self._degrade_epoch:
            return
        self._clear_degrade()

    def _clear_degrade(self) -> None:
        self._degrade_level = None
        self._degrade_scale = 1.0
        self._degrade_until = None
        self._batcher.performance_scale = 1.0
        self._cut_span()

    # ------------------------------------------------------------------
    # state as of now (a decode span applies its steps lazily)
    # ------------------------------------------------------------------
    @property
    def batcher(self) -> ContinuousBatcher:
        """The scheduler state, brought up to the last elapsed boundary."""
        self._sync()
        return self._batcher

    @property
    def stats(self) -> ReplicaStats:
        """Step counters, brought up to the last elapsed boundary."""
        self._sync()
        return self._stats

    def _sync(self) -> None:
        if self._span is not None:
            self._apply_span(self._span.elapsed(self.env.now))

    # ------------------------------------------------------------------
    # probe interface (observable load signals)
    # ------------------------------------------------------------------
    # The queue and batch sizes cannot change inside a decode span, so they
    # read the batcher directly; only memory grows step by step.
    @property
    def num_pending(self) -> int:
        """Requests not yet scheduled into the continuous batch (§3.3)."""
        return self._batcher.num_pending + len(self.inbox.items)

    @property
    def num_running(self) -> int:
        return self._batcher.num_running

    @property
    def num_outstanding(self) -> int:
        return self._batcher.num_outstanding + len(self.inbox.items)

    @property
    def memory_utilization(self) -> float:
        span = self._span
        if span is not None:
            return span.utilization(span.elapsed(self.env.now))
        return self._batcher.memory_utilization

    @property
    def cache_hit_rate(self) -> float:
        return self._batcher.cache_hit_rate

    @property
    def has_capacity(self) -> bool:
        """SP-P availability signal: no pending request means "not full"."""
        return self.healthy and self.num_pending == 0

    # ------------------------------------------------------------------
    # serving loop
    # ------------------------------------------------------------------
    def _drain_inbox(self) -> None:
        while self.inbox.items:
            request = self.inbox.items.popleft()
            self._batcher.enqueue(request, self.env.now)

    def _emit_first_tokens(self, requests: List[Request]) -> None:
        for request in requests:
            for callback in self._on_first_token:
                callback(request)

    def _emit_completions(self, requests: List[Request]) -> None:
        for request in requests:
            request.replica_name = self.name
            request.serving_region = self.region
            for callback in self._on_complete:
                callback(request)

    def _plan_span(self, first: float) -> _DecodeSpan:
        """Lay out the boundaries of the decode span that starts now.

        ``first`` is the first step's duration from :meth:`plan_step`; each
        later step is timed exactly as a fresh plan at its boundary would
        time it, and each boundary is the previous one plus that duration.
        """
        batcher = self._batcher
        memory = batcher.memory
        width = len(batcher.running)
        t = self.env.now + first
        times = [t]
        durations = [first]
        steps = batcher.max_decode_steps()
        if steps > 1:
            step_time = batcher.profile.decode_step_time
            scale = batcher.performance_scale
            context = memory.context_tokens_total
            for _ in range(steps - 1):
                context += width
                duration = step_time(width, context)
                if scale != 1.0:
                    duration /= scale
                t += duration
                times.append(t)
                durations.append(duration)
        return _DecodeSpan(times, durations, width, memory.used_tokens, memory.capacity_tokens)

    def _apply_span(self, upto: int) -> List[Request]:
        """Apply the span's steps through boundary ``upto``; return the
        requests that finished (only the last boundary finishes any).

        Interior boundaries get their utilization sample here; the last
        boundary's is taken after its completions are emitted.
        """
        span = self._span
        done = span.applied
        if upto <= done:
            # A read at this very boundary already applied it.
            return []
        span.applied = upto
        stats = self._stats
        for duration in span.durations[done:upto]:
            stats.record_step("decode", duration)
        finished = self._batcher.complete_decode_step(span.times[upto - 1], upto - done)
        if self.record_utilization:
            samples = stats.utilization_samples
            for step in range(done + 1, min(upto, len(span.times) - 1) + 1):
                samples.append((span.times[step - 1], span.utilization(step)))
        return finished

    def _cut_span(self) -> None:
        """Wake the replica at the span's first boundary after now."""
        span = self._span
        if span is None:
            return
        boundary = bisect_right(span.times, self.env.now) + 1
        if boundary < span.wake:
            span.wake = boundary
            self._process.retarget(self.env.timeout_at(span.times[boundary - 1], boundary))

    def _run(self):
        env = self.env
        try:
            while True:
                self._drain_inbox()
                batcher = self._batcher
                plan = batcher.plan_step(env.now)
                if plan.kind == "idle":
                    request = yield self.inbox.get()
                    batcher.enqueue(request, env.now)
                    continue
                if plan.kind == "prefill":
                    yield env.timeout(plan.duration)
                    self._stats.record_step("prefill", plan.duration)
                    newly_running = [seq.request for seq in plan.admitted]
                    finished = batcher.complete_prefill(plan.admitted, env.now)
                    self._emit_first_tokens(newly_running)
                    last = True
                else:
                    self._span = span = self._plan_span(plan.duration)
                    upto = yield env.timeout_at(span.times[-1], len(span.times))
                    finished = self._apply_span(upto)
                    self._span = None
                    last = upto == len(span.times)
                    just_got_first = [
                        r for r in finished if r.generated_tokens == 1
                    ]
                    self._emit_first_tokens(just_got_first)
                if finished:
                    self._emit_completions(finished)
                if last and self.record_utilization:
                    self._stats.utilization_samples.append(
                        (env.now, self.memory_utilization)
                    )
        except Interrupt:
            # Replica failure: simply stop serving.  ``fail`` already aborted
            # outstanding work.
            return

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<ReplicaServer {self.name} region={self.region} "
            f"pending={self.num_pending} running={self.num_running}>"
        )
