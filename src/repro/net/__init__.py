"""``repro.net``: the routed WAN every simulated message crosses.

:class:`Network` is the simulator's one transport.  It routes over a WAN
graph instead of a private wire per region pair, so messages can share a
path and queue for its bandwidth -- the bandwidth-scarce regime the
paper's BP vs SP-O/SP-P comparison diverges in:

* :mod:`~repro.net.graph` -- :class:`WanGraph` (regions + WAN routers,
  directed edges with latency and optional finite bandwidth) and the
  ``register_wan_topology`` builder registry (``"mesh"``, the default,
  and ``"backbone"``).
* :mod:`~repro.net.routing` -- the ``register_routing_policy`` registry
  (``"shortest-path"`` Dijkstra with the deterministic ``(cost, name)``
  tie-break, ``"static-route"``, ``"cost-weighted"``).
* :mod:`~repro.net.transport` -- :class:`Network`: latency sampling along
  routes, multi-hop delivery, per-edge FIFO contention, link faults and
  deterministic route re-convergence (observable as :class:`RouteChange`
  events).  :mod:`repro.network` re-exports it.
* :mod:`~repro.net.config` -- the frozen :class:`NetConfig` that rides on
  :class:`~repro.experiments.config.ClusterConfig` into sweep workers.

The default ``NetConfig()`` is the uncontended ``"mesh"`` graph: one
direct edge per latency-matrix entry.  See ``docs/NETWORK.md`` for the
full determinism contract.
"""

from .config import NetConfig
from .graph import (
    WanGraph,
    WanLink,
    make_wan_topology,
    register_wan_topology,
    registered_wan_topologies,
)
from .routing import (
    CostWeightedRouting,
    RoutingPolicy,
    ShortestPathRouting,
    StaticRouting,
    make_routing_policy,
    register_routing_policy,
    registered_routing_policies,
)
from .trace import run_route_trace
from .transport import Network, RouteChange

# Old name of Network, kept only for the benchmark harness (perfbench/),
# which still imports it.
RoutedNetwork = Network

__all__ = [
    "NetConfig",
    "WanGraph",
    "WanLink",
    "register_wan_topology",
    "make_wan_topology",
    "registered_wan_topologies",
    "RoutingPolicy",
    "ShortestPathRouting",
    "StaticRouting",
    "CostWeightedRouting",
    "register_routing_policy",
    "make_routing_policy",
    "registered_routing_policies",
    "Network",
    "RouteChange",
    "run_route_trace",
]
