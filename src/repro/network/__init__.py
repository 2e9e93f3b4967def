"""Simulated wide-area network: region topology, DNS and the transport.

:class:`Network` (defined in :mod:`repro.net.transport`, re-exported here)
carries every message over a routed WAN graph built from the
:class:`NetworkTopology`'s latency matrix.
"""

from .dns import GeoDNS
from .topology import NetworkTopology, RegionInfo, default_topology, wide_topology
from ..net.transport import Network

__all__ = [
    "NetworkTopology",
    "RegionInfo",
    "default_topology",
    "wide_topology",
    "Network",
    "GeoDNS",
]
