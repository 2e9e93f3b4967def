"""Probe and routing settings that cannot work fail fast, naming the field."""

import pytest

from repro.core import AvailabilityMonitor
from repro.experiments.systems import SkyWalkerConfig


def _monitor(env, network, **kwargs):
    return AvailabilityMonitor(env, network, "us", **kwargs)


def _config(env, network, **kwargs):
    return SkyWalkerConfig(**kwargs)


@pytest.mark.parametrize(
    "build, field, value",
    [
        (_monitor, "probe_interval_s", 0.0),
        (_monitor, "probe_interval_s", -0.1),
        (_monitor, "probe_interval_s", float("nan")),
        (_monitor, "remote_queue_buffer", -1),
        (_config, "probe_interval_s", 0.0),
        (_config, "probe_interval_s", -0.1),
        (_config, "prefix_match_threshold", -0.01),
        (_config, "prefix_match_threshold", 1.5),
        (_config, "trie_max_tokens", 0),
        (_config, "trie_max_tokens", -5),
    ],
)
def test_invalid_probe_settings_are_rejected(env, network, build, field, value):
    with pytest.raises(ValueError, match=field):
        build(env, network, **{field: value})


@pytest.mark.parametrize(
    "build, settings",
    [
        (_monitor, dict(probe_interval_s=1e-3, remote_queue_buffer=0)),
        (_config, dict(probe_interval_s=1e-3, prefix_match_threshold=0.0, trie_max_tokens=1)),
        (_config, dict(prefix_match_threshold=1.0)),
    ],
)
def test_boundary_probe_settings_are_accepted(env, network, build, settings):
    build(env, network, **settings)


def test_config_still_checks_the_hash_key():
    with pytest.raises(ValueError, match="hash_key"):
        SkyWalkerConfig(hash_key="region")
