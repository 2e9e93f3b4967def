"""Unit tests for experiment configuration validation."""

import pytest

from repro.experiments import (
    ALL_SYSTEMS,
    BASELINE_SYSTEMS,
    SYSTEM_KINDS,
    ClusterConfig,
    SkyWalkerConfig,
    WorkloadSpec,
)
from repro.net import NetConfig
from repro.workloads import Program

from ..conftest import make_request


def test_system_kind_catalogue_is_consistent():
    assert set(BASELINE_SYSTEMS) < set(SYSTEM_KINDS)
    assert set(ALL_SYSTEMS) <= set(SYSTEM_KINDS)
    assert "skywalker" in ALL_SYSTEMS and "skywalker-ch" in ALL_SYSTEMS
    assert "region-local" not in ALL_SYSTEMS  # only used by the Fig. 10 sweep


def test_invalid_hash_key_rejected():
    with pytest.raises(ValueError):
        SkyWalkerConfig(kind="skywalker", hash_key="ip-address")


def test_system_name_defaults_to_kind_but_label_wins():
    assert SkyWalkerConfig(kind="skywalker").name == "skywalker"
    assert SkyWalkerConfig(kind="skywalker", label="SP-P").name == "SP-P"


def test_cluster_config_counts_replicas():
    cluster = ClusterConfig(replicas_per_region={"us": 3, "eu": 2, "asia": 1})
    assert cluster.total_replicas == 6


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"network": None}, r"network must be a NetConfig.*None"),
        ({"network": "backbone"}, r"network must be a NetConfig.*'backbone'"),
        ({"replicas_per_region": {"us": 1, "eu": -1}}, r"replicas_per_region\['eu'\].*-1"),
        ({"replicas_per_region": {"us": 1.5}}, r"replicas_per_region\['us'\].*1\.5"),
        ({"replicas_per_region": {"asia": "2"}}, r"replicas_per_region\['asia'\].*'2'"),
        ({"replicas_per_region": {"us": True}}, r"replicas_per_region\['us'\].*True"),
    ],
)
def test_cluster_config_rejects_invalid_fields(kwargs, match):
    with pytest.raises(ValueError, match=match):
        ClusterConfig(**kwargs)


def test_cluster_config_defaults_and_zero_counts_are_valid():
    assert ClusterConfig().network == NetConfig()
    assert ClusterConfig(replicas_per_region={"us": 0, "eu": 2}).total_replicas == 2


def test_workload_spec_counts_programs_and_requests():
    program = Program(
        program_id="p", user_id="u", region="us",
        stages=[[make_request()], [make_request(), make_request()]],
    )
    spec = WorkloadSpec(
        name="unit",
        programs_by_region={"us": [program]},
        clients_per_region={"us": 1},
    )
    assert spec.total_programs == 1
    assert spec.total_requests == 3
