"""Tests for the stdlib sweep-result renderers behind ``SweepResult.plot_*``."""

import csv
import io

import pytest

from repro.experiments import SweepResult
from repro.experiments.plotting import metric_value, render_bars, render_csv, render_table
from repro.metrics import LatencySummary, RunMetrics


def fake_run(system, workload, *, throughput, ttft_p90, seed=0):
    latency = LatencySummary.from_values([ttft_p90])
    return RunMetrics(
        system=system,
        workload=workload,
        duration_s=60.0,
        num_completed=100,
        num_issued=110,
        throughput_tokens_per_s=throughput,
        output_tokens_per_s=throughput / 4,
        requests_per_s=2.0,
        ttft=latency,
        e2e_latency=latency,
        queueing_delay=latency,
        cache_hit_rate=0.5,
        cross_region_fraction=0.1,
        forwarded_fraction=0.05,
        replica_load_imbalance=1.2,
        seed=seed,
    )


@pytest.fixture
def result():
    sweep = SweepResult()
    sweep.add(fake_run("skywalker", "arena", throughput=2000.0, ttft_p90=0.25))
    sweep.add(fake_run("round-robin", "arena", throughput=1000.0, ttft_p90=0.5))
    sweep.add(fake_run("skywalker", "tot", throughput=3000.0, ttft_p90=0.125))
    return sweep


def test_metric_value_resolves_dotted_paths(result):
    run = result.get("arena", "skywalker")
    assert metric_value(run, "throughput_tokens_per_s") == 2000.0
    assert metric_value(run, "ttft.p90") == 0.25
    with pytest.raises(AttributeError):
        metric_value(run, "no_such_metric")


def test_metric_value_rejects_unrecorded_optional(result):
    run = result.get("arena", "skywalker")
    assert run.memory is None
    with pytest.raises(ValueError, match="not recorded"):
        metric_value(run, "memory.hbm_hit_rate")


def test_plot_table_grids_workloads_by_systems(result):
    table = result.plot_table("throughput_tokens_per_s")
    lines = table.splitlines()
    assert "skywalker" in lines[0] and "round-robin" in lines[0]
    arena = next(line for line in lines if line.startswith("arena"))
    assert "2000" in arena and "1000" in arena
    # round-robin never ran on "tot": the cell renders as a dash, not a crash.
    tot = next(line for line in lines if line.startswith("tot"))
    assert "-" in tot


def test_plot_bars_scales_to_block_maximum(result):
    chart = result.plot_bars("throughput_tokens_per_s", workload="arena", width=10)
    lines = chart.splitlines()
    skywalker = next(line for line in lines if "skywalker" in line)
    round_robin = next(line for line in lines if "round-robin" in line)
    assert skywalker.count("#") == 10  # block maximum fills the width
    assert round_robin.count("#") == 5  # half the throughput, half the bar


def test_plot_csv_round_trips_through_csv_reader(result):
    rows = list(csv.reader(io.StringIO(result.plot_csv())))
    header, body = rows[0], rows[1:]
    assert header[:3] == ["workload", "system", "seed"]
    assert "ttft.p90" in header
    assert len(body) == 3  # one row per (workload, system) cell
    arena_sky = next(r for r in body if r[0] == "arena" and r[1] == "skywalker")
    assert float(arena_sky[header.index("throughput_tokens_per_s")]) == 2000.0


def test_plot_csv_emits_one_row_per_seed():
    sweep = SweepResult()
    for seed in (1, 2, 3):
        sweep.add(
            fake_run(
                "skywalker", "arena", throughput=1000.0 * seed, ttft_p90=0.2, seed=seed
            )
        )
    rows = list(csv.reader(io.StringIO(sweep.plot_csv(metrics=["throughput_tokens_per_s"]))))
    assert [row[2] for row in rows[1:]] == ["1", "2", "3"]
    assert [float(row[3]) for row in rows[1:]] == [1000.0, 2000.0, 3000.0]


def test_render_functions_accept_result_directly(result):
    # The plot_* methods are thin wrappers; the module functions are public.
    assert render_table(result) == result.plot_table()
    assert render_bars(result) == result.plot_bars()
    assert render_csv(result) == result.plot_csv()


def test_plot_figure_requires_matplotlib_or_returns_figure(result, tmp_path):
    try:
        import matplotlib  # noqa: F401
    except ImportError:
        with pytest.raises(RuntimeError, match="matplotlib"):
            result.plot_figure("throughput_tokens_per_s")
    else:
        path = tmp_path / "fig.png"
        fig = result.plot_figure("throughput_tokens_per_s", path=str(path))
        assert fig is not None
        assert path.exists()


def test_sweep_result_rejects_unseeded_runs():
    with pytest.raises(ValueError, match="RunMetrics.seed"):
        SweepResult().add(fake_run("skywalker", "arena", throughput=1.0, ttft_p90=0.1, seed=None))
