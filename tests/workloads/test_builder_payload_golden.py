"""Every workload builder, multiple seeds, pinned to a golden payload fixture.

For each (builder, seed, region) the fixture stores the program count and
one sha256 over the *semantic payload* of the region's programs -- prompt
tokens, output lengths, user/session/program identities, region, stage
structure -- plus each build's client layout and hash key.  The global
``request_id`` counter is excluded by design: its values depend on what
else the process allocated first.

The committed fixture was recorded from the builders when a lazy
program-stream path still existed next to the list path and was proven
payload-identical to it at these seeds.  The golden sweep
(``tests/experiments/test_golden_trace.py``) covers whole runs but only of
the wildchat and arena builders; this file is the per-builder microscope
for all five.  Regenerate it (only for an intended behaviour change) with::

    PYTHONPATH=src python -m tests.workloads.test_builder_payload_golden --regen
"""

from __future__ import annotations

import hashlib
import json
import pickle
from pathlib import Path

import pytest

from repro.experiments.diurnal_sweep import build_skewed_workload
from repro.experiments.runner import _split_round_robin
from repro.experiments.workloads import (
    build_arena_workload,
    build_mixed_tree_workload,
    build_tot_workload,
    build_wildchat_workload,
)

FIXTURE = Path(__file__).parent / "data" / "builder_payload_golden.json"

SCALE = 0.1
SEEDS = [411, 412, 413]

BUILDERS = {
    "wildchat": build_wildchat_workload,
    "arena": build_arena_workload,
    "tot": build_tot_workload,
    "mixed-tree": build_mixed_tree_workload,
    "skewed": build_skewed_workload,
}


def _request_payload(request):
    """Everything semantically meaningful about a request; excludes the
    global ``request_id`` allocation counter by design."""
    return (
        tuple(request.prompt_tokens),
        request.output_len,
        request.user_id,
        request.session_id,
        request.region,
    )


def _program_payload(program):
    return (
        program.program_id,
        program.user_id,
        program.region,
        program.kind,
        tuple(tuple(_request_payload(r) for r in stage) for stage in program.stages),
    )


def _payloads(programs):
    return [_program_payload(p) for p in programs]


def _digest(programs) -> str:
    encoded = json.dumps(_payloads(programs), separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def _record(spec) -> dict:
    return {
        "clients_per_region": dict(spec.clients_per_region),
        "hash_key": spec.hash_key,
        "regions": {
            region: {"programs": len(programs), "sha256": _digest(programs)}
            for region, programs in spec.programs_by_region.items()
        },
    }


def build_fixture() -> dict:
    return {
        name: {str(seed): _record(build(scale=SCALE, seed=seed)) for seed in SEEDS}
        for name, build in sorted(BUILDERS.items())
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(BUILDERS), ids=sorted(BUILDERS))
def test_builder_payload_matches_golden(golden, name, seed):
    expected = golden[name][str(seed)]
    actual = _record(BUILDERS[name](scale=SCALE, seed=seed))
    assert list(actual["regions"]) == list(expected["regions"])
    for region, pinned in expected["regions"].items():
        assert actual["regions"][region] == pinned, (
            f"{name} seed {seed}: region {region!r} programs diverged from the golden payload"
        )
    # Region order decides the order clients are created in, so it is pinned too.
    assert list(actual["clients_per_region"].items()) == list(
        expected["clients_per_region"].items()
    )
    assert actual["hash_key"] == expected["hash_key"]


@pytest.mark.parametrize("name", sorted(BUILDERS), ids=sorted(BUILDERS))
def test_builder_program_counts_match_golden(golden, name):
    """Each region yields exactly the pinned number of programs -- a count
    mismatch is named here before any payload digest is compared."""
    seed = SEEDS[1]
    spec = BUILDERS[name](scale=SCALE, seed=seed)
    expected = {
        region: pinned["programs"] for region, pinned in golden[name][str(seed)]["regions"].items()
    }
    actual = {region: len(programs) for region, programs in spec.programs_by_region.items()}
    assert actual == expected
    assert all(count > 0 for count in actual.values())


@pytest.mark.parametrize("name", sorted(BUILDERS), ids=sorted(BUILDERS))
def test_builder_replays_identically(name):
    """fresh_copy() clones pristine programs with the same payload -- the
    property that lets a sweep build a workload once and replay it."""
    spec = BUILDERS[name](scale=SCALE, seed=SEEDS[0])
    copy = spec.fresh_copy()
    for region, programs in spec.programs_by_region.items():
        again = copy.programs_by_region[region]
        assert _payloads(again) == _payloads(programs)
        assert all(a is not b for a, b in zip(again, programs))


@pytest.mark.parametrize("name", sorted(BUILDERS), ids=sorted(BUILDERS))
def test_client_split_is_round_robin(name):
    """Client ``i`` of ``n`` runs ``programs[i::n]`` -- the layout every
    committed artifact was produced with."""
    spec = BUILDERS[name](scale=SCALE, seed=SEEDS[2])
    for programs in spec.programs_by_region.values():
        full = _payloads(programs)
        for parts in (1, 2, 3):
            chunks = _split_round_robin(programs, parts)
            assert len(chunks) == parts
            for index, chunk in enumerate(chunks):
                assert _payloads(chunk) == full[index::parts]


@pytest.mark.parametrize("name", sorted(BUILDERS), ids=sorted(BUILDERS))
def test_builder_specs_are_picklable(name):
    """Sweep workers receive specs over multiprocessing: the spec must
    round-trip through pickle with identical programs."""
    spec = BUILDERS[name](scale=SCALE, seed=SEEDS[0])
    clone = pickle.loads(pickle.dumps(spec))
    for region, programs in spec.programs_by_region.items():
        assert _payloads(clone.programs_by_region[region]) == _payloads(programs)


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        FIXTURE.parent.mkdir(parents=True, exist_ok=True)
        FIXTURE.write_text(json.dumps(build_fixture(), indent=2) + "\n")
        print(f"wrote {FIXTURE}")
    else:
        print(__doc__)
