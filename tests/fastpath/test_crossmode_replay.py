"""Cross-implementation flight-recorder replay: record on one, replay on
the other.

The flight recorder's divergence bisection is the strongest equivalence
check available: every traced event (cycle stamp, kind, detail, causal
path) and every state-hash checkpoint must match between the shipped
memory pipeline and the per-line reference loops ("legacy" in the test
ids), not just the end-of-run figures.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.flightrec import scenario as flightrec_scenario
from repro.flightrec.replay import replay_journal
from repro.flightrec.scenario import run_recorded
from tests.fastpath.conftest import reference_memory
from tests.flightrec.conftest import SCENARIO_ID, demo_lifecycle


@pytest.fixture
def lifecycle_scenario():
    flightrec_scenario.register(SCENARIO_ID, demo_lifecycle)
    yield SCENARIO_ID
    flightrec_scenario.unregister(SCENARIO_ID)


def _pipeline(reference: bool):
    return reference_memory() if reference else contextlib.nullcontext()


def _record(scenario, reference: bool):
    with _pipeline(reference):
        return run_recorded(scenario, {"iters": 3}, checkpoint_every=16)


@pytest.mark.parametrize("record_reference", [True, False],
                         ids=["legacy->fast", "fast->legacy"])
def test_replay_across_modes_zero_divergence(lifecycle_scenario,
                                             record_reference):
    journal, figures = _record(lifecycle_scenario, record_reference)
    assert figures["sum"] == 3 * 42
    with _pipeline(not record_reference):
        result = replay_journal(journal)
    assert result.ok, result.render()
    assert result.divergence is None


def test_cross_mode_journals_bit_identical(lifecycle_scenario):
    # Stronger than replay: the full event streams and checkpoint chains
    # recorded under each implementation are equal element-for-element.
    reference, _ = _record(lifecycle_scenario, True)
    shipped, _ = _record(lifecycle_scenario, False)
    assert [e.as_list() for e in shipped.events] == \
        [e.as_list() for e in reference.events]
    assert [c.chain for c in shipped.checkpoints] == \
        [c.chain for c in reference.checkpoints]
