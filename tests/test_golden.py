"""The golden verdict corpus: regenerate it and compare with the committed file.

``tests/_golden.py`` builds the corpus (workload models at test scale and
seed 11, twenty random programs) and rewrites ``tests/golden/corpus.json``.
Each trace's saved bytes, its ``analyze --json`` payload in scalar *and*
batch mode under two epoch layouts, and each program's live CLEAN run
with recovery off and with ``rollback-retry`` must equal the pinned
values.
"""

import json

import pytest

from tests import _golden

PROGRAMS = _golden.programs()


@pytest.fixture(scope="module")
def golden():
    return json.loads(_golden.GOLDEN.read_text())


def test_corpus_covers_every_program(golden):
    assert sorted(golden["traces"]) == sorted(PROGRAMS)
    assert sorted(golden["live"]) == sorted(PROGRAMS)
    assert len(PROGRAMS) == 62


def test_corpus_reaches_races_and_rollovers(golden):
    """The pinned values exercise what they are meant to pin: racy and
    race-free verdicts in both lanes, and rollovers under the narrow
    layout."""
    traces = golden["traces"].values()
    assert sum(t["default"]["racy"] for t in traces) >= 15
    assert sum(not t["default"]["racy"] for t in traces) >= 30
    assert sum(
        t["clock_bits=3"]["counters"].get("clean.rollovers", 0) > 0
        for t in traces
    ) >= 40
    live = golden["live"].values()
    assert sum(bool(run["off"]["racy"]) for run in live) >= 15
    assert sum(
        run["rollback-retry"].get("recovered_races", 0) > 0 for run in live
    ) >= 15


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_trace_and_analysis(golden, name):
    factory, options = PROGRAMS[name]
    trace = _golden.record(name, factory, options)
    pinned = golden["traces"][name]
    assert _golden.trace_sha256(trace) == pinned["sha256"]
    for label, layout in _golden.LAYOUTS.items():
        for mode in ("scalar", "batch"):
            assert _golden.analysis_payload(trace, mode, layout) == (
                pinned[label]
            ), (label, mode)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_live_run(golden, name):
    factory, options = PROGRAMS[name]
    pinned = golden["live"][name]
    for label, recovery in _golden.RECOVERY.items():
        assert _golden.live_outcome(factory, options, recovery) == (
            pinned[label]
        ), label
