"""The per-test guards of ``conftest.py``: a phase that runs past the time
bound fails with TimeBoundExceeded, which Hypothesis does not catch, and a
failed phase drops the per-group results of the session's groups."""

import signal
import sys
import types

import pytest
from hypothesis import given, settings, strategies as st

import conftest
from conftest import TimeBoundExceeded, time_bound
from dng.groups import make_cyclic
from dng.lattice import maximal_subgroups

needs_timer = pytest.mark.skipif(
    not hasattr(signal, "setitimer"), reason="no signal.setitimer"
)


def _spin():
    while True:
        pass


@needs_timer
def test_time_bound_stops_a_block_that_runs_past_it():
    with pytest.raises(TimeBoundExceeded, match="past its bound of 0.05 s"):
        with time_bound(0.05):
            _spin()


@needs_timer
def test_time_bound_restores_the_timer_it_found():
    outer = signal.getitimer(signal.ITIMER_REAL)[0]
    assert outer > 0  # the bound of this test's call phase
    with time_bound(10):
        pass
    assert 0 < signal.getitimer(signal.ITIMER_REAL)[0] <= outer


@needs_timer
def test_hypothesis_does_not_catch_the_bound():
    calls = []

    @settings(max_examples=5, deadline=None, database=None)
    @given(st.integers())
    def spins_once(_):
        calls.append(1)
        if len(calls) == 1:
            _spin()

    with pytest.raises(TimeBoundExceeded):
        with time_bound(0.05):
            spins_once()
    assert len(calls) == 1  # no further example, replay or shrink


def _own_frame():
    try:
        return sys._getframe()
    finally:  # its cleanup code has instructions without a line number
        pass


def test_time_bound_gives_every_traceback_entry_a_line_number():
    """An entry without a line number, as a signal can leave one, would
    make pytest fail while it formats the report."""
    frame = _own_frame()
    lines = frame.f_code.co_lines()
    lasti = next((start for start, _, line in lines if line is None), None)
    if lasti is None:
        pytest.skip("every instruction of this interpreter's code has a line")
    lineless = types.TracebackType(None, frame, lasti, -1)
    if lineless.tb_lineno is not None:
        pytest.skip("this interpreter gives every traceback entry a line")
    with pytest.raises(TimeBoundExceeded) as info:
        with time_bound(10):
            raise TimeBoundExceeded("stopped").with_traceback(lineless)
    tb, lines = info.value.__traceback__, []
    while tb is not None:
        lines.append(tb.tb_lineno)
        tb = tb.tb_next
    assert lines[-1] == frame.f_code.co_firstlineno
    assert None not in lines
    assert "TimeBoundExceeded: stopped" in str(info.getrepr())


@pytest.mark.parametrize("failed", [True, False])
def test_a_failed_phase_drops_the_per_group_results(monkeypatch, failed):
    g = make_cyclic(6)
    maximal_subgroups(g)
    monkeypatch.setattr(conftest, "_BUILT", {"Z6": g})
    report = types.SimpleNamespace(failed=failed)
    hook = conftest.pytest_runtest_makereport(None, None)
    next(hook)
    with pytest.raises(StopIteration) as stop:
        hook.send(report)
    assert stop.value.value is report
    assert bool(g.derived) is not failed
