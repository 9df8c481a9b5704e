import contextlib
import signal
import types

import pytest

from dng.catalog import catalog_specs
from dng.groupspec import build, parse_spec
from dng.oracle import brute_nim

#: Seconds that each phase of a test (setup, call, teardown) may run before
#: it fails, so that a slow fault fails the suite instead of hanging it.  The
#: slowest test takes about 2 s.
TEST_SECONDS = 30


class TimeBoundExceeded(BaseException):
    """A test phase ran past its bound.  Not an Exception, so that neither
    the code under test nor Hypothesis, which would shrink on it, catches
    it; pytest reports it as the test's failure."""


@contextlib.contextmanager
def time_bound(seconds: float):
    """Raise TimeBoundExceeded in the block once it has run ``seconds`` of
    wall time, then restore the timer and handler found; without
    ``signal.setitimer`` the block is not bounded."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def past_bound(signum, frame):
        raise TimeBoundExceeded(f"ran past its bound of {seconds} s")

    handler = signal.signal(signal.SIGALRM, past_bound)
    timer = signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except TimeBoundExceeded as exc:
        # a new exception: contextlib gives a re-raised one back its traceback
        tb = _numbered(exc.__traceback__)
        raise TimeBoundExceeded(*exc.args).with_traceback(tb) from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, *timer)
        signal.signal(signal.SIGALRM, handler)


def _numbered(tb: types.TracebackType | None) -> types.TracebackType | None:
    """A copy of a traceback in which every entry has a line number.  The
    signal can strike at an instruction that has none, and pytest fails on
    such an entry when it formats the report; it gets its function's first
    line."""
    entries = []
    while tb is not None:
        entries.append(tb)
        tb = tb.tb_next
    for entry in reversed(entries):
        line = entry.tb_lineno
        if line is None:
            line = entry.tb_frame.f_code.co_firstlineno
        tb = types.TracebackType(tb, entry.tb_frame, entry.tb_lasti, line)
    return tb


@pytest.hookimpl(wrapper=True)
def pytest_runtest_setup(item):
    with time_bound(TEST_SECONDS):
        return (yield)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    with time_bound(TEST_SECONDS):
        return (yield)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_teardown(item):
    with time_bound(TEST_SECONDS):
        return (yield)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    """After a failed phase, drop the per-group results of every group
    ``built`` has made: a fault can make them large, and they would stay for
    the rest of the session.  Later tests compute them again."""
    report = yield
    if report.failed:
        for g in _BUILT.values():
            g.derived.clear()
    return report


#: Each group ``built`` has made, by spec, for the whole session.
_BUILT = {}


@pytest.fixture(scope="session")
def built():
    """Build a group from its spec once per session: ``built("S6")``.  Tests
    that share a group share its per-group results."""

    def get(spec):
        if spec not in _BUILT:
            _BUILT[spec] = build(parse_spec(spec))
        return _BUILT[spec]

    return get


@pytest.fixture(scope="session")
def catalog24(built):
    return [(spec, built(spec)) for spec in catalog_specs(24)]


@pytest.fixture(scope="session")
def catalog36(built):
    return [(spec, built(spec)) for spec in catalog_specs(36)]


@pytest.fixture(scope="session")
def catalog96(built):
    return [(spec, built(spec)) for spec in catalog_specs(96)]


@pytest.fixture(scope="session")
def oracle_nims24(catalog24):
    """Oracle nim-number per catalog group name, computed once."""
    return {name: brute_nim(g).nim for name, g in catalog24}
