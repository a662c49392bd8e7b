"""Unit tests for the live progress reporter and its Budget wiring."""

import io

import pytest

from repro.limits import Budget, CancelToken, Limits, cancel_scope
from repro.obs import (
    ProgressReporter,
    current_reporter,
    progress_scope,
    set_reporter,
)
from repro.obs.progress import INTERVAL


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


class TestThrottling:
    def test_first_heartbeat_writes_immediately(self, clock):
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream, clock=clock)
        reporter.heartbeat("chase", rounds=1, steps=3)
        assert reporter.ticks == 1
        assert stream.getvalue().count("\n") == 1

    def test_heartbeats_inside_interval_are_coalesced(self, clock):
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream, clock=clock)
        for step in range(50):
            reporter.heartbeat("chase", rounds=1, steps=step)
            clock.advance(0.001)
        assert reporter.ticks == 1
        clock.advance(0.2)
        reporter.heartbeat("chase", rounds=2, steps=99)
        assert reporter.ticks == 2
        # The coalesced gauges were not lost: the last line has the
        # latest state.
        assert "round 2 steps=99" in stream.getvalue().splitlines()[-1]



class TestRendering:
    def test_render_format(self, clock):
        reporter = ProgressReporter(clock=clock)
        reporter.heartbeat("chase round", rounds=3, steps=120, facts=450)
        clock.advance(1.23)
        assert (
            reporter.render()
            == "progress: chase round round 3 steps=120 facts=450 elapsed=1.2s"
        )

    def test_gauges_accumulate_across_beats(self, clock):
        reporter = ProgressReporter(clock=clock)
        reporter.heartbeat("chase", rounds=1, steps=1, facts=10)
        reporter.heartbeat("chase", rounds=1, steps=2, nulls=4)
        line = reporter.render()
        assert "facts=10" in line and "nulls=4" in line

    def test_elapsed_counts_from_first_beat(self, clock):
        reporter = ProgressReporter(clock=clock)
        assert reporter.elapsed == 0.0
        reporter.heartbeat("chase", rounds=1, steps=1)
        clock.advance(2.0)
        assert reporter.elapsed == pytest.approx(2.0)

    def test_silent_without_stream(self, clock):
        reporter = ProgressReporter(stream=None, clock=clock)
        reporter.heartbeat("chase", rounds=1, steps=1)
        reporter.finish()  # no stream: must not raise
        assert reporter.ticks == 1

    def test_finish_writes_final_line_with_note(self, clock):
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream, clock=clock)
        reporter.heartbeat("chase", rounds=1, steps=5)
        reporter.finish(note="done")
        assert stream.getvalue().splitlines()[-1].endswith("[done]")

    def test_finish_is_quiet_when_nothing_ran(self):
        stream = io.StringIO()
        ProgressReporter(stream=stream).finish(note="done")
        assert stream.getvalue() == ""

    def test_tty_stream_redraws_in_place(self, clock):
        class Tty(io.StringIO):
            def isatty(self):
                return True

        stream = Tty()
        reporter = ProgressReporter(stream=stream, clock=clock)
        reporter.heartbeat("chase", rounds=1, steps=1)
        clock.advance(INTERVAL)
        reporter.heartbeat("chase", rounds=1, steps=2)
        assert stream.getvalue().count("\r\x1b[2K") == 2
        assert "\n" not in stream.getvalue()
        reporter.finish()
        assert stream.getvalue().endswith("\n")


class TestAmbientReporter:
    def test_progress_scope_installs_and_restores(self):
        assert current_reporter() is None
        reporter = ProgressReporter()
        with progress_scope(reporter) as scoped:
            assert scoped is reporter
            assert current_reporter() is reporter
        assert current_reporter() is None

    def test_set_reporter_returns_previous(self):
        first = ProgressReporter()
        assert set_reporter(first) is None
        try:
            assert set_reporter(None) is first
        finally:
            set_reporter(None)


class TestBudgetIntegration:
    def test_budget_adopts_ambient_reporter(self, clock):
        reporter = ProgressReporter(clock=clock)
        with progress_scope(reporter):
            budget = Budget(Limits(max_rounds=10))
        assert budget.reporter is reporter

    def test_checkpoint_and_charge_feed_heartbeats(self, clock):
        reporter = ProgressReporter(clock=clock)
        budget = Budget(Limits(max_rounds=10), reporter=reporter)
        budget.start_round("chase")
        clock.advance(INTERVAL)
        assert budget.checkpoint("chase") is None
        clock.advance(INTERVAL)
        budget.charge("chase", facts=5, nulls=2)
        line = reporter.render()
        assert "chase" in line
        assert "facts=5" in line and "nulls=2" in line
        assert reporter.ticks >= 2

    def test_no_reporter_means_no_heartbeats(self):
        budget = Budget(Limits(max_rounds=10))
        assert budget.reporter is None
        budget.start_round("chase")
        budget.checkpoint("chase")
        budget.charge("chase", facts=1)

    def test_cancel_scope_reaches_checkpoint(self):
        token = CancelToken()
        with cancel_scope(token):
            budget = Budget(Limits(max_rounds=10, on_exhausted="partial"))
        assert budget.checkpoint("chase") is None
        token.cancel("SIGINT")
        diagnosis = budget.checkpoint("chase")
        assert diagnosis is not None
        assert diagnosis.resource == "cancelled"
