"""The overhead guard for the chase kernels' instrumentation, on the real kernel.

Every number here comes from the real kernels; no kernel loop is copied.
The baseline of every race is the real kernel with nothing attached, and
the guard enforces three limits against it:

* **off-cost ≤ 2%** — the tuple chase with a no-op
  :class:`~repro.obs.observer.ChaseObserver` (the base class, passed as
  ``profiler=``) wired to every hook.  With nothing attached the kernel
  runs the same ``observer is not None`` tests and skips what they
  guard: the hook calls, their arguments, and the clock reads.  So the
  no-op observer's cost bounds what the seam costs when it is off.  The
  nothing-attached path also has a deterministic check in
  ``tests/unit/test_chase_observer.py``: no clock read and no event
  built, in every kernel.
* **profiler-on ≤ 10%** — the tuple chase with a
  :class:`~repro.obs.profile.ChaseProfiler` attached.
* **governed ≤ 10%** — the tuple chase under counter limits (facts,
  nulls, rounds: integer gauge checks) and under a generous deadline
  (one monotonic-clock read per firing).

One more race is printed for scale and not gated: the disjunctive chase
with the no-op observer.  It calls about seven hooks per pop, so on a
world where every pop forks, hook dispatch alone costs several percent.
Its nothing-attached path is the same handful of ``None`` tests per pop,
checked by the same deterministic test.

Method: a race runs interleaved (baseline, candidate) pairs, swaps the
order every pair, times each side in process CPU time with the garbage
collector paused, and gates the median of the per-pair ratios.  Load bursts on a shared host
only ever slow one side of a pair, so a race that misses its limit is
run again, up to ``ATTEMPTS`` times, and the best median is gated.  A
real regression fails every attempt.

Runs two ways: under pytest-benchmark (every raced side, plus "for
scale" entries for the sinks, the progress reporter and the tracer), and
as a plain script for CI (``python benchmarks/bench_overhead.py``),
which prints each race and exits nonzero when a limit is missed.
"""

import gc
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - script mode without PYTHONPATH
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.chase.disjunctive import disjunctive_chase
from repro.chase.standard import chase
from repro.engine import ExchangeEngine
from repro.instance import Instance
from repro.limits import Limits
from repro.obs import (
    ChaseObserver,
    ChaseProfiler,
    JsonlSink,
    ProgressReporter,
    Tracer,
    current_tracer,
    progress_scope,
)
from repro.parsing.parser import parse_dependencies
from repro.workloads.generators import random_instance
from repro.workloads.scenarios import get_scenario

try:
    from .conftest import record_metric
except ImportError:  # script mode
    def record_metric(benchmark, **metrics):
        for key, value in metrics.items():
            benchmark.extra_info[key] = value


SIZE = 200
OFF_TOLERANCE = 1.02
PROFILE_TOLERANCE = 1.10
LIMITS_TOLERANCE = 1.10
PAIRS = 31
CHASES_PER_SIDE = 3
ATTEMPTS = 3

COUNTERS = Limits(max_rounds=64, max_facts=1_000_000, max_nulls=1_000_000)
DEADLINE = Limits(max_rounds=64, deadline=3600.0)

# A reverse chase world with wide disjunctions: every pop forks, so the
# branch, fired and cell hooks run as often as the kernel allows.
REVERSE = parse_dependencies(
    "P(x, y) -> S(x) | T(x, y); T(x, y) & P(y, z) -> U(x, z) | V(z)"
)
TARGET = Instance.parse(", ".join(f"P(a{i}, a{i + 1})" for i in range(5)))


def _workload():
    """The tuple chase's input: ``path2`` on a 200-fact source with nulls."""
    mapping = get_scenario("path2").mapping
    source = random_instance(
        mapping.source, SIZE, seed=SIZE, null_ratio=0.2, value_pool=SIZE
    )
    return mapping, source


def _sides():
    """Every raced configuration, as zero-argument calls of a real kernel."""
    mapping, source = _workload()
    deps = mapping.dependencies
    return {
        "chase": lambda: chase(source, deps),
        "chase+noop": lambda: chase(source, deps, profiler=ChaseObserver()),
        "chase+profiler": lambda: chase(source, deps, profiler=ChaseProfiler()),
        "chase+counters": lambda: chase(source, deps, limits=COUNTERS),
        "chase+deadline": lambda: chase(source, deps, limits=DEADLINE),
        "disjunctive": lambda: disjunctive_chase(TARGET, REVERSE),
        "disjunctive+noop": lambda: disjunctive_chase(
            TARGET, REVERSE, profiler=ChaseObserver()
        ),
    }


#: (baseline, candidate, tolerance) — every race; ``None`` is not gated.
RACES = [
    ("chase", "chase+noop", OFF_TOLERANCE),
    ("chase", "chase+profiler", PROFILE_TOLERANCE),
    ("chase", "chase+counters", LIMITS_TOLERANCE),
    ("chase", "chase+deadline", LIMITS_TOLERANCE),
    ("disjunctive", "disjunctive+noop", None),
]


def _check_equivalence(sides) -> None:
    """Instrumentation and governance must not change any answer."""
    assert current_tracer() is None, "the baseline needs nothing attached"
    for baseline, candidate, _ in RACES:
        base, cand = sides[baseline](), sides[candidate]()
        if baseline == "chase":
            assert cand.completed and cand.instance == base.instance, candidate
        else:
            assert list(cand) == list(base), candidate


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------


def pytest_generate_tests(metafunc):
    """Parametrize :func:`test_kernel_side` over every raced side."""
    if "side" in metafunc.fixturenames:
        metafunc.parametrize("side", sorted(_sides()))


def test_kernel_side(benchmark, side):
    """One raced configuration of the real kernel."""
    benchmark(_sides()[side])
    record_metric(benchmark, size=SIZE)


def test_chase_tracer_enabled(benchmark):
    """For scale: the fully-traced chase (events + provenance)."""
    mapping, source = _workload()
    result = benchmark(lambda: chase(source, mapping.dependencies, tracer=Tracer()))
    record_metric(benchmark, size=SIZE, steps=result.steps)


def test_chase_progress_reporter(benchmark):
    """For scale: the silent progress reporter fed from every budget
    checkpoint (stream=None isolates the heartbeat cost from I/O)."""
    mapping, source = _workload()

    def with_progress():
        with progress_scope(ProgressReporter(stream=None)):
            return chase(source, mapping.dependencies)

    result = benchmark(with_progress)
    record_metric(benchmark, steps=result.steps)


def _engine(**kwargs):
    """A cache-free engine so every benchmarked call computes."""
    return ExchangeEngine(enable_cache=False, **kwargs)


def test_engine_telemetry_disabled(benchmark):
    """For scale: the engine's exchange with no sink or registry."""
    mapping, source = _workload()
    result = benchmark(_engine().exchange, mapping, source)
    record_metric(benchmark, facts=len(result.instance))


def test_engine_jsonl_sink(benchmark):
    """For scale: every operation appended to a JSONL ops log."""
    mapping, source = _workload()
    with tempfile.TemporaryDirectory() as tmp:
        engine = _engine(sink=JsonlSink(os.path.join(tmp, "ops.jsonl")))
        benchmark(engine.exchange, mapping, source)
        record_metric(benchmark, records=engine.sink.records)


# ----------------------------------------------------------------------
# Script mode: the CI guard
# ----------------------------------------------------------------------


def _time_once(fn) -> float:
    """CPU seconds for ``CHASES_PER_SIDE`` calls, with the collector paused."""
    gc.collect()
    gc.disable()
    try:
        start = time.process_time()
        for _ in range(CHASES_PER_SIDE):
            fn()
        return time.process_time() - start
    finally:
        gc.enable()


def race(baseline, candidate) -> tuple:
    """``(median, q1, q3)`` of the candidate/baseline ratio over the pairs."""
    ratios = []
    for pair in range(PAIRS):
        if pair % 2:
            cand = _time_once(candidate)
            base = _time_once(baseline)
        else:
            base = _time_once(baseline)
            cand = _time_once(candidate)
        ratios.append(cand / base)
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    return median, q1, q3


def main() -> int:
    """Run every race and enforce its limit; 0 when all pass."""
    sides = _sides()
    _check_equivalence(sides)
    for fn in sides.values():  # warm-up
        _time_once(fn)
    ok = True
    for baseline, candidate, tolerance in RACES:
        best = None
        for attempt in range(1, ATTEMPTS + 1):
            median, q1, q3 = race(sides[baseline], sides[candidate])
            if best is None or median < best[0]:
                best = (median, q1, q3, attempt)
            if tolerance is None or median <= tolerance:
                break
        median, q1, q3, attempt = best
        if tolerance is None:
            verdict = "for scale"
        else:
            passed = median <= tolerance
            ok = ok and passed
            verdict = f"<= {tolerance} -> {passed}"
        print(
            f"{candidate:<18} / {baseline:<12} median {median:6.4f} "
            f"(IQR {q1:6.4f}-{q3:6.4f}, attempt {attempt}) {verdict}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
