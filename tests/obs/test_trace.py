"""The span tracer: nesting, threads, the ring, and the disabled no-op."""

import threading

from repro.obs import OBS, Span, configure_tracing, trace
from repro.obs.trace import TRACER


class TestDisabledMode:
    def test_disabled_trace_records_no_spans(self):
        with trace("outer"):
            with trace("inner"):
                pass
        assert TRACER.finished() == []

    def test_disabled_trace_still_measures_duration(self):
        # Worker `elapsed` fields are timer.duration: the measurement
        # must exist (and be sane) whether tracing is on or off.
        with trace("timed") as timer:
            pass
        assert timer.duration is not None
        assert timer.duration >= 0.0

    def test_off_by_default(self):
        assert OBS.enabled is False

    def test_configure_returns_previous_state(self):
        assert configure_tracing(True) is False
        assert configure_tracing(False) is True


class TestNesting:
    def test_children_nest_under_open_parents(self):
        configure_tracing(True)
        with trace("parent", label="x"):
            with trace("child"):
                with trace("grandchild"):
                    pass
            with trace("sibling"):
                pass
        roots = TRACER.finished()
        assert [span.name for span in roots] == ["parent"]
        parent = roots[0]
        assert parent.attrs == {"label": "x"}
        assert [child.name for child in parent.children] == [
            "child", "sibling",
        ]
        assert [g.name for g in parent.children[0].children] == [
            "grandchild"
        ]

    def test_durations_cover_children(self):
        configure_tracing(True)
        with trace("parent"):
            with trace("child"):
                pass
        parent = TRACER.finished()[0]
        assert parent.duration >= parent.children[0].duration >= 0.0

    def test_reentrant_decorator(self):
        configure_tracing(True)

        @trace("fib")
        def fib(n):
            return n if n < 2 else fib(n - 1) + fib(n - 2)

        assert fib(4) == 3
        roots = [s for s in TRACER.finished() if s.name == "fib"]
        assert len(roots) == 1  # one root; recursion nests below it

        def count(span):
            return 1 + sum(count(child) for child in span.children)

        assert count(roots[0]) == 9  # fib(4) makes 9 calls total

    def test_finished_sees_completed_children_of_open_spans(self):
        # A mid-command profile (e.g. --profile-out written inside the
        # CLI root span) must see the phases that already completed.
        configure_tracing(True)
        with trace("root"):
            with trace("done-phase"):
                pass
            visible = TRACER.finished()
            assert [span.name for span in visible] == ["done-phase"]


class TestRing:
    def test_drain_empties_the_ring(self):
        configure_tracing(True)
        with trace("a"):
            pass
        drained = TRACER.drain()
        assert [span.name for span in drained] == ["a"]
        assert TRACER.finished() == []

    def test_ring_capacity_bounds_memory(self):
        configure_tracing(True)
        for i in range(1100):
            with trace("s"):
                pass
        assert len(TRACER.finished()) == 1024

    def test_adopt_under_open_span(self):
        configure_tracing(True)
        foreign = Span("worker-span")
        with trace("sweep"):
            TRACER.adopt([foreign])
        root = TRACER.finished()[0]
        assert root.name == "sweep"
        assert foreign in root.children

    def test_adopt_without_open_span_goes_to_ring(self):
        configure_tracing(True)
        foreign = Span("worker-span")
        TRACER.adopt([foreign])
        assert foreign in TRACER.finished()


class TestThreads:
    def test_threads_keep_separate_stacks(self):
        configure_tracing(True)
        errors = []
        barrier = threading.Barrier(4)

        def work(tag):
            try:
                barrier.wait()
                for _ in range(50):
                    with trace(f"outer-{tag}"):
                        with trace(f"inner-{tag}"):
                            pass
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        roots = TRACER.finished()
        assert len(roots) == 200
        for root in roots:
            tag = root.name.removeprefix("outer-")
            # No cross-thread adoption: each root's child is its own
            # thread's inner span.
            assert [c.name for c in root.children] == [f"inner-{tag}"]

    def test_span_round_trips_through_dicts(self):
        configure_tracing(True)
        with trace("root", n=3):
            with trace("leaf"):
                pass
        span = TRACER.finished()[0]
        clone = Span.from_dict(span.to_dict())
        assert clone.name == span.name
        assert clone.attrs == span.attrs
        assert clone.duration == span.duration
        assert [c.name for c in clone.children] == ["leaf"]


class TestRingEviction:
    def test_full_ring_finish_notifies_once_per_drop(self):
        from repro.obs.trace import Tracer

        tracer = Tracer(capacity=2)
        dropped = []
        tracer.on_evict = dropped.append
        for name in ("a", "b", "c", "d"):
            span = Span(name)
            tracer.begin(span)
            tracer.finish(span)
        assert sum(dropped) == 2
        assert [s.name for s in tracer.roots()] == ["c", "d"]

    def test_adopt_overflow_counts_every_dropped_span(self):
        from repro.obs.trace import Tracer

        tracer = Tracer(capacity=3)
        dropped = []
        tracer.on_evict = dropped.append
        tracer.adopt([Span("a"), Span("b")])
        assert dropped == []
        tracer.adopt([Span("c"), Span("d")])
        assert sum(dropped) == 1

    def test_process_tracer_counts_dropped_spans(self):
        # The facade wires the process tracer's eviction hook to the
        # obs.spans.dropped counter, so a truncated profile is visible
        # in its own metrics instead of silent.
        from repro.obs.trace import DEFAULT_RING_CAPACITY

        configure_tracing(True)
        for _ in range(DEFAULT_RING_CAPACITY + 5):
            with trace("s"):
                pass
        assert OBS.metrics.counter("obs.spans.dropped") == 5


class TestConcurrentEviction:
    """The eviction ledger under contention: N threads racing the ring
    must account for every dropped root exactly once -- the live layer
    leans on ``obs.spans.dropped`` being exact, not approximate."""

    def _race(self, work, threads=4):
        errors = []
        barrier = threading.Barrier(threads)

        def run(tag):
            try:
                barrier.wait()
                work(tag)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        pool = [
            threading.Thread(target=run, args=(i,)) for i in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert not errors

    def test_racing_finishes_account_for_every_drop(self):
        from repro.obs.trace import Tracer

        tracer = Tracer(capacity=8)
        dropped = []
        lock = threading.Lock()

        def count(n):
            with lock:
                dropped.append(n)

        tracer.on_evict = count

        def work(tag):
            for i in range(50):
                span = Span(f"t{tag}-{i}")
                tracer.begin(span)
                tracer.finish(span)

        self._race(work)
        # 200 roots through a ring of 8: exactly 192 evictions, no
        # double counts, no lost updates.
        assert sum(dropped) == 4 * 50 - 8
        assert len(tracer.roots()) == 8

    def test_racing_adopts_account_for_every_drop(self):
        from repro.obs.trace import Tracer

        tracer = Tracer(capacity=8)
        dropped = []
        lock = threading.Lock()

        def count(n):
            with lock:
                dropped.append(n)

        tracer.on_evict = count

        def work(tag):
            for i in range(25):
                tracer.adopt([Span(f"a{tag}-{i}"), Span(f"b{tag}-{i}")])

        self._race(work)
        assert sum(dropped) == 4 * 25 * 2 - 8
        assert len(tracer.roots()) == 8

    def test_process_counter_is_exact_under_thread_races(self):
        from repro.obs.trace import DEFAULT_RING_CAPACITY

        configure_tracing(True)
        per_thread = DEFAULT_RING_CAPACITY // 2

        def work(tag):
            for _ in range(per_thread):
                with trace("s"):
                    pass

        self._race(work)
        total = 4 * per_thread
        assert OBS.metrics.counter("obs.spans.dropped") == (
            total - DEFAULT_RING_CAPACITY
        )
        assert len(TRACER.finished()) == DEFAULT_RING_CAPACITY
