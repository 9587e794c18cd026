"""``passes.run_passes``: results folded in plan order, whichever thread
ran which pass. Its failure rules are checked through its callers, in
``test_index.py``'s ``TestHelperThread`` and ``test_objectives.py``'s
``TestTrainingHelper``."""

import sys
import threading
import weakref

from titlerec.passes import run_passes

from conftest import call_bounded, on_helper_thread


class Result:
    """A pass's result that a weak reference can watch."""

    def __init__(self, number):
        self.number = number


class TestRunPasses:
    def test_fold_keeps_plan_order_under_frequent_switches(self):
        # appending is not commutative: a fold out of order, lost or made
        # twice changes the list; every result is released once folded
        meeting = threading.Barrier(2, timeout=10)
        ran, folded, refs = set(), [], {}

        def run_pass(number):
            on_helper = on_helper_thread()
            if on_helper not in ran:
                ran.add(on_helper)
                meeting.wait()  # both threads run passes
            result = Result(number)
            refs[number] = weakref.ref(result)
            return result

        def fold(result):
            assert all(refs[n]() is None for n in folded)
            folded.append(result.number)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            call_bounded(run_passes, range(60), run_pass, fold, True, "titlerec-train")
        finally:
            sys.setswitchinterval(interval)
        assert ran == {False, True}
        assert folded == list(range(60))
        assert all(ref() is None for ref in refs.values())

    def test_a_pass_that_finishes_ahead_is_folded_by_the_thread_behind(self):
        # The calling thread's first pass c returns only once the helper has
        # started pass c + 2, so the helper finished pass c + 1 first and
        # left it: the calling thread folds both, and the helper never
        # waited for it.
        caller_started, helper_ahead = threading.Event(), threading.Event()
        first, ran, folds = {}, {}, []

        def run_pass(number):
            on_helper = on_helper_thread()
            ran[number] = on_helper
            first.setdefault(on_helper, number)
            if not on_helper:
                caller_started.set()
                if number == first[False]:
                    assert helper_ahead.wait(timeout=10)
            else:
                # the helper takes at most pass 0 before the caller takes one
                assert caller_started.wait(timeout=10)
                if number >= first[False] + 2:
                    helper_ahead.set()
            return number

        def fold(number):
            folds.append((number, on_helper_thread()))

        call_bounded(run_passes, range(4), run_pass, fold, True, "titlerec-train")
        behind = first[False]
        assert behind in (0, 1) and ran[behind + 1]
        assert folds[behind : behind + 2] == [(behind, False), (behind + 1, False)]
        assert [number for number, _ in folds] == [0, 1, 2, 3]
