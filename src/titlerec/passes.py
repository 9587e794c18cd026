"""Running a plan of encoder passes on the calling thread and one helper.

Embedding (``index.build_index``) and training
(``objectives.batch_loss_and_grads``) both cut their rows into passes of
``encoder.rows_per_pass`` rows. On a machine with a second CPU a helper
thread may take passes from the same plan as the calling thread: numpy and
BLAS release the GIL inside a pass's large operations. Each caller decides
whether a helper pays for its plan; ``run_passes`` runs the plan either way
and keeps the rules every threaded caller needs: passes are handed out in
plan order, their results are folded in plan order, the first failure
stops both threads, no thread outlives the call, and when no thread can be
started the caller runs every pass.
"""

from __future__ import annotations

import contextvars
import os
import threading
from collections.abc import Callable, Iterable
from typing import TypeVar

Pass = TypeVar("Pass")
Result = TypeVar("Result")


def usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_passes(
    plan: Iterable[Pass],
    run_pass: Callable[[Pass], Result],
    fold: Callable[[Result], None] | None,
    helper: bool,
    name: str,
) -> None:
    """Call ``run_pass`` on every pass of ``plan``, on the calling thread
    and, when ``helper``, on one helper thread named ``name`` beside it,
    and ``fold`` on the passes' results in plan order.

    Both threads take passes from one iterator: under the GIL each ``next``
    hands a pass to one thread, so passes start in plan order. A thread that
    finishes a pass leaves its result under one lock, folds every left
    result that is next in plan order there, and takes its next pass; a
    result that finished ahead of an earlier pass waits for the thread that
    finishes that one. So no thread waits for the other's pass, and each
    result is released once folded. Without ``fold`` the results are
    dropped and no lock is taken. The helper runs in a copy of the caller's
    context, so it keeps the caller's numpy error state (``np.errstate`` is
    context-local, and a new thread starts at numpy's defaults). The first
    exception in either thread, or one that stops the calling thread while
    it waits for the helper, stops the other at its next pass. The helper is
    joined before the first exception is raised again here, so no thread
    outlives the call. When the helper cannot be started, the calling
    thread runs every pass.
    """
    passes = enumerate(plan)  # shared by both threads
    failures: list[BaseException] = []
    left: dict[int, Result] = {}  # results not yet folded, by pass number
    folded = 0  # passes folded so far
    lock = threading.Lock()

    def finish(number: int, result: Result) -> None:
        nonlocal folded
        with lock:
            left[number] = result
            del result  # released once folded
            while folded in left:
                fold(left.pop(folded))
                folded += 1

    def work() -> None:
        try:
            for number, item in passes:
                if failures:
                    return
                if fold is None:
                    run_pass(item)
                else:
                    finish(number, run_pass(item))
        except BaseException as exc:  # raised again by the calling thread
            failures.append(exc)

    thread = None
    if helper:
        thread = threading.Thread(target=contextvars.copy_context().run, args=(work,), name=name)
        try:
            thread.start()
        except RuntimeError:  # no thread to be had: the caller runs every pass
            thread = None
    try:
        work()
    finally:
        if thread is not None:
            try:
                thread.join()
            except BaseException as exc:  # e.g. Ctrl-C while waiting: stop the helper first
                failures.append(exc)
                thread.join()
                raise
    if failures:
        raise failures[0]
