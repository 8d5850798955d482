"""Run independent zero-argument tasks in forked worker processes.

The MultiStart local solves of eq. (4) and the joint design's two-stage
fallback do not depend on each other.  Here they run in ``fork``-ed workers,
which inherit the tasks (closures over networks, problems and memos), so only
each result is pickled back; ``spawn`` would have to re-import the library
and rebuild them.  Results come back in task order and callers keep their
serial reductions, so every output is bit-identical to a plain loop.

A worker keeps this process's BLAS thread count, because a BLAS result can
depend on it, and OpenBLAS helper threads spin between calls: two workers
with two BLAS threads each on two CPUs ran eq. (1) about 4x slower than one
process.  So ``usable_cpus() // blas_threads()`` workers share the CPUs.
Tasks run inline, as that plain loop, when this budget is one worker (one
usable CPU, or a BLAS already using them all), for a single task, where
``fork`` is missing, while another Python thread runs (a fork copies only
the calling thread), and inside any ``multiprocessing`` child, so the
engine's and the orchestrator's pool workers never nest a second pool.

A worker sends back the metrics its task recorded as a snapshot delta, which
is merged into this process's registry.  A task's exception is re-raised
here with its type and message, chained to the worker's traceback.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import traceback
from multiprocessing.connection import Connection, wait
from typing import Any, Callable, Sequence, TypeVar

from repro.telemetry import metrics as _metrics
from repro.telemetry.config import _STATE as _TELEMETRY

T = TypeVar("T")

#: ``(True, result)`` or ``(False, (exception, formatted traceback))``.
_Outcome = tuple[bool, Any]


def usable_cpus() -> int:
    """CPUs this process may run on (1 where the OS does not say)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else 1


#: The variables OpenBLAS takes its thread count from, in its precedence order.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def blas_threads() -> int:
    """Threads the BLAS of this process (and of each worker) runs."""
    for name in _BLAS_THREAD_VARIABLES:
        value = os.environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return usable_cpus()


def _worker_budget() -> int:
    """How many workers the usable CPUs hold, each with its BLAS threads."""
    return usable_cpus() // blas_threads()


def _may_fork() -> bool:
    return (
        _worker_budget() > 1
        and "fork" in multiprocessing.get_all_start_methods()
        and multiprocessing.parent_process() is None
        and threading.active_count() == 1
    )


class _RemoteTraceback(Exception):
    """The formatted traceback of an exception raised in a worker."""

    def __str__(self) -> str:
        return str(self.args[0])


def _serve(tasks: Sequence[Callable[[], Any]], conn: Connection, parent_end: Connection) -> None:
    """Worker loop: run the task indices received until ``None`` arrives."""
    parent_end.close()
    if _TELEMETRY.enabled:
        _metrics.reset()  # report only what this worker's tasks record
    while (index := conn.recv()) is not None:
        outcome: _Outcome
        try:
            outcome = (True, tasks[index]())
        except BaseException as exc:
            outcome = (False, (exc, traceback.format_exc()))
        delta = _metrics.snapshot_and_reset() if _TELEMETRY.enabled else None
        conn.send((index, outcome, delta))


class _Worker:
    """One forked worker process and the parent's end of its pipe."""

    def __init__(self, tasks: Sequence[Callable[[], Any]]) -> None:
        context = multiprocessing.get_context("fork")
        self.conn, child_end = context.Pipe()
        self.process = context.Process(
            target=_serve, args=(tasks, child_end, self.conn), daemon=True
        )
        self.process.start()
        child_end.close()

    def receive(self) -> tuple[int, _Outcome]:
        """The next ``(task index, outcome)``, merging the task's metrics."""
        try:
            index, outcome, delta = self.conn.recv()
        except EOFError:
            self.process.join()
            raise RuntimeError(
                f"worker process {self.process.pid} exited with code "
                f"{self.process.exitcode} before returning its result"
            ) from None
        if delta is not None:
            _metrics.merge_snapshot(delta)
        return index, outcome


def _stop(workers: Sequence[_Worker], finished: bool) -> None:
    """Let idle workers exit (``finished``), or kill them mid-task."""
    for worker in workers:
        if finished:
            worker.conn.send(None)
        else:
            worker.process.terminate()
    for worker in workers:
        worker.process.join()
        worker.process.close()
        worker.conn.close()


def _unwrap(outcome: _Outcome) -> Any:
    ok, value = outcome
    if ok:
        return value
    exc, remote = value
    raise exc from _RemoteTraceback(remote)


def run_tasks(tasks: Sequence[Callable[[], T]]) -> list[T]:
    """Run ``tasks`` and return their results in task order.

    ``min(len(tasks), usable_cpus() // blas_threads())`` forked workers
    take the next task as each finishes one.  When a task raises, the first
    failure in task order is re-raised after every task has run.
    """
    n_workers = min(len(tasks), _worker_budget())
    if n_workers < 2 or not _may_fork():
        return [task() for task in tasks]
    workers = [_Worker(tasks) for _ in range(n_workers)]
    outcomes: list[_Outcome] = [(False, None)] * len(tasks)
    queue = iter(range(len(tasks)))
    finished = False
    try:
        for worker, index in zip(workers, queue):
            worker.conn.send(index)
        busy: dict[Any, _Worker] = {worker.conn: worker for worker in workers}
        while busy:
            for ready in wait(list(busy)):
                worker = busy[ready]
                index, outcome = worker.receive()
                outcomes[index] = outcome
                following = next(queue, None)
                if following is None:
                    del busy[ready]
                else:
                    worker.conn.send(following)
        finished = True
    finally:
        _stop(workers, finished)
    return [_unwrap(outcome) for outcome in outcomes]


def start_task(task: Callable[[], T]) -> Callable[[], T]:
    """Start ``task`` in a forked worker; call the returned function once to join it.

    The join returns the task's result or re-raises its exception.  Where
    :func:`run_tasks` would run inline, ``task`` runs here and now, and an
    exception it raises propagates at once.
    """
    if not _may_fork():
        result = task()
        return lambda: result
    worker = _Worker([task])
    worker.conn.send(0)

    def join() -> T:
        finished = False
        try:
            _, outcome = worker.receive()
            finished = True
        finally:
            _stop([worker], finished)
        return _unwrap(outcome)

    return join


__all__ = ["blas_threads", "run_tasks", "start_task", "usable_cpus"]
