"""The process-pool experiment engine.

``ExperimentEngine.map`` executes one picklable *point function* over
a list of keyword-argument dicts.  With ``workers=1`` the points run
inline, in order, in this process — the exact loop the experiments ran
before the engine existed.  With ``workers>1`` the points fan out over
a process pool; because every point is a pure function of its (fully
seeded) arguments and outcomes are merged back in submission order,
the two modes produce identical results.

Failure isolation: a point that raises records a failure outcome and
every other point still runs.  A worker process that *dies* (segfault,
``os._exit``) breaks the whole ``ProcessPoolExecutor``; the engine
reruns every affected point alone in a fresh single-worker pool so a
repeat crash is attributable to exactly one point, charges only that
point's retry budget, and marks it failed once the budget is spent —
one poisoned point cannot take down a 500-point sweep, and points that
were mere collateral of a neighbour's crash always complete.
"""

from __future__ import annotations

import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.runner.cache import CACHE_SCHEMA_VERSION, ResultCache
from repro.runner.hashing import config_hash

#: How many times a point whose *worker process died* is retried alone
#: in a fresh pool before it is marked failed.
MAX_CRASH_RETRIES = 1


@dataclass
class TaskOutcome:
    """What happened to one sweep point."""

    index: int
    key: str
    value: Any = None
    error: Optional[str] = None
    from_cache: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


class PointFailure(RuntimeError):
    """One or more sweep points failed; the rest completed."""

    def __init__(self, outcomes: Sequence[TaskOutcome]) -> None:
        self.failed = [o for o in outcomes if not o.ok]
        self.outcomes = list(outcomes)
        lines = [f"{len(self.failed)} of {len(outcomes)} sweep points failed:"]
        for outcome in self.failed:
            first = (outcome.error or "").strip().splitlines()
            lines.append(
                f"  point {outcome.index}: {first[-1] if first else 'unknown'}"
            )
        super().__init__("\n".join(lines))


def _invoke(fn: Callable[..., Any], kwargs: Dict[str, Any]) -> Any:
    """Top-level trampoline so the pool pickles only (fn, kwargs)."""
    return fn(**kwargs)


@dataclass
class _Pending:
    index: int
    kwargs: Dict[str, Any]
    attempts: int = 0


@dataclass
class EngineStats:
    """Counters for one engine lifetime (all ``map`` calls)."""

    executed: int = 0
    cached: int = 0
    failed: int = 0
    pool_rebuilds: int = 0


class ExperimentEngine:
    """Runs experiment point functions serially or over a process pool.

    Parameters
    ----------
    workers:
        Pool size.  ``1`` (the default) runs points inline with no
        subprocesses — the behaviour every experiment had before the
        engine, and the mode the test suite compares against.
    cache_dir:
        If set, point results are cached content-addressed under this
        directory and already-computed points are skipped.
    """

    def __init__(self, workers: int = 1, cache_dir: Optional[str] = None) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        self.workers = workers
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.stats = EngineStats()

    # -- keying ---------------------------------------------------------

    @staticmethod
    def task_key(fn: Callable[..., Any], kwargs: Dict[str, Any]) -> str:
        """Content hash identifying one point computation."""
        return config_hash(
            {
                "fn": f"{fn.__module__}.{fn.__qualname__}",
                "kwargs": kwargs,
                "cache_schema": CACHE_SCHEMA_VERSION,
            }
        )

    # -- execution ------------------------------------------------------

    def map(
        self, fn: Callable[..., Any], kwargs_list: Sequence[Dict[str, Any]]
    ) -> List[TaskOutcome]:
        """Run ``fn(**kwargs)`` for each entry; outcomes in input order."""
        outcomes: List[Optional[TaskOutcome]] = [None] * len(kwargs_list)
        pending: List[_Pending] = []
        fn_name = f"{fn.__module__}.{fn.__qualname__}"
        for index, kwargs in enumerate(kwargs_list):
            key = self.task_key(fn, kwargs)
            if self.cache is not None:
                hit, value = self.cache.get(key)
                if hit:
                    self.stats.cached += 1
                    outcomes[index] = TaskOutcome(
                        index=index, key=key, value=value, from_cache=True
                    )
                    continue
            pending.append(_Pending(index=index, kwargs=dict(kwargs)))
            outcomes[index] = TaskOutcome(index=index, key=key)

        if self.workers == 1 or len(pending) <= 1:
            self._run_serial(fn, pending, outcomes)
        else:
            self._run_pool(fn, pending, outcomes)

        done = [o for o in outcomes if o is not None]
        assert len(done) == len(kwargs_list)
        for outcome in done:
            if outcome.ok and not outcome.from_cache and self.cache is not None:
                self.cache.put(outcome.key, outcome.value, fn=fn_name)
        return done

    def run_points(
        self, fn: Callable[..., Any], kwargs_list: Sequence[Dict[str, Any]]
    ) -> List[Any]:
        """Like :meth:`map` but returns bare values, raising
        :class:`PointFailure` (after every point has run) if any failed."""
        outcomes = self.map(fn, kwargs_list)
        if any(not o.ok for o in outcomes):
            raise PointFailure(outcomes)
        return [o.value for o in outcomes]

    # -- internals ------------------------------------------------------

    def _run_serial(
        self,
        fn: Callable[..., Any],
        pending: Sequence[_Pending],
        outcomes: List[Optional[TaskOutcome]],
    ) -> None:
        for task in pending:
            outcome = outcomes[task.index]
            assert outcome is not None
            try:
                outcome.value = fn(**task.kwargs)
                self.stats.executed += 1
            except Exception:
                outcome.error = traceback.format_exc()
                self.stats.failed += 1

    def _run_pool(
        self,
        fn: Callable[..., Any],
        pending: Sequence[_Pending],
        outcomes: List[Optional[TaskOutcome]],
    ) -> None:
        crashed = self._run_batch(fn, list(pending), outcomes)
        # A dead worker breaks the whole pool, so every in-flight future
        # raises BrokenProcessPool — culprit and collateral alike.  Rerun
        # each affected point alone in a single-worker pool: a repeat
        # crash is then definitively that point's fault and charged
        # against its retry budget, while innocent points complete
        # without ever being charged for a neighbour's crash.
        while crashed:
            self.stats.pool_rebuilds += 1
            task = crashed.pop(0)
            if not self._run_batch(fn, [task], outcomes, solo=True):
                continue
            task.attempts += 1
            if task.attempts <= MAX_CRASH_RETRIES:
                crashed.insert(0, task)
            else:
                outcome = outcomes[task.index]
                assert outcome is not None
                outcome.error = (
                    "worker process died while running this "
                    f"point (after {task.attempts} attempts)"
                )
                self.stats.failed += 1

    def _run_batch(
        self,
        fn: Callable[..., Any],
        batch: Sequence[_Pending],
        outcomes: List[Optional[TaskOutcome]],
        *,
        solo: bool = False,
    ) -> List[_Pending]:
        """Run one batch over a fresh pool; returns the tasks whose
        worker process died, in index order."""
        crashed: List[_Pending] = []
        workers = 1 if solo else min(self.workers, len(batch))
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            future_to_task = {
                pool.submit(_invoke, fn, task.kwargs): task for task in batch
            }
            not_done = set(future_to_task)
            while not_done:
                done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                for future in done:
                    task = future_to_task[future]
                    outcome = outcomes[task.index]
                    assert outcome is not None
                    try:
                        outcome.value = future.result()
                        self.stats.executed += 1
                    except BrokenProcessPool:
                        crashed.append(task)
                    except Exception:
                        outcome.error = traceback.format_exc()
                        self.stats.failed += 1
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        crashed.sort(key=lambda t: t.index)
        return crashed
