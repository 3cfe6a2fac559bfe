"""Per-query resource budgets and their enforcement.

A :class:`ResourceGovernor` enforces four independent budgets
(:class:`Budgets`) over one query execution attempt:

* ``wall_seconds`` — a wall-clock timeout.  The deadline can be shared
  across fallback attempts (see ``Engine.execute``), so a query cannot
  multiply its timeout by the length of the fallback chain;
* ``max_steps`` — an evaluation *step* budget.  Steps are charged by the
  evaluator (one per operator evaluation) and by the physical
  algorithms in batches at their existing metrics counter sites (nodes
  visited, stream elements scanned, stack pushes), so the count tracks
  actual work, not just plan size;
* ``max_output`` — a cardinality cap on any single materialized
  operator output (intermediate results included — a runaway cartesian
  product trips long before the final sequence materializes);
* ``max_depth`` — a bound on evaluator recursion depth, turning a
  pathological plan nesting into a structured error instead of a
  ``RecursionError``.

Checking discipline: :meth:`ResourceGovernor.tick` is a counter
increment and compare; the wall clock is read only every
:data:`CLOCK_CHECK_INTERVAL` steps, in :meth:`~ResourceGovernor.
note_output` (per operator, only while a governor is attached) and at
every pattern evaluation — so an idle engine pays nothing and a governed
one pays a few nanoseconds per operator.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional

from .errors import ReproError

__all__ = ["BudgetExceeded", "Budgets", "ResourceGovernor",
           "CLOCK_CHECK_INTERVAL", "deadline_budgets"]

#: steps between wall-clock reads inside :meth:`ResourceGovernor.tick`.
CLOCK_CHECK_INTERVAL = 128


@dataclass(frozen=True)
class Budgets:
    """Per-query resource limits; ``None`` disables a dimension."""

    wall_seconds: Optional[float] = None
    max_steps: Optional[int] = None
    max_output: Optional[int] = None
    max_depth: Optional[int] = None

    def enabled(self) -> bool:
        return (self.wall_seconds is not None or self.max_steps is not None
                or self.max_output is not None or self.max_depth is not None)

    def to_dict(self) -> Dict[str, Any]:
        return {"wall_seconds": self.wall_seconds,
                "max_steps": self.max_steps,
                "max_output": self.max_output,
                "max_depth": self.max_depth}


def deadline_budgets(defaults: Optional[Budgets],
                     remaining: Optional[float]) -> Optional[Budgets]:
    """``defaults`` with the wall budget tightened (never loosened) to
    a request's ``remaining`` deadline seconds; ``None`` means no
    deadline."""
    if remaining is None:
        return defaults
    if defaults is None:
        return Budgets(wall_seconds=remaining)
    if defaults.wall_seconds is None or remaining < defaults.wall_seconds:
        return replace(defaults, wall_seconds=remaining)
    return defaults


class BudgetExceeded(ReproError):
    """A resource budget was exhausted.

    ``kind`` is one of ``wall``, ``steps``, ``output``, ``depth``; the
    code is ``REPRO-BUDGET-<KIND>``.  ``elapsed_seconds`` and ``steps``
    report how far the execution got before tripping."""

    code = "REPRO-BUDGET"

    def __init__(self, kind: str, limit: float, observed: float, *,
                 elapsed_seconds: float = 0.0, steps: int = 0) -> None:
        super().__init__(
            f"{kind} budget exceeded: {observed:g} > limit {limit:g} "
            f"(elapsed {elapsed_seconds * 1e3:.1f} ms, {steps} steps)",
            code=f"REPRO-BUDGET-{kind.upper()}",
            kind=kind, limit=limit, observed=observed,
            elapsed_seconds=elapsed_seconds, steps=steps)
        self.kind = kind
        self.limit = limit
        self.observed = observed
        self.elapsed_seconds = elapsed_seconds
        self.steps = steps


class ResourceGovernor:
    """Enforces one :class:`Budgets` over one execution attempt.

    ``deadline`` (a ``clock()`` timestamp) overrides the deadline
    derived from ``budgets.wall_seconds``, letting several attempts
    share one wall budget.
    """

    def __init__(self, budgets: Budgets, *,
                 deadline: Optional[float] = None,
                 clock=time.perf_counter,
                 trace: Optional[Any] = None) -> None:
        self.budgets = budgets
        self._clock = clock
        self.started = clock()
        if deadline is not None:
            self.deadline: Optional[float] = deadline
        elif budgets.wall_seconds is not None:
            self.deadline = self.started + budgets.wall_seconds
        else:
            self.deadline = None
        self.steps = 0
        self.depth = 0
        self._until_clock = CLOCK_CHECK_INTERVAL
        #: optional :class:`repro.trace.Trace`: clock-interval ticks and
        #: budget trips become span events (bounded by the interval, so
        #: tracing a governed run stays cheap).
        self.trace = trace

    @property
    def elapsed(self) -> float:
        return self._clock() - self.started

    # -- the checks (ordered hottest first) --------------------------------

    def tick(self, count: int = 1) -> None:
        """Charge ``count`` evaluation steps (cheap: one add, one or two
        compares; the clock is read every :data:`CLOCK_CHECK_INTERVAL`
        steps)."""
        self.steps += count
        limit = self.budgets.max_steps
        if limit is not None and self.steps > limit:
            raise self._exceeded("steps", limit, self.steps)
        if self.deadline is not None:
            self._until_clock -= count
            if self._until_clock <= 0:
                self._until_clock = CLOCK_CHECK_INTERVAL
                if self.trace is not None:
                    self.trace.event("governor_tick", steps=self.steps)
                self.check_clock()

    def check_clock(self) -> None:
        if self.deadline is not None and self._clock() > self.deadline:
            limit = self.budgets.wall_seconds
            raise self._exceeded(
                "wall", limit if limit is not None else 0.0, self.elapsed)

    def note_output(self, count: int) -> None:
        """Bound one materialized operator output; also polls the clock
        (only called while a governor is attached)."""
        limit = self.budgets.max_output
        if limit is not None and count > limit:
            raise self._exceeded("output", limit, count)
        self.check_clock()

    def enter(self) -> None:
        self.depth += 1
        limit = self.budgets.max_depth
        if limit is not None and self.depth > limit:
            raise self._exceeded("depth", limit, self.depth)

    def leave(self) -> None:
        self.depth -= 1

    def _exceeded(self, kind: str, limit: float,
                  observed: float) -> BudgetExceeded:
        if self.trace is not None:
            self.trace.event("budget_exceeded", kind=kind, limit=limit,
                             observed=observed, steps=self.steps)
        return BudgetExceeded(kind, limit, observed,
                              elapsed_seconds=self.elapsed, steps=self.steps)
