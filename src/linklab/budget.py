"""Search budgets and the clock that charges every search against one.

A :class:`SearchBudget` bounds a call by nodes and by wall time.  Each call
runs it on a :class:`BudgetClock`; a search that shares a clock with earlier
calls spends what they left, which is how one budget covers several searches.

The clock has one protocol.  :meth:`BudgetClock.tick` charges one node: it
raises once the node budget is exceeded and reads the deadline at every
multiple of 256 ticks.  Per-node loops tick.  A kernel that charges in chunks
counts its nodes down from :meth:`BudgetClock.room`, the ticks that may run
before one would raise or read the deadline, calls
:meth:`BudgetClock.charge` when the count runs out (spend the nodes before
this one, tick this one on its own, take the next room), and spends what is left on every
exit.  The counts are then those of one tick per node: a node budget raises
on the same node, leaving the clock in the same state, and the deadline is
read at every multiple of 256 ticks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import InvalidInputError, SearchBudgetExceeded


@dataclass(frozen=True)
class SearchBudget:
    """Limits for a single search call; both fields must be positive."""

    max_nodes_expanded: int = 2**62
    time_limit_ms: int = 2**62

    def __post_init__(self) -> None:
        if self.max_nodes_expanded <= 0 or self.time_limit_ms <= 0:
            raise InvalidInputError("budget fields must be positive")


EXHAUSTIVE = SearchBudget()


class BudgetClock:
    """A running :class:`SearchBudget`: the budget, nodes left, deadline and ticks so far."""

    __slots__ = ("budget", "remaining", "deadline", "ticks")

    def __init__(self, budget: SearchBudget):
        self.budget = budget
        self.remaining = budget.max_nodes_expanded
        self.deadline = time.monotonic() + budget.time_limit_ms / 1000.0
        self.ticks = 0

    def tick(self) -> None:
        self.remaining -= 1
        if self.remaining < 0:
            raise SearchBudgetExceeded("node budget exhausted")
        self.ticks += 1
        if not self.ticks & 0xFF and time.monotonic() > self.deadline:
            raise SearchBudgetExceeded("time budget exhausted")

    def spend(self, count: int) -> None:
        """``count`` calls of :meth:`tick` in one when the node budget covers them:
        the same ticks after, and the deadline read when a multiple of 256 is crossed.
        A ``count`` beyond the node budget raises with ``ticks`` unchanged and
        ``remaining`` lowered by ``count``, where single ticks would count the ticks
        before the raising one and leave ``remaining`` at -1.  Chunked callers never
        overrun: they spend at most :meth:`room`."""
        self.remaining -= count
        if self.remaining < 0:
            raise SearchBudgetExceeded("node budget exhausted")
        before, self.ticks = self.ticks, self.ticks + count
        if before >> 8 != self.ticks >> 8 and time.monotonic() > self.deadline:
            raise SearchBudgetExceeded("time budget exhausted")

    def room(self) -> int:
        """How many ticks may run before the one that would raise on the node budget
        or read the deadline: :meth:`spend` of at most this many does neither."""
        return min(self.remaining, 255 - (self.ticks & 0xFF))

    def charge(self, count: int) -> int:
        """:meth:`spend` the ``count`` nodes before this one, :meth:`tick` this one
        on its own, and return the next :meth:`room` (see the module docstring)."""
        self.spend(count)
        self.tick()
        return self.room()


def clock_of(budget: SearchBudget | BudgetClock) -> BudgetClock:
    """A new clock for ``budget``, or ``budget`` itself when it is a running clock."""
    return budget if isinstance(budget, BudgetClock) else BudgetClock(budget)
