"""Chunked budget charging against a per-node reference clock.

The linkage DFS, the candidate-member enumeration and the augmenting-path
searches count their nodes down from ``BudgetClock.room()`` and charge them
in chunks.  A clock whose ``room()`` is always 0 makes every one of those
kernels charge each node on its own, one ``spend(0)`` and one ``tick()``, so
it is the one-tick-per-node reference.  Under every node budget and every
deadline the chunked run must end as the reference does: the same answer or
the same message, and the clock in the same state.
"""

import pytest

from linklab.budget import BudgetClock, SearchBudget
from linklab.certificates import _candidate_members
from linklab.connectivity import vertex_connectivity
from linklab.errors import SearchBudgetExceeded
from linklab.feasibility import find_linkage_pair
from linklab.graphs import Graph, RootedGraph
from strategies import trigrid


class _PerNodeClock(BudgetClock):
    """The reference: no room, so every node is charged on its own."""

    def room(self) -> int:
        return 0


INFEASIBLE = trigrid(6, 7, 6)
# Feasible with three roots, but the shortest path splits the a_i, so the DFS
# decides it; with the shortest-path dequeues it takes 358 ticks, past 256.
THREE_ROOTS = RootedGraph(trigrid(5, 6, 6).graph, (24, 16, 19), 5, 26)
GRID = trigrid(14, 14, 6)
# The graph of test_augmenting_path_cancels_flow in test_connectivity.py.
CANCELS_FLOW = Graph.from_edges(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (3, 5), (4, 5)])

# Each kernel, the run that exercises it on a clock, and its total ticks.
KERNELS = {
    "dfs-infeasible": (lambda clock: find_linkage_pair(INFEASIBLE, clock), 10_204),
    "dfs-feasible-m3": (lambda clock: find_linkage_pair(THREE_ROOTS, clock), 358),
    "enumeration": (lambda clock: _candidate_members(GRID.graph, GRID.roots, 3, clock), 1_340),
    "augment": (lambda clock: vertex_connectivity(CANCELS_FLOW, clock), 24),
}


def _end_state(run, clock: BudgetClock) -> tuple:
    """The answer or the message raised, then the clock's ticks and remaining."""
    try:
        answer = run(clock)
    except SearchBudgetExceeded as exc:
        answer = str(exc)
    return answer, clock.ticks, clock.remaining


def _budgets(total: int) -> list[int]:
    """Node budgets around the total and around the first five multiples of 256 below it."""
    around = [total, *range(256, total + 1, 256)][:6]
    return sorted({b for x in around for b in (x - 1, x, x + 1) if b > 0} | {1, 2})


@pytest.mark.parametrize("kernel", KERNELS)
def test_node_budgets_end_as_single_ticks_do(kernel):
    run, total = KERNELS[kernel]
    outcomes = set()
    for budget in _budgets(total):
        chunked = _end_state(run, BudgetClock(SearchBudget(max_nodes_expanded=budget)))
        assert chunked == _end_state(run, _PerNodeClock(SearchBudget(max_nodes_expanded=budget))), budget
        outcomes.add(chunked[0] == "node budget exhausted")
    assert outcomes == {True, False}
    assert _end_state(run, BudgetClock(SearchBudget()))[1] == total


@pytest.mark.parametrize("kernel", KERNELS)
def test_a_past_deadline_is_read_where_single_ticks_read_it(kernel):
    run, total = KERNELS[kernel]
    raised = 0
    for start in range(256):
        states = []
        for clock in (BudgetClock(SearchBudget()), _PerNodeClock(SearchBudget())):
            clock.ticks, clock.deadline = start, -1.0
            states.append(_end_state(run, clock))
        assert states[0] == states[1], start
        raised += states[0][0] == "time budget exhausted"
    # A start raises exactly when its run reaches 256 ticks.
    assert raised == min(256, total)
