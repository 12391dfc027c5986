"""Collection certificates of infeasibility and the tight family audit.

Two certificate flavors share one report shape:

* the *linkage* certificate caps every member neighborhood at ``m + 1`` and
  bounds the augmented contraction by
  ``e <= (m+1) v - m^2/2 - 3m/2 - 1``;
* the *critical* certificate (for instances pinned to a vertex set ``U``)
  caps neighborhoods at ``m + 2`` and bounds
  ``e <= (m+2) v - m^2/2 - 5m/2 - 3 - |U|``.

All bound arithmetic is done in doubled integers so the half-integer terms
stay exact.  ``search_collection`` tests the families of
:func:`graphs.iter_collections`, whose members are connected: splitting a
member into its components never weakens a certificate, so the restriction
loses nothing.  How the candidates are enumerated, and why that is exact, is
written beside the enumeration in ``graphs``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Literal

from .budget import EXHAUSTIVE, BudgetClock, SearchBudget, clock_of
from .errors import InvalidInputError, SearchBudgetExceeded
from .feasibility import LinkagePair, find_linkage_pair, is_critically_feasible, is_feasible
from .graphs import (
    Collection,
    Graph,
    RootedGraph,
    augment_masks,
    bits_of,
    component_mask,
    components_masks,
    iter_collections,
    mask_of,
    pinned_set,
    validate_collection,
)

CertificateKind = Literal["linkage", "critical"]


@dataclass(frozen=True)
class CertificateReport:
    """Arithmetic record of one certificate check.

    ``holds`` is true exactly when every member neighborhood respects
    ``neighborhood_cap`` and ``lhs_edges_doubled <= rhs_bound_doubled``.
    """

    kind: CertificateKind
    collection: Collection
    neighborhood_cap: int
    lhs_edges_doubled: int
    rhs_bound_doubled: int
    holds: bool

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "collection": self.collection.to_sorted_lists(),
            "neighborhood_cap": self.neighborhood_cap,
            "lhs_edges_doubled": self.lhs_edges_doubled,
            "rhs_bound_doubled": self.rhs_bound_doubled,
            "holds": self.holds,
        }


@dataclass(frozen=True)
class Verdict:
    """Outcome of deciding one rooted instance: exactly one payload is set.

    ``feasible`` carries the linkage pair, ``certified`` the certificate
    report, ``inconclusive`` the budget that ran out; a
    ``counterexample-candidate`` means the exhaustive search found neither,
    which signals an implementation bug, not new mathematics.
    """

    outcome: Literal["feasible", "certified", "counterexample-candidate", "inconclusive"]
    pair: LinkagePair | None = None
    report: CertificateReport | None = None
    budget: SearchBudget | None = None

    def __post_init__(self) -> None:
        populated = [
            self.pair is not None,
            self.report is not None,
            self.budget is not None,
        ]
        expected = [
            self.outcome == "feasible",
            self.outcome == "certified",
            self.outcome == "inconclusive",
        ]
        if populated != expected:
            raise InvalidInputError(f"verdict {self.outcome!r} has the wrong payload")

    def to_dict(self) -> dict:
        out: dict = {"outcome": self.outcome}
        if self.pair is not None:
            out["pair"] = self.pair.to_dict()
        if self.report is not None:
            out["report"] = self.report.to_dict()
        if self.budget is not None:
            out["budget"] = {
                "max_nodes_expanded": self.budget.max_nodes_expanded,
                "time_limit_ms": self.budget.time_limit_ms,
            }
        return out


def _kind_terms(rg: RootedGraph, kind: CertificateKind, u_set: Iterable[int]) -> tuple[frozenset, int, int]:
    """The checked pinned set of a ``kind`` certificate, its neighborhood cap
    and the doubled offset of its bound ``2e <= 2 cap v - offset``."""
    u_set, m = frozenset(u_set), rg.m
    if kind == "linkage":
        if u_set:
            raise InvalidInputError("the linkage certificate takes no u_set")
        return u_set, m + 1, m * m + 3 * m + 2
    if kind == "critical":
        u_set = pinned_set(rg, u_set)
        return u_set, m + 2, m * m + 5 * m + 6 + 2 * len(u_set)
    raise InvalidInputError(f"unknown certificate kind {kind!r}")


def _doubled_sides(rg: RootedGraph, family: list[tuple[int, int]], cap: int, offset: int) -> tuple[int, int]:
    """Twice the edge count of the augmented contraction of a valid ``family``, and twice its bound."""
    rows = augment_masks(rg, family)
    return sum(row.bit_count() for row in rows.values()), 2 * cap * len(rows) - offset


def _verify_collection(
    rg: RootedGraph, kind: CertificateKind, u_set: Iterable[int], x: Collection
) -> CertificateReport:
    """The check both kinds share: validate ``x`` once, then test its masks."""
    u_set, cap, offset = _kind_terms(rg, kind, u_set)
    family = validate_collection(rg.graph, x, rg.roots | u_set)
    lhs, rhs = _doubled_sides(rg, family, cap, offset)
    holds = all(nbhd.bit_count() <= cap for _, nbhd in family) and lhs <= rhs
    return CertificateReport(kind, x, cap, lhs, rhs, holds)


def verify_linkage_collection(rg: RootedGraph, x: Collection) -> CertificateReport:
    """Check the linkage certificate for ``x`` against the rooted graph."""
    return _verify_collection(rg, "linkage", (), x)


def verify_critical_collection(rg: RootedGraph, u_set: Iterable[int], x: Collection) -> CertificateReport:
    """Check the critical certificate for ``x`` with pinned set ``u_set``."""
    return _verify_collection(rg, "critical", u_set, x)


def base_case_collection(rg: RootedGraph) -> Collection | None:
    """The constructive certificate for infeasible instances with ``m <= 1``.

    Split the graph around the component ``D`` holding ``b1`` (within
    ``G - a1`` when ``m = 1``): the two sides, minus the roots, form a valid
    collection whose linkage certificate always holds.  Returns ``None`` on
    feasible input or ``m >= 2``.
    """
    if rg.m not in (0, 1) or is_feasible(rg):
        return None
    g = rg.graph
    adj = g.adjacency_masks
    d_mask = component_mask(adj, ((1 << g.vertex_count) - 1) & ~mask_of(rg.a_set), rg.b1)
    d_side = frozenset(bits_of(d_mask)) - {rg.b1}
    other_side = frozenset(range(g.vertex_count)) - frozenset(bits_of(d_mask)) - rg.roots
    return Collection([d_side, other_side])


def critical_base_collection(rg: RootedGraph, u_set: Iterable[int]) -> Collection:
    """The component collection certifying a critically feasible 0-rooted
    instance: the components of ``G - (U + {b1, b2})``.

    Every member then attaches only to two consecutive vertices of the
    pinned path, and the critical certificate holds with equality.
    """
    u_set = frozenset(u_set)
    if rg.m != 0:
        raise InvalidInputError("the critical base construction needs m = 0")
    if not is_critically_feasible(rg, u_set):
        raise InvalidInputError("instance is not critically feasible for the given u_set")
    g = rg.graph
    removed = mask_of(u_set | {rg.b1, rg.b2})
    alive = ((1 << g.vertex_count) - 1) & ~removed
    return Collection(frozenset(bits_of(c)) for c in components_masks(g.adjacency_masks, alive))


def search_collection(
    rg: RootedGraph,
    kind: CertificateKind,
    u_set: Iterable[int] = (),
    budget: SearchBudget | BudgetClock = EXHAUSTIVE,
) -> CertificateReport | None:
    """Exhaustive search for a collection whose certificate holds.

    Families are enumerated depth-first over compatible candidate members in
    canonical order, the empty collection first; each is tested on its masks
    as it is formed (the caps hold by construction), and the report of the
    first passing collection is returned, ``None`` only after exhaustion.
    Restricting candidates to connected members is lossless (see module
    docstring).  ``budget`` may be a clock running since an earlier call.
    """
    u_set, cap, offset = _kind_terms(rg, kind, u_set)
    clock = clock_of(budget)
    for family in iter_collections(rg.graph, rg.roots | u_set, cap, clock):
        lhs, rhs = _doubled_sides(rg, family, cap, offset)
        if lhs <= rhs:
            x = Collection(frozenset(bits_of(member)) for member, _ in family)
            return CertificateReport(kind, x, cap, lhs, rhs, True)
    return None


def theorem_check(rg: RootedGraph, budget: SearchBudget | BudgetClock = EXHAUSTIVE) -> Verdict:
    """Decide an instance: a feasibility witness or a linkage certificate.

    One ``budget`` covers both searches; a ``counterexample-candidate``
    verdict means both completed empty-handed.  Every instance provably
    admits one of the two, so that verdict flags an implementation bug.
    ``budget`` may be a clock running since an earlier call; an
    ``inconclusive`` verdict reports the budget the clock runs.
    """
    clock = clock_of(budget)
    try:
        pair = find_linkage_pair(rg, clock)
        if pair is not None:
            return Verdict("feasible", pair=pair)
        report = search_collection(rg, "linkage", budget=clock)
    except SearchBudgetExceeded:
        return Verdict("inconclusive", budget=clock.budget)
    if report is not None:
        return Verdict("certified", report=report)
    return Verdict("counterexample-candidate")


def gmk_graph(m: int, k: int) -> RootedGraph:
    """The tight-family member with parameters ``m, k``.

    Vertices ``a_1..a_m`` (ids ``0..m-1``), ``b1`` (id ``m``), ``b2``
    (id ``m+1``) and ``v_1..v_k`` (ids ``m+2..``): an induced ``b1``-``b2``
    path through the ``v_j``, every ``a_i`` adjacent to all path vertices,
    a clique on ``a_1..a_{m-1}``, and ``a_m`` non-adjacent to the other
    ``a_i``.
    """
    if m < 0 or k < 0:
        raise InvalidInputError("gmk_graph needs m, k >= 0")
    b1, b2 = m, m + 1
    spine = [b1, *range(m + 2, m + 2 + k), b2]
    edges = list(zip(spine, spine[1:]))
    edges.extend((a, v) for a in range(m) for v in spine)
    edges.extend(itertools.combinations(range(m - 1), 2))
    return RootedGraph(Graph.from_edges(m + k + 2, edges), tuple(range(m)), b1, b2)


@dataclass(frozen=True)
class GmkAuditReport:
    """Audit of one tight-family member: infeasibility plus exact equality of
    the augmented edge count with the certificate bound."""

    m: int
    k: int
    infeasible: bool
    edges_doubled: int
    expected_edges_doubled: int
    certificate: CertificateReport
    mismatches: tuple[str, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "k": self.k,
            "infeasible": self.infeasible,
            "edges_doubled": self.edges_doubled,
            "expected_edges_doubled": self.expected_edges_doubled,
            "certificate": self.certificate.to_dict(),
            "mismatches": list(self.mismatches),
            "ok": self.ok,
        }


def gmk_audit(m: int, k: int) -> GmkAuditReport:
    """Check a tight-family member: infeasible, and the empty collection's
    certificate holds with exact equality ``2e = 2(m+1)(m+k+2) - m^2 - 3m - 2``."""
    if m < 1:
        raise InvalidInputError("the audit needs m >= 1")
    rg = gmk_graph(m, k)
    feasible = is_feasible(rg)
    report = verify_linkage_collection(rg, Collection())
    edges_doubled = report.lhs_edges_doubled
    expected = 2 * (m + 1) * (m + k + 2) - m * m - 3 * m - 2
    mismatches = []
    if feasible:
        mismatches.append("instance is feasible; the tight family member should not be")
    if edges_doubled != expected:
        mismatches.append(
            f"doubled augmented edge count {edges_doubled} != formula value {expected}"
        )
    if not report.holds:
        mismatches.append("empty-collection certificate does not hold")
    if report.lhs_edges_doubled != report.rhs_bound_doubled:
        mismatches.append(
            f"certificate not tight: lhs {report.lhs_edges_doubled} != rhs {report.rhs_bound_doubled}"
        )
    return GmkAuditReport(m, k, not feasible, edges_doubled, expected, report, tuple(mismatches))
