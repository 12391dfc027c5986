"""Random instance generation, fuzz campaigns, and small-graph enumeration.

Campaigns are deterministic functions of their configuration: every trial's
randomness comes from ``Random(f"{seed}:{trial}")``, and reports serialize
identically across runs once timing fields are excluded.  Any assertion
failure embeds the offending instance as graph6 plus its root tuple, which
is enough to replay it through the CLI.  The exhaustive sweep's small graphs
come from ``atlas.g6``, package data read by the library's graph6 parser.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field, replace
from importlib.resources import files
from typing import Callable, Iterator, Literal

from .budget import EXHAUSTIVE, BudgetClock, SearchBudget
from .certificates import search_collection, theorem_check
from .connectivity import has_connectivity_at_least
from .errors import InvalidInputError, SearchBudgetExceeded
from .feasibility import _search_linkage, find_linkage_pair, removable_path
from .graphio import parse_graph6, serialize_graph6
from .graphs import Graph, RootedGraph, components_masks, mask_of
from .planarity import find_seymour_certificate


class GenerationError(Exception):
    """A trial's instance could not be generated (reported, not fatal)."""


@dataclass(frozen=True)
class CampaignConfig:
    """Deterministic description of a fuzz campaign."""

    seed: int
    trials: int
    n_min: int
    n_max: int
    m: int
    model: Literal["gnp", "kconn"] = "gnp"
    p: float = 0.5
    k: int | None = None
    budget: SearchBudget = EXHAUSTIVE

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise InvalidInputError("trials must be positive")
        if self.m < 0:
            raise InvalidInputError("m must be non-negative")
        if self.n_min < self.m + 2 or self.n_min > self.n_max:
            raise InvalidInputError("need m + 2 <= n_min <= n_max")
        if not 0.0 <= self.p <= 1.0:
            raise InvalidInputError("p must lie in [0, 1]")
        if self.model not in ("gnp", "kconn"):
            raise InvalidInputError(f"unknown model {self.model!r}")

    @property
    def filter_k(self) -> int:
        return self.k if self.k is not None else 2 * self.m + 2

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "n_min": self.n_min,
            "n_max": self.n_max,
            "m": self.m,
            "model": self.model,
            "p": self.p,
            "k": self.filter_k if self.model == "kconn" else None,
        }


@dataclass(frozen=True)
class CampaignReport:
    """Per-trial verdicts plus summary counts.

    ``counts`` has keys ``feasible``, ``certified`` and ``failures``; for the
    random campaigns it sums to ``config.trials``, for the exhaustive sweep
    to ``extras["instances"]`` (whose trial records keep failures only).
    Timing is kept out of the canonical dict so reports stay byte-identical
    across runs.
    """

    kind: str
    config: CampaignConfig
    trials: tuple[dict, ...]
    counts: dict[str, int]
    wall_time_ms: float
    extras: dict[str, int] = field(default_factory=dict)

    @property
    def failures(self) -> list[dict]:
        return [t for t in self.trials if t["outcome"] not in ("feasible", "certified", "ok")]

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "kind": self.kind,
            "config": self.config.to_dict(),
            "counts": dict(self.counts),
            "trials": [dict(t) for t in self.trials],
        }
        if self.extras:
            out["extras"] = dict(self.extras)
        if include_timing:
            out["wall_time_ms"] = self.wall_time_ms
        return out


def _instance_blob(rg: RootedGraph) -> dict:
    return {
        "graph6": serialize_graph6(rg.graph),
        "roots": {"a": list(rg.a_set), "b1": rg.b1, "b2": rg.b2},
    }


def gen_random_rooted(config: CampaignConfig, trial: int) -> RootedGraph:
    """Deterministic instance for ``(config.seed, trial)``.

    ``gnp`` draws each edge independently; ``kconn`` starts from the same draw and
    adds uniformly random missing edges until the connectivity filter passes (this
    terminates: a complete graph on ``n > k`` vertices is ``k``-connected).  The
    filter runs only once the minimum degree reaches ``k``: edges only raise degrees,
    and below that no graph is ``k``-connected, so skipping it changes no draw.  Raises
    :class:`GenerationError` when no graph on the drawn vertex count can pass the
    filter, :class:`SearchBudgetExceeded` when one check runs past ``config.budget``.
    """
    rng = random.Random(f"{config.seed}:{trial}")
    n = rng.randint(config.n_min, config.n_max)
    draw, p = rng.random, config.p
    rows, missing = [0] * n, []  # the adjacency masks, and the canonical non-edges ascending
    for e in itertools.combinations(range(n), 2):
        if draw() < p:
            u, v = e
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        else:
            missing.append(e)
    if config.model == "kconn":
        k = config.filter_k
        if n <= k:
            raise GenerationError(f"no graph on {n} vertices is {k}-connected")
        short = sum(row.bit_count() < k for row in rows)  # vertices still below degree k
        getrandbits = rng.getrandbits
        while short or not has_connectivity_at_least(g := Graph.with_rows(n, tuple(rows)), k, config.budget):
            size = len(missing)  # draw as rng.choice(missing) does: rejection on size.bit_length() bits
            i = getrandbits(width := size.bit_length())
            while i >= size:
                i = getrandbits(width)
            u, v = missing.pop(i)
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            short -= (rows[u].bit_count() == k) + (rows[v].bit_count() == k)
    else:
        g = Graph.with_rows(n, tuple(rows))
    picks = rng.sample(range(n), config.m + 2)
    return RootedGraph(g, tuple(picks[: config.m]), picks[config.m], picks[config.m + 1])


def _run_trials(kind: str, config: CampaignConfig, judge: Callable[[RootedGraph], dict]) -> CampaignReport:
    """The random campaigns' loop: ``{"trial": t, **judge(rg)}`` per generated
    instance, a ``generation-failure`` record where generation fails; outcomes
    ``feasible`` and ``ok`` count as feasible, all others as failures."""
    start = time.perf_counter()
    trials = []
    for t in range(config.trials):
        try:
            rg = gen_random_rooted(config, t)
        except GenerationError as exc:
            trials.append({"trial": t, "outcome": "generation-failure", "detail": str(exc)})
            continue
        trials.append({"trial": t, **judge(rg)})
    feasible = sum(t["outcome"] in ("feasible", "ok") for t in trials)
    counts = {"feasible": feasible, "certified": 0, "failures": config.trials - feasible}
    return CampaignReport(kind, config, tuple(trials), counts, (time.perf_counter() - start) * 1000.0)


def campaign_connected_feasible(config: CampaignConfig) -> CampaignReport:
    """Assert that every generated highly connected instance is feasible.

    Intended for ``kconn`` with ``k = 2m + 2``; any infeasible trial is a
    genuine claim violation and lands in ``failures``.
    """
    def judge(rg: RootedGraph) -> dict:
        if find_linkage_pair(rg, config.budget) is not None:
            return {"outcome": "feasible", "n": rg.graph.vertex_count}
        return {"outcome": "violation-infeasible", **_instance_blob(rg)}

    return _run_trials("connected-feasible", config, judge)


def _verify_removable(rg: RootedGraph, path_vertices: tuple[int, ...]) -> str | None:
    """Independent postcondition check; returns a complaint or ``None``."""
    g = rg.graph
    path_mask = mask_of(path_vertices)
    if mask_of(rg.a_set) & path_mask:
        return "path meets the a-set"
    if path_vertices[0] != rg.b1 or path_vertices[-1] != rg.b2:
        return "path does not join b1 to b2"
    if not all(g.has_edge(u, v) for u, v in zip(path_vertices, path_vertices[1:])):
        return "path has a non-edge"
    # Every a_i lies in G - P, so a connected remainder holds them all.
    if len(components_masks(g.adjacency_masks, ((1 << g.vertex_count) - 1) & ~path_mask)) > 1:
        return "remainder is disconnected"
    return None


def campaign_removable_path(config: CampaignConfig) -> CampaignReport:
    """Assert the removable-path procedure succeeds on highly connected
    instances, re-verifying its postconditions independently and checking
    the strict lexicographic growth of the component vectors.  Needs
    ``m >= 1``: at ``m = 0`` no connectivity guarantees success."""
    if config.m < 1:
        raise InvalidInputError("the removable-path campaign needs m >= 1")

    def judge(rg: RootedGraph) -> dict:
        report = removable_path(rg, config.budget)
        if not report.ok:
            complaint = f"procedure failed: {report.failure}"
        else:
            complaint = _verify_removable(rg, report.path.vertices)
            history = report.component_history
            if complaint is None and any(not b > a for a, b in zip(history, history[1:])):
                complaint = "component vector did not strictly increase"
        if complaint is None:
            return {"outcome": "ok", "iterations": report.iterations}
        return {"outcome": "violation", "detail": complaint, **_instance_blob(rg)}

    report = _run_trials("removable-path", config, judge)
    iterations = [t["iterations"] for t in report.trials if t["outcome"] == "ok"]
    return replace(report, extras={"total_iterations": sum(iterations),
                                   "max_iterations": max(iterations, default=0)})


def small_graphs(max_n: int, min_n: int = 0) -> Iterator[Graph]:
    """All non-isomorphic graphs with ``min_n <= n <= max_n`` vertices; ``max_n <= 7``.

    Read line by line from ``atlas.g6``, shipped with the package: the 1,253
    graphs with at most 7 vertices of the Atlas of Graphs (Read and Wilson),
    as graph6 in atlas order.
    """
    if max_n > 7:
        raise InvalidInputError("small-graph enumeration is available up to 7 vertices")
    with files(__package__).joinpath("atlas.g6").open(encoding="ascii") as atlas:
        for line in atlas:
            g = parse_graph6(line)
            if g.vertex_count > max_n:
                return
            if g.vertex_count >= min_n:
                yield g


def rooted_instances(g: Graph, m: int) -> Iterator[RootedGraph]:
    """All root placements on ``g`` up to the provable symmetries.

    The a-set is unordered and ``b1 < b2``; feasibility and the certificate
    predicates are invariant under those orderings.
    """
    n = g.vertex_count
    for a_combo in itertools.combinations(range(n), m):
        rest = [v for v in range(n) if v not in a_combo]
        for b1, b2 in itertools.combinations(rest, 2):
            yield RootedGraph(g, a_combo, b1, b2)


def campaign_exhaustive_small(config: CampaignConfig) -> CampaignReport:
    """Sweep every instance up to ``config.n_max`` vertices for ``config.m``.

    Every (graph, placement) instance gets a full verdict check; any
    counterexample-candidate is a failure, and an inconclusive verdict raises
    :class:`SearchBudgetExceeded`, as a cross-check that runs out does.  For
    ``m = 2`` each instance is additionally cross-checked against the planar
    certificate (it must exist exactly for the infeasible instances).  For
    ``m <= 1``, every pinned set along a found linkage path for which the
    instance is critically feasible must admit a critical certificate.
    """
    start = time.perf_counter()
    trials = []
    counts = {"feasible": 0, "certified": 0, "failures": 0}
    done = 0
    for g in small_graphs(config.n_max, config.n_min):
        if g.vertex_count < config.m + 2:
            continue
        for rg in rooted_instances(g, config.m):
            done += 1
            verdict = theorem_check(rg, config.budget)
            if verdict.outcome == "inconclusive":
                raise SearchBudgetExceeded(f"verdict inconclusive on {serialize_graph6(g)}")
            if verdict.outcome in ("feasible", "certified"):
                complaint = _cross_checks(rg, verdict, config.budget)
            else:
                complaint = f"verdict {verdict.outcome}"
            if complaint is None:
                counts[verdict.outcome] += 1
            else:
                counts["failures"] += 1
                trials.append({"trial": done - 1, "outcome": "violation", "detail": complaint,
                               **_instance_blob(rg)})
    return CampaignReport(
        "exhaustive-small", config, tuple(trials), counts,
        (time.perf_counter() - start) * 1000.0,
        {"instances": done},
    )


def _cross_checks(rg: RootedGraph, verdict, budget: SearchBudget) -> str | None:
    """Per-instance consistency checks on the verdict; ``budget`` bounds each search."""
    if rg.m == 2:
        cert = find_seymour_certificate(rg, budget)
        feasible = verdict.outcome == "feasible"
        if feasible and cert is not None:
            return "planar certificate found for a feasible instance"
        if not feasible and cert is None:
            return "no planar certificate for an infeasible instance"
    if rg.m <= 1 and verdict.outcome == "feasible":
        # On a feasible instance U is critical exactly when each u in U is
        # (the deletion form), so one deletion search per interior vertex decides it.
        pinned = [
            v for v in verdict.pair.b_path.vertices[1:-1]
            if _search_linkage(rg.graph, rg.a_set, rg.b1, rg.b2, 1 << v, BudgetClock(budget)) is None
        ]
        for size in range(len(pinned) + 1):
            for u_combo in itertools.combinations(pinned, size):
                if search_collection(rg, "critical", u_combo, budget) is None:
                    return f"no critical certificate for pinned set {sorted(u_combo)}"
    return None
