"""The four benchmark workloads: their inputs, operations and output checks.

Every workload runs in *rounds*.  A round is the smallest balanced unit of
work (one full sweep, one pass over the grid instances, one trial per
fuzz configuration), so the mix of operations inside a run never depends on
where the clock stopped.  A round returns its records (a campaign report per
sweep part, one record per operation otherwise); they are checked outside
the timed span, and outside tracing.

The library is reached only through its public functions and the
in-process CLI entry point ``linklab.cli.cli_main``.  Timed calls look the
function up on its module at call time, so the tracer's rebinding reaches
them.
"""

from __future__ import annotations

import contextlib
import gc
import io
import itertools
import json
import random
import statistics
import time
from array import array
from collections import deque
from pathlib import Path

import linklab
import linklab.cli
import linklab.harness
from linklab import (
    CampaignConfig,
    Collection,
    Graph,
    RootedGraph,
    serialize_graph,
    verify_linkage_collection,
)

import speed

perf_counter = time.perf_counter


class OpClock:
    """Per-operation latencies, shared by a workload and the optional tracer.

    An operation runs from its ``begin`` to the next ``begin`` or to the
    end of its round, whichever comes first.

    A calibrating clock (untraced runs) also runs the ``speed`` kernel at
    the start and end of every round and, between operations, once at
    least ``CADENCE_S`` of work has passed since the last kernel run.  The
    work between two kernel runs is a segment.  When the round ends, each
    segment's time and the latencies of its operations are scaled by the
    median of the kernel times nearest to it: two before and two after,
    within the round.  The median, not the two adjacent times alone, keeps
    one disturbed kernel run from skewing a segment.  Kernel time itself is
    in no operation and no segment.

    Latencies are kept in flat arrays and every round starts with a full
    garbage collection, outside the timed span, so peak memory does not
    depend on how many rounds fit into a run or on when the collector last
    ran.
    """

    CADENCE_S = 0.02
    WINDOW = 2

    def __init__(self, tracer=None, calibrate: bool = False) -> None:
        self.tracer = tracer
        self.calibrate = calibrate
        self.latencies_ms = array("d")
        self._start: float | None = None
        # Calibrated totals: scaled latencies, scaled and raw work seconds,
        # and every kernel time.
        self.scaled_ms = array("d")
        self.scaled_work_s = 0.0
        self.raw_work_s = 0.0
        self.kernel_s = array("d")
        # The round's kernel times and its segments as (work seconds, first
        # operation, end operation); segment i lies between kernel runs i
        # and i + 1.
        self._round_kernels: list[float] = []
        self._segments: list[tuple[float, int, int]] = []
        self._segment_start = 0.0
        self._segment_first_op = 0

    def start_round(self) -> None:
        gc.collect()
        if self.calibrate:
            self._round_kernels = [speed.kernel()]
            self._segments = []
            self._open_segment()

    def begin(self) -> None:
        now = perf_counter()
        if self._start is not None:
            self._close(now)
        if self.calibrate and now - self._segment_start >= self.CADENCE_S:
            self._close_segment(now)
            self._open_segment()
        if self.tracer is not None:
            self.tracer.begin_op(len(self.latencies_ms))
        self._start = perf_counter()

    def end_round(self) -> None:
        now = perf_counter()
        if self._start is not None:
            self._close(now)
            self._start = None
        if self.calibrate:
            self._close_segment(now)
            self._scale_round()

    def _close(self, end: float) -> None:
        if self.tracer is not None:
            self.tracer.record_op(len(self.latencies_ms), self._start, end)
        self.latencies_ms.append((end - self._start) * 1000.0)

    def _open_segment(self) -> None:
        self._segment_first_op = len(self.latencies_ms)
        self._segment_start = perf_counter()

    def _close_segment(self, end: float) -> None:
        self._segments.append((end - self._segment_start, self._segment_first_op, len(self.latencies_ms)))
        self._round_kernels.append(speed.kernel())

    def _scale_round(self) -> None:
        kernels = self._round_kernels
        for i, (work, first_op, end_op) in enumerate(self._segments):
            kernel = statistics.median(kernels[max(0, i + 1 - self.WINDOW):i + 1 + self.WINDOW])
            self.raw_work_s += work
            self.scaled_work_s += speed.scale(work, kernel)
            for latency in self.latencies_ms[first_op:end_op]:
                self.scaled_ms.append(speed.scale(latency, kernel))
        self.kernel_s.extend(kernels)


def check_each(records: list, complaint) -> tuple[int, int, list[str]]:
    """Attempted, failed and complaints when each record is one operation."""
    complaints = [c for c in (complaint(*record) for record in records) if c is not None]
    return len(records), len(complaints), complaints


# ---------------------------------------------------------------------------
# Exhaustive sweeps.  The sweeps are exhaustive, so they ignore the seed.

class Sweep:
    """``campaign_exhaustive_small`` over every graph up to ``n_max``
    vertices for each ``(m, n_max)`` part; one operation is one rooted
    instance decided and cross-checked."""

    # (m, n_max) -> (feasible, certified, failures) of a correct sweep.
    REFERENCE = {
        (2, 6): (7588, 7538, 0),
        (1, 6): (8314, 2210, 0),
        (0, 7): (22590, 2094, 0),
    }

    # p99.9 would also have ten samples beyond it, but at 15 of 15,126 it
    # read host stalls: 2.2 to 11.4 ms over ten runs of one sweep.
    TAIL_PERCENTILE = 99.0

    def __init__(self, parts: tuple[tuple[int, int], ...]) -> None:
        self.parts = parts

    def prepare(self, seed: int, workdir: Path) -> None:
        self.configs = [
            CampaignConfig(seed=0, trials=1, n_min=m + 2, n_max=n_max, m=m)
            for m, n_max in self.parts
        ]

    def round(self, clock: OpClock) -> list:
        # The campaign is one call; an instance starts where the campaign
        # calls ``theorem_check`` for it.
        decide = linklab.harness.theorem_check

        def stamped(*args, **kwargs):
            clock.begin()
            return decide(*args, **kwargs)

        linklab.harness.theorem_check = stamped
        try:
            reports = [linklab.campaign_exhaustive_small(config) for config in self.configs]
        finally:
            linklab.harness.theorem_check = decide
        return reports

    def check(self, records: list) -> tuple[int, int, list[str]]:
        attempted = failed = 0
        complaints = []
        for report in records:
            key = (report.config.m, report.config.n_max)
            counts = report.counts
            got = (counts["feasible"], counts["certified"], counts["failures"])
            want = self.REFERENCE[key]
            attempted += report.extras["instances"]
            # Instances the campaign flagged, or at least those by which a
            # verdict count is off from the reference.
            failed += max(got[2], abs(got[0] - want[0]) + abs(got[1] - want[1]))
            if got != want:
                complaints.append(f"m={key[0]} n<={key[1]}: counts {got} != reference {want}")
        return attempted, failed, complaints

    def trace_rounds(self, seconds: int) -> int:
        return 1


# ---------------------------------------------------------------------------
# CLI certify on infeasible triangulated grids.

def trigrid(r: int, c: int, k: int) -> tuple[int, list[tuple[int, int]], tuple[int, ...], int, int]:
    """The r x c grid with right, down and down-right edges plus a K_k clump
    joined to the interior triangle {(1,1), (1,2), (2,2)}; roots
    a = (top-left, bottom-right), b = (top-right, bottom-left).

    The roots lie on the outer face in the order a1, b1, a2, b2 and the
    clump hangs off a separation of order 3, so the instance is infeasible;
    the clump makes the empty collection fail the edge bound, so the
    certificate search has to find a member.
    """
    def vid(i: int, j: int) -> int:
        return i * c + j

    edges = []
    for i in range(r):
        for j in range(c):
            if j + 1 < c:
                edges.append((vid(i, j), vid(i, j + 1)))
            if i + 1 < r:
                edges.append((vid(i, j), vid(i + 1, j)))
            if i + 1 < r and j + 1 < c:
                edges.append((vid(i, j), vid(i + 1, j + 1)))
    clump = range(r * c, r * c + k)
    edges.extend(itertools.combinations(clump, 2))
    triangle = (vid(1, 1), vid(1, 2), vid(2, 2))
    edges.extend((t, x) for x in clump for t in triangle)
    return r * c + k, edges, (vid(0, 0), vid(r - 1, c - 1)), vid(0, c - 1), vid(r - 1, 0)


class CertifyGrid:
    """In-process ``linklab certify -i <edge list> --roots ...`` on infeasible
    trigrid instances with 15 to 19 vertices, each call on a fresh random
    vertex relabelling drawn from the seed."""

    # Seven shapes of distinct cost (about 0.01 s to 0.45 s each on a 2-vCPU
    # VM).  An odd count puts the median inside one shape's samples, and no
    # shape is so heavy that a run holds too few rounds for a stable tail.
    SHAPES = ((3, 5, 2), (4, 3, 3), (3, 5, 3), (3, 4, 4), (4, 4, 3), (3, 4, 5), (3, 5, 4))
    VARIANTS = 16
    TAIL_PERCENTILE = 90.0

    def prepare(self, seed: int, workdir: Path) -> None:
        self.instances = []
        for variant in range(self.VARIANTS):
            row = []
            for shape in self.SHAPES:
                n, edges, a_set, b1, b2 = trigrid(*shape)
                perm = list(range(n))
                random.Random(f"{seed}:{variant}:{shape}").shuffle(perm)
                g = Graph.from_edges(n, (tuple(sorted((perm[u], perm[v]))) for u, v in edges))
                rg = RootedGraph(g, tuple(perm[a] for a in a_set), perm[b1], perm[b2])
                path = workdir / f"trigrid-{'x'.join(map(str, shape))}-v{variant}.txt"
                path.write_text(serialize_graph(g), encoding="utf-8")
                roots = f"a:{','.join(map(str, rg.a_set))} b:{rg.b1},{rg.b2}"
                row.append((rg, ["certify", "-i", str(path), "--roots", roots]))
            self.instances.append(row)
        self.rounds_done = 0

    def round(self, clock: OpClock) -> list:
        row = self.instances[self.rounds_done % self.VARIANTS]
        self.rounds_done += 1
        records = []
        for rg, argv in row:
            out = io.StringIO()
            clock.begin()
            with contextlib.redirect_stdout(out):
                code = linklab.cli.cli_main(argv)
            records.append((rg, code, out.getvalue()))
        return records

    def check(self, records: list) -> tuple[int, int, list[str]]:
        return check_each(records, self._complaint)

    @staticmethod
    def _complaint(rg: RootedGraph, code: int, text: str) -> str | None:
        if code != 0:
            return f"certify exited with {code}"
        payload = json.loads(text)
        if payload.get("outcome") != "certified":
            return f"outcome {payload.get('outcome')!r}, expected 'certified'"
        claimed = payload["report"]
        report = verify_linkage_collection(rg, Collection(claimed["collection"]))
        if not report.holds:
            return f"collection {claimed['collection']} fails re-verification"
        if (report.lhs_edges_doubled, report.rhs_bound_doubled) != (
            claimed["lhs_edges_doubled"], claimed["rhs_bound_doubled"]
        ):
            return "reported bound arithmetic differs from re-verification"
        return None

    def trace_rounds(self, seconds: int) -> int:
        return max(1, seconds // 4)


# ---------------------------------------------------------------------------
# Removable paths on generated highly connected graphs.

class FuzzRemovable:
    """``gen_random_rooted`` then ``removable_path`` per trial on ``kconn``
    graphs ((2m+2)-connected), at m = 2 (n 14-18, p = 0.3) and m = 4
    (n 18-22, p = 0.35).  A round holds one trial for every vertex count of
    both ranges.  The cost of a trial grows steeply with n, so fixing the
    mix of n, rather than drawing it, keeps the spread between seeds down to
    that of the random edges.  Vertex count i of the ten gets campaign seed
    100 * seed + i: the generator seeds each trial from the campaign seed
    and the trial number alone, so one shared seed would draw nearly the
    same edges at every n."""

    SETTINGS = ((2, 14, 18, 0.3), (4, 18, 22, 0.35))
    TAIL_PERCENTILE = 90.0

    def prepare(self, seed: int, workdir: Path) -> None:
        strata = [(m, n, p) for m, n_min, n_max, p in self.SETTINGS for n in range(n_min, n_max + 1)]
        self.configs = [
            CampaignConfig(seed=100 * seed + i, trials=10**9, n_min=n, n_max=n, m=m, model="kconn", p=p)
            for i, (m, n, p) in enumerate(strata)
        ]
        self.rounds_done = 0

    def round(self, clock: OpClock) -> list:
        trial = self.rounds_done
        self.rounds_done += 1
        records = []
        for config in self.configs:
            clock.begin()
            rg = linklab.gen_random_rooted(config, trial)
            records.append((rg, linklab.removable_path(rg, config.budget)))
        return records

    def check(self, records: list) -> tuple[int, int, list[str]]:
        return check_each(records, removable_complaint)

    def trace_rounds(self, seconds: int) -> int:
        return max(1, seconds // 2)


def removable_complaint(rg: RootedGraph, report) -> str | None:
    """Check a removable path from the graph's edge set alone: it joins b1
    and b2, avoids the a_i, uses graph edges only, and G - P is connected
    and holds every a_i."""
    if not report.ok:
        return f"removable_path failed: {report.failure}"
    path = list(report.path.vertices)
    g = rg.graph
    if path[0] != rg.b1 or path[-1] != rg.b2:
        return "path does not join b1 to b2"
    if len(set(path)) != len(path):
        return "path repeats a vertex"
    if set(path) & set(rg.a_set):
        return "path meets an a_i"
    if any(tuple(sorted(e)) not in g.edges for e in zip(path, path[1:])):
        return "path uses a non-edge"
    rest = set(range(g.vertex_count)) - set(path)
    neighbours: dict[int, list[int]] = {v: [] for v in rest}
    for u, v in g.edges:
        if u in rest and v in rest:
            neighbours[u].append(v)
            neighbours[v].append(u)
    start = next(iter(rest), None)
    seen = set() if start is None else {start}
    queue = deque(seen)
    while queue:
        for w in neighbours[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    if seen != rest:
        return "G - P is disconnected"
    if not set(rg.a_set) <= rest:
        return "G - P misses an a_i"
    return None


WORKLOADS = {
    "sweep-m2": lambda: Sweep(((2, 6),)),
    "sweep-m01": lambda: Sweep(((0, 7), (1, 6))),
    "certify-grid": CertifyGrid,
    "fuzz-removable": FuzzRemovable,
}
