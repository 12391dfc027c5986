"""Command line interface.

Exit codes: 0 = question answered, 1 = claim violation or counterexample
candidate, 2 = usage or parse error, 3 = search budget exhausted.  Output is
JSON by default (one document per invocation, ``schema_version`` at the top
level); ``--pretty`` switches to a short human-readable rendering.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .budget import BudgetClock, SearchBudget
from .certificates import gmk_audit, gmk_graph, theorem_check
from .connectivity import vertex_connectivity
from .errors import InvalidInputError, ParseError, SearchBudgetExceeded
from .feasibility import find_linkage_pair, is_critically_feasible, removable_path
from .graphio import parse_graph, parse_roots, parse_vertex_list
from .graphs import Graph, RootedGraph
from .harness import (
    CampaignConfig,
    campaign_connected_feasible,
    campaign_exhaustive_small,
    campaign_removable_path,
)
from .planarity import DiscInstance, is_disc_planar

SCHEMA_VERSION = 1

_CAMPAIGNS = {
    "feasibility": campaign_connected_feasible,
    "removable": campaign_removable_path,
    "exhaustive": campaign_exhaustive_small,
}


def _read_input(source: str) -> str:
    """The bytes of the file, or of stdin for ``-``, decoded as strict UTF-8."""
    if source == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(source, "rb") as fh:
            data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8: byte {data[exc.start]:#04x} at offset {exc.start}",
                         line=data.count(b"\n", 0, exc.start) + 1) from None


def _load_graph(args) -> Graph:
    return parse_graph(_read_input(args.input), args.format)


def _load_rooted(args) -> RootedGraph:
    g = _load_graph(args)
    if not args.roots:
        raise ParseError("this command needs --roots")
    a, b1, b2 = parse_roots(args.roots)
    return RootedGraph(g, a, b1, b2)


def _budget(args) -> SearchBudget:
    return SearchBudget(args.budget_nodes, args.budget_ms)


def _emit(payload: dict, pretty_lines: list[str], args) -> None:
    if args.pretty:
        print("\n".join(pretty_lines))
    else:
        payload = {"schema_version": SCHEMA_VERSION, **payload}
        print(json.dumps(payload, sort_keys=True))


def _cmd_feasible(args) -> int:
    rg = _load_rooted(args)
    pair = find_linkage_pair(rg, _budget(args))
    if pair is None:
        _emit({"command": "feasible", "outcome": "infeasible"},
              ["infeasible (exhaustive search completed)"], args)
    else:
        _emit(
            {"command": "feasible", "outcome": "feasible",
             "pair": pair.to_dict()},
            [f"feasible; path {list(pair.b_path.vertices)} leaves a-part {sorted(pair.a_part)}"],
            args,
        )
    return 0


def _cmd_certify(args) -> int:
    if args.graph == "gmk":
        rg = gmk_graph(args.m, args.k)
    else:
        rg = _load_rooted(args)
    verdict = theorem_check(rg, _budget(args))
    payload = {"command": "certify", **verdict.to_dict()}
    lines = [f"verdict: {verdict.outcome}"]
    if verdict.outcome == "certified":
        payload["equality"] = (
            verdict.report.lhs_edges_doubled == verdict.report.rhs_bound_doubled
        )
        lines.append(
            f"collection {verdict.report.collection.to_sorted_lists()} "
            f"bound {verdict.report.lhs_edges_doubled}/2 <= {verdict.report.rhs_bound_doubled}/2"
        )
    _emit(payload, lines, args)
    if verdict.outcome == "counterexample-candidate":
        return 1
    if verdict.outcome == "inconclusive":
        return 3
    return 0


def _cmd_removable(args) -> int:
    rg = _load_rooted(args)
    clock = BudgetClock(_budget(args))  # one budget for the check and the path
    warnings = []
    guaranteed = False
    if args.k_check and rg.m == 0:
        warnings.append("success is not guaranteed at m = 0, whatever the connectivity")
    elif args.k_check:
        needed = 2 * rg.m + 2
        connectivity = vertex_connectivity(rg.graph, clock, needed)  # exact below `needed`
        guaranteed = connectivity >= needed
        if not guaranteed:
            warnings.append(
                f"connectivity {connectivity} is below {needed}; success is not guaranteed"
            )
    report = removable_path(rg, clock)
    payload = {
        "command": "removable",
        "outcome": "ok" if report.ok else "failure",
        "iterations": report.iterations,
        "component_history": [list(v) for v in report.component_history],
        "warnings": warnings,
    }
    if report.ok:
        payload["path"] = list(report.path.vertices)
        lines = [f"removable path: {list(report.path.vertices)} ({report.iterations} improvements)"]
    else:
        payload["failure"] = report.failure
        lines = [f"failed: {report.failure}"]
    lines.extend(warnings)
    _emit(payload, lines, args)
    if not report.ok and guaranteed:
        return 1
    return 0


def _cmd_critical(args) -> int:
    rg = _load_rooted(args)
    u_set = frozenset(parse_vertex_list(args.u))
    answer = is_critically_feasible(rg, u_set, _budget(args))
    _emit({"command": "critical", "u": sorted(u_set), "critically_feasible": answer},
          [f"critically feasible for U={sorted(u_set)}: {answer}"], args)
    return 0


def _cmd_gmk(args) -> int:
    report = gmk_audit(args.m, args.k)
    _emit({"command": "gmk", **report.to_dict()},
          [f"tight family m={args.m} k={args.k}: " + ("ok" if report.ok else "; ".join(report.mismatches))],
          args)
    return 0 if report.ok else 1


def _cmd_connectivity(args) -> int:
    g = _load_graph(args)
    value = vertex_connectivity(g, _budget(args))
    _emit({"command": "connectivity", "vertex_connectivity": value},
          [f"vertex connectivity: {value}"], args)
    return 0


def _cmd_disc_planar(args) -> int:
    g = _load_graph(args)
    boundary = parse_vertex_list(args.boundary)
    answer = is_disc_planar(DiscInstance(g, boundary))
    _emit({"command": "disc-planar", "boundary": list(boundary), "disc_planar": answer},
          [f"disc planar with boundary {list(boundary)}: {answer}"], args)
    return 0


def _cmd_fuzz(args) -> int:
    config = CampaignConfig(
        seed=args.seed,
        trials=args.trials,
        n_min=args.n_min,
        n_max=args.n_max,
        m=args.m,
        model="kconn" if args.campaign in ("feasibility", "removable") else "gnp",
        p=args.p,
        k=args.k if args.k >= 0 else None,
        budget=_budget(args),
    )
    report = _CAMPAIGNS[args.campaign](config)
    payload = {"command": "fuzz", "campaign": args.campaign, **report.to_dict(include_timing=args.timing)}
    lines = [f"{args.campaign}: counts {report.counts}"]
    lines.extend(str(t) for t in report.failures[:10])
    _emit(payload, lines, args)
    return 1 if report.counts["failures"] else 0


def _add_io_options(sub: argparse.ArgumentParser, *, roots: bool) -> None:
    sub.add_argument("--input", "-i", default="-", help="graph file, or - for stdin")
    sub.add_argument("--format", choices=["edgelist", "graph6"], default=None,
                     help="input format (auto-detected by default)")
    if roots:
        sub.add_argument("--roots", default="",
                         help="root tuple, 'a:1,2 b:0,4' or JSON {\"a\":[],\"b1\":..,\"b2\":..}")


def _add_budget_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--budget-nodes", type=int, default=2**62)
    sub.add_argument("--budget-ms", type=int, default=2**62)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``linklab`` parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(prog="linklab",
                                     description="Rooted-graph linkage feasibility toolkit")
    parser.add_argument("--pretty", action="store_true", help="human-readable output")
    # Also accepted after the subcommand; SUPPRESS keeps a pre-subcommand
    # --pretty from being clobbered by the subparser default.
    pretty_parent = argparse.ArgumentParser(add_help=False)
    pretty_parent.add_argument("--pretty", action="store_true", default=argparse.SUPPRESS)
    commands = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, help_text: str) -> argparse.ArgumentParser:
        return commands.add_parser(name, help=help_text, parents=[pretty_parent])

    sub = add_command("feasible", "decide feasibility of a rooted graph")
    _add_io_options(sub, roots=True)
    _add_budget_options(sub)
    sub.set_defaults(func=_cmd_feasible)

    sub = add_command("certify", "feasibility witness or certificate")
    _add_io_options(sub, roots=True)
    _add_budget_options(sub)
    sub.add_argument("--graph", choices=["gmk"], default=None,
                     help="use a built-in family instead of --input")
    sub.add_argument("--m", type=int, default=1)
    sub.add_argument("--k", type=int, default=0)
    sub.set_defaults(func=_cmd_certify)

    sub = add_command("removable", "find a removable b1-b2 path")
    _add_io_options(sub, roots=True)
    _add_budget_options(sub)
    sub.add_argument("--k-check", action="store_true",
                     help="warn when success is not guaranteed: m = 0 or connectivity "
                          "below 2m+2 (still attempts)")
    sub.set_defaults(func=_cmd_removable)

    sub = add_command("critical", "critical feasibility for a pinned set")
    _add_io_options(sub, roots=True)
    _add_budget_options(sub)
    sub.add_argument("--u", default="", help="comma-separated pinned vertices")
    sub.set_defaults(func=_cmd_critical)

    sub = add_command("gmk", "audit a tight-family member")
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.set_defaults(func=_cmd_gmk)

    sub = add_command("connectivity", "vertex connectivity of a graph")
    _add_io_options(sub, roots=False)
    _add_budget_options(sub)
    sub.set_defaults(func=_cmd_connectivity)

    sub = add_command("disc-planar", "disc planarity with a boundary order")
    _add_io_options(sub, roots=False)
    sub.add_argument("--boundary", default="", help="comma-separated boundary vertices in order")
    sub.set_defaults(func=_cmd_disc_planar)

    sub = add_command("fuzz", "run a verification campaign")
    _add_budget_options(sub)
    sub.add_argument("--campaign", choices=sorted(_CAMPAIGNS), required=True)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--trials", type=int, default=100)
    sub.add_argument("--n-min", type=int, default=6)
    sub.add_argument("--n-max", type=int, default=8)
    sub.add_argument("--m", type=int, default=1)
    sub.add_argument("--p", type=float, default=0.5)
    sub.add_argument("--k", type=int, default=-1, help="connectivity filter (default 2m+2)")
    sub.add_argument("--timing", action="store_true", help="include wall-time in the report")
    sub.set_defaults(func=_cmd_fuzz)

    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except SearchBudgetExceeded:
        print(json.dumps({"schema_version": SCHEMA_VERSION, "outcome": "budget-exhausted"}))
        return 3
    except (ParseError, InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
