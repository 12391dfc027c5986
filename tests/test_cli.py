"""CLI subcommands, exit codes, and output schema."""

import json

import pytest

from linklab.budget import EXHAUSTIVE, BudgetClock
from linklab.cli import cli_main
from linklab.connectivity import vertex_connectivity
from linklab.feasibility import removable_path
from linklab.graphio import parse_graph, serialize_graph
from linklab.graphs import RootedGraph
from strategies import trigrid

PATH3 = "3 2\n0 1\n1 2\n"


def run(capsys, argv):
    code = cli_main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, text, name="g.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_feasible_infeasible_instance(tmp_path, capsys):
    path = write(tmp_path, PATH3)
    code, out, _ = run(capsys, ["feasible", "-i", path, "--roots", "a:1 b:0,2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "infeasible"
    assert payload["schema_version"] == 1


def test_feasible_witness(tmp_path, capsys):
    path = write(tmp_path, "3 3\n0 1\n0 2\n1 2\n")
    code, out, _ = run(capsys, ["feasible", "-i", path, "--roots", "a:0 b:1,2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "feasible"
    assert payload["pair"]["b_path"] == [1, 2]


def test_certify_tight_family(capsys):
    code, out, _ = run(capsys, ["certify", "--graph", "gmk", "--m", "3", "--k", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "certified"
    assert payload["equality"] is True
    assert payload["report"]["collection"] == []


def test_removable_k_check_warns_but_attempts(tmp_path, capsys):
    path = write(tmp_path, "6 15\n" + "\n".join(
        f"{u} {v}" for u in range(6) for v in range(u + 1, 6)) + "\n")
    code, out, _ = run(capsys, ["removable", "-i", path, "--roots", "a:0,1 b:2,3", "--k-check"])
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "ok"
    assert any("below 6" in w for w in payload["warnings"])


def test_removable_k_check_reports_the_capped_connectivity(tmp_path, capsys):
    # Two K_7 glued on 4, 5, 6: minimum degree 6, so the degree does not settle
    # the check at 6, and the capped flows find the separator {4, 5, 6}.
    edges = sorted({(u, v) for part in (range(7), range(4, 11)) for u in part for v in part if u < v})
    path = write(tmp_path, f"11 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    code, out, _ = run(capsys, ["removable", "-i", path, "--roots", "a:0,10 b:1,9", "--k-check"])
    assert code == 0
    assert json.loads(out)["warnings"] == ["connectivity 3 is below 6; success is not guaranteed"]


def test_removable_m_zero_is_not_a_claim_violation(tmp_path, capsys):
    # K_{2,3} is 2-connected, but with b1, b2 on the 2-side every b1-b2 path
    # leaves two components: at m = 0 no connectivity guarantees success.
    path = write(tmp_path, "5 6\n0 2\n0 3\n0 4\n1 2\n1 3\n1 4\n")
    code, out, _ = run(capsys, ["removable", "-i", path, "--roots", "b:0,1", "--k-check"])
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "failure"
    assert any("m = 0" in w for w in payload["warnings"])


def test_critical_subcommand(tmp_path, capsys):
    path = write(tmp_path, PATH3)
    code, out, _ = run(capsys, ["critical", "-i", path, "--roots", "b:0,2", "--u", "1"])
    assert code == 0
    assert json.loads(out)["critically_feasible"] is True


def test_gmk_audit_ok_and_violation(capsys):
    code, out, _ = run(capsys, ["gmk", "--m", "2", "--k", "1"])
    assert code == 0
    assert json.loads(out)["ok"] is True
    # The m = 1 members are feasible, so the audit honestly fails.
    code, out, _ = run(capsys, ["gmk", "--m", "1", "--k", "0"])
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_connectivity_subcommand(tmp_path, capsys):
    path = write(tmp_path, "5 10\n" + "\n".join(
        f"{u} {v}" for u in range(5) for v in range(u + 1, 5)) + "\n")
    code, out, _ = run(capsys, ["connectivity", "-i", path])
    assert code == 0
    assert json.loads(out)["vertex_connectivity"] == 4


def test_disc_planar_subcommand(tmp_path, capsys):
    path = write(tmp_path, "4 4\n0 1\n0 3\n1 2\n2 3\n")
    code, out, _ = run(capsys, ["disc-planar", "-i", path, "--boundary", "0,1,2,3"])
    assert code == 0
    assert json.loads(out)["disc_planar"] is True
    code, out, _ = run(capsys, ["disc-planar", "-i", path, "--boundary", "0,2,1,3"])
    assert json.loads(out)["disc_planar"] is False


def test_disc_planar_petersen(tmp_path, capsys):
    # 10 vertices of degree 3 and 15 <= 3n - 6 edges: no reduction or count
    # decides it, so the answer comes from path addition.
    edges = ([(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
             + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    path = write(tmp_path, "10 15\n" + "".join(f"{min(e)} {max(e)}\n" for e in edges))
    code, out, _ = run(capsys, ["disc-planar", "-i", path, "--boundary", "0,1"])
    assert code == 0
    assert json.loads(out) == {"schema_version": 1, "command": "disc-planar",
                               "boundary": [0, 1], "disc_planar": False}


def test_graph6_input(tmp_path, capsys):
    from linklab.graphio import serialize_graph6
    from linklab.graphs import Graph

    path = write(tmp_path, serialize_graph6(Graph.complete(4)) + "\n")
    code, out, _ = run(capsys, ["connectivity", "-i", path, "--format", "graph6"])
    assert code == 0
    assert json.loads(out)["vertex_connectivity"] == 3


def test_parse_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "2 1\n0 2\n")
    code, out, err = run(capsys, ["connectivity", "-i", path])
    assert code == 2
    assert "out of range" in err


def test_oversized_header_rejected(tmp_path, capsys):
    # Just above the limit of 100,000 vertices, so that a parser without the
    # limit builds a small graph rather than exhausting memory.
    path = write(tmp_path, "100001 0\n")
    code, out, err = run(capsys, ["connectivity", "-i", path])
    assert code == 2
    assert out == ""
    assert "above the limit 100000" in err


def test_malformed_vertex_lists_exit_code(tmp_path, capsys):
    path = write(tmp_path, PATH3)
    for argv in (
        ["critical", "-i", path, "--roots", "b:0,2", "--u", "x"],
        ["disc-planar", "-i", path, "--boundary", "0,y"],
    ):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert "non-integer vertex id" in err


def test_usage_error_exit_code(capsys):
    assert run(capsys, ["no-such-command"])[0] == 2
    assert run(capsys, [])[0] == 2


def test_budget_exhausted_exit_code(tmp_path, capsys):
    # trigrid(4, 5, 6) is infeasible, and its linkage search takes 194 nodes.
    path = write(tmp_path, serialize_graph(trigrid(4, 5, 6).graph))
    code, out, _ = run(
        capsys,
        ["feasible", "-i", path, "--roots", "a:0,19 b:4,15", "--budget-nodes", "2"],
    )
    assert code == 3
    assert json.loads(out)["outcome"] == "budget-exhausted"


def test_critical_budget_exhausted_exit_code(tmp_path, capsys):
    path = write(tmp_path, "4 4\n0 1\n0 3\n1 2\n2 3\n")
    argv = ["critical", "-i", path, "--roots", "b:0,2", "--u", "1"]
    code, out, _ = run(capsys, argv + ["--budget-nodes", "1"])
    assert code == 3
    assert json.loads(out)["outcome"] == "budget-exhausted"
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert json.loads(out)["critically_feasible"] is False


PATH2000 = "2000 1999\n" + "".join(f"{v} {v + 1}\n" for v in range(1999))


def test_connectivity_budget_exhausted_exit_code(tmp_path, capsys):
    path = write(tmp_path, PATH2000)
    code, out, _ = run(capsys, ["connectivity", "-i", path, "--budget-nodes", "10000"])
    assert code == 3
    assert json.loads(out)["outcome"] == "budget-exhausted"


def test_critical_on_a_long_path_spends_one_tick_per_dequeued_vertex(tmp_path, capsys):
    # 1,999 dequeues (0..1998) reach 1999, then 1,000 (0..999) find it cut
    # off by 1000.
    path = write(tmp_path, PATH2000)
    argv = ["critical", "-i", path, "--roots", "b:0,1999", "--u", "1000", "--budget-nodes"]
    code, out, _ = run(capsys, argv + ["2998"])
    assert code == 3
    assert json.loads(out)["outcome"] == "budget-exhausted"
    code, out, _ = run(capsys, argv + ["2999"])
    assert code == 0
    assert json.loads(out)["critically_feasible"] is True


def test_removable_k_check_budget_exhausted_exit_code(tmp_path, capsys):
    path = write(tmp_path, PATH2000)
    argv = ["removable", "-i", path, "--roots", "a:0 b:1,2", "--k-check", "--budget-nodes", "10000"]
    code, out, _ = run(capsys, argv)
    assert code == 3
    assert json.loads(out)["outcome"] == "budget-exhausted"


def test_removable_k_check_spends_one_budget(tmp_path, capsys):
    # The 4-connected circulant C_10(1, 2), m = 1: the check and the path
    # search each fit in a budget one node short of their sum, both together
    # do not.
    edges = sorted(tuple(sorted((v, (v + d) % 10))) for v in range(10) for d in (1, 2))
    text = "10 20\n" + "".join(f"{u} {v}\n" for u, v in edges)
    rg = RootedGraph(parse_graph(text), (0,), 5, 6)
    check, search = BudgetClock(EXHAUSTIVE), BudgetClock(EXHAUSTIVE)
    assert vertex_connectivity(rg.graph, check) == 4
    assert removable_path(rg, search).ok
    total = check.ticks + search.ticks
    path = write(tmp_path, text)
    argv = ["removable", "-i", path, "--roots", "a:0 b:5,6", "--k-check", "--budget-nodes"]
    code, out, _ = run(capsys, argv + [str(total - 1)])
    assert code == 3
    assert json.loads(out)["outcome"] == "budget-exhausted"
    code, out, _ = run(capsys, argv + [str(total)])
    assert code == 0
    assert json.loads(out)["warnings"] == []


def test_highly_connected_instance_answers_inside_a_small_budget(tmp_path, capsys):
    # C_100^5 is 10-connected, so m = 2 is feasible by the theorem, and the
    # shortest b1-b2 path (83 dequeues) is a witness and already removable.
    # The k-check spends 57,877 nodes on the flows, the path 84 more.
    edges = sorted({tuple(sorted((v, (v + d) % 100))) for v in range(100) for d in range(1, 6)})
    path = write(tmp_path, f"100 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    roots = ["--roots", "a:7,80 b:3,50"]
    code, out, _ = run(capsys, ["feasible", "-i", path, *roots, "--budget-nodes", "1000"])
    assert code == 0
    assert json.loads(out)["outcome"] == "feasible"
    argv = ["removable", "-i", path, *roots, "--k-check", "--budget-nodes", "100000"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    assert (payload["outcome"], payload["iterations"], payload["warnings"]) == ("ok", 0, [])


def test_certify_spends_one_budget(tmp_path, capsys):
    # trigrid(4, 5, 6) takes 194 linkage nodes (22 shortest-path dequeues and
    # 172 DFS nodes) and 83 certificate nodes (80 of candidate enumeration).
    rg = trigrid(4, 5, 6)
    path = write(tmp_path, serialize_graph(rg.graph))
    argv = ["certify", "-i", path, "--roots", "a:0,19 b:4,15", "--budget-nodes"]
    code, out, _ = run(capsys, argv + ["276"])
    assert code == 3
    assert json.loads(out)["outcome"] == "inconclusive"
    code, out, _ = run(capsys, argv + ["277"])
    assert code == 0
    assert json.loads(out)["outcome"] == "certified"


def test_certify_trigrid_enumerates_candidates_inside_a_small_budget(tmp_path, capsys):
    # trigrid(6, 6, 6) takes 3,072 linkage nodes and 183 certificate nodes,
    # 180 of them branch nodes of the enumeration that finds its one
    # candidate member.
    rg = trigrid(6, 6, 6)
    path = write(tmp_path, serialize_graph(rg.graph))
    argv = ["certify", "-i", path, "--roots", "a:0,35 b:5,30", "--budget-nodes"]
    for budget, code_expected, outcome in (("5000", 0, "certified"), ("3255", 0, "certified"),
                                           ("3254", 3, "inconclusive")):
        code, out, _ = run(capsys, argv + [budget])
        assert (code, json.loads(out)["outcome"]) == (code_expected, outcome)


@pytest.mark.parametrize(
    "shape, roots, collection, lhs, rhs",
    [
        # The clump's 3 surplus edges do not outweigh the grid's deficit.
        ((4, 4, 3), "a:0,15 b:3,12", [], 100, 102),
        # Its 15 surplus edges do, so the clump must be a member.
        ((4, 5, 6), "a:0,19 b:4,15", [[20, 21, 22, 23, 24, 25]], 96, 108),
    ],
    ids=["empty-collection", "clump-member"],
)
def test_certify_output_is_pinned(tmp_path, capsys, shape, roots, collection, lhs, rhs):
    # The whole certify document, byte for byte: the proof of infeasibility
    # and the certificate search behind it may get faster, not different.
    path = write(tmp_path, serialize_graph(trigrid(*shape).graph))
    code, out, _ = run(capsys, ["certify", "-i", path, "--roots", roots])
    report = (f'{{"collection": {json.dumps(collection)}, "holds": true, "kind": "linkage", '
              f'"lhs_edges_doubled": {lhs}, "neighborhood_cap": 3, "rhs_bound_doubled": {rhs}}}')
    assert code == 0
    assert out == ('{"command": "certify", "equality": false, "outcome": "certified", '
                   f'"report": {report}, "schema_version": 1}}\n')


def test_fuzz_removable_refuses_m_zero(capsys):
    # No connectivity guarantees a removable path at m = 0, so failures
    # there are not violations of the claim under test.
    code, out, err = run(capsys, ["fuzz", "--campaign", "removable", "--m", "0", "--n-min", "5",
                                  "--n-max", "7", "--trials", "200", "--seed", "1"])
    assert code == 2
    assert out == ""
    assert "m >= 1" in err


def test_fuzz_campaign_deterministic_output(capsys):
    argv = ["fuzz", "--campaign", "feasibility", "--seed", "5", "--trials", "5",
            "--n-min", "6", "--n-max", "7", "--m", "1"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["counts"]["feasible"] == 5


def test_fuzz_failure_exit_code(capsys):
    code, out, _ = run(capsys, ["fuzz", "--campaign", "feasibility", "--seed", "1",
                                "--trials", "2", "--n-min", "4", "--n-max", "4",
                                "--m", "1", "--k", "4"])
    assert code == 1
    assert json.loads(out)["counts"]["failures"] == 2


def test_fuzz_exhaustive_inconclusive_verdict_exit_code(capsys):
    # One node decides no m = 3 instance: the sweep stops with the budget
    # exit code instead of counting the verdict as a claim violation.
    code, out, _ = run(capsys, ["fuzz", "--campaign", "exhaustive", "--m", "3", "--n-min", "5",
                                "--n-max", "6", "--budget-nodes", "1"])
    assert code == 3
    assert json.loads(out)["outcome"] == "budget-exhausted"


def test_pretty_output(tmp_path, capsys):
    path = write(tmp_path, PATH3)
    code, out, _ = run(capsys, ["feasible", "-i", path, "--roots", "a:1 b:0,2", "--pretty"])
    assert code == 0
    assert "infeasible" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)
    # --pretty is also accepted before the subcommand.
    code, out, _ = run(capsys, ["--pretty", "feasible", "-i", path, "--roots", "a:1 b:0,2"])
    assert code == 0
    assert "infeasible" in out


def test_repeated_calls_share_no_state(capsys):
    # The parser is built once per process; output mode and options must
    # still come from each call's own arguments.
    gmk = ["certify", "--graph", "gmk", "--m", "2", "--k", "1"]
    outputs = [run(capsys, argv) for argv in (["--pretty", *gmk], gmk, [*gmk, "--pretty"], gmk)]
    assert [code for code, _, _ in outputs] == [0, 0, 0, 0]
    pretty_first, json_first, pretty_second, json_second = (out for _, out, _ in outputs)
    assert pretty_first == pretty_second
    assert pretty_first.startswith("verdict: certified")
    assert json_first == json_second
    assert json.loads(json_first)["outcome"] == "certified"
    _, other, _ = run(capsys, ["certify", "--graph", "gmk", "--m", "3", "--k", "0"])
    assert json.loads(other)["report"] != json.loads(json_first)["report"]


def stdin_of(data: bytes):
    import io

    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", stdin_of(PATH3.encode()))
    code, out, _ = run(capsys, ["connectivity"])
    assert code == 0
    assert json.loads(out)["vertex_connectivity"] == 1


NOT_UTF8 = b"3 2\n0 1\n\xff\xfe1 2\n"


def test_non_utf8_file_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_bytes(NOT_UTF8)
    code, out, err = run(capsys, ["feasible", "-i", str(path), "--roots", "b:0,2"])
    assert (code, out) == (2, "")
    assert err == "error: line 3: input is not UTF-8: byte 0xff at offset 8\n"


def test_non_utf8_stdin_is_a_parse_error(capsys, monkeypatch):
    # A text stdin would hand the parser '\udcff' in place of the byte.
    monkeypatch.setattr("sys.stdin", stdin_of(NOT_UTF8))
    code, out, err = run(capsys, ["feasible", "--roots", "b:0,2"])
    assert (code, out) == (2, "")
    assert err == "error: line 3: input is not UTF-8: byte 0xff at offset 8\n"
