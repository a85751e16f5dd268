"""Command-line interface: output formats, determinism, exit codes."""

import hashlib
import json
import re
import time

import pytest

from conftest import nx_decode
from rooklab import cli, invariants, verify
from rooklab.graphs import johnson_graph, sr_graph
from rooklab.linalg import integral_spectrum


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestSpectrum:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "spectrum", "4", "3")
        assert code == 0
        assert out == "9^1 3^4 1^3 (-1)^6 (-3)^6\n"

    def test_complete_graph_row(self, capsys):
        code, out, _ = run(capsys, "spectrum", "2", "4")
        assert code == 0
        assert out == "4^1 (-1)^4\n"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "spectrum", "4", "3", "--format", "json")
        payload = json.loads(out)
        assert payload["m"] == 4 and payload["n"] == 3
        assert payload["order"] == 20
        assert payload["spectrum"] == "9^1 3^4 1^3 (-1)^6 (-3)^6"
        assert payload["pairs"][0] == [9, 1]

    def test_johnson_graph(self, capsys):
        code, out, _ = run(capsys, "spectrum", "5", "2", "--graph", "johnson")
        assert code == 0
        assert out.strip() == str(integral_spectrum(johnson_graph(5, 2)))

    def test_size_budget_exit_2(self, capsys, monkeypatch):
        # The order comes from the parameters: the graph is never built.
        def unbuilt(*params):
            raise AssertionError(f"graph {params} built before the budget check")

        monkeypatch.setattr(cli, "sr_graph", unbuilt)
        monkeypatch.setattr(cli, "johnson_graph", unbuilt)
        for argv, order in ((("spectrum", "7", "12"), 18564),
                            (("invariants", "7", "12"), 18564),
                            (("switch", "7", "12", "--set", "v1"), 18564),
                            (("export-graph6", "14", "7", "--graph", "johnson"),
                             3432)):
            code, _, err = run(capsys, *argv)
            assert code == 2
            assert err == f"error: graph has {order} vertices; budget is 2000\n"

    def test_empty_sr_graph(self, capsys):
        assert run(capsys, "spectrum", "0", "3") == (0, "\n", "")

    def test_deterministic(self, capsys):
        first = run(capsys, "spectrum", "4", "5", "--format", "json")
        second = run(capsys, "spectrum", "4", "5", "--format", "json")
        assert first == second


class TestVerify:
    def test_partitions_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "partitions")
        assert code == 0
        reports = [json.loads(line) for line in out.splitlines()]
        assert reports
        assert all(r["status"] == "pass" for r in reports)
        assert {"claim", "status", "expected", "actual", "runtime_ms"} <= \
            set(reports[0])

    def test_deterministic_apart_from_runtime(self, capsys):
        outputs = []
        for _ in range(2):
            code, out, _ = run(capsys, "verify", "--suite", "partitions")
            assert code == 0
            outputs.append(re.sub(r', "runtime_ms": \d+', "", out))
        assert "runtime_ms" not in outputs[0]
        assert outputs[0] == outputs[1]

    def test_each_line_printed_as_its_claim_finishes(self, capsys,
                                                     monkeypatch):
        # The second claim sees the first claim's line already written.
        seen = []

        def second():
            seen.append(capsys.readouterr().out)
            return "pass", 1, 1

        monkeypatch.setattr(verify, "battery", lambda names: [
            ("a", lambda: ("pass", 1, 1)), ("b", second)])
        code, out, _ = run(capsys, "verify", "--suite", "spectra")
        assert code == 0
        assert [json.loads(line)["claim"] for line in seen[0].splitlines()] \
            == ["a"]
        assert json.loads(out)["claim"] == "b"

    def test_failure_exit_code(self, capsys, monkeypatch):
        from rooklab.verify import VerificationReport

        def fake(names):
            return [VerificationReport("x", "fail", "1", "2", 0)]

        monkeypatch.setattr(cli, "run_suites", fake)
        code, out, _ = run(capsys, "verify", "--suite", "spectra")
        assert code == 1
        assert json.loads(out)["status"] == "fail"

    def test_reported_status_does_not_fail(self, capsys, monkeypatch):
        from rooklab.verify import VerificationReport

        def fake(names):
            return [VerificationReport("x", "reported", "a", "b", 0)]

        monkeypatch.setattr(cli, "run_suites", fake)
        code, _, _ = run(capsys, "verify")
        assert code == 0

    def test_invalid_suite_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["verify", "--suite", ""])
        assert err.value.code == 2


class TestInvariants:
    def test_sr_4_3(self, capsys):
        code, out, _ = run(capsys, "invariants", "4", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"diameter": 3, "clique_number": 4,
                           "independence_number": 4, "aut_order": 48,
                           "k114_free": True}

    def test_complete_graph_k13(self, capsys):
        # SR(2, 12) is K_13: one search leaf per automorphism would be 13!.
        code, out, _ = run(capsys, "invariants", "2", "12")
        assert code == 0
        payload = json.loads(out)
        assert payload["aut_order"] == 6227020800
        assert payload["clique_number"] == 13

    def test_node_budget_exit_2(self, capsys):
        # alpha(10, 3) passes the clique searches' node budget within seconds.
        start = time.process_time()
        code, out, err = run(capsys, "invariants", "10", "3")
        assert (code, out) == (2, "")
        assert err == ("error: clique search passed its budget of "
                       f"{invariants.NODE_BUDGET} nodes\n")
        assert time.process_time() - start < 30

    def test_key_order_stable(self, capsys):
        _, out, _ = run(capsys, "invariants", "3", "2")
        assert list(json.loads(out)) == ["diameter", "clique_number",
                                         "independence_number", "aut_order",
                                         "k114_free"]


class TestGamma:
    def test_classification_lines(self, capsys):
        code, out, _ = run(capsys, "gamma", "3")
        assert code == 0
        classes = [json.loads(line) for line in out.splitlines()]
        assert [c["order"] for c in classes] == [6, 8]
        assert all(c["integral"] for c in classes)

    def test_single_permutation(self, capsys):
        code, out, _ = run(capsys, "gamma", "3", "--pi", "2,1,0")
        payload = json.loads(out)
        assert payload["n"] == 3
        assert payload["order"] == 6
        assert payload["spectrum"] == "3^1 0^4 (-3)^1"

    def test_budget(self, capsys):
        code, _, err = run(capsys, "gamma", "9")
        assert code == 2
        assert "budget" in err

    def test_oversized_pi_refused_before_building(self, capsys, monkeypatch):
        def unbuilt(*args):
            raise AssertionError("Gamma graph built before the budget check")

        monkeypatch.setattr(cli, "gamma_graph", unbuilt)
        code, out, err = run(capsys, "gamma", "0", "--pi", "6,5,4,3,2,1,0")
        assert (code, out) == (2, "")
        assert err == ("error: Gamma graph has 5040 vertices; the spectrum "
                       "probe is capped at 512\n")

    def test_long_pi_with_one_admissible_point(self, capsys):
        # The identity on 1 200 points: X_pi is one vertex, and listing it
        # must not recurse once per coordinate.
        code, out, _ = run(capsys, "gamma", "0", "--pi",
                           ",".join(map(str, range(1200))))
        assert code == 0
        assert json.loads(out)["order"] == 1

    def test_bad_pi(self, capsys):
        code, _, err = run(capsys, "gamma", "3", "--pi", "0,0,1")
        assert code == 2
        code, _, err = run(capsys, "gamma", "3", "--pi", "a,b")
        assert code == 2


class TestSwitch:
    def test_named_set_report(self, capsys):
        code, out, _ = run(capsys, "switch", "4", "3", "--set", "v1")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "cospectral: true"
        assert lines[2] == "isomorphic: false"
        mate = nx_decode(lines[0].removeprefix("graph6: "))
        assert mate.order == 20

    def test_explicit_indices(self, capsys):
        code, out, _ = run(capsys, "switch", "4", "3", "--set", "0,1,2,3")
        assert code == 0
        assert "cospectral: true" in out

    def test_invalid_set_exit_2(self, capsys):
        code, _, err = run(capsys, "switch", "4", "3", "--set", "0,1,2,4")
        assert code == 2
        assert "error" in err

    def test_malformed_set_exit_2(self, capsys):
        code, _, err = run(capsys, "switch", "4", "3", "--set", "zebra")
        assert code == 2


class TestQuotient:
    def test_json_support(self, capsys):
        code, out, _ = run(capsys, "quotient", "4", "3", "--format", "json")
        payload = json.loads(out)
        assert payload["partition"] == "support"
        assert payload["spectrum"] == "9^1 3^4 (-1)^6 (-3)^3"

    def test_weight_partition(self, capsys):
        code, out, _ = run(capsys, "quotient", "4", "3",
                           "--partition", "weight", "--format", "json")
        payload = json.loads(out)
        assert payload["labels"] == [1, 2, 3]
        assert payload["spectrum"] == "9^1 3^1 (-1)^1"

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "quotient", "3", "2", "--format", "csv")
        assert out.startswith("label,")
        assert out.endswith("\n")

    def test_text_has_spectrum_line(self, capsys):
        _, out, _ = run(capsys, "quotient", "3", "3")
        assert out.splitlines()[-1].startswith("spectrum: ")


class TestExport:
    def test_graph6_roundtrip(self, capsys):
        code, out, _ = run(capsys, "export-graph6", "4", "3")
        assert code == 0
        g = nx_decode(out.strip())
        assert g.rows == sr_graph(4, 3).rows

    def test_johnson_export(self, capsys):
        code, out, _ = run(capsys, "export-graph6", "5", "2",
                           "--graph", "johnson")
        assert code == 0
        assert nx_decode(out.strip()).order == 10


DEGENERATE = ((0, 0), (0, 3), (1, 0), (1, 3), (2, 0), (3, 0))
COMMANDS = (("spectrum",), ("spectrum", "--format", "json"), ("invariants",),
            ("quotient",), ("quotient", "--partition", "weight"),
            ("switch", "--set", "v1"), ("switch", "--set", "0,1,2,3"),
            ("export-graph6",))


@pytest.mark.parametrize("m,n", DEGENERATE)
@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_degenerate_sr_graphs_exit_cleanly(capsys, command, m, n):
    # Empty and one-vertex SR graphs: a result, or one error line, never a
    # traceback.  SR(0, n > 0) is the empty graph.
    code, out, err = run(capsys, command[0], str(m), str(n), *command[1:])
    assert code in (0, 2)
    if code == 2:
        assert out == "" and re.fullmatch(r"error: [^\n]+\n", err)
    if (m, n) == (0, 3) and command[0] in ("invariants", "quotient"):
        assert code == 2 and "empty graph" in err


# sha256 of the stdout of quick commands.  A change to any of these outputs
# re-pins its digest and says why in CHANGES.md.
OUTPUT_DIGESTS = {
    "spectrum 4 18 --format json":
        "6343b7b6ee80220710abb6bd18ac3ca5251226c679d51c1570e05d851eabbf33",
    "spectrum 13 6 --graph johnson":
        "312e449e8f803ae4012769b812300add4058676281a8660b1674c251ebe2b492",
    "invariants 9 3":
        "cbea0c73f6e46d7c9130ff56b5be03570f6e610deed8748aa6af16ec240f9233",
    "gamma 4":
        "491e1345e169a1dcef68c05a5aafcc174903889dc0f5123d450ca689ff12f59f",
    "gamma 0 --pi 3,2,1,0":
        "6ab8ff2c6e879f8e5722b247a9ce582f0a067db54e758814aaced9ce9236b744",
    "export-graph6 3 61":
        "85eda777a1c61aa4f17dce29da912c9ae4ba4ceb9af7f23d57989ee90c10c26c",
    "switch 4 3 --set v1":
        "36790233d9211da3464cbf655f74fe6f5a48797671a1fa4ebd823df59064bc93",
    "quotient 4 3 --format json":
        "240fe3865d3ad020105986ca6d36171544e4276a360e2708d8a9fee4756ef46f",
}


@pytest.mark.parametrize("command", OUTPUT_DIGESTS)
def test_output_digests_are_pinned(capsys, command):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == OUTPUT_DIGESTS[command]
