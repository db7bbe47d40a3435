import json
import os
import subprocess
import sys

import numpy as np
import pytest

import eigensampler
from eigensampler.cli import main
from eigensampler.eigensolve import shifted_test
from eigensampler.state_access import write_dense_state_file

from helpers import forced_pool, random_state_vector

Z_TEXT = "n=1\n1.0 Z\n"
TWO_QUBIT_TEXT = "n=2\n0.5 XZ\n-0.25 ZI\n0.3 IX\n"


@pytest.fixture
def z_file(tmp_path):
    p = tmp_path / "z.txt"
    p.write_text(Z_TEXT)
    return str(p)


@pytest.fixture
def pair_file(tmp_path):
    p = tmp_path / "pair.txt"
    p.write_text(TWO_QUBIT_TEXT)
    return str(p)


# Runs the CLI in a fresh interpreter, then reports on stderr which of the
# rectangle builder's heavy dependencies the run loaded.
FRESH_CLI = """
import json, sys
from eigensampler.cli import main
code = main(sys.argv[1:])
heavy = sorted(m for m in ("scipy.special", "mpmath") if m in sys.modules)
print(json.dumps({"code": code, "heavy": heavy}), file=sys.stderr)
"""


def run_fresh(*argv):
    """(stdout, status dict) of one CLI run in a new process."""
    src = os.path.dirname(os.path.dirname(eigensampler.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", FRESH_CLI, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.stdout, json.loads(proc.stderr.strip().splitlines()[-1])


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    doc = json.loads(out) if out.strip() else None
    edoc = json.loads(err) if err.strip() else None
    return code, doc, edoc


class TestEstimate:
    def test_oracle_exact_report(self, capsys, z_file):
        code, doc, _ = run_json(
            capsys, "estimate", "--hamiltonian", z_file, "--state", "basis:1",
            "--policy", "oracle-exact", "--epsilon", "0.5", "--json",
        )
        assert code == 0
        assert doc["command"] == "estimate"
        assert doc["result"]["e_star"] == -1.0
        assert doc["result"]["t_star"] == 0
        assert doc["config"]["mode"] == "guided"
        assert len(doc["input_digest"]) == 64

    def test_byte_identical_reruns(self, capsys, pair_file):
        argv = (
            "estimate", "--hamiltonian", pair_file, "--state", "basis:0",
            "--policy", "oracle-exact", "--seed", "9", "--json",
        )
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_tight_transcript_reruns_are_byte_identical(self, capsys, z_file):
        argv = (
            "estimate", "--hamiltonian", z_file, "--state", "basis:1",
            "--epsilon", "0.5", "--seed", "9", "--transcript", "--json",
        )
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        record = json.loads(out1)["result"]["transcript"][0]
        assert record["filter"] == "shifted"
        assert (record["degree"], record["shift"]) == (6, 0.125)

    def test_tight_run_is_byte_identical_across_processes(self, z_file):
        # and loads neither scipy.special nor mpmath: only rectangle builds
        # (strict, oracle-exact, poly) need them
        argv = ("estimate", "--hamiltonian", z_file, "--state", "basis:1",
                "--epsilon", "0.5", "--seed", "9", "--transcript", "--json")
        out1, status1 = run_fresh(*argv)
        out2, status2 = run_fresh(*argv)
        assert status1 == status2 == {"code": 0, "heavy": []}
        assert out1 == out2
        assert json.loads(out1)["result"]["transcript"][0]["filter"] == "shifted"
        # the same run under oracle-exact builds rectangles, so it loads them
        _, exact = run_fresh(*argv, "--policy", "oracle-exact")
        assert exact["code"] == 0 and "scipy.special" in exact["heavy"]

    def test_pool_does_not_change_result(self, capsys, pair_file):
        # basis:0 is no eigenvector of the pair, so every estimate is sampled
        argv = ("estimate", "--hamiltonian", pair_file, "--state", "basis:0",
                "--epsilon", "1", "--seed", "9", "--transcript", "--json")
        outs = []
        for cpus in (1, 3):
            with forced_pool(cpus):
                code, out, _ = run(capsys, *argv)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["result"]["samples_used"] > 0

    def test_workers_flag_is_refused(self, capsys, z_file):
        code, doc, edoc = run_json(
            capsys, "estimate", "--hamiltonian", z_file, "--state", "basis:1",
            "--workers", "2", "--json",
        )
        assert code == 1 and doc is None
        assert edoc["error"]["type"] == "CliUsageError"
        assert "--workers" in edoc["error"]["message"]

    def test_default_policy_hits_cost_cap(self, capsys, z_file):
        # The default tight policy now finishes within epsilon * kappa; strict
        # and a tight run capped below its prediction still exit 2 with the
        # cost breakdown.
        argv = ("estimate", "--hamiltonian", z_file, "--state", "basis:1",
                "--epsilon", "0.25", "--json")
        code, doc, _ = run_json(capsys, *argv)
        assert code == 0
        assert abs(doc["result"]["e_star"] - (-1.0)) <= 0.25 * doc["result"]["kappa"]
        for extra in (("--policy", "strict"), ("--cost-cap", "1000")):
            code, _, edoc = run_json(capsys, *argv, *extra)
            assert code == 2
            err = edoc["error"]
            assert err["type"] == "CostCapExceeded"
            assert err["predicted"] > err["cap"]
            assert "per_power" in err["breakdown"]
        assert err["breakdown"]["filter"] == "shifted"
        assert 0.0 <= err["breakdown"]["shift"] <= 1.0
        assert err["breakdown"]["per_power"] == {
            str(err["breakdown"]["degree"]): err["predicted"]
        }

    def test_strict_breakdown_names_its_filter(self, capsys, z_file):
        code, _, edoc = run_json(
            capsys, "estimate", "--hamiltonian", z_file, "--state", "basis:1",
            "--epsilon", "1", "--policy", "strict", "--json",
        )
        assert code == 2
        breakdown = edoc["error"]["breakdown"]
        assert (breakdown["filter"], breakdown["shift"]) == ("rectangle", None)
        assert breakdown["policy"] == "strict"

    def test_strict_policy_exceeds_large_cap(self, capsys, z_file):
        code, _, edoc = run_json(
            capsys, "estimate", "--hamiltonian", z_file, "--state", "basis:1",
            "--epsilon", "0.25", "--chi", "1.0", "--policy", "strict",
            "--cost-cap", "1e12", "--json",
        )
        assert code == 2
        assert edoc["error"]["cap"] == 1e12

    def test_transcript_flag(self, capsys, z_file):
        code, doc, _ = run_json(
            capsys, "estimate", "--hamiltonian", z_file, "--state", "basis:1",
            "--policy", "oracle-exact", "--epsilon", "0.5", "--transcript",
            "--json",
        )
        assert code == 0
        transcript = doc["result"]["transcript"]
        assert transcript[-1]["yes"] is True
        assert [rec["t"] for rec in transcript] == list(range(len(transcript)))

    def test_oracle_check_block(self, capsys, z_file):
        code, doc, _ = run_json(
            capsys, "estimate", "--hamiltonian", z_file, "--state", "basis:1",
            "--policy", "oracle-exact", "--epsilon", "0.5", "--oracle-check",
            "--json",
        )
        assert code == 0
        oracle = doc["oracle"]
        assert oracle["lambda_min"] == -1.0
        assert oracle["within_tolerance"] is True
        assert oracle["overlap"] >= oracle["overlap_promise"]

    def test_maxent_state_runs_unguided(self, capsys, z_file):
        code, doc, _ = run_json(
            capsys, "estimate", "--hamiltonian", z_file, "--state", "maxent",
            "--policy", "oracle-exact", "--epsilon", "0.5", "--json",
        )
        assert code == 0
        assert doc["config"]["mode"] == "unguided"
        assert doc["result"]["chi"] == pytest.approx(2**-0.5)
        assert doc["result"]["e_star"] == pytest.approx(-1.0, abs=0.5)

    def test_dense_state_file(self, capsys, pair_file, tmp_path):
        v = random_state_vector(np.random.default_rng(0), 4)
        sp = tmp_path / "psi.txt"
        write_dense_state_file(str(sp), v)
        code, doc, _ = run_json(
            capsys, "estimate", "--hamiltonian", pair_file, "--state",
            f"dense:{sp}", "--policy", "oracle-exact", "--json",
        )
        assert code == 0

    def test_text_output_mentions_energy(self, capsys, z_file):
        code, out, _ = run(
            capsys, "estimate", "--hamiltonian", z_file, "--state", "basis:1",
            "--policy", "oracle-exact", "--epsilon", "0.5",
        )
        assert code == 0
        assert "e_star" in out
        assert "wall" in out  # timing is text-only, never in the JSON report

    def test_missing_file(self, capsys, tmp_path):
        code, _, edoc = run_json(
            capsys, "estimate", "--hamiltonian", str(tmp_path / "nope.txt"),
            "--state", "basis:0", "--json",
        )
        assert code == 1

    def test_malformed_hamiltonian(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("n=1\n1.0 Q\n")
        code, _, edoc = run_json(
            capsys, "estimate", "--hamiltonian", str(bad), "--state", "basis:0",
            "--json",
        )
        assert code == 1
        assert "error" in edoc

    def test_state_dimension_mismatch(self, capsys, pair_file):
        code, _, edoc = run_json(
            capsys, "estimate", "--hamiltonian", pair_file, "--state", "basis:7",
            "--policy", "oracle-exact", "--json",
        )
        assert code == 1

    def test_64_qubits_exit_one(self, capsys, tmp_path):
        path = tmp_path / "wide.txt"
        path.write_text("n=64\n1.0 Z" + "I" * 63 + "\n")
        code, doc, edoc = run_json(
            capsys, "estimate", "--hamiltonian", str(path), "--state", "basis:0",
            "--epsilon", "1.0", "--json",
        )
        assert code == 1
        assert doc is None
        assert edoc["error"]["type"] == "ValidationError"
        assert "64 qubits" in edoc["error"]["message"]

    def test_shifted_power_past_degree_cap_exits_one(self, capsys, z_file):
        # At chi 0.5 and epsilon 0.002 test 0 separates its bounds only past
        # r = 1386, at every shift. (At chi 1 test 0 always separates: its
        # yes ratio is 1.)
        code, doc, edoc = run_json(
            capsys, "estimate", "--hamiltonian", z_file, "--state", "basis:1",
            "--epsilon", "0.002", "--chi", "0.5", "--json",
        )
        assert code == 1
        assert doc is None
        assert edoc["error"]["type"] == "DegreeOverflowError"
        assert "degree cap 200" in edoc["error"]["message"]

    def test_unguided_five_qubits_stops_at_cost_cap(self, capsys, tmp_path):
        # The README's worked example: under tight the first unguided test of
        # a 5-qubit Pauli Hamiltonian at epsilon 0.25 is the power r = 48 of
        # the operator shifted by c = 0.0625, predicted at 6.2e9 leaf
        # operations, above the default cap.
        path = tmp_path / "five.txt"
        path.write_text("n=5\n1.0 ZZIII\n0.5 XIIII\n-0.7 IXYZI\n0.3 IIIZZ\n")
        code, doc, edoc = run_json(
            capsys, "estimate", "--hamiltonian", str(path), "--state", "maxent",
            "--epsilon", "0.25", "--policy", "tight", "--json",
        )
        assert code == 2
        assert doc is None
        err = edoc["error"]
        assert err["type"] == "CostCapExceeded"
        assert err["cap"] == 1e9
        assert err["predicted"] == pytest.approx(6.2e9, rel=0.05)
        assert err["breakdown"]["filter"] == "shifted"
        assert err["breakdown"]["degree"] == 48
        assert err["breakdown"]["shift"] == 0.0625
        # (0.0625, 48) is the choice of test 0 (chi = 2^(-5/2)), not a later one
        first = shifted_test(0, 0.25, 2.0 ** -2.5)
        assert (first.shift, first.r) == (0.0625, 48)
        assert shifted_test(1, 0.25, 2.0 ** -2.5).r != 48

    def test_bad_flag_exits_one(self, capsys, z_file):
        code, _, _ = run(
            capsys, "estimate", "--hamiltonian", z_file, "--state", "basis:1",
            "--policy", "wat", "--json",
        )
        assert code == 1


class TestDecide:
    def test_low(self, capsys, z_file):
        code, doc, _ = run_json(
            capsys, "decide", "--hamiltonian", z_file, "--state", "basis:1",
            "--a", "-0.9", "--b", "0.1", "--policy", "oracle-exact",
            "--epsilon", "0.25", "--json",
        )
        assert code == 0
        assert doc["result"]["decision"] == "LOW"

    def test_high(self, capsys, z_file):
        code, doc, _ = run_json(
            capsys, "decide", "--hamiltonian", z_file, "--state", "basis:0",
            "--a", "-0.9", "--b", "0.1", "--policy", "oracle-exact",
            "--epsilon", "0.25", "--json",
        )
        assert code == 0
        assert doc["result"]["decision"] == "HIGH"

    def test_gap_too_narrow(self, capsys, z_file):
        code, _, edoc = run_json(
            capsys, "decide", "--hamiltonian", z_file, "--state", "basis:1",
            "--a", "-0.1", "--b", "0.0", "--policy", "oracle-exact",
            "--epsilon", "0.5", "--json",
        )
        assert code == 1
        assert edoc["error"]["type"] == "GapError"

    def test_default_epsilon_from_gap(self, capsys, z_file):
        # no --epsilon: the gap width picks a legal accuracy automatically
        code, doc, _ = run_json(
            capsys, "decide", "--hamiltonian", z_file, "--state", "basis:1",
            "--a", "-0.9", "--b", "0.1", "--policy", "oracle-exact", "--json",
        )
        assert code == 0


class TestOracleCommand:
    def test_spectrum_report(self, capsys, z_file):
        code, doc, _ = run_json(
            capsys, "oracle", "--hamiltonian", z_file, "--state", "basis:1",
            "--spectrum", "--json",
        )
        assert code == 0
        res = doc["result"]
        assert res["lambda_min"] == -1.0
        assert res["spectrum"] == [-1.0, 1.0]
        assert res["overlap"] == 1.0
        assert res["kappa"] == 1.0


class TestPolyCommand:
    def test_report_fields(self, capsys):
        code, doc, _ = run_json(
            capsys, "poly", "--tau", "0.25", "--theta", "0.25", "--xi",
            str(1 / 12), "--json",
        )
        assert code == 0
        res = doc["result"]
        assert res["degree"] == 20
        assert res["verified"] is True
        assert res["bands"]["low_min"] >= 1 - 1 / 12 - 1e-9
        assert res["bands"]["high_max"] <= 1 / 12 + 1e-9

    def test_rejects_bad_bands(self, capsys):
        code, _, edoc = run_json(
            capsys, "poly", "--tau", "0.9", "--theta", "0.5", "--xi", "0.05",
            "--json",
        )
        assert code == 1


class TestBench:
    def test_oracle_exact_batch(self, capsys):
        code, doc, _ = run_json(
            capsys, "bench", "--count", "4", "--n", "2", "--m", "3", "--k", "2",
            "--pauli-only", "--policy", "oracle-exact", "--epsilon", "0.25",
            "--seed", "11", "--json",
        )
        assert code == 0
        assert doc["summary"]["count"] == 4
        assert doc["summary"]["success_fraction"] == 1.0
        assert len(doc["instances"]) == 4
        for inst in doc["instances"]:
            assert inst["success"] is True
            assert abs(inst["e_star"] - inst["lambda_min"]) <= 0.25 * inst["kappa"]

    def test_zero_count(self, capsys):
        code, doc, _ = run_json(
            capsys, "bench", "--count", "0", "--policy", "oracle-exact", "--json"
        )
        assert code == 0
        assert doc["instances"] == []

    def test_bad_count(self, capsys):
        code, _, _ = run(capsys, "bench", "--count", "-3", "--json")
        assert code == 1

    def test_seeded_reruns_are_identical(self, capsys):
        argv = (
            "bench", "--count", "3", "--n", "2", "--m", "3", "--k", "2",
            "--pauli-only", "--policy", "oracle-exact", "--seed", "5", "--json",
        )
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_sampled_policy_records_aborts(self, capsys):
        # tight instances now finish and match the oracle; strict ones and
        # tight ones capped below their prediction are recorded as aborts.
        argv = ("bench", "--count", "2", "--n", "2", "--m", "3", "--k", "2",
                "--pauli-only", "--epsilon", "0.5", "--seed", "3", "--json")
        code, doc, _ = run_json(capsys, *argv, "--policy", "tight")
        assert code == 0
        assert doc["summary"]["aborted"] == 0
        assert doc["summary"]["success_fraction"] == 1.0
        for inst in doc["instances"]:
            assert abs(inst["e_star"] - inst["lambda_min"]) <= 0.5 * inst["kappa"]
        for extra in (("--policy", "strict"), ("--cost-cap", "1000")):
            code, doc, _ = run_json(capsys, *argv, *extra)
            assert code == 0
            assert doc["summary"]["aborted"] == 2
            for inst in doc["instances"]:
                assert inst["aborted"] == "cost-cap"
                assert inst["predicted"] > inst["cap"]


def test_no_subcommand_exits_one(capsys):
    assert main([]) == 1


def test_json_reports_have_sorted_keys(capsys, tmp_path):
    p = tmp_path / "z.txt"
    p.write_text(Z_TEXT)
    code, out, _ = run(
        capsys, "estimate", "--hamiltonian", str(p), "--state", "basis:1",
        "--policy", "oracle-exact", "--json",
    )
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
