import json
import os
import subprocess
import sys

import numpy as np
import pytest

import eigensampler
from eigensampler import (
    build_decomposition,
    cli,
    exact_overlap,
    load_hamiltonian,
    reconstruct,
    transform,
)
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


# Runs the CLI in a fresh interpreter, then reports on stderr every scipy
# module the run loaded: only rectangle builds need scipy.special.
FRESH_CLI = """
import json, sys
from eigensampler.cli import main
code = main(sys.argv[1:])
heavy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
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
        # and loads no scipy module: only rectangle builds (strict,
        # oracle-exact, poly) need scipy.special, and interpreter start and
        # the package import count in the benchmark's setup_s
        argv = ("estimate", "--hamiltonian", z_file, "--state", "basis:1",
                "--epsilon", "0.5", "--seed", "9", "--transcript", "--json")
        out1, status1 = run_fresh(*argv)
        out2, status2 = run_fresh(*argv)
        assert status1 == status2 == {"code": 0, "heavy": []}
        assert out1 == out2
        assert json.loads(out1)["result"]["transcript"][0]["filter"] == "shifted"
        # nor does a run whose test 1, a Chebyshev product, stops at the cap
        _, status = run_fresh("estimate", "--hamiltonian", z_file, "--state",
                              "basis:0", "--epsilon", "1.0", "--chi", "0.5",
                              "--delta", "0.5", "--cost-cap", "1e5", "--json")
        assert status == {"code": 2, "heavy": []}
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

    def test_json_terms_that_are_not_a_list_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 1, "terms": 5}')
        code, _, edoc = run_json(
            capsys, "estimate", "--hamiltonian", str(bad), "--state", "basis:0",
            "--json",
        )
        assert code == 1
        assert edoc["error"]["type"] == "HamiltonianFormatError"

    def test_json_boolean_qubit_count_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": true, "terms": [{"pauli": "Z", "coeff": 1.0}]}')
        code, out, edoc = run_json(
            capsys, "estimate", "--hamiltonian", str(bad), "--state", "basis:0",
            "--policy", "oracle-exact", "--json",
        )
        assert code == 1
        assert out is None
        assert edoc["error"]["type"] == "HamiltonianFormatError"

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

    def test_unguided_takes_up_to_63_qubits(self, capsys, tmp_path):
        """The unguided mode solves on n qubits: at n = 40 it ends at the
        cost cap of its first test, and only n = 64 meets the qubit limit."""
        path = tmp_path / "forty.txt"
        path.write_text("n=40\n1.0 Z" + "I" * 39 + "\n0.5 X" + "I" * 39 + "\n")
        code, doc, edoc = run_json(
            capsys, "estimate", "--hamiltonian", str(path), "--state", "maxent",
            "--epsilon", "1.0", "--json",
        )
        assert code == 2
        assert doc is None
        assert edoc["error"]["type"] == "CostCapExceeded"
        assert edoc["error"]["breakdown"]["filter"] == "shifted"
        path = tmp_path / "wide.txt"
        path.write_text("n=64\n1.0 Z" + "I" * 63 + "\n")
        code, doc, edoc = run_json(
            capsys, "estimate", "--hamiltonian", str(path), "--state", "maxent",
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
        # the operator shifted by c = 0.0625, predicted at 2.4e7 leaf
        # operations, below the default cap; the second, r = 32 at
        # c = 0.125, is predicted at 8.3e10, above it.
        path = tmp_path / "five.txt"
        path.write_text("n=5\n1.0 ZZIII\n0.5 XIIII\n-0.7 IXYZI\n0.3 IIIZZ\n")
        argv = ("estimate", "--hamiltonian", str(path), "--state", "maxent",
                "--epsilon", "0.25", "--policy", "tight", "--json")
        code, doc, edoc = run_json(capsys, *argv, "--cost-cap", "1")
        assert code == 2 and doc is None
        first = edoc["error"]
        assert first["predicted"] == pytest.approx(2.4e7, rel=0.05)
        assert (first["breakdown"]["filter"], first["breakdown"]["degree"],
                first["breakdown"]["shift"]) == ("shifted", 48, 0.0625)
        code, doc, edoc = run_json(capsys, *argv)
        assert code == 2
        assert doc is None
        err = edoc["error"]
        assert err["type"] == "CostCapExceeded"
        assert err["cap"] == 1e9
        assert err["predicted"] == pytest.approx(8.3e10, rel=0.05)
        assert err["breakdown"]["filter"] == "shifted"
        assert err["breakdown"]["degree"] == 32
        assert err["breakdown"]["shift"] == 0.125
        # (0.0625, 48) is the choice of test 0 (chi = 2^(-5/2)), (0.125, 32)
        # that of test 1
        for t, choice in ((0, (0.0625, 48)), (1, (0.125, 32))):
            test = shifted_test(t, 0.25, 2.0 ** -2.5)
            assert (test.shift, test.r) == choice

    def test_bad_flag_exits_one(self, capsys, z_file):
        code, _, _ = run(
            capsys, "estimate", "--hamiltonian", z_file, "--state", "basis:1",
            "--policy", "wat", "--json",
        )
        assert code == 1

    @pytest.mark.parametrize("term", [
        '{"pauli": "Z", "coeff": NaN}',
        '{"pauli": "Z", "coeff": -Infinity}',
        '{"pauli": "Z", "coeff": "one"}',
        '{"pauli": "Z", "coeff": 1.0, "kappa": Infinity}',
        '{"qubits": [0], "block": [[1, 0], [0, NaN]]}',
        '{"qubits": [0], "block": [[1, ["0", "1"]], [0, 1]]}',
        '{"qubits": [0], "block": [[1, 0], [0]]}',
        '{"qubits": [0], "block": 5}',
        '{"qubits": "0", "block": [[1, 0], [0, 1]]}',
        '{"qubits": [0.5], "block": [[1, 0], [0, 1]]}',
        '{"qubits": [1], "block": [[1, 0], [0, 1]]}',
        # float() reads booleans and numeric strings, but JSON numbers are numbers
        '{"pauli": "Z", "coeff": true}',
        '{"pauli": "Z", "coeff": "0.5"}',
        '{"pauli": "Z", "coeff": 1.0, "kappa": "2"}',
        '{"qubits": [false], "block": [[1, 0], [0, 1]]}',
        '{"qubits": [0], "block": [[true, 0], [0, 1]]}',
    ])
    def test_malformed_json_term_exits_one(self, capsys, tmp_path, term):
        path = tmp_path / "h.json"
        path.write_text('{"n": 1, "terms": [' + term + "]}")
        code, out, err = run(
            capsys, "estimate", "--hamiltonian", str(path), "--state", "basis:0",
            "--policy", "oracle-exact", "--json",
        )
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        error = json.loads(err)["error"]
        assert error["type"] == "HamiltonianFormatError"
        assert error["message"].startswith("term 0: ")

    @pytest.mark.parametrize("flag, value", [
        ("--cost-cap", "nan"), ("--cost-cap", "-inf"), ("--cost-cap", "0"),
        ("--sigma", "nan"),
    ])
    def test_cap_or_sigma_out_of_range_exits_one(self, capsys, z_file, flag, value):
        code, doc, edoc = run_json(
            capsys, "estimate", "--hamiltonian", z_file, "--state", "basis:1",
            "--policy", "oracle-exact", "--epsilon", "0.5", f"{flag}={value}",
            "--json",
        )
        assert code == 1
        assert doc is None
        assert edoc["error"]["type"] == "ValidationError"

    def test_batch_past_numpy_limit_exits_one(self, capsys, z_file):
        # The preflight allows it, but a stratum's chain array could not be
        # allocated: a typed error before anything is drawn, not a traceback.
        code, out, err = run(
            capsys, "estimate", "--hamiltonian", z_file, "--state", "basis:1",
            "--policy", "strict", "--epsilon", "0.5", "--cost-cap", "1e60",
            "--json",
        )
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert json.loads(err)["error"]["type"] == "ValidationError"

    @pytest.mark.parametrize("policy", ["tight", "strict", "oracle-exact"])
    @pytest.mark.parametrize("epsilon", ["1e-310", "5e-324"])
    def test_subnormal_epsilon_exits_one(self, capsys, z_file, policy, epsilon):
        # 4/epsilon overflows, so the scan's interval count does not exist
        code, out, err = run(
            capsys, "estimate", "--hamiltonian", z_file, "--state", "basis:1",
            "--policy", policy, "--epsilon", epsilon, "--json",
        )
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert json.loads(err)["error"]["type"] == "ValidationError"

    @pytest.mark.parametrize("policy", ["tight", "strict"])
    @pytest.mark.parametrize("delta", ["1e-310", "5e-324"])
    def test_subnormal_delta_exits_one_when_sampled(self, capsys, z_file,
                                                    policy, delta):
        # the per-test delta/T has no finite ln(1/delta) repetition count
        code, out, err = run(
            capsys, "estimate", "--hamiltonian", z_file, "--state", "basis:1",
            "--policy", policy, "--epsilon", "0.5", "--delta", delta, "--json",
        )
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert json.loads(err)["error"]["type"] == "ValidationError"

    def test_subnormal_delta_runs_under_oracle_exact(self, capsys, z_file):
        # the exact oracle draws no samples, so it needs no repetitions
        code, doc, _ = run_json(
            capsys, "estimate", "--hamiltonian", z_file, "--state", "basis:1",
            "--policy", "oracle-exact", "--epsilon", "0.5", "--delta", "1e-310",
            "--json",
        )
        assert code == 0
        assert doc["result"]["e_star"] == -1.0

    def test_delta_whose_per_test_share_underflows_names_delta(self, capsys,
                                                               z_file):
        # 5e-324 / 4 underflows to 0: refused by the configuration, under
        # the flag's name, before any test runs
        code, out, err = run(
            capsys, "estimate", "--hamiltonian", z_file, "--state", "basis:0",
            "--delta", "5e-324", "--epsilon", "1",
        )
        assert code == 1
        assert out == ""
        assert "delta = 5e-324" in err and "delta_total" not in err

    @pytest.mark.parametrize("policy", ["tight", "strict"])
    def test_delta_without_a_repetition_count_names_delta(self, capsys, z_file,
                                                          policy):
        # 1e-310 / 4 is a nonzero share whose inverse overflows: refused
        # with the user's delta and its share, before any test runs
        code, out, err = run(
            capsys, "estimate", "--hamiltonian", z_file, "--state", "basis:0",
            "--policy", policy, "--delta", "1e-310", "--epsilon", "1",
        )
        assert code == 1
        assert out == ""
        message = json.loads(err)["error"]["message"]
        assert message.startswith("delta = 1e-310 is too small")
        assert "delta / 4 = 2.5e-311" in message

    @pytest.mark.parametrize("policy", ["tight", "strict", "oracle-exact"])
    def test_norm_bounds_whose_sum_overflows_exit_one(self, capsys, tmp_path,
                                                      policy):
        # each bound is finite, their sum kappa is not
        path = tmp_path / "big.txt"
        path.write_text("n=1\n1e308 Z\n1e308 X\n")
        code, out, err = run(
            capsys, "estimate", "--hamiltonian", str(path), "--state", "basis:0",
            "--policy", policy, "--json",
        )
        assert code == 1
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValidationError"
        assert error["message"].startswith("the norm bounds sum to inf")

    def test_out_of_memory_exits_one_with_a_json_error(
            self, capsys, pair_file, monkeypatch):
        # a batch past memory, as --cost-cap inf allows, without allocating
        # it; numpy raises a subclass with a private name
        class _ArrayMemoryError(MemoryError):
            pass

        def exhausted(self, rng, count):
            raise _ArrayMemoryError(f"cannot allocate {count} chains")

        monkeypatch.setattr(transform.ChainSampler, "sample_many", exhausted)
        code, out, err = run(
            capsys, "estimate", "--hamiltonian", pair_file, "--state", "basis:0",
            "--cost-cap", "inf", "--json",
        )
        assert code == 1
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "MemoryError"
        assert "cannot allocate" in error["message"]

    def test_infinite_cost_cap_turns_the_cap_off(self, capsys, z_file):
        code, doc, _ = run_json(
            capsys, "estimate", "--hamiltonian", z_file, "--state", "basis:1",
            "--policy", "oracle-exact", "--epsilon", "0.5", "--cost-cap=inf",
            "--json",
        )
        assert code == 0
        assert doc["config"]["cost_cap"] is None


class TestOracleCheck:
    """--oracle-check runs on the n-qubit operator at the run's epsilon and chi."""

    def test_decide_check_uses_the_runs_epsilon(self, capsys, tmp_path):
        # the gap (a, b) = (-1, 1.5) sets the run's epsilon to 1, not 0.25
        path = tmp_path / "h.txt"
        path.write_text("n=2\n0.948 XX\n0.688 IZ\n-0.014 IX\n")
        code, doc, _ = run_json(
            capsys, "decide", "--hamiltonian", str(path), "--state", "basis:2",
            "--a", "-1", "--b", "1.5", "--epsilon", "0.25", "--chi", "0.5",
            "--policy", "oracle-exact", "--oracle-check", "--json",
        )
        assert code == 0
        assert doc["result"]["estimate"]["epsilon"] == 1.0
        oracle = doc["oracle"]
        assert oracle["tolerance"] == pytest.approx(1.65)
        assert oracle["within_tolerance"] is True
        assert oracle["abs_error"] <= oracle["tolerance"]

    def test_unguided_check_promises_the_runs_chi(self, capsys, z_file):
        code, doc, _ = run_json(
            capsys, "estimate", "--hamiltonian", z_file, "--state", "maxent",
            "--policy", "oracle-exact", "--epsilon", "0.5", "--oracle-check",
            "--json",
        )
        assert code == 0
        oracle = doc["oracle"]
        assert oracle["overlap_promise"] == pytest.approx(2**-0.5)
        assert oracle["overlap"] >= oracle["overlap_promise"] - 1e-12
        assert oracle["lambda_min"] == -1.0

    def test_unguided_check_reconstructs_only_n_qubit_operators(
            self, capsys, pair_file, monkeypatch):
        dimensions = []
        reconstruct = cli.reconstruct

        def recording_reconstruct(decomp):
            dimensions.append(decomp.dimension)
            return reconstruct(decomp)

        monkeypatch.setattr(cli, "reconstruct", recording_reconstruct)
        code, doc, _ = run_json(
            capsys, "estimate", "--hamiltonian", pair_file, "--state", "maxent",
            "--policy", "oracle-exact", "--epsilon", "0.5", "--oracle-check",
            "--json",
        )
        assert code == 0
        assert doc["oracle"]["within_tolerance"] is True
        assert dimensions and set(dimensions) == {4}

    @pytest.mark.parametrize("state", ["basis:1", "maxent"])
    def test_window_at_the_tolerance_exits_one(self, capsys, z_file, state):
        code, out, err = run(
            capsys, "estimate", "--hamiltonian", z_file, "--state", state,
            "--policy", "oracle-exact", "--epsilon", "0.25", "--sigma", "0.3",
            "--oracle-check", "--json",
        )
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"]["type"] == "ValidationError"

    def test_window_is_read_only_by_the_check(self, capsys, z_file):
        code, doc, _ = run_json(
            capsys, "estimate", "--hamiltonian", z_file, "--state", "basis:1",
            "--policy", "oracle-exact", "--epsilon", "0.25", "--sigma", "5",
            "--json",
        )
        assert code == 0
        assert doc["config"]["sigma"] == 5.0

    def test_zero_hamiltonian_takes_any_window(self, capsys, tmp_path):
        path = tmp_path / "zero.txt"
        path.write_text("n=1\n0.0 Z\n")
        code, doc, _ = run_json(
            capsys, "estimate", "--hamiltonian", str(path), "--state", "basis:0",
            "--policy", "oracle-exact", "--sigma", "0.1", "--oracle-check",
            "--json",
        )
        assert code == 0
        assert doc["oracle"]["overlap"] == 1.0


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

    @pytest.mark.parametrize("flag", ["--a=nan", "--b=inf", "--a=-inf"])
    def test_non_finite_threshold_exits_one(self, capsys, z_file, flag):
        argv = {"--a": "-0.9", "--b": "0.1"}
        argv[flag[:3]] = flag[4:]
        code, out, err = run(
            capsys, "decide", "--hamiltonian", z_file, "--state", "basis:1",
            *(f"{k}={v}" for k, v in argv.items()), "--policy", "oracle-exact",
            "--json",
        )
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"]["type"] == "GapError"

    def test_default_epsilon_from_gap(self, capsys, z_file):
        # no --epsilon: the gap width picks a legal accuracy automatically
        code, doc, _ = run_json(
            capsys, "decide", "--hamiltonian", z_file, "--state", "basis:1",
            "--a", "-0.9", "--b", "0.1", "--policy", "oracle-exact", "--json",
        )
        assert code == 0


class TestOracleCommand:
    @pytest.mark.parametrize("sigma", [None, "0.5"])
    def test_maxent_reports_the_trace_overlap(self, capsys, pair_file, sigma):
        # The unguided spec is read, as by --oracle-check, as the normalized
        # trace on the file's own qubits, not as a 2n-qubit vector
        window = () if sigma is None else ("--sigma", sigma)
        code, doc, _ = run_json(capsys, "oracle", "--hamiltonian", pair_file,
                                "--state", " MaxEnt ", *window, "--json")
        assert code == 0
        op = reconstruct(build_decomposition(*load_hamiltonian(pair_file)))
        want = exact_overlap(op, None, float(sigma or 0.0))
        assert doc["result"]["overlap"] == want and 0.0 < want < 1.0
        code, check, _ = run_json(
            capsys, "estimate", "--hamiltonian", pair_file, "--state", "maxent",
            "--policy", "oracle-exact", "--epsilon", "1.0", "--sigma", "0.5",
            "--oracle-check", "--json")
        assert code == 0
        if sigma is not None:
            assert check["oracle"]["overlap"] == want

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

    def test_nan_window_exits_one(self, capsys, pair_file):
        code, out, err = run(
            capsys, "oracle", "--hamiltonian", pair_file, "--state", "basis:0",
            "--sigma", "nan", "--json",
        )
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"]["type"] == "ValidationError"

    @pytest.mark.parametrize("name, text", [("none.txt", "n=2\n"),
                                            ("none.json", '{"n": 2, "terms": []}')],
                             ids=["text", "json"])
    def test_hamiltonian_without_terms_is_zero_on_its_qubits(
            self, capsys, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        code, doc, _ = run_json(capsys, "oracle", "--hamiltonian", str(path),
                                "--spectrum", "--json")
        assert code == 0
        assert doc["result"]["lambda_min"] == 0.0
        assert doc["result"]["spectrum"] == [0.0] * 4
        for state in ("basis:0", "maxent"):
            code, doc, _ = run_json(
                capsys, "estimate", "--hamiltonian", str(path), "--state", state,
                "--oracle-check", "--json",
            )
            assert code == 0
            assert doc["oracle"]["lambda_min"] == 0.0
            assert doc["oracle"]["within_tolerance"] is True
            assert doc["oracle"]["overlap"] == pytest.approx(1.0)


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

    @pytest.mark.parametrize("flag", [
        ["--sigma", "0.1"], ["--transcript"], ["--oracle-check"],
    ], ids=["sigma", "transcript", "oracle-check"])
    def test_refuses_flags_it_does_not_read(self, capsys, flag):
        code, out, err = run(capsys, "bench", "--count", "1", *flag, "--json")
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"]["type"] == "CliUsageError"

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


@pytest.mark.parametrize("command", ["estimate", "decide", "bench"])
def test_negative_seed_exits_one(capsys, z_file, command):
    argv = {
        "estimate": ["--hamiltonian", z_file, "--state", "basis:1"],
        "decide": ["--hamiltonian", z_file, "--state", "basis:1",
                   "--a", "-0.9", "--b", "0.1"],
        "bench": ["--count", "1", "--n", "2"],
    }[command]
    code, out, err = run(capsys, command, *argv, "--seed=-1", "--json")
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert json.loads(err)["error"]["type"] == "ValidationError"


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
