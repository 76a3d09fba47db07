"""End-to-end tests for the command line interface."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from belldecomp import ENUMERATION_CAP, cli
from belldecomp.channel import NORM_WARN_TOL
from belldecomp.oracle import ORACLE_CAP

# Golden CLI outputs and the inputs of the sweep that made them.
DATA = Path(__file__).parent / "data"
CONVENTIONS = ["bob-holds-first", "bob-holds-second"]


def write_state(path, num_qubits, amps):
    path.write_text(
        json.dumps(
            {"num_qubits": num_qubits, "amps": [[z.real, z.imag] for z in amps]}
        )
    )
    return str(path)


def write_channel(path, pairs):
    path.write_text(
        json.dumps({"pairs": [[[z.real, z.imag] for z in pair] for pair in pairs]})
    )
    return str(path)


S = 1 / np.sqrt(2)
MES = [complex(S), 0j, 0j, complex(S)]
DIAG = [complex(0.8), 0j, 0j, complex(0.6)]
PRODUCT = [1 + 0j, 0j, 0j, 0j]


@pytest.fixture
def one_qubit(tmp_path):
    state = write_state(tmp_path / "s.json", 1, [0.6 + 0j, 0.8j])
    channel = write_channel(tmp_path / "c.json", [DIAG])
    return state, channel


class TestParsing:
    def test_missing_state_file(self, tmp_path, capsys):
        channel = write_channel(tmp_path / "c.json", [MES])
        code = cli.main(["teleport", "--state", str(tmp_path / "nope.json"), "--channel", channel])
        assert code == 2
        assert "cannot read state file" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = cli.main(["decompose", "--channel", str(bad), "--outcome", "1"])
        assert code == 2

    def test_wrong_amplitude_count(self, tmp_path, capsys):
        state = write_state(tmp_path / "s.json", 2, [1 + 0j, 0j])
        channel = write_channel(tmp_path / "c.json", [MES, MES])
        code = cli.main(["teleport", "--state", state, "--channel", channel])
        assert code == 2
        assert "expected 4 amplitudes" in capsys.readouterr().err

    def test_zero_state_rejected(self, tmp_path, capsys):
        state = write_state(tmp_path / "s.json", 1, [0j, 0j])
        channel = write_channel(tmp_path / "c.json", [MES])
        assert cli.main(["teleport", "--state", state, "--channel", channel]) == 2

    def test_unnormalized_inputs_warn(self, tmp_path, capsys):
        state = write_state(tmp_path / "s.json", 1, [1 + 0j, 1 + 0j])
        channel = write_channel(tmp_path / "c.json", [[1 + 0j, 0j, 0j, 1 + 0j]])
        code = cli.main(["teleport", "--state", state, "--channel", channel])
        err = capsys.readouterr().err
        assert code == 0
        assert "state" in err and "renormalized" in err
        assert "pair 1" in err

    def test_norm_within_tolerance_loads_silently(self, tmp_path, capsys):
        scale = 1 + NORM_WARN_TOL / 2
        state = write_state(tmp_path / "s.json", 1, [complex(scale), 0j])
        channel = write_channel(tmp_path / "c.json", [[z * scale for z in MES]])
        code = cli.main(["teleport", "--state", state, "--channel", channel])
        assert code == 0
        assert "renormalized" not in capsys.readouterr().err

    def test_size_mismatch(self, tmp_path, capsys):
        state = write_state(tmp_path / "s.json", 1, [1 + 0j, 0j])
        channel = write_channel(tmp_path / "c.json", [MES, MES])
        assert cli.main(["teleport", "--state", state, "--channel", channel]) == 2
        assert cli.main(["sweep", "--state", state, "--channel", channel]) == 2
        assert "input has 1 qubit(s) but channel has 2 pair(s)" in capsys.readouterr().err

    def test_boolean_amplitude_in_state_file(self, tmp_path, capsys):
        state = tmp_path / "s.json"
        state.write_text(json.dumps({"num_qubits": 1, "amps": [[True, False], [0.0, 0.0]]}))
        channel = write_channel(tmp_path / "c.json", [MES])
        code = cli.main(["teleport", "--state", str(state), "--channel", channel])
        assert code == 2
        assert "expected [re, im]" in capsys.readouterr().err

    def test_boolean_amplitude_in_channel_file(self, tmp_path, capsys):
        channel = tmp_path / "c.json"
        channel.write_text(
            json.dumps({"pairs": [[[True, False], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]})
        )
        code = cli.main(["decompose", "--channel", str(channel), "--outcome", "1"])
        assert code == 2
        assert "expected [re, im]" in capsys.readouterr().err

    def test_boolean_qubit_count(self, tmp_path, capsys):
        state = tmp_path / "s.json"
        state.write_text(json.dumps({"num_qubits": True, "amps": [[1.0, 0.0], [0.0, 0.0]]}))
        channel = write_channel(tmp_path / "c.json", [MES])
        assert cli.main(["teleport", "--state", str(state), "--channel", channel]) == 2
        assert "num_qubits must be a positive integer" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self, capsys):
        assert cli.main(["frobnicate"]) == 2

    def test_bad_outcome_digits(self, tmp_path, capsys):
        channel = write_channel(tmp_path / "c.json", [MES])
        assert cli.main(["decompose", "--channel", channel, "--outcome", "5"]) == 2
        assert cli.main(["decompose", "--channel", channel, "--outcome", "12"]) == 2
        assert cli.main(["decompose", "--channel", channel, "--outcome", "\u00b2"]) == 2
        assert "outcome must be digits 1-4, got '\u00b2'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["teleport", "--tol-eq", "1e-8"],
            ["decompose", "--tol-eq", "1e-8"],
            ["sweep", "--tol-eq", "1e-8"],
            ["sweep", "--tol-inv", "1e-8"],
        ],
    )
    def test_tolerance_flags_only_where_read(self, argv, capsys):
        """--tol-eq belongs to verify alone, and sweep runs no recovery to need --tol-inv."""
        state, channel = map(str, (cli.DEFAULT_STATE_FIXTURE, cli.DEFAULT_CHANNEL_FIXTURE))
        files = {
            "teleport": ["--state", state, "--channel", channel],
            "decompose": ["--channel", channel, "--outcome", "111"],
            "sweep": ["--state", state, "--channel", channel],
        }
        assert cli.main(argv + files[argv[0]]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "argv, message",
        [
            (["teleport", "--seed", "-1"], "error: seed must be a non-negative integer, got -1"),
            (["teleport", "--seed", "1.5"], "argument --seed: invalid int value: '1.5'"),
            (
                ["verify", "--seed", "-5", "--random-instances", "1"],
                "error: seed must be a non-negative integer, got -5",
            ),
            (["verify", "--seed", "-5"], "error: seed must be a non-negative integer, got -5"),
        ],
    )
    def test_bad_seed_fails_before_any_output(self, argv, message, capsys):
        state, channel = map(str, (cli.DEFAULT_STATE_FIXTURE, cli.DEFAULT_CHANNEL_FIXTURE))
        assert cli.main(argv + ["--state", state, "--channel", channel]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("value", ["-1", "nan", "inf", "-1e-300"])
    @pytest.mark.parametrize(
        "command, flag",
        [
            ("decompose", "--tol-inv"),
            ("teleport", "--tol-inv"),
            ("verify", "--tol-inv"),
            ("verify", "--tol-eq"),
        ],
    )
    def test_bad_tolerance_fails_before_any_output(self, command, flag, value, tmp_path, capsys):
        """Accepted, --tol-inv -1 printed NaN inverse blocks for a product pair, --tol-inv
        nan skipped the recovery check and passed, and a bad --tol-eq exited 1."""
        state = str(cli.DEFAULT_STATE_FIXTURE)
        channel = write_channel(tmp_path / "c.json", [MES, PRODUCT, MES])
        files = {
            "decompose": ["--channel", channel, "--outcome", "111"],
            "teleport": ["--state", state, "--channel", channel],
            "verify": ["--state", state, "--channel", channel],
        }
        assert cli.main([command, f"{flag}={value}"] + files[command]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {flag} must be a finite number >= 0, got " in captured.err

    def test_negative_random_instance_count_fails_before_any_output(self, capsys):
        assert cli.main(["verify", "--random-instances", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: --random-instances must be >= 0, got -3" in captured.err


class TestLoadChannel:
    """Pairs are renormalized on load, with a warning when the norm was off 1."""

    def test_unit_pair_loads_unchanged(self, tmp_path, capsys):
        rng = np.random.default_rng(23)
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        y /= np.linalg.norm(y)
        channel = cli.load_channel(Path(write_channel(tmp_path / "c.json", [list(y)])))
        np.testing.assert_allclose(channel.pairs[0].y, y, rtol=0, atol=1e-15)
        assert capsys.readouterr().err == ""

    def test_scaled_pair_loads_at_unit_norm_and_warns(self, tmp_path, capsys):
        rng = np.random.default_rng(24)
        pairs = [3.0 * (rng.standard_normal(4) + 1j * rng.standard_normal(4)) for _ in range(5)]
        channel = cli.load_channel(Path(write_channel(tmp_path / "c.json", pairs)))
        for p in channel.pairs:
            assert p.squared_norm() == pytest.approx(1.0, abs=1e-12)
        err = capsys.readouterr().err
        assert [f"channel pair {i} " in err for i in range(1, 6)] == [True] * 5
        assert err.count("renormalized") == 5

    def test_mes_without_prefactor_warns(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        channel = cli.load_channel(Path(write_channel(path, [[1 + 0j, 0j, 0j, 1 + 0j]])))
        np.testing.assert_allclose(channel.pairs[0].y, MES, rtol=0, atol=1e-15)
        assert capsys.readouterr().err == f"warning: channel pair 1 in {path} renormalized\n"

    def test_zero_pair_exits_2(self, tmp_path, capsys):
        channel = write_channel(tmp_path / "c.json", [MES, [0j, 0j, 0j, 0j]])
        assert cli.main(["decompose", "--channel", channel, "--outcome", "11"]) == 2
        assert "pair 2 must not be the zero vector" in capsys.readouterr().err


class TestDecompose:
    def test_prints_blocks_and_inverse(self, tmp_path, capsys):
        channel = write_channel(tmp_path / "c.json", [DIAG])
        code = cli.main(["decompose", "--channel", channel, "--outcome", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "block for pair 1, result 3" in out
        assert "inverse decomposition matrix" in out
        assert "full block table" in out

    def test_outcome_accepts_commas(self, tmp_path, capsys):
        channel = write_channel(tmp_path / "c.json", [MES, MES, MES])
        code = cli.main(["decompose", "--channel", channel, "--outcome", "2,3,4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "outcome 234" in out

    def test_above_the_enumeration_cap_is_a_usage_error(self, tmp_path, capsys):
        """Refused before the 2^N x 2^N matrices, 4 MB each at 9 pairs, are printed."""
        n = ENUMERATION_CAP + 1
        channel = write_channel(tmp_path / "c.json", [MES] * n)
        assert cli.main(["decompose", "--channel", channel, "--outcome", "1" * n]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"cap is {ENUMERATION_CAP} pairs" in captured.err

    def test_non_invertible_pair_is_reported_not_fatal(self, tmp_path, capsys):
        channel = write_channel(tmp_path / "c.json", [PRODUCT])
        code = cli.main(["decompose", "--channel", channel, "--outcome", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "inverse: not available" in out


class TestTeleport:
    def test_round_trip(self, one_qubit, capsys):
        state, channel = one_qubit
        code = cli.main(["teleport", "--state", state, "--channel", channel, "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fidelity to input: 1.0000000000" in out

    def test_deterministic_for_seed(self, one_qubit, capsys):
        state, channel = one_qubit
        cli.main(["teleport", "--state", state, "--channel", channel, "--seed", "9"])
        first = capsys.readouterr().out
        cli.main(["teleport", "--state", state, "--channel", channel, "--seed", "9"])
        second = capsys.readouterr().out
        assert first == second

    def test_product_pair_fails_criterion(self, tmp_path, capsys):
        state = write_state(tmp_path / "s.json", 1, [0.6 + 0j, 0.8j])
        channel = write_channel(tmp_path / "c.json", [PRODUCT])
        code = cli.main(["teleport", "--state", state, "--channel", channel])
        out = capsys.readouterr().out
        assert code == 3
        assert "criterion: FAILURE (pair(s) 1 not invertible)" in out


class TestVerify:
    def test_bundled_fixture_passes(self, capsys):
        code = cli.main(["verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert "result: PASS" in out
        assert "check oracle-equivalence: PASS" in out
        assert "check recovery-fidelity: PASS" in out

    def test_impossible_tolerance_fails(self, capsys):
        code = cli.main(["verify", "--tol-eq", "0"])
        out = capsys.readouterr().out
        assert code == 1
        assert "result: FAIL" in out

    def test_non_invertible_channel_skips_recovery(self, tmp_path, capsys):
        state = write_state(tmp_path / "s.json", 1, [0.6 + 0j, 0.8j])
        channel = write_channel(tmp_path / "c.json", [PRODUCT])
        code = cli.main(["verify", "--state", state, "--channel", channel])
        out = capsys.readouterr().out
        assert code == 0
        assert "check recovery-fidelity: SKIP" in out

    def test_above_the_oracle_cap_is_a_usage_error(self, tmp_path, capsys):
        """Refused before the 2^(3N)-amplitude joint state, 2 GB at N = 9, is allocated."""
        n = ORACLE_CAP + 1
        state = write_state(tmp_path / "s.json", n, [1 + 0j] + [0j] * ((1 << n) - 1))
        channel = write_channel(tmp_path / "c.json", [MES] * n)
        tracemalloc.start()
        try:
            assert cli.main(["verify", "--state", state, "--channel", channel]) == 2
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 8**n / 1000
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"supports at most {ORACLE_CAP} qubit(s)" in captured.err

    def test_random_instances_and_output_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.txt"
        code = cli.main(["verify", "--random-instances", "2", "--seed", "11", "--output", str(out_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "[random 2/2, seed 12]" in out
        assert out_file.read_text() == out


class TestSweep:
    def test_csv_schema(self, one_qubit, capsys):
        state, channel = one_qubit
        code = cli.main(["sweep", "--state", state, "--channel", channel, "--theta-steps", "5"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[0] == "theta,outcome,probability,abs_det_min,min_singular_value"
        assert len(lines) == 1 + 5 * 4
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[1] == "1"
        total = sum(float(line.split(",")[2]) for line in lines[1:5])
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_identical_runs_are_byte_identical(self, one_qubit, tmp_path):
        state, channel = one_qubit
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--state", state, "--channel", channel, "--theta-steps", "7"]
        assert cli.main(args + ["--output", str(a)]) == 0
        assert cli.main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_pair_index_validated(self, one_qubit, capsys):
        state, channel = one_qubit
        assert cli.main(["sweep", "--state", state, "--channel", channel, "--pair", "2"]) == 2

    def test_output_dir_env_var(self, one_qubit, tmp_path, monkeypatch):
        state, channel = one_qubit
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "out"))
        code = cli.main(
            ["sweep", "--state", state, "--channel", channel, "--output", "grid.csv"]
        )
        assert code == 0
        assert (tmp_path / "out" / "grid.csv").exists()

    def test_multi_pair_sweep_varies_chosen_pair(self, tmp_path, capsys):
        rng = np.random.default_rng(90)
        amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        amps /= np.linalg.norm(amps)
        state = write_state(tmp_path / "s.json", 2, list(amps))
        channel = write_channel(tmp_path / "c.json", [MES, MES])
        code = cli.main(
            ["sweep", "--state", state, "--channel", channel, "--pair", "2",
             "--theta-steps", "3"]
        )
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert len(lines) == 1 + 3 * 16
        # theta = 0 makes pair 2 a product pair: min |det| over pairs is 0
        assert float(lines[1].split(",")[3]) == 0.0


class TestGoldenOutput:
    """stdout byte for byte against outputs captured from the CLI: ``verify`` and
    ``sweep`` at commit 4118d51, ``decompose`` and ``teleport`` at commit 7d56fdb.

    The bundled fixture's directory is written as ``{fixtures}`` in the
    captured ``verify`` reports.  Byte equality covers signed zeros.  Regenerate a file only for an intended
    change of output, and say so in CHANGES.md.
    """

    @pytest.mark.parametrize("conv", CONVENTIONS)
    def test_verify_on_the_bundled_fixture(self, conv, capsys):
        assert cli.main(["verify", "--convention", conv, "--random-instances", "2"]) == 0
        out = capsys.readouterr().out
        out = out.replace(str(cli.DEFAULT_STATE_FIXTURE.parent), "{fixtures}")
        assert out.encode() == (DATA / f"verify_{conv}.txt").read_bytes()

    @pytest.mark.parametrize("conv", CONVENTIONS)
    def test_sweep_of_a_seeded_two_qubit_instance(self, conv, capsys):
        argv = ["sweep", "--convention", conv, "--pair", "2",
                "--state", str(DATA / "sweep2_state.json"),
                "--channel", str(DATA / "sweep2_channel.json")]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.encode() == (DATA / f"sweep_{conv}.csv").read_bytes()

    @pytest.mark.parametrize("conv", CONVENTIONS)
    @pytest.mark.parametrize("variant", ["", "product_"])
    def test_decompose_of_a_seeded_three_pair_channel(self, conv, variant, capsys):
        """Outcome 234 on a random channel, and on it with pair 2 made the product pair
        (1, 0, 0, 0), whose inverse is not available."""
        channel = DATA / f"decompose3_{variant}channel.json"
        argv = ["decompose", "--convention", conv, "--outcome", "234", "--channel", str(channel)]
        assert cli.main(argv) == 0
        golden = DATA / f"decompose_{variant}{conv}.txt"
        assert capsys.readouterr().out.encode() == golden.read_bytes()

    @pytest.mark.parametrize("conv", CONVENTIONS)
    def test_teleport_of_a_seeded_three_qubit_instance(self, conv, capsys):
        """Seeds 0, 1 and 2, one after another."""
        for seed in range(3):
            argv = ["teleport", "--convention", conv, "--seed", str(seed),
                    "--state", str(DATA / "teleport3_state.json"),
                    "--channel", str(DATA / "teleport3_channel.json")]
            assert cli.main(argv) == 0
        golden = DATA / f"teleport_{conv}.txt"
        assert capsys.readouterr().out.encode() == golden.read_bytes()


class TestClosedPipe:
    def test_reader_closing_early_exits_quietly(self, tmp_path):
        """`belldecomp sweep ... | head -1`: exit 0, nothing on stderr."""
        rng = np.random.default_rng(91)
        amps = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        state = write_state(tmp_path / "s.json", 5, list(amps / np.linalg.norm(amps)))
        channel = write_channel(tmp_path / "c.json", [MES] * 5)
        src = str(Path(cli.__file__).resolve().parents[1])
        path = [src, os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        # 9 * 4^5 rows, far more than the pipe holds, so writes continue after the close
        proc = subprocess.Popen(
            [sys.executable, "-m", "belldecomp.cli", "sweep", "--state", state,
             "--channel", channel],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert first == b"theta,outcome,probability,abs_det_min,min_singular_value\n"
        assert err == b""
