"""End-to-end tests for the command line interface."""

import ast
import contextlib
import gc
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belldecomp import ENUMERATION_CAP, cli
from belldecomp.channel import NORM_WARN_TOL, pair_determinant
from belldecomp.oracle import ORACLE_CAP

# Golden CLI outputs and the inputs of the sweep that made them.
DATA = Path(__file__).parent / "data"
CONVENTIONS = ["bob-holds-first", "bob-holds-second"]


def cli_process(argv, **popen_kwargs):
    """``python -m belldecomp.cli`` on ``argv`` in a fresh interpreter, on the package under test."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.Popen(
        [sys.executable, "-m", "belldecomp.cli", *argv], env=env, **popen_kwargs
    )


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

    @pytest.mark.parametrize(
        "kind, content, message",
        [
            ("state", b'{"num_qubits": 1, "amps": [[1%s, 0], [0, 0]]}' % (b"0" * 400),
             "state: [100000000000000000...0000000000000000000, 0] is past the float range"),
            ("channel", b'{"pairs": [[[0, 0], [1%s, 0], [0, 0], [1, 0]]]}' % (b"0" * 400),
             "pair 1: [100000000000000000...0000000000000000000, 0] is past the float range"),
            ("state", b"[" * 2000 + b"]" * 2000, "maximum recursion depth exceeded"),
            ("channel", b'{"pairs": [[[1%s, 0]]]}' % (b"0" * 5000), "Exceeds the limit"),
            ("state", b'{"num_qubits": 1, "amps": [[1, 0], [0, 0]], "\xff": 0}', "utf-8"),
        ],
        ids=["400-digit-amplitude", "400-digit-coefficient", "2000-deep", "5000-digit",
             "not-utf-8"],
    )
    def test_unreadable_values_exit_2_naming_the_file(
        self, kind, content, message, tmp_path, capsys
    ):
        """The 400-digit numbers raised OverflowError and the 2000-deep file RecursionError,
        each a traceback and exit 1; the 5000-digit and non-UTF-8 files exited 2
        without naming the file."""
        files = dict(state=str(cli.DEFAULT_STATE_FIXTURE), channel=str(cli.DEFAULT_CHANNEL_FIXTURE))
        files[kind] = str(tmp_path / f"{kind}.json")
        Path(files[kind]).write_bytes(content)
        assert cli.main(["teleport", "--state", files["state"], "--channel", files["channel"]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ") and files[kind] in line and message in line

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

    @pytest.mark.parametrize(
        "kind, text, message",
        [
            ("state", "[1, 2]", "expected an object with num_qubits and amps"),
            ("state", '{"num_qubits": 1, "amps": "ab"}', "state: expected a list of [re, im]"),
            (
                "state",
                '{"num_qubits": 1, "amps": [[NaN, 0], [0, 0]]}',
                "state: amplitudes must be finite",
            ),
            ("channel", '"pairs"', "expected an object with pairs"),
            ("channel", "{}", "expected an object with pairs"),
            ("channel", '{"pairs": {}}', "pairs must be a list, got dict"),
            ("channel", '{"pairs": []}', "a channel needs at least one pair"),
            ("channel", '{"pairs": [{}]}', "pair 1: expected a list of [re, im], got dict"),
            (
                "channel",
                '{"pairs": [[[Infinity, 0], [0, 0], [0, 0], [1, 0]]]}',
                "pair 1: pair coefficients must be finite",
            ),
        ],
        ids=["state-not-object", "amps-not-list", "nan-amplitude", "channel-not-object",
             "pairs-missing", "pairs-not-list", "pairs-empty", "pair-not-list",
             "infinite-coefficient"],
    )
    def test_malformed_file_fails_before_any_output(self, kind, text, message, tmp_path, capsys):
        """json loads NaN and Infinity; the library refuses them as it refuses every value."""
        files = dict(state=str(cli.DEFAULT_STATE_FIXTURE), channel=str(cli.DEFAULT_CHANNEL_FIXTURE))
        files[kind] = str(tmp_path / f"{kind}.json")
        Path(files[kind]).write_text(text)
        assert cli.main(["teleport", "--state", files["state"], "--channel", files["channel"]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {files[kind]}: {message}")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("scale", [1e308, 1e-320])
    @pytest.mark.parametrize("command", ["decompose", "teleport"])
    def test_extreme_magnitudes_print_what_their_unit_form_prints(
        self, command, scale, tmp_path, capsys
    ):
        """At 1e308 the plain norm overflowed: numpy warned, the pair became zero and
        decompose printed its header before exit 2.  At 1e-320 it underflowed to 0 and
        the input was called the zero vector."""

        def run(s, name):
            state = write_state(tmp_path / f"s{name}.json", 1, [complex(s), complex(s)])
            channel = write_channel(tmp_path / f"c{name}.json", [[complex(s), 0j, 0j, complex(s)]])
            files = {
                "decompose": ["--channel", channel, "--outcome", "3"],
                "teleport": ["--state", state, "--channel", channel],
            }
            assert cli.main([command, *files[command]]) == 0
            return capsys.readouterr()

        unit = run(1.0, "unit")
        scaled = run(scale, "scaled")
        assert scaled.out == unit.out
        warnings = [f"warning: channel pair 1 in {tmp_path / 'cscaled.json'} renormalized"]
        if command == "teleport":
            norm = f"{scale * math.sqrt(2):.6g}"
            warnings.insert(0, f"warning: state in {tmp_path / 'sscaled.json'} renormalized "
                               f"(norm was {norm})")
        assert scaled.err.splitlines() == warnings

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

    @pytest.mark.parametrize("scale", [1e308, 1.7e308, 1e-320, 5e-324])
    def test_extreme_pairs_load_at_unit_norm(self, scale, tmp_path, capsys):
        """At 1.7e308 even the true norm, 3.4e308, is past the float range."""
        path = tmp_path / "c.json"
        channel = cli.load_channel(Path(write_channel(path, [[complex(scale)] * 4])))
        assert np.array_equal(channel.pairs[0].y, np.full(4, 0.5))
        assert capsys.readouterr().err == f"warning: channel pair 1 in {path} renormalized\n"

    def test_normal_range_inputs_are_divided_by_their_plain_norm(self, tmp_path, capsys):
        """Bit for bit what amps / np.linalg.norm(amps) gives, from 1e-150 to 1e150."""
        rng = np.random.default_rng(25)
        scales = 10.0 ** rng.uniform(-150, 150, size=64)
        ys = [s * (rng.standard_normal(4) + 1j * rng.standard_normal(4)) for s in scales]
        channel = cli.load_channel(Path(write_channel(tmp_path / "c.json", ys)))
        for pair, y in zip(channel.pairs, ys):
            assert pair.y.tobytes() == (y / np.linalg.norm(y)).tobytes()
        amps = scales[0] * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
        state = cli.load_state(Path(write_state(tmp_path / "s.json", 3, amps)))
        assert state.amps.tobytes() == (amps / np.linalg.norm(amps)).tobytes()

    def test_pair_with_subnormal_squares_loads_at_unit_norm(self, tmp_path, capsys):
        """Its plain norm came out 1e-5 too large, so the loaded pair was refused as
        not unit norm ("must have unit norm, got 1.00001") and decompose exited 2."""
        path = tmp_path / "c.json"
        channel = write_channel(path, [[complex(1e-160), 0j, 0j, complex(1e-160)]])
        pair = cli.load_channel(Path(channel)).pairs[0]
        assert pair.squared_norm() == pytest.approx(1, abs=1e-15)
        capsys.readouterr()
        assert cli.main(["decompose", "--channel", channel, "--outcome", "1"]) == 0
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

    def test_above_the_enumeration_cap_is_a_usage_error(self, tmp_path, capsys):
        """Refused before the criterion lines are printed, as decompose does."""
        n = ENUMERATION_CAP + 1
        state = write_state(tmp_path / "s.json", n, [1 + 0j] + [0j] * ((1 << n) - 1))
        channel = write_channel(tmp_path / "c.json", [MES] * n)
        assert cli.main(["teleport", "--state", state, "--channel", channel]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"refusing to sample {n}-qubit outcomes" in captured.err

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

    @pytest.mark.parametrize(
        "pairs, tol_at_det, skipped",
        [([PRODUCT], False, "1"), ([MES, PRODUCT, PRODUCT], False, "2, 3"), ([DIAG], True, "1")],
        ids=["product", "two-products", "tol-inv-at-det"],
    )
    def test_skip_line_names_the_non_invertible_pairs(
        self, tmp_path, capsys, pairs, tol_at_det, skipped
    ):
        n = len(pairs)
        state = write_state(tmp_path / "s.json", n, [complex(2 ** (-n / 2))] * (1 << n))
        channel = write_channel(tmp_path / "c.json", pairs)
        args = ["verify", "--state", state, "--channel", channel]
        if tol_at_det:
            # Invertible means |det| > tol: at equality the outcome table must
            # fail the pair and the SKIP line name it.
            det = abs(pair_determinant(cli.load_channel(Path(channel)).pairs[0]))
            args += ["--tol-inv", repr(det)]
        code = cli.main(args)
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert f"check recovery-fidelity: SKIP (pair(s) {skipped} not invertible)" in lines
        assert lines[-1] == "result: PASS"

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


# With --tol-inv=0 these pairs pass the invertibility test.  Two TINY pairs have
# finite inverses whose tensor product leaves the float range; SUBNORMAL's own
# inverse does, its determinant being subnormal.
TINY = [1e-160 + 0j, 0j, 0j, 1 + 0j]
SUBNORMAL = [1 + 0j, 0j, 0j, 1e-309 + 0j]

RECOVERY_WITHOUT_FLOAT_VALUE = (
    "check recovery-fidelity: FAIL "
    "(recovery has no float value for an outcome of positive probability)"
)


class TestInversesPastTheFloatRange:
    """Each ran into numpy's overflow warnings and printed inf or NaN figures."""

    @staticmethod
    def run(capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(argv)
        captured = capsys.readouterr()
        assert [str(w.message) for w in caught] == []
        return code, captured.out, captured.err

    @pytest.fixture
    def tiny(self, tmp_path):
        state = write_state(tmp_path / "s.json", 2, [0.5 + 0j] * 4)
        return state, write_channel(tmp_path / "c.json", [TINY, TINY])

    @pytest.fixture
    def subnormal(self, tmp_path):
        state = write_state(tmp_path / "s.json", 1, [0.6 + 0j, 0.8j])
        return state, write_channel(tmp_path / "c.json", [SUBNORMAL])

    def test_verify_fails_recovery_naming_the_overflow(self, capsys, tiny):
        state, channel = tiny
        code, out, _ = self.run(capsys, ["verify", "--state", state, "--channel", channel, "--tol-inv=0"])
        lines = out.splitlines()
        assert code == 1 and lines[-1] == "result: FAIL"
        assert RECOVERY_WITHOUT_FLOAT_VALUE in lines
        assert sum(line.startswith("check ") and ": PASS (" in line for line in lines) == 3

    @pytest.mark.parametrize("convention", ["bob-holds-first", "bob-holds-second"])
    def test_verify_fails_a_recovery_that_rounds_away(self, capsys, tmp_path, convention):
        """Two pairs of |det| 2^-440 (3.5e-133): W is finite, its largest entry 8.1e264,
        but the recovered rows have no float value.  verify printed
        ``min fidelity = nan``."""
        y = np.array([1, 2.0**-200, 2.0**-200, 2.0**-400 + 2.0**-440], dtype=complex)
        state = write_state(tmp_path / "s.json", 2, [0.5 + 0j] * 4)
        channel = write_channel(tmp_path / "c.json", [y / np.linalg.norm(y)] * 2)
        argv = ["verify", "--state", state, "--channel", channel, "--tol-inv=0", "--convention", convention]
        code, out, _ = self.run(capsys, argv)
        assert code == 1 and "nan" not in out
        assert RECOVERY_WITHOUT_FLOAT_VALUE in out.splitlines()

    def test_decompose_reports_no_inverse(self, capsys, tiny):
        _, channel = tiny
        argv = ["decompose", "--channel", channel, "--outcome", "11", "--tol-inv=0"]
        code, out, _ = self.run(capsys, argv)
        assert code == 0 and "inf" not in out
        assert "inverse: not available (the tensor product of the pair inverses leaves the float range)" in out

    def test_teleport_still_recovers(self, capsys, tiny):
        state, channel = tiny
        argv = ["teleport", "--state", state, "--channel", channel, "--tol-inv=0"]
        code, out, _ = self.run(capsys, argv)
        assert code == 0
        assert float(out.splitlines()[-1].removeprefix("fidelity to input: ")) >= 1.0 - 1e-9

    @pytest.mark.parametrize("command", ["verify", "teleport"])
    def test_a_pair_inverse_past_the_float_range_is_not_invertible(self, capsys, subnormal, command):
        state, channel = subnormal
        argv = [command, "--state", state, "--channel", channel, "--tol-inv=0"]
        code, _, err = self.run(capsys, argv)
        assert code == 3
        assert err.startswith("error: pair 1: the inverse of a pair of determinant magnitude 1.000e-309 ")
        assert "leaves the float range" in err

    def test_decompose_reports_the_pair_inverse(self, capsys, subnormal):
        _, channel = subnormal
        argv = ["decompose", "--channel", channel, "--outcome", "1", "--tol-inv=0"]
        code, out, _ = self.run(capsys, argv)
        assert code == 0 and "inf" not in out
        assert "inverse: not available (the inverse of a pair of determinant magnitude" in out


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

    def test_memory_holds_one_grid_point(self, tmp_path):
        """Each grid point is written as it is computed: 40 points of 4^5 rows
        once took 15.8 MB, and one point's outcome table is 0.5 MB."""
        n = 5
        state = write_state(tmp_path / "s.json", n, [2 ** (-n / 2) + 0j] * (1 << n))
        channel = write_channel(tmp_path / "c.json", [DIAG] * n)
        out = tmp_path / "grid.csv"
        argv = ["sweep", "--state", state, "--channel", channel, "--theta-steps", "40",
                "--output", str(out)]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000
        assert len(out.read_text().splitlines()) == 1 + 40 * 4**n

    @pytest.mark.parametrize(
        "state_qubits, pairs, extra",
        [
            (ENUMERATION_CAP + 1, ENUMERATION_CAP + 1, []),
            (3, ENUMERATION_CAP + 1, []),
            (1, 1, ["--theta-stop", "inf"]),
            (1, 1, ["--theta-steps", "0"]),
            # 711 PiB of thetas, more than any 64-bit address space: every
            # allocator refuses it at once, and that is exit 2, not a traceback.
            (3, 3, ["--theta-steps", str(10**17)]),
        ],
        ids=["above-the-cap", "size-mismatch", "infinite-theta", "no-grid-points",
             "too-large-for-memory"],
    )
    def test_refusal_writes_nothing(self, tmp_path, capsys, state_qubits, pairs, extra):
        """Refused input exits 2 with one error line, before stdout or --output is written."""
        amps = [2 ** (-state_qubits / 2) + 0j] * (1 << state_qubits)
        state = write_state(tmp_path / "s.json", state_qubits, amps)
        channel = write_channel(tmp_path / "c.json", [DIAG] * pairs)
        out = tmp_path / "grid.csv"
        for output in ([], ["--output", str(out)]):
            argv = ["sweep", "--state", state, "--channel", channel, *extra, *output]
            assert cli.main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert len(captured.err.splitlines()) == 1
            assert captured.err.startswith("error: ")
        assert not out.exists()


class TestUnwritableOutput:
    """An --output that cannot be written ends in one error line and exit 2.  These
    raised FileExistsError, IsADirectoryError or ENOSPC out of ``main``: a traceback
    and exit 1."""

    @pytest.mark.parametrize("under_env", [False, True], ids=["absolute", "output-dir-env"])
    @pytest.mark.parametrize(
        "target", ["afile/x.out", "adir"], ids=["parent-is-a-file", "output-is-a-directory"]
    )
    @pytest.mark.parametrize("command", ["verify", "sweep"])
    def test_exits_2_with_one_error_line(
        self, command, target, under_env, one_qubit, tmp_path, monkeypatch, capsys
    ):
        state, channel = one_qubit
        base = tmp_path / "base"
        (base / "adir").mkdir(parents=True)
        (base / "afile").write_text("kept")
        if under_env:
            monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(base))
            output = target
        else:
            output = str(base / target)
        argv = [command, "--state", state, "--channel", channel, "--output", output]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write output {base / target}: ")
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err
        # verify prints its report before it opens --output; sweep writes only to it.
        if command == "verify":
            assert captured.out.splitlines()[-1] == "result: PASS"
        else:
            assert captured.out == ""
        assert (base / "afile").read_text() == "kept"
        assert list((base / "adir").iterdir()) == []

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    @pytest.mark.parametrize("command", ["verify", "sweep"])
    def test_a_failed_write_exits_2(self, command, one_qubit, capsys):
        """/dev/full opens, and refuses every write with ENOSPC."""
        state, channel = one_qubit
        argv = [command, "--state", state, "--channel", channel, "--output", "/dev/full"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output /dev/full: ")
        assert len(err.splitlines()) == 1


class TestProcessEntry:
    """``python -m belldecomp.cli`` and the ``belldecomp`` script run ``cli._run``,
    which freezes the import-time heap; ``main`` leaves the collector alone."""

    @pytest.mark.parametrize("conv", CONVENTIONS)
    def test_verify_in_a_fresh_process_prints_the_golden(self, conv):
        proc = cli_process(
            ["verify", "--convention", conv, "--random-instances", "2"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        out, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (0, b"")
        fixtures = str(cli.DEFAULT_STATE_FIXTURE.resolve().parent).encode()
        assert out.replace(fixtures, b"{fixtures}") == (DATA / f"verify_{conv}.txt").read_bytes()

    @pytest.mark.parametrize("conv", CONVENTIONS)
    @pytest.mark.parametrize("variant", ["", "product_"])
    def test_decompose_in_a_fresh_process_prints_the_golden(self, conv, variant):
        channel = DATA / f"decompose3_{variant}channel.json"
        proc = cli_process(
            ["decompose", "--convention", conv, "--outcome", "234", "--channel", str(channel)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        out, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (0, b"")
        assert out == (DATA / f"decompose_{variant}{conv}.txt").read_bytes()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_leaves_the_collector_as_it_was(self, enabled, capsys):
        was_enabled = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            frozen = gc.get_freeze_count()
            assert cli.main(["verify"]) == 0
            assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
        finally:
            gc.enable() if was_enabled else gc.disable()

    def test_run_freezes_the_heap_then_exits_with_mains_code(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "main", lambda: seen.append(gc.get_freeze_count()) or 3)
        try:
            with pytest.raises(SystemExit) as exc:
                cli._run()
        finally:
            gc.unfreeze()
        assert exc.value.code == 3
        assert seen[0] > 0

    def test_console_script_is_the_main_block_entry(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
        module, name = pyproject["project"]["scripts"]["belldecomp"].split(":")
        assert module == cli.__name__
        tree = ast.parse(Path(cli.__file__).read_text())
        [block] = [
            node for node in tree.body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        ]
        assert [ast.unparse(stmt) for stmt in block.body] == [f"{name}()"]
        assert callable(getattr(cli, name))


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
    @pytest.mark.parametrize(
        "output",
        [
            [],
            pytest.param(
                ["--output", "/dev/stdout"],
                marks=pytest.mark.skipif(
                    not Path("/dev/stdout").exists(), reason="needs /dev/stdout"
                ),
            ),
        ],
        ids=["stdout", "output-dev-stdout"],
    )
    def test_reader_closing_early_exits_quietly(self, output, tmp_path):
        """`belldecomp sweep ... | head -1`: exit 0, nothing on stderr, also when
        the pipe is the --output file."""
        rng = np.random.default_rng(91)
        amps = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        state = write_state(tmp_path / "s.json", 5, list(amps / np.linalg.norm(amps)))
        channel = write_channel(tmp_path / "c.json", [MES] * 5)
        # 9 * 4^5 rows, far more than the pipe holds, so writes continue after the close
        proc = cli_process(
            ["sweep", "--state", state, "--channel", channel, *output],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert first == b"theta,outcome,probability,abs_det_min,min_singular_value\n"
        assert err == b""


# Numbers json can hold: every float (NaN and the infinities included), small
# integers, bools, and integers past the float range.
_NUMBERS = st.one_of(
    st.floats(),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=10**308, max_value=10**420),
    st.booleans(),
)
_JSON = st.recursive(
    st.none() | _NUMBERS | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["num_qubits", "amps", "pairs"]) | st.text(max_size=2), inner, max_size=3
    ),
    max_leaves=12,
)


def _vectors(size: int, clean: bool):
    """``size`` [re, im] lists of finite floats of any magnitude, or anything near that."""
    if clean:
        part = st.floats(allow_nan=False, allow_infinity=False)
        return st.lists(st.lists(part, min_size=2, max_size=2), min_size=size, max_size=size)
    entry = st.lists(_NUMBERS, min_size=2, max_size=2) | _JSON
    return st.lists(entry, min_size=1, max_size=size + 1) | _JSON


def _files(n: int, kind: str):
    """The bytes of an n-qubit state or n-pair channel file: well formed half the time."""

    def doc(clean):
        if kind == "state":
            qubits = st.just(n) if clean else st.just(n) | _JSON
            return st.fixed_dictionaries({"num_qubits": qubits, "amps": _vectors(1 << n, clean)})
        pairs = st.lists(_vectors(4, clean), min_size=n, max_size=n)
        return st.fixed_dictionaries({"pairs": pairs if clean else pairs | _JSON})

    def deep(prefix, suffix):
        depths = st.integers(min_value=1000, max_value=3000)
        return depths.map(lambda d: prefix + "[" * d + "]" * d + suffix)

    malformed = st.one_of(
        doc(False).map(json.dumps),
        _JSON.map(json.dumps),
        deep("", ""),
        deep('{"num_qubits": 1, "amps": ', "}"),
        deep('{"num_qubits": ', ', "amps": [[1, 0], [0, 0]]}'),
        deep('{"pairs": ', "}"),
    ).map(str.encode)
    well_formed = doc(True).map(lambda d: json.dumps(d).encode())
    malformed |= st.binary(max_size=8)
    return st.booleans().flatmap(lambda ok: well_formed if ok else malformed)


_TOLERANCES = st.sampled_from(["0", "1e-9", "0.5", "-1", "nan", "inf", "1e308"])
_THETAS = st.sampled_from(["0", "1.5", "-1e300", "1e308", "inf", "-inf", "nan"])


@st.composite
def _argv(draw, n: int, tmp: Path, state: str, channel: str) -> list[str]:
    """One subcommand and a draw of its options."""

    def maybe(flag, values):
        # One argument, so that argparse reads "-inf" as the value, not as an option.
        return draw(st.sampled_from([[], [f"{flag}={draw(values)}"]]))

    ints = st.integers(min_value=-2, max_value=2**70).map(str)
    outputs = st.sampled_from([str(tmp / "out.txt"), str(tmp / "state.json" / "x")])
    outcomes = st.text("1234", min_size=n, max_size=n) | st.text("12345, ", max_size=4)
    command = draw(st.sampled_from(["decompose", "teleport", "verify", "sweep"]))
    argv = [command, *maybe("--convention", st.sampled_from(CONVENTIONS))]
    if command == "decompose":
        argv += ["--channel", channel, "--outcome", draw(outcomes)]
    elif command == "teleport":
        argv += ["--state", state, "--channel", channel, *maybe("--seed", ints)]
    elif command == "verify":
        argv += maybe("--state", st.just(state)) + maybe("--channel", st.just(channel))
        argv += maybe("--seed", ints) + maybe("--tol-eq", _TOLERANCES) + maybe("--output", outputs)
        argv += maybe("--random-instances", st.integers(min_value=-1, max_value=2).map(str))
    else:
        argv += ["--state", state, "--channel", channel]
        argv += maybe("--pair", st.integers(-1, 4).map(str))
        argv += maybe("--theta-start", _THETAS) + maybe("--theta-stop", _THETAS)
        argv += maybe("--theta-steps", st.integers(-1, 3).map(str)) + maybe("--output", outputs)
        return argv
    return argv + maybe("--tol-inv", _TOLERANCES)


@settings(max_examples=300)
@given(st.data())
def test_every_input_ends_in_an_exit_code(data):
    """``main`` returns 0-3 and raises nothing, stderr holds no traceback, and only
    verify exits 1.  A 400-digit number or a 2000-deep file raised out of ``main``.

    Warnings are recorded, not raised, as a process would print them, and none
    may appear.  The one kind once seen was numpy's, when --tol-inv=0 passed a
    pair whose determinant is so small that its inverse blocks, or their
    products, pass the float range: overflow, then NaN recovery fidelities.
    """
    n = data.draw(st.integers(min_value=1, max_value=3), label="n")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        state, channel = tmp / "state.json", tmp / "channel.json"
        state.write_bytes(data.draw(_files(n, "state"), label="state"))
        channel.write_bytes(data.draw(_files(n, "channel"), label="channel"))
        argv = data.draw(_argv(n, tmp, str(state), str(channel)), label="argv")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli.main(argv)
    assert code in (0, 1, 2, 3)
    assert code != 1 or argv[0] == "verify"
    assert "Traceback" not in err.getvalue()
    assert [str(w.message) for w in caught] == []
