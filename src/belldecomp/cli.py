"""Command line front end: decompose, teleport, verify, sweep.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 channel criterion failure.  Set BELLDECOMP_OUTPUT_DIR to redirect
relative --output paths.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
from functools import reduce
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .channel import NORM_WARN_TOL, Channel, EntangledPair, pair_determinant
from .decomposition import (
    DEFAULT_INVERTIBILITY_TOL,
    NotInvertibleError,
    PairingConvention,
    _valid_tol,
    decomposition_matrix,
    inverse_sub_matrix,
    pair_blocks,
    validate_outcome,
)
from .oracle import _cross_check, _measurement_state, _reconstruction_diff
from .protocol import (
    ENUMERATION_CAP,
    TeleportationInstance,
    _valid_seed,
    channel_criterion,
    collapsed_state,
    enumerate_outcomes,
    random_instance,
    recover,
    sample_outcome,
)
from .tensor import DEFAULT_EQ_TOL, StateVector

__all__ = ["main"]

OUTPUT_DIR_ENV = "BELLDECOMP_OUTPUT_DIR"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_CRITERION_FAILED = 3

_FIXTURES = Path(__file__).parent / "fixtures"
DEFAULT_STATE_FIXTURE = _FIXTURES / "state3.json"
DEFAULT_CHANNEL_FIXTURE = _FIXTURES / "channel3_mes.json"


class CliInputError(Exception):
    """Bad file contents or inconsistent inputs; maps to exit code 2."""


def _complex_from_json(value, what: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        raise CliInputError(f"{what}: expected [re, im], got {value!r}")
    return complex(value[0], value[1])


def _read_json(path: Path, what: str):
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CliInputError(f"cannot read {what} file {path}: {exc}") from exc


def _renormalized(amps: np.ndarray, what: str, warning: Callable[[float], str]) -> np.ndarray:
    """``amps`` divided by their norm; ``warning(norm)`` goes to stderr when it was off 1."""
    norm = float(np.linalg.norm(amps))
    if norm == 0.0:
        raise CliInputError(f"{what} must not be the zero vector")
    if abs(norm - 1.0) > NORM_WARN_TOL:
        print(warning(norm), file=sys.stderr)
    return amps / norm


def load_state(path: Path) -> StateVector:
    """Read {"num_qubits": N, "amps": [[re, im], ...]} from a JSON file, normalizing it."""
    doc = _read_json(path, "state")
    if not isinstance(doc, dict) or "num_qubits" not in doc or "amps" not in doc:
        raise CliInputError(f"{path}: expected an object with num_qubits and amps")
    n = doc["num_qubits"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise CliInputError(f"{path}: num_qubits must be a positive integer, got {n!r}")
    amps = doc["amps"]
    if not isinstance(amps, list) or len(amps) != 1 << n:
        raise CliInputError(
            f"{path}: expected {1 << n} amplitudes for {n} qubit(s), "
            f"got {len(amps) if isinstance(amps, list) else type(amps).__name__}"
        )
    values = [_complex_from_json(a, f"{path}: amps[{i}]") for i, a in enumerate(amps)]
    try:
        state = StateVector(n, np.array(values))
    except ValueError as exc:
        raise CliInputError(f"{path}: {exc}") from exc
    amps = _renormalized(
        state.amps,
        f"{path}: state",
        lambda norm: f"warning: state in {path} renormalized (norm was {norm:.6g})",
    )
    return StateVector(n, amps)


def load_channel(path: Path) -> Channel:
    """Read {"pairs": [[[re, im] x4], ...]} from a JSON file, normalizing pairs."""
    doc = _read_json(path, "channel")
    if not isinstance(doc, dict) or "pairs" not in doc or not isinstance(doc["pairs"], list):
        raise CliInputError(f"{path}: expected an object with a pairs list")
    if not doc["pairs"]:
        raise CliInputError(f"{path}: channel needs at least one pair")
    pairs = []
    for i, raw in enumerate(doc["pairs"], start=1):
        if not isinstance(raw, list) or len(raw) != 4:
            raise CliInputError(f"{path}: pair {i} must have exactly 4 coefficients")
        values = [_complex_from_json(v, f"{path}: pair {i}") for v in raw]
        try:
            pair = EntangledPair(np.array(values))
        except ValueError as exc:
            raise CliInputError(f"{path}: pair {i}: {exc}") from exc
        y = _renormalized(
            pair.y,
            f"{path}: pair {i}",
            lambda _: f"warning: channel pair {i} in {path} renormalized",
        )
        pairs.append(EntangledPair(y))
    return Channel(tuple(pairs))


def parse_outcome(text: str) -> tuple[int, ...]:
    """Accept '234' or '2,3,4'; ``validate_outcome`` checks the length and range."""
    digits = text.replace(",", "").replace(" ", "")
    if not (digits.isascii() and digits.isdigit()):
        raise CliInputError(f"outcome must be digits 1-4, got {text!r}")
    return tuple(int(c) for c in digits)


def _resolve_output(path_text: str | None) -> Path | None:
    if path_text is None:
        return None
    path = Path(path_text)
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.10g}{z.imag:+.10g}j"


def _fmt_matrix(m: np.ndarray, indent: str = "  ") -> str:
    width = max(len(_fmt_complex(z)) for z in m.reshape(-1))
    rows = []
    for row in m:
        cells = ", ".join(_fmt_complex(z).rjust(width) for z in row)
        rows.append(f"{indent}[{cells}]")
    return "\n".join(rows)


def _fmt_amps(state: StateVector) -> str:
    lines = []
    for i, z in enumerate(state.amps):
        lines.append(f"  |{i:0{state.num_qubits}b}>  {_fmt_complex(z)}")
    return "\n".join(lines)


def _criterion_lines(channel: Channel, tol_inv: float) -> tuple[list[str], bool]:
    report = channel_criterion(channel, tol=tol_inv)
    lines = []
    for d in report.pairs:
        unit = "yes" if d.unitary_proportional else "no"
        inv = "yes" if d.invertible else "no"
        lines.append(
            f"pair {d.index}: |det|={abs(d.determinant):.6e} concurrence={d.concurrence:.6e} "
            f"invertible={inv} unitary-proportional={unit}"
        )
    if report.success:
        lines.append("criterion: success (every pair is invertible)")
    else:
        failed = ", ".join(map(str, report.failed_pairs))
        lines.append(f"criterion: FAILURE (pair(s) {failed} not invertible)")
    return lines, report.success


def cmd_decompose(args: argparse.Namespace) -> int:
    _valid_tol(args.tol_inv, "--tol-inv")
    channel = load_channel(Path(args.channel))
    convention = PairingConvention(args.convention)
    n = len(channel.pairs)
    if n > ENUMERATION_CAP:
        raise CliInputError(
            f"refusing to print {1 << n}x{1 << n} matrices for {n} pairs "
            f"(cap is {ENUMERATION_CAP} pairs)"
        )
    outcome = validate_outcome(parse_outcome(args.outcome), n)
    print(f"channel: {n} pair(s), convention {convention.value}, outcome {''.join(map(str, outcome))}")
    crit_lines, _ = _criterion_lines(channel, args.tol_inv)
    for line in crit_lines:
        print(line)
    print()
    stacks = [pair_blocks(p, convention) for p in channel.pairs]
    blocks = [s[a - 1] for s, a in zip(stacks, outcome)]
    for i, (a, block) in enumerate(zip(outcome, blocks), start=1):
        print(f"block for pair {i}, result {a}:")
        print(_fmt_matrix(block))
    print()
    print(f"decomposition matrix ({1 << n}x{1 << n}, tensor product of the blocks above):")
    print(_fmt_matrix(decomposition_matrix(channel, outcome, convention)))
    print()
    try:
        inverses = [
            inverse_sub_matrix(p, a, convention, args.tol_inv)
            for p, a in zip(channel.pairs, outcome)
        ]
    except NotInvertibleError as exc:
        print(f"inverse: not available ({exc})")
    else:
        print("inverse decomposition matrix:")
        print(_fmt_matrix(reduce(np.kron, inverses)))
    print()
    print("full block table:")
    for i, stack in enumerate(stacks, start=1):
        for a, block in enumerate(stack, start=1):
            print(f"pair {i}, result {a}:")
            print(_fmt_matrix(block))
    return EXIT_OK


def cmd_teleport(args: argparse.Namespace) -> int:
    # sample_outcome checks the seed too, but only after the criterion is printed.
    _valid_seed(args.seed)
    _valid_tol(args.tol_inv, "--tol-inv")
    state = load_state(Path(args.state))
    channel = load_channel(Path(args.channel))
    inst = TeleportationInstance(state, channel, PairingConvention(args.convention))
    crit_lines, ok = _criterion_lines(channel, args.tol_inv)
    for line in crit_lines:
        print(line)
    if not ok:
        print("teleportation cannot be completed through this channel")
        return EXIT_CRITERION_FAILED
    outcome = sample_outcome(inst, args.seed)
    collapsed = collapsed_state(inst, outcome)
    probability = collapsed.squared_norm()
    print()
    print(f"seed {args.seed} drew outcome {''.join(map(str, outcome))} "
          f"(probability {probability:.10g})")
    print("collapsed state (normalized):")
    print(_fmt_amps(collapsed.normalized()))
    recovered, fid = recover(collapsed, inst, outcome, args.tol_inv)
    print("recovered state:")
    print(_fmt_amps(recovered))
    print(f"fidelity to input: {fid:.15f}")
    return EXIT_OK


def _verify_instance(
    label: str, inst: TeleportationInstance, tol_eq: float, tol_inv: float
) -> tuple[list[str], bool]:
    lines = []
    ok = True

    # One joint state in measurement order serves the oracle and the
    # reconstruction check.
    rearranged = _measurement_state(inst)
    report = _cross_check(inst, rearranged, tol_eq)
    status = "PASS" if report.passed else "FAIL"
    ok &= report.passed
    lines.append(
        f"check oracle-equivalence{label}: {status} "
        f"(max|diff| = {report.max_abs_diff:.3e}, tol {tol_eq:.3e}, "
        f"{report.num_outcomes} outcome(s))"
    )

    table = enumerate_outcomes(inst, tol=tol_inv)
    # Python's left-to-right sum: numpy's pairwise one changes the last digits
    # of the printed residual, which tests/data/verify_*.txt pin.
    total = sum(table.probabilities.tolist())
    passed = abs(total - 1.0) <= tol_eq
    ok &= passed
    lines.append(
        f"check completeness{label}: {'PASS' if passed else 'FAIL'} "
        f"(|sum(p) - 1| = {abs(total - 1.0):.3e}, tol {tol_eq:.3e})"
    )

    diff = _reconstruction_diff(rearranged, table)
    passed = diff <= tol_eq
    ok &= passed
    lines.append(
        f"check reconstruction{label}: {'PASS' if passed else 'FAIL'} "
        f"(max|diff| = {diff:.3e}, tol {tol_eq:.3e})"
    )

    crit = channel_criterion(inst.channel, tol=tol_inv)
    if crit.success:
        fids = table.fidelities[table.probabilities > 0.0]
        worst = float(np.nanmin(fids)) if fids.size else 0.0
        passed = bool(fids.size) and worst >= 1.0 - tol_eq
        ok &= passed
        lines.append(
            f"check recovery-fidelity{label}: {'PASS' if passed else 'FAIL'} "
            f"(min fidelity = {worst:.15f}, tol {tol_eq:.3e})"
        )
    else:
        failed = ", ".join(map(str, crit.failed_pairs))
        lines.append(
            f"check recovery-fidelity{label}: SKIP (pair(s) {failed} not invertible)"
        )
    return lines, ok


def cmd_verify(args: argparse.Namespace) -> int:
    _valid_seed(args.seed)
    _valid_tol(args.tol_inv, "--tol-inv")
    _valid_tol(args.tol_eq, "--tol-eq")
    if args.random_instances < 0:
        raise CliInputError(f"--random-instances must be >= 0, got {args.random_instances}")
    state_path = Path(args.state) if args.state else DEFAULT_STATE_FIXTURE
    channel_path = Path(args.channel) if args.channel else DEFAULT_CHANNEL_FIXTURE
    state = load_state(state_path)
    channel = load_channel(channel_path)
    convention = PairingConvention(args.convention)
    inst = TeleportationInstance(state, channel, convention)
    lines = [
        f"instance: {inst.num_qubits} qubit(s), convention {convention.value}",
        f"state: {state_path}",
        f"channel: {channel_path}",
    ]
    inst_lines, ok = _verify_instance("", inst, args.tol_eq, args.tol_inv)
    lines += inst_lines
    for k in range(args.random_instances):
        rng = np.random.default_rng(args.seed + k)
        rand_inst = random_instance(inst.num_qubits, rng, convention)
        rand_lines, rand_ok = _verify_instance(
            f" [random {k + 1}/{args.random_instances}, seed {args.seed + k}]",
            rand_inst,
            args.tol_eq,
            args.tol_inv,
        )
        lines += rand_lines
        ok &= rand_ok
    lines.append(f"result: {'PASS' if ok else 'FAIL'}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    out_path = _resolve_output(args.output)
    if out_path is not None:
        out_path.write_text(text)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_sweep(args: argparse.Namespace) -> int:
    state = load_state(Path(args.state))
    channel = load_channel(Path(args.channel))
    convention = PairingConvention(args.convention)
    n = len(channel.pairs)
    if not 1 <= args.pair <= n:
        raise CliInputError(f"--pair must be in 1..{n}, got {args.pair}")
    if args.theta_steps < 1:
        raise CliInputError(f"--theta-steps must be >= 1, got {args.theta_steps}")
    thetas = np.linspace(args.theta_start, args.theta_stop, args.theta_steps)
    labels = ["".join(out) for out in itertools.product("1234", repeat=n)]
    rows = []
    for theta in thetas:
        varied = EntangledPair(np.array([math.cos(theta), 0.0, 0.0, math.sin(theta)]))
        pairs = list(channel.pairs)
        pairs[args.pair - 1] = varied
        swept = Channel(tuple(pairs))
        inst = TeleportationInstance(state, swept, convention)
        abs_det_min = min(abs(pair_determinant(p)) for p in swept.pairs)
        min_sv = min(
            float(np.linalg.svd(p.amplitude_matrix(), compute_uv=False)[-1])
            for p in swept.pairs
        )
        probs = enumerate_outcomes(inst, compute_recovery=False).probabilities.tolist()
        for label, p in zip(labels, probs):
            rows.append(
                (f"{theta:.17g}", label, f"{p:.17g}", f"{abs_det_min:.17g}", f"{min_sv:.17g}")
            )
    out_path = _resolve_output(args.output)
    header = ("theta", "outcome", "probability", "abs_det_min", "min_singular_value")
    if out_path is None:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        with out_path.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="belldecomp",
        description="Bell-basis decomposition of teleportation through two-qubit channels",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--convention",
        choices=[c.value for c in PairingConvention],
        default=PairingConvention.BOB_HOLDS_SECOND.value,
        help="which qubit of each pair the receiver keeps (default: %(default)s)",
    )
    # Every subcommand but sweep, which runs no recovery, takes --tol-inv.
    inverting = argparse.ArgumentParser(add_help=False)
    inverting.add_argument(
        "--tol-inv",
        type=float,
        default=DEFAULT_INVERTIBILITY_TOL,
        metavar="X",
        help="pair determinant magnitude at or below this is non-invertible "
        "(default: %(default)g)",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "decompose",
        parents=[common, inverting],
        help="print the per-pair blocks, their tensor product and its inverse",
    )
    p.add_argument("--channel", required=True, help="channel JSON file")
    p.add_argument("--outcome", required=True, help="Bell results, e.g. 234 or 2,3,4")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser(
        "teleport",
        parents=[common, inverting],
        help="sample one outcome and run the full protocol on it",
    )
    p.add_argument("--state", required=True, help="input state JSON file")
    p.add_argument("--channel", required=True, help="channel JSON file")
    p.add_argument("--seed", type=int, default=0, help="sampling seed (default: %(default)s)")
    p.set_defaults(func=cmd_teleport)

    p = sub.add_parser(
        "verify",
        parents=[common, inverting],
        help="cross-check block predictions against the brute-force oracle",
    )
    p.add_argument(
        "--tol-eq",
        type=float,
        default=DEFAULT_EQ_TOL,
        metavar="X",
        help="max-abs tolerance for equality checks (default: %(default)g)",
    )
    p.add_argument("--state", help="input state JSON file (default: bundled 3-qubit fixture)")
    p.add_argument("--channel", help="channel JSON file (default: bundled fixture)")
    p.add_argument("--seed", type=int, default=0, help="seed for --random-instances")
    p.add_argument(
        "--random-instances",
        type=int,
        default=0,
        metavar="M",
        help="also verify M random instances of the same size (default: %(default)s)",
    )
    p.add_argument("--output", help="also write the report to this file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "sweep",
        parents=[common],
        help="vary one pair as (cos t, 0, 0, sin t) and tabulate outcome probabilities",
    )
    p.add_argument("--state", required=True, help="input state JSON file")
    p.add_argument("--channel", required=True, help="channel JSON file")
    p.add_argument("--pair", type=int, default=1, help="1-based pair to vary (default: %(default)s)")
    p.add_argument("--theta-start", type=float, default=0.0, help="grid start (default: %(default)s)")
    p.add_argument(
        "--theta-stop", type=float, default=math.pi / 2, help="grid stop (default: pi/2)"
    )
    p.add_argument("--theta-steps", type=int, default=9, help="grid points (default: %(default)s)")
    p.add_argument("--output", help="CSV output file (default: stdout)")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away (e.g. `| head`); further output is unwanted.
        # Point stdout at devnull so the flush at interpreter exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotInvertibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CRITERION_FAILED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
