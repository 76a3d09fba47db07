"""Command line front end: decompose, teleport, verify, sweep.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error, a
request too large for memory or an --output that cannot be written, 3 channel
criterion failure.  Set BELLDECOMP_OUTPUT_DIR to redirect relative --output
paths.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import itertools
import json
import math
import os
import reprlib
import sys
from pathlib import Path
from typing import Callable, Iterator, NoReturn, Sequence, TextIO, TypeVar

import numpy as np

from .channel import NORM_WARN_TOL, Channel, EntangledPair, pair_determinant
from .decomposition import (
    DEFAULT_INVERTIBILITY_TOL,
    NotInvertibleError,
    PairingConvention,
    _inverse_product,
    _valid_tol,
    decomposition_matrix,
    inverse_sub_matrix,
    pair_blocks,
    validate_outcome,
)
from .oracle import VerificationReport, verify_instance
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
from .tensor import DEFAULT_EQ_TOL, StateVector, _unit

__all__ = ["main"]

OUTPUT_DIR_ENV = "BELLDECOMP_OUTPUT_DIR"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_CRITERION_FAILED = 3

_FIXTURES = Path(__file__).parent / "fixtures"
DEFAULT_STATE_FIXTURE = _FIXTURES / "state3.json"
DEFAULT_CHANNEL_FIXTURE = _FIXTURES / "channel3_mes.json"


_T = TypeVar("_T")


def _complex_from_json(value, what: str) -> complex:
    # json loads numbers as int or float; the exact type test turns away bools.
    if not (isinstance(value, list) and len(value) == 2 and {*map(type, value)} <= {int, float}):
        raise ValueError(f"{what}: expected [re, im], got {reprlib.repr(value)}")
    try:
        return complex(*value)
    except OverflowError:
        raise ValueError(f"{what}: {reprlib.repr(value)} is past the float range") from None


def _read_json(path: Path, what: str, *keys: str) -> dict:
    """The JSON object in ``path``, read as UTF-8, holding every one of ``keys``."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise ValueError(f"cannot read {what} file {path}: {exc}") from exc
    if not isinstance(doc, dict) or not all(k in doc for k in keys):
        raise ValueError(f"{path}: expected an object with {' and '.join(keys)}")
    return doc


def _load_unit(raw, what: str, build: Callable[[np.ndarray], _T]) -> tuple[_T, float]:
    """``build`` of the [re, im] list ``raw`` divided by its norm, and that norm.

    ``build`` is the library constructor, which makes every check of the
    values; its ValueError is reported after ``what``.
    """
    if not isinstance(raw, list):
        raise ValueError(f"{what}: expected a list of [re, im], got {type(raw).__name__}")
    values = np.array([_complex_from_json(v, what) for v in raw], dtype=np.complex128)
    try:
        build(values)  # the constructor's refusal comes first
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from exc
    if not values.any():
        raise ValueError(f"{what} must not be the zero vector")
    unit, norm = _unit(values)
    return build(unit), norm


def load_state(path: Path) -> StateVector:
    """Read {"num_qubits": N, "amps": [[re, im], ...]} from a JSON file, normalizing it."""
    doc = _read_json(path, "state", "num_qubits", "amps")
    state, norm = _load_unit(
        doc["amps"], f"{path}: state", lambda amps: StateVector(doc["num_qubits"], amps)
    )
    if abs(norm - 1.0) > NORM_WARN_TOL:
        print(f"warning: state in {path} renormalized (norm was {norm:.6g})", file=sys.stderr)
    return state


def load_channel(path: Path) -> Channel:
    """Read {"pairs": [[[re, im] x4], ...]} from a JSON file, normalizing pairs."""
    raw_pairs = _read_json(path, "channel", "pairs")["pairs"]
    if not isinstance(raw_pairs, list):
        raise ValueError(f"{path}: pairs must be a list, got {type(raw_pairs).__name__}")
    pairs = []
    for i, raw in enumerate(raw_pairs, start=1):
        pair, norm = _load_unit(raw, f"{path}: pair {i}", EntangledPair)
        if abs(norm - 1.0) > NORM_WARN_TOL:
            print(f"warning: channel pair {i} in {path} renormalized", file=sys.stderr)
        pairs.append(pair)
    try:
        return Channel(tuple(pairs))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def parse_outcome(text: str) -> tuple[int, ...]:
    """Accept '234' or '2,3,4'; ``validate_outcome`` checks the length and range."""
    digits = text.replace(",", "").replace(" ", "")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"outcome must be digits 1-4, got {text!r}")
    return tuple(int(c) for c in digits)


@contextlib.contextmanager
def _open_output(path_text: str) -> Iterator[TextIO]:
    """``path_text``, under BELLDECOMP_OUTPUT_DIR when relative, open for writing.

    Missing parent directories are made.  An OSError in making them, or in
    opening, writing or closing the file, is reported as a ValueError
    naming the path; a closed pipe is left to ``main``.
    """
    path = Path(path_text)
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            yield fh
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise ValueError(f"cannot write output {path}: {exc}") from exc


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.10g}{z.imag:+.10g}j"


def _fmt_matrix(m: np.ndarray) -> str:
    width = max(len(_fmt_complex(z)) for z in m.reshape(-1))
    rows = []
    for row in m:
        cells = ", ".join(_fmt_complex(z).rjust(width) for z in row)
        rows.append(f"  [{cells}]")
    return "\n".join(rows)


def _fmt_amps(state: StateVector) -> str:
    lines = []
    for i, z in enumerate(state.amps):
        lines.append(f"  |{i:0{state.num_qubits}b}>  {_fmt_complex(z)}")
    return "\n".join(lines)


def _print_criterion(channel: Channel, tol_inv: float) -> bool:
    """Print each pair's diagnostics and the verdict; return whether every pair is invertible."""
    report = channel_criterion(channel, tol=tol_inv)
    for d in report.pairs:
        unit = "yes" if d.unitary_proportional else "no"
        inv = "yes" if d.invertible else "no"
        print(
            f"pair {d.index}: |det|={abs(d.determinant):.6e} concurrence={d.concurrence:.6e} "
            f"invertible={inv} unitary-proportional={unit}"
        )
    if report.success:
        print("criterion: success (every pair is invertible)")
    else:
        failed = ", ".join(map(str, report.failed_pairs))
        print(f"criterion: FAILURE (pair(s) {failed} not invertible)")
    return report.success


def cmd_decompose(args: argparse.Namespace) -> int:
    _valid_tol(args.tol_inv, "--tol-inv")
    channel = load_channel(Path(args.channel))
    convention = PairingConvention(args.convention)
    n = len(channel.pairs)
    if n > ENUMERATION_CAP:
        raise ValueError(
            f"refusing to print {1 << n}x{1 << n} matrices for {n} pairs "
            f"(cap is {ENUMERATION_CAP} pairs)"
        )
    outcome = validate_outcome(parse_outcome(args.outcome), n)
    print(f"channel: {n} pair(s), convention {convention.value}, outcome {''.join(map(str, outcome))}")
    _print_criterion(channel, args.tol_inv)
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
        inverse = _inverse_product(
            inverse_sub_matrix(p, a, convention, args.tol_inv)
            for p, a in zip(channel.pairs, outcome)
        )
    except NotInvertibleError as exc:
        print(f"inverse: not available ({exc})")
    else:
        print("inverse decomposition matrix:")
        print(_fmt_matrix(inverse))
    print()
    print("full block table:")
    for i, stack in enumerate(stacks, start=1):
        for a, block in enumerate(stack, start=1):
            print(f"pair {i}, result {a}:")
            print(_fmt_matrix(block))
    return EXIT_OK


def cmd_teleport(args: argparse.Namespace) -> int:
    # sample_outcome checks the seed too, but only after the files are read.
    _valid_seed(args.seed)
    _valid_tol(args.tol_inv, "--tol-inv")
    state = load_state(Path(args.state))
    channel = load_channel(Path(args.channel))
    inst = TeleportationInstance(state, channel, PairingConvention(args.convention))
    # Drawn before anything is printed: above ENUMERATION_CAP it refuses.
    outcome = sample_outcome(inst, args.seed)
    if not _print_criterion(channel, args.tol_inv):
        print("teleportation cannot be completed through this channel")
        return EXIT_CRITERION_FAILED
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


def _verify_lines(label: str, report: VerificationReport) -> list[str]:
    """One line per check of ``verify_instance``'s report."""
    tol = f"tol {report.oracle.tolerance:.3e}"
    if report.non_invertible:
        recovery = f"pair(s) {', '.join(map(str, report.non_invertible))} not invertible"
    elif math.isnan(report.min_fidelity):
        recovery = "recovery has no float value for an outcome of positive probability"
    else:
        recovery = f"min fidelity = {report.min_fidelity:.15f}, {tol}"
    oracle = report.oracle
    details = [
        f"max|diff| = {oracle.max_abs_diff:.3e}, {tol}, {oracle.num_outcomes} outcome(s)",
        f"|sum(p) - 1| = {report.completeness:.3e}, {tol}",
        f"max|diff| = {report.reconstruction:.3e}, {tol}",
        recovery,
    ]
    checks = zip(report.verdicts, details)
    return [f"check {name}{label}: {v} ({detail})" for (name, v), detail in checks]


def cmd_verify(args: argparse.Namespace) -> int:
    _valid_seed(args.seed)
    _valid_tol(args.tol_inv, "--tol-inv")
    _valid_tol(args.tol_eq, "--tol-eq")
    m = args.random_instances
    if m < 0:
        raise ValueError(f"--random-instances must be >= 0, got {m}")
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
    # The given instance, then M random ones of its size, each drawn on its turn.
    runs = [("", None)] + [
        (f" [random {k + 1}/{m}, seed {args.seed + k}]", args.seed + k) for k in range(m)
    ]
    ok = True
    for label, seed in runs:
        if seed is not None:
            inst = random_instance(inst.num_qubits, np.random.default_rng(seed), convention)
        report = verify_instance(inst, args.tol_eq, args.tol_inv)
        lines += _verify_lines(label, report)
        ok &= report.passed
    lines.append(f"result: {'PASS' if ok else 'FAIL'}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.output is not None:
        with _open_output(args.output) as fh:
            fh.write(text)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_sweep(args: argparse.Namespace) -> int:
    state = load_state(Path(args.state))
    channel = load_channel(Path(args.channel))
    convention = PairingConvention(args.convention)
    n = len(channel.pairs)
    if not 1 <= args.pair <= n:
        raise ValueError(f"--pair must be in 1..{n}, got {args.pair}")
    if args.theta_steps < 1:
        raise ValueError(f"--theta-steps must be >= 1, got {args.theta_steps}")
    # Checked before np.linspace, which warns on an infinite span.
    if not math.isfinite(args.theta_stop - args.theta_start):
        raise ValueError(f"theta range {args.theta_start} to {args.theta_stop} is not finite")
    labels = ["".join(out) for out in itertools.product("1234", repeat=n)]

    def rows(theta: float):
        """One grid point's probabilities, computed now; its CSV rows, formatted as read."""
        pairs = list(channel.pairs)
        pairs[args.pair - 1] = EntangledPair(np.array([math.cos(theta), 0, 0, math.sin(theta)]))
        inst = TeleportationInstance(state, Channel(tuple(pairs)), convention)
        abs_det_min = min(abs(pair_determinant(p)) for p in pairs)
        min_sv = min(np.linalg.svd(p.amplitude_matrix(), compute_uv=False)[-1] for p in pairs)
        probs = enumerate_outcomes(inst, compute_recovery=False).probabilities.tolist()
        t, d, sv = f"{theta:.17g}", f"{abs_det_min:.17g}", f"{min_sv:.17g}"
        return ((t, label, f"{p:.17g}", d, sv) for label, p in zip(labels, probs))

    points = map(rows, np.linspace(args.theta_start, args.theta_stop, args.theta_steps))
    # The first point is computed before the output is opened: input that
    # enumerate_outcomes or TeleportationInstance refuses writes nothing.
    first = next(points)
    out = contextlib.nullcontext(sys.stdout) if args.output is None else _open_output(args.output)
    with out as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("theta", "outcome", "probability", "abs_det_min", "min_singular_value"))
        for point in itertools.chain([first], points):
            writer.writerows(point)
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
    except NotInvertibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CRITERION_FAILED
    except (ValueError, MemoryError) as exc:
        # numpy's MemoryError names the allocation it could not make; Python's is empty.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE


def _run() -> NoReturn:
    """The process entry: ``python -m belldecomp.cli`` and the ``belldecomp`` script.

    Everything alive after the imports lives until exit, so it is moved to
    the collector's permanent generation: neither the command's collections
    nor those at interpreter shutdown walk numpy's objects again.  ``main``
    leaves the collector as its caller had it.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    _run()
