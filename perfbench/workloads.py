"""The four workloads: seeded raw inputs, the library objects built from them, one op, its gate.

Raw inputs are plain numpy arrays (or JSON files for ``cli-mix``) made from the
seed alone; the library only ever sees ``StateVector``/``Channel`` objects
built from them in ``setup`` or the JSON files.  Every gate checks an op's
output against the tolerances below.  Where an op returns amplitudes, a few
seeded outcomes per op are also compared against ``reference_collapsed``, a
contraction written here from numpy and the raw inputs alone; on ``verify-n6``
that comparison is made on the oracle's own ``bell_project``, so an oracle that
stopped being independent of the block predictions would still be caught.
The ``cli-mix`` gates read the CLI's printed output only.  No gate asserts
which outcome a seed draws: a different sampler may legitimately draw another
one.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from setup_probe import set_up

TOL = 1e-10          # |sum p - 1|, 1 - fidelity, |predicted - reference| per amplitude
SWEEP_SUM_TOL = 1e-9  # per-theta |sum p - 1| in the sweep CSV
CONVENTIONS = ("bob-holds-first", "bob-holds-second")

# Bell states as 2x2 matrices beta[a, s] over (input qubit a, sender's qubit s).
_BELL = np.array(
    [[[1, 0], [0, 1]], [[1, 0], [0, -1]], [[0, 1], [1, 0]], [[0, 1], [-1, 0]]], dtype=float
) / math.sqrt(2.0)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _unitary(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(_complex_normal(rng, (2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def pair_with_abs_det(rng: np.random.Generator, abs_det: float) -> np.ndarray:
    """Unit-norm pair U diag(cos t, sin t) V^T, whose |det| is cos t sin t = ``abs_det``."""
    t = 0.5 * math.asin(2.0 * abs_det)
    m = _unitary(rng) @ np.diag([math.cos(t), math.sin(t)]) @ _unitary(rng).T
    return m.reshape(4)


MAX_ENTANGLED = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2.0)
NEAR_SINGULAR_DET = 1e-6


def raw_instance(rng, n: int, convention: str, special_pairs: bool = False) -> dict:
    pairs = np.array([_unit(_complex_normal(rng, 4)) for _ in range(n)])
    if special_pairs:
        mes, weak = rng.choice(n, size=2, replace=False)
        pairs[mes] = MAX_ENTANGLED
        pairs[weak] = pair_with_abs_det(rng, NEAR_SINGULAR_DET)
    return {"state": _unit(_complex_normal(rng, 1 << n)), "pairs": pairs, "convention": convention}


def reference_collapsed(raw: dict, outcome) -> np.ndarray:
    """Unnormalised receiver amplitudes for ``outcome``, contracted from the definition.

    Pair i's receiver qubit b and sender qubit s carry amplitude y[b, s] (the
    pair matrix, transposed when the receiver holds the second qubit); the
    sender's Bell bra on (input qubit a, s) leaves block[b, a] = sum_s y[b, s]
    conj(beta[a, s]) on the receiver's qubit i.
    """
    n = len(outcome)
    t = raw["state"].reshape((2,) * n)
    for i, r in enumerate(outcome):
        y = raw["pairs"][i].reshape(2, 2)
        if raw["convention"] == "bob-holds-second":
            y = y.T
        block = y @ _BELL[r - 1].conj().T
        t = np.moveaxis(np.tensordot(block, t, axes=(1, i)), 0, i)
    return t.reshape(-1)


def _residuals(**values) -> dict:
    return {k: float(v) for k, v in values.items()}


class Workload:
    """One closed-loop caller issuing op ``i`` after op ``i-1`` has returned.

    A round is the smallest run of ops that covers the workload's whole input
    mix (one op where every op has the same size); runs stop only at round
    boundaries, so every run sees the same mix.
    """

    name = ""
    round_len = 1
    warmup_ops = 1
    tail_pct = 90.0
    raw: list[dict] = []
    setup_modules: tuple[str, ...] = ()  # imported in set-up besides belldecomp
    oracle_n = 0  # qubits of the instances the oracle sees, for bell_project's bytes

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Import the library and build its objects from the raw inputs."""
        self.bd, self.insts = set_up(self.setup_modules, self.raw)

    def setup_spec(self) -> dict:
        """The same set-up as plain Python data, for a fresh ``setup_probe`` interpreter."""
        raw = [{"state": r["state"].tolist(), "pairs": r["pairs"].tolist(), "convention": r["convention"]}
               for r in self.raw]
        return {"modules": list(self.setup_modules), "raw": raw}

    def op(self, i: int, in_process: bool = False):
        raise NotImplementedError

    def check(self, i: int, out) -> tuple[bool, dict]:
        raise NotImplementedError

    def op_seed(self, i: int) -> int:
        return self.seed * 1_000_003 + i

    def close(self) -> None:
        pass


class PredictN6(Workload):
    """channel_criterion + enumerate_outcomes(compute_recovery=True) on one n-qubit instance."""

    name = "predict-n6"
    SPOT_CHECKS = 4  # outcomes per op compared against reference_collapsed

    def __init__(self, seed, workdir, n: int = 6, pool: int = 4):
        super().__init__(seed, workdir)
        rng = np.random.default_rng([seed, 1])
        self.n = n
        self.raw = [raw_instance(rng, n, CONVENTIONS[k % 2], special_pairs=True) for k in range(pool)]

    def op(self, i, in_process=False):
        inst = self.insts[i % len(self.insts)]
        return self.bd.channel_criterion(inst.channel), self.bd.enumerate_outcomes(inst, compute_recovery=True)

    def check(self, i, out):
        report, records = out
        raw = self.raw[i % len(self.raw)]
        probs = np.array([r.probability for r in records])
        fids = [r.recovered_fidelity for r in records]
        sum_err = abs(probs.sum() - 1.0)
        fid_def = 1.0 - min(fids) if None not in fids else math.inf
        picks = np.random.default_rng(self.op_seed(i)).choice(len(records), self.SPOT_CHECKS)
        ref_diff = max(
            float(np.abs(reference_collapsed(raw, records[k].outcome)
                         - records[k].collapsed.amps * math.sqrt(records[k].probability)).max())
            for k in picks
        )
        ok = (
            report.success
            and len(records) == 4**self.n
            and sum_err <= TOL
            and fid_def <= TOL
            and ref_diff <= TOL
        )
        return bool(ok), _residuals(sum_p_err=sum_err, fidelity_deficit=fid_def, reference_diff=ref_diff)


class VerifyN6(Workload):
    """cross_check (block predictions against the brute-force oracle) on one n-qubit instance."""

    name = "verify-n6"
    SPOT_CHECKS = 4  # outcomes per op projected by the oracle and compared against reference_collapsed

    def __init__(self, seed, workdir, n: int = 6, pool: int = 4):
        super().__init__(seed, workdir)
        rng = np.random.default_rng([seed, 2])
        self.n = self.oracle_n = n
        self.raw = [raw_instance(rng, n, CONVENTIONS[k % 2]) for k in range(pool)]

    def op(self, i, in_process=False):
        return self.bd.cross_check(self.insts[i % len(self.insts)])

    def check(self, i, report):
        inst, raw = self.insts[i % len(self.insts)], self.raw[i % len(self.raw)]
        bd = self.bd
        rs = bd.rearrange_for_measurement(bd.joint_state(inst), inst)
        picks = np.random.default_rng(self.op_seed(i)).integers(1, 5, size=(self.SPOT_CHECKS, self.n))
        ref_diff = max(
            float(np.abs(bd.bell_project(rs, out).amps - reference_collapsed(raw, out)).max()) for out in picks
        )
        ok = (
            report.passed
            and report.num_outcomes == 4**self.n
            and report.max_abs_diff <= TOL
            and ref_diff <= TOL
        )
        return bool(ok), _residuals(oracle_max_abs_diff=report.max_abs_diff, oracle_reference_diff=ref_diff)


class TeleportSmall(Workload):
    """sample_outcome + collapsed_state + recover on one small instance, with a per-op sampling seed."""

    name = "teleport-small"
    tail_pct = 99.0

    def __init__(self, seed, workdir, sizes=(2, 3, 4), pool_rounds: int = 32):
        super().__init__(seed, workdir)
        rng = np.random.default_rng([seed, 3])
        combos = [(n, c) for n in sizes for c in CONVENTIONS]
        self.round_len = self.warmup_ops = len(combos)
        self.raw = []
        for _ in range(pool_rounds):  # each round: every (n, convention) once, in seeded order
            for k in rng.permutation(len(combos)):
                n, c = combos[k]
                self.raw.append(raw_instance(rng, n, c))

    def num_qubits(self, i: int) -> int:
        return len(self.raw[i % len(self.raw)]["pairs"])

    def op(self, i, in_process=False):
        inst = self.insts[i % len(self.insts)]
        outcome = self.bd.sample_outcome(inst, self.op_seed(i))
        collapsed = self.bd.collapsed_state(inst, outcome)
        _, fid = self.bd.recover(collapsed, inst, outcome)
        return outcome, collapsed.amps, fid

    def check(self, i, out):
        outcome, amps, fid = out
        raw = self.raw[i % len(self.raw)]
        n = len(raw["pairs"])
        valid = len(outcome) == n and all(a in (1, 2, 3, 4) for a in outcome)
        p = float(np.vdot(amps, amps).real)
        ref_diff = float(np.abs(reference_collapsed(raw, outcome) - amps).max()) if valid else math.inf
        ok = valid and p > 0.0 and 1.0 - fid <= TOL and ref_diff <= TOL
        return bool(ok), _residuals(fidelity_deficit=1.0 - fid, reference_diff=ref_diff)


def _state_json(state: np.ndarray) -> dict:
    return {"num_qubits": int(state.size).bit_length() - 1, "amps": [[z.real, z.imag] for z in state]}


def _channel_json(pairs: np.ndarray) -> dict:
    return {"pairs": [[[z.real, z.imag] for z in y] for y in pairs]}


class CliMix(Workload):
    """One ``python -m belldecomp.cli`` run, cycling verify, teleport, decompose, sweep.

    With ``in_process`` the same argv goes to ``belldecomp.cli.main`` in this
    process instead, which is how the traced run sees inside the CLI.
    """

    name = "cli-mix"
    setup_modules = ("belldecomp.cli",)
    oracle_n = 3  # `verify` without --state runs the oracle on the bundled 3-qubit fixture
    round_len = 4
    warmup_ops = 4  # one round
    tail_pct = 80.0  # inside the sweep group, the slowest quarter of every round
    COMMANDS = ("verify", "teleport", "decompose", "sweep")

    def __init__(self, seed, workdir, teleport_n=4, decompose_n=3, sweep_n=4, sweep_steps=9, pool=4):
        super().__init__(seed, workdir)
        rng = np.random.default_rng([seed, 4])
        self.sweep_n, self.sweep_steps = sweep_n, sweep_steps
        self.tmp = Path(tempfile.mkdtemp(prefix="cli-mix-", dir=workdir))
        self.files = []
        for k in range(pool):
            files = {}
            for key, n in (("teleport", teleport_n), ("decompose", decompose_n), ("sweep", sweep_n)):
                raw = raw_instance(rng, n, CONVENTIONS[k % 2])
                for part, doc in (("state", _state_json(raw["state"])), ("channel", _channel_json(raw["pairs"]))):
                    path = self.tmp / f"{key}{k}-{part}.json"
                    path.write_text(json.dumps(doc))
                    files[f"{key}_{part}"] = str(path)
            files["outcome"] = "".join(str(d) for d in rng.integers(1, 5, size=decompose_n))
            self.files.append(files)

    def setup(self):
        super().setup()
        self.cli = sys.modules["belldecomp.cli"]

    def argv(self, i: int) -> list[str]:
        rnd = i // self.round_len
        f = self.files[rnd % len(self.files)]
        conv = ["--convention", CONVENTIONS[rnd % 2]]
        cmd = self.COMMANDS[i % self.round_len]
        if cmd == "verify":
            return ["verify", *conv]
        if cmd == "teleport":
            return ["teleport", *conv, "--state", f["teleport_state"], "--channel", f["teleport_channel"],
                    "--seed", str(self.op_seed(i))]
        if cmd == "decompose":
            return ["decompose", *conv, "--channel", f["decompose_channel"], "--outcome", f["outcome"]]
        return ["sweep", *conv, "--state", f["sweep_state"], "--channel", f["sweep_channel"],
                "--theta-steps", str(self.sweep_steps)]

    def op(self, i, in_process=False):
        argv = self.argv(i)
        if in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
            return code, out.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "belldecomp.cli", *argv],
            capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout

    def check(self, i, out):
        code, text = out
        cmd = self.COMMANDS[i % self.round_len]
        lines = text.splitlines()
        res = {}
        ok = code == 0 and bool(lines)
        if ok and cmd == "verify":
            ok = lines[-1] == "result: PASS"
        elif ok and cmd == "teleport":
            fid = [float(s.split(":")[1]) for s in lines if s.startswith("fidelity to input:")]
            ok = len(fid) == 1 and 1.0 - fid[0] <= TOL
            res["fidelity_deficit"] = 1.0 - fid[0] if fid else math.inf
        elif ok and cmd == "sweep":
            rows = lines[1:]
            sums: dict[str, float] = {}
            for row in rows:
                theta, _, p, *_ = row.split(",")
                sums[theta] = sums.get(theta, 0.0) + float(p)
            worst = max(abs(s - 1.0) for s in sums.values()) if sums else math.inf
            ok = (
                len(lines) == 1 + self.sweep_steps * 4**self.sweep_n
                and len(sums) == self.sweep_steps
                and worst <= SWEEP_SUM_TOL
            )
            res["sweep_sum_p_err"] = worst
        return bool(ok), _residuals(**res)

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {w.name: w for w in (PredictN6, VerifyN6, TeleportSmall, CliMix)}
