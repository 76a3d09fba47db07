#!/usr/bin/env python3
"""belldecomp benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src/``.  One process, one caller, one op at a time (a closed loop): this is
a batch library, not a server.  ``--trace 0`` prints the end-to-end metrics,
with its timings scaled to a fixed machine speed (see ``SpeedProbe``);
``--trace 1`` runs the same loop with spans around every public library call
and prints the per-layer metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The full
record (environment, gate residuals, quantile detail) is printed above it
and written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 7   # fresh-interpreter set-ups per run, spread over the timed loop; the median is setup_s
IMPORT_SAMPLES = 5  # fresh interpreters per side for cli.import_s
PROBE_EVERY_S = 0.05  # a speed probe runs between ops at least this often
REF_PROBE_S = 2e-3    # op timings are reported as on a machine where one speed probe takes this long

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> unit.  Calls, self time and bytes are per traced op.
PER_LAYER_UNITS = {
    "decomposition.sub_matrix.calls": "calls/op",
    "decomposition.sub_matrix.self_s": "s/op",
    "decomposition.blocks_per_outcome": "ratio",
    "protocol.collapsed_state.calls": "calls/op",
    "protocol.collapsed_state.self_s": "s/op",
    "tensor.StateVector.calls": "calls/op",
    "tensor.StateVector.self_s": "s/op",
    "decomposition.inverse_sub_matrix.calls": "calls/op",
    "decomposition.inverse_sub_matrix.self_s": "s/op",
    "protocol.recover.calls": "calls/op",
    "protocol.recover.self_s": "s/op",
    "tensor.fidelity.calls": "calls/op",
    "tensor.fidelity.self_s": "s/op",
    "protocol.enumerate_outcomes.self_s": "s/op",
    "oracle.bell_project.calls": "calls/op",
    "oracle.bell_project.self_s": "s/op",
    "oracle.bell_project.bytes_computed": "B/op",
    "oracle.joint_state.self_s": "s/op",
    "oracle.rearrange_for_measurement.self_s": "s/op",
    "tensor.permute_qubits.self_s": "s/op",
    "oracle.cross_check.self_s": "s/op",
    "protocol.sample_outcome.self_s": "s/op",
    "protocol.outcomes_per_draw": "ratio",
    "protocol.channel_criterion.self_s": "s/op",
    "decomposition.is_proportional_to_unitary.self_s": "s/op",
    "channel.pair_determinant.calls": "calls/op",
    "cli.import_s": "s",
    "cli.load.self_s": "s/op",
    "cli.cmd_verify.self_s": "s/op",
    "cli.cmd_sweep.self_s": "s/op",
    "cli.cmd_teleport.self_s": "s/op",
    "cli.cmd_decompose.self_s": "s/op",
    "trace.untraced_ops_per_s": "1/s",
    "trace.traced_ops_per_s": "1/s",
    "trace.overhead_frac": "ratio",
}


def configure() -> None:
    """Pin BLAS threads to the CPUs this process may use and point imports at ``src``.

    Must run before numpy is imported; child processes inherit both settings.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    sys.path.insert(0, str(SRC))


def _git_revision() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_sha256() -> str:
    """Hash of the library sources, which identifies the code when the checkout has no git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "belldecomp").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _blas() -> dict:
    import ctypes
    import glob

    import numpy as np

    info: dict = {}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": dep.get("name"), "version": dep.get("version")}
    except (KeyError, TypeError):
        pass
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    try:
        info["threads_reported"] = int(ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_())
    except (IndexError, OSError, AttributeError):
        info["threads_reported"] = None
    return info


def calibration_ms(reps: int = 5) -> float:
    """Median time of a fixed pure-Python loop: shows when the machine itself runs slow."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        x = 0
        for k in range(200_000):
            x += k
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def environment(seed: int) -> dict:
    import numpy as np

    return {
        "git_revision": _git_revision(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads_set": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "loadavg_start": os.getloadavg(),
        "calibration_ms_start": calibration_ms(),
    }


def set_up_here(wl) -> None:
    """The workload's set-up in this process, with the library checked to come from ``src``."""
    wl.setup()
    where = Path(wl.bd.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"belldecomp was imported from {where}, not from {SRC}")


class SetupSampler:
    """Seconds from just before ``import belldecomp`` until the workload's library objects exist.

    Each sample is a fresh interpreter (``setup_probe.py``) that has loaded
    nothing but the standard library, so numpy's import is counted as a user's
    first call pays it.  Warm-up ops are not included: they would make set-up
    time a copy of op latency and bury the import and construction cost this
    metric is for.  The samples are taken between rounds, evenly over the timed
    loop, because a shared machine can change speed in phases of tens of
    seconds, and back-to-back samples would all land in one phase.
    """

    def __init__(self, wl) -> None:
        self.spec = OUT / f"setup-{wl.name}-{os.getpid()}.pickle"
        self.spec.write_bytes(pickle.dumps(wl.setup_spec()))
        self.samples: list[float] = []

    def due(self, elapsed: float, seconds: float) -> None:
        """Take the samples whose share of the loop has passed."""
        while len(self.samples) < SETUP_SAMPLES and elapsed >= len(self.samples) * seconds / SETUP_SAMPLES:
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), str(self.spec)],
                capture_output=True, text=True, check=True, timeout=60,
            )
            self.samples.append(float(proc.stdout.strip().splitlines()[-1]))

    def close(self) -> None:
        self.spec.unlink(missing_ok=True)


class SpeedProbe:
    """A fixed piece of the benchmark's own work, timed between ops to read the machine's speed.

    A shared machine can run in slow and fast phases of seconds to minutes,
    about 1.7x apart, and how much of a run falls in each phase differs from
    run to run.  Each op's latency is therefore scaled by ``REF_PROBE_S`` over
    the mean of the probes taken just before and just after it (see
    ``scale_to_reference``).  The probe mixes what the library spends its time
    on: an interpreter loop, a small-tensor contraction written in the
    benchmark (``reference_collapsed``) and small complex matrix products.  It
    never calls the library, and it runs outside the timed interval.
    """

    def __init__(self) -> None:
        import numpy as np

        from workloads import CONVENTIONS, raw_instance

        rng = np.random.default_rng(0)
        self.raw = raw_instance(rng, 4, CONVENTIONS[0])
        self.outcomes = [tuple(int(r) for r in rng.integers(1, 5, size=4)) for _ in range(6)]
        self.matrix = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        self.samples: list[tuple[int, float]] = []  # (ops completed before it ran, seconds)
        self.last = -math.inf

    def __call__(self, ops_done: int) -> None:
        import numpy as np

        from workloads import reference_collapsed

        t0 = time.perf_counter()
        x = 0
        for k in range(20_000):
            x += k
        for outcome in self.outcomes:
            reference_collapsed(self.raw, outcome)
        for _ in range(100):
            np.abs(self.matrix @ self.matrix).max()
        self.last = time.perf_counter()
        self.samples.append((ops_done, self.last - t0))

    def due(self, ops_done: int) -> None:
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self(ops_done)


def scale_to_reference(lat: list[float], probes: list[tuple[int, float]]) -> list[float]:
    """Each op's latency times ``REF_PROBE_S`` over the mean of the probes just before and after it.

    ``probes`` holds (ops completed before the probe ran, seconds), in order,
    with one probe before the first op and one after the last.
    """
    scaled = []
    j = 0
    for k, t in enumerate(lat):
        while probes[j + 1][0] <= k:
            j += 1
        scaled.append(t * REF_PROBE_S / ((probes[j][1] + probes[j + 1][1]) / 2))
    return scaled


class Gate:
    """Counts ops and failures and keeps the worst value of every residual.

    ``out`` is None for an op that raised; it counts as failed, as does an
    output the gate cannot even read.
    """

    def __init__(self, wl) -> None:
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.worst: dict[str, float] = {}
        self.errors: list[str] = []

    def __call__(self, i: int, out) -> None:
        ok, residuals = False, {}
        if out is not None:
            try:
                ok, residuals = self.wl.check(i, out)
            except Exception:  # malformed output from the library fails the op, not the run
                self.errors.append(traceback.format_exc())
        self.attempted += 1
        self.failed += not ok
        for k, v in residuals.items():
            self.worst[k] = max(v, self.worst.get(k, -math.inf))


def run_loop(wl, seconds: float, first: int, gate: Gate, tracer=None, modules=None, sampler=None,
             probe=None) -> dict:
    """Closed loop until ``seconds`` have passed, stopping only at whole rounds.

    Untraced, every op is timed plainly, ``sampler`` takes its set-up samples
    between rounds (any left over after the loop), and ``probe`` runs before
    the first op, between ops at least every ``PROBE_EVERY_S`` and after the
    last op.  Traced, rounds
    alternate between untraced and traced (ABBA order, in whole pairs of
    rounds), so the two latency lists see the same input mix and give the
    tracing overhead.
    """
    lat: dict[bool, list[float]] = {False: [], True: []}
    i = first
    pairs = 0
    begin = time.perf_counter()
    if probe is not None:
        probe(0)
    while True:
        if sampler is not None:
            sampler.due(time.perf_counter() - begin, seconds)
        modes = (False,) if tracer is None else ((False, True) if pairs % 2 == 0 else (True, False))
        for traced in modes:
            for _ in range(wl.round_len):
                if traced:
                    tracer.op_id = i
                    tracer.install(modules)
                t0 = time.perf_counter()
                try:
                    out = wl.op(i, in_process=tracer is not None)
                except Exception:  # a failing op is counted by the gate, not fatal to the run
                    out = None
                    gate.errors.append(traceback.format_exc())
                finally:
                    t1 = time.perf_counter()
                    if traced:
                        tracer.remove()
                lat[traced].append(t1 - t0)
                gate(i, out)
                del out
                i += 1
                if probe is not None:
                    probe.due(i - first)
        pairs += 1
        if time.perf_counter() - begin >= seconds:
            if probe is not None and probe.samples[-1][0] != i - first:
                probe(i - first)
            if sampler is not None:
                sampler.due(math.inf, seconds)
            return lat


def end_to_end(wl, wall: list[float], probes: list[tuple[int, float]], setups: list[float],
               peak_rss_kb: int) -> tuple[dict, dict]:
    """Set-up and op timings scaled to the reference speed, and memory; the wall-clock timings go in the detail.

    Op timings are scaled op by op.  Set-up time is scaled by the run's median
    probe instead: a fresh interpreter's import time follows the probes taken
    around it only loosely, but follows the machine's speed over a run.
    """
    import numpy as np

    lat = scale_to_reference(wall, probes)
    tail = float(np.percentile(lat, wl.tail_pct))
    probe_s = [t for _, t in probes]
    metrics = {
        "setup_s": statistics.median(setups) * REF_PROBE_S / statistics.median(probe_s),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail * 1e3,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    detail = {
        "ops": len(lat),
        "timed_s": sum(wall),
        "op_tail_percentile": wl.tail_pct,
        "op_tail_samples_beyond": sum(x > tail for x in lat),
        "op_quartiles_ms": [q * 1e3 for q in statistics.quantiles(lat, n=4)] if len(lat) > 1 else None,
        "wall_clock": {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(wall) / sum(wall),
            "op_p50_ms": statistics.median(wall) * 1e3,
            "op_tail_ms": float(np.percentile(wall, wl.tail_pct)) * 1e3,
        },
        "speed_probes": len(probes),
        "speed_probe_ms": {"reference": REF_PROBE_S * 1e3, "min": min(probe_s) * 1e3,
                           "median": statistics.median(probe_s) * 1e3, "max": max(probe_s) * 1e3},
        "setup_samples_s": setups,
        "peak_rss_of": "children (CLI subprocesses)" if wl.name == "cli-mix" else "this process",
    }
    return metrics, detail


def import_cost() -> tuple[float, dict]:
    """Fresh ``import belldecomp.cli`` minus a bare interpreter start, medians of interleaved runs."""
    bare, full = [], []
    for _ in range(IMPORT_SAMPLES):
        for code, dest in (("pass", bare), ("import belldecomp.cli", full)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
            dest.append(time.perf_counter() - t0)
    return statistics.median(full) - statistics.median(bare), {"bare_s": bare, "import_s": full}


def per_layer(wl, lat: dict, summary: dict, import_s: float) -> tuple[dict, dict]:
    calls, self_s = summary["calls"], summary["self_s"]
    n_ops = len(lat[True])

    def c(name):
        return calls.get(name, 0) / n_ops

    def s(*names):
        return sum(self_s.get(name, 0.0) for name in names) / n_ops

    collapses = calls.get("protocol.collapsed_state", 0)
    draws = calls.get("protocol.sample_outcome", 0)
    untraced = len(lat[False]) / sum(lat[False])
    traced = n_ops / sum(lat[True])
    metrics = {
        "decomposition.sub_matrix.calls": c("decomposition.sub_matrix"),
        "decomposition.sub_matrix.self_s": s("decomposition.sub_matrix"),
        "decomposition.blocks_per_outcome": summary["sub_matrix_in_collapse"] / collapses if collapses else 0.0,
        "protocol.collapsed_state.calls": c("protocol.collapsed_state"),
        "protocol.collapsed_state.self_s": s("protocol.collapsed_state"),
        "tensor.StateVector.calls": c("tensor.StateVector"),
        "tensor.StateVector.self_s": s("tensor.StateVector"),
        "decomposition.inverse_sub_matrix.calls": c("decomposition.inverse_sub_matrix"),
        "decomposition.inverse_sub_matrix.self_s": s("decomposition.inverse_sub_matrix"),
        "protocol.recover.calls": c("protocol.recover"),
        "protocol.recover.self_s": s("protocol.recover"),
        "tensor.fidelity.calls": c("tensor.fidelity"),
        "tensor.fidelity.self_s": s("tensor.fidelity"),
        "protocol.enumerate_outcomes.self_s": s("protocol.enumerate_outcomes"),
        "oracle.bell_project.calls": c("oracle.bell_project"),
        "oracle.bell_project.self_s": s("oracle.bell_project"),
        # Computed, not measured: each call reads a 3n-qubit joint state of 16 * 8^n bytes.
        "oracle.bell_project.bytes_computed": c("oracle.bell_project") * 16 * 8**wl.oracle_n,
        "oracle.joint_state.self_s": s("oracle.joint_state"),
        "oracle.rearrange_for_measurement.self_s": s("oracle.rearrange_for_measurement"),
        "tensor.permute_qubits.self_s": s("tensor.permute_qubits"),
        "oracle.cross_check.self_s": s("oracle.cross_check"),
        "protocol.sample_outcome.self_s": s("protocol.sample_outcome"),
        "protocol.outcomes_per_draw": summary["collapses_in_draws"] / draws if draws else 0.0,
        "protocol.channel_criterion.self_s": s("protocol.channel_criterion"),
        "decomposition.is_proportional_to_unitary.self_s": s("decomposition.is_proportional_to_unitary"),
        "channel.pair_determinant.calls": c("channel.pair_determinant"),
        "cli.import_s": import_s,
        "cli.load.self_s": s("cli.load_state", "cli.load_channel"),
        "cli.cmd_verify.self_s": s("cli.cmd_verify"),
        "cli.cmd_sweep.self_s": s("cli.cmd_sweep"),
        "cli.cmd_teleport.self_s": s("cli.cmd_teleport"),
        "cli.cmd_decompose.self_s": s("cli.cmd_decompose"),
        "trace.untraced_ops_per_s": untraced,
        "trace.traced_ops_per_s": traced,
        "trace.overhead_frac": untraced / traced - 1.0,
    }
    traced_time = sum(lat[True])
    module_self = {}
    for name, v in self_s.items():
        mod = name.split(".")[0]
        module_self[mod] = module_self.get(mod, 0.0) + v
    detail = {
        "traced_ops": n_ops,
        "untraced_ops": len(lat[False]),
        "self_share_of_traced_op_time": {m: v / traced_time for m, v in sorted(module_self.items())},
        "calls_total": {k: v for k, v in calls.items() if v},
        "self_s_total": {k: v for k, v in self_s.items() if v},
    }
    if wl.name == "teleport-small":
        traced_n = [wl.num_qubits(i) for i in summary["op_ids"]]
        detail["mean_4_pow_n_over_traced_ops"] = sum(4**n for n in traced_n) / len(traced_n)
    return metrics, detail


def measure(name: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None) -> dict:
    """One benchmark run; returns the full record, with the contract's result under ``result``."""
    from workloads import WORKLOADS

    sizes = sizes or {}
    OUT.mkdir(exist_ok=True)
    env = environment(seed)
    wl = WORKLOADS[name](seed, OUT, **sizes)
    gate = Gate(wl)
    try:
        set_up_here(wl)
        warmup_ops = wl.warmup_ops
        t0 = time.perf_counter()
        warm_outs = [wl.op(i) for i in range(warmup_ops)]
        warmup_s = time.perf_counter() - t0
        for i, out in enumerate(warm_outs):
            gate(i, out)
        warm_failed, gate.attempted, gate.failed = gate.failed, 0, 0
        del warm_outs
        record: dict = {"workload": name, "trace": int(trace), "seconds": seconds, "sizes": sizes}
        if not trace:
            sampler = SetupSampler(wl)
            probe = SpeedProbe()
            try:
                lat = run_loop(wl, seconds, warmup_ops, gate, sampler=sampler, probe=probe)[False]
            finally:
                sampler.close()
            # On cli-mix the set-up probes are children too, but each imports only
            # what every CLI child imports before doing its work, so it never exceeds their peak.
            who = resource.RUSAGE_CHILDREN if name == "cli-mix" else resource.RUSAGE_SELF
            peak_rss_kb = resource.getrusage(who).ru_maxrss
            metrics, detail = end_to_end(wl, lat, probe.samples, sampler.samples, peak_rss_kb)
            record["speed_probe_samples"] = probe.samples
            units = END_TO_END_UNITS
        else:
            from tracer import Tracer, library_modules, summarize

            tracer = Tracer()
            lat = run_loop(wl, seconds, warmup_ops, gate, tracer, library_modules())
            summary = summarize(tracer)
            imp, imp_detail = import_cost()
            metrics, detail = per_layer(wl, lat, summary, imp)
            detail["import_cost"] = imp_detail
            tracer.save(OUT / f"spans-{name}.npz")
            units = PER_LAYER_UNITS
    finally:
        wl.close()
    env["loadavg_end"] = os.getloadavg()
    env["calibration_ms_end"] = calibration_ms()
    env["warmup_ops"] = warmup_ops
    env["warmup_ops_failed"] = warm_failed
    env["warmup_s"] = warmup_s
    record.update(env=env, detail=detail, residuals_worst=gate.worst, errors=gate.errors[:3],
                  failed_frac=gate.failed / gate.attempted, latencies_s=lat)
    record["result"] = {
        "correct": gate.failed == 0 and warm_failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return record


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["predict-n6", "verify-n6", "teleport-small", "cli-mix"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "belldecomp" / "__init__.py").is_file():
        print(f"error: no belldecomp sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    configure()
    sys.path.insert(0, str(HERE))
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    path = OUT / f"result-{args.workload}-trace{args.trace}-seed{args.seed}.json"
    path.write_text(json.dumps(record, indent=1))
    print(f"{args.workload} seed={args.seed} trace={args.trace} attempted={record['result']['attempted']} "
          f"failed={record['result']['failed']} failed_frac={record['failed_frac']}")
    for k, m in record["result"]["metrics"].items():
        print(f"  {k:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: record[k] for k in ("env", "detail", "residuals_worst", "errors")}, default=float))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
