"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.configure()

import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "predict-n6": {"n": 2, "pool": 2},
    "verify-n6": {"n": 2, "pool": 2},
    "teleport-small": {"sizes": (2, 3), "pool_rounds": 2},
    "cli-mix": {"teleport_n": 2, "decompose_n": 2, "sweep_n": 2, "sweep_steps": 2, "pool": 2},
}


def tiny(name: str, seed: int = 5):
    return workloads.WORKLOADS[name](seed, run.OUT, **TINY[name])


@pytest.fixture(scope="module", autouse=True)
def out_dir():
    run.OUT.mkdir(exist_ok=True)


@pytest.fixture(autouse=True)
def few_fresh_interpreters(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)
    monkeypatch.setattr(run, "IMPORT_SAMPLES", 1)


def _measure(name, trace, seed=5):
    sizes = {k: list(v) if isinstance(v, tuple) else v for k, v in TINY[name].items()}
    return run.measure(name, seed, 0.0, trace, sizes=sizes)


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_appears_with_its_unit(name, trace):
    record = _measure(name, trace)
    result = record["result"]
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {d["name"]: d["unit"] for d in declared}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    json.dumps(result)


def test_benchmark_file_names_the_workloads_the_runner_knows():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [d["name"] for d in BENCHMARK["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [d["name"] for d in BENCHMARK["per_layer"]] == list(run.PER_LAYER_UNITS)


def test_wrappers_reach_every_importing_namespace_and_are_removed():
    mods = tracer.library_modules()
    before = tracer.bindings(mods)
    collapsed = mods["protocol"].collapsed_state
    tr = tracer.Tracer()
    tr.install(mods)
    try:
        wrapped = mods["protocol"].collapsed_state
        assert wrapped is not collapsed
        assert mods["oracle"].collapsed_state is wrapped
        assert mods["cli"].collapsed_state is wrapped
        assert mods["belldecomp"].collapsed_state is wrapped
        assert mods["cli"].enumerate_outcomes is mods["protocol"].enumerate_outcomes
        assert mods["protocol"].sub_matrix is mods["decomposition"].sub_matrix
    finally:
        tr.remove()
    assert all(vars(ns)[attr] is orig for _, ns, attr, orig in before)


@pytest.mark.parametrize("name", ["verify-n6", "cli-mix"])
def test_originals_are_back_after_a_traced_run(name):
    mods = tracer.library_modules()
    before = tracer.bindings(mods)
    assert before
    _measure(name, True)
    after = tracer.bindings(mods)
    assert all(vars(ns)[attr] is orig for _, ns, attr, orig in before)
    assert [(n, id(ns), a, id(o)) for n, ns, a, o in after] == [(n, id(ns), a, id(o)) for n, ns, a, o in before]


def _raw_bytes(wl) -> bytes:
    if isinstance(wl, workloads.CliMix):
        files = b"".join(Path(p).read_bytes() for f in wl.files for k, p in sorted(f.items()) if k != "outcome")
        argv = [a.replace(str(wl.tmp), "TMP") for i in range(8) for a in wl.argv(i)]
        return files + json.dumps(argv).encode()
    parts = []
    for r in wl.raw:
        parts += [r["state"].tobytes(), r["pairs"].tobytes(), r["convention"].encode()]
    return b"".join(parts)


@pytest.mark.parametrize("name", list(TINY))
def test_same_seed_gives_byte_identical_inputs(name):
    a, b, c = tiny(name, 9), tiny(name, 9), tiny(name, 10)
    try:
        assert _raw_bytes(a) == _raw_bytes(b)
        assert _raw_bytes(a) != _raw_bytes(c)
    finally:
        for wl in (a, b, c):
            wl.close()


def test_predict_instances_hold_the_special_pairs():
    wl = workloads.PredictN6(3, run.OUT)
    dets = [abs(y[0] * y[3] - y[1] * y[2]) for r in wl.raw for y in r["pairs"]]
    assert sum(abs(d - 0.5) < 1e-15 for d in dets) == len(wl.raw)
    assert sum(abs(d - workloads.NEAR_SINGULAR_DET) < 1e-12 for d in dets) == len(wl.raw)
    assert [r["convention"] for r in wl.raw] == list(workloads.CONVENTIONS) * (len(wl.raw) // 2)


def _gate_counts(wl, i, out) -> tuple[int, int]:
    gate = run.Gate(wl)
    gate(i, out)
    return gate.attempted, gate.failed


def test_gate_fails_perturbed_predictions():
    wl = tiny("predict-n6")
    wl.setup()
    report, records = wl.op(0)
    assert _gate_counts(wl, 0, (report, records)) == (1, 0)
    shifted = list(records)
    shifted[0] = dataclasses.replace(shifted[0], probability=shifted[0].probability + 1e-8)
    assert _gate_counts(wl, 0, (report, shifted)) == (1, 1)
    low = [dataclasses.replace(r, recovered_fidelity=1 - 1e-9) for r in records]
    assert _gate_counts(wl, 0, (report, low)) == (1, 1)
    # A wrong collapsed state with the right probabilities is caught by the reference spot checks.
    swapped = [dataclasses.replace(r, collapsed=records[-1 - k].collapsed) for k, r in enumerate(records)]
    assert _gate_counts(wl, 0, (report, swapped)) == (1, 1)


def test_gate_fails_perturbed_oracle_reports():
    wl = tiny("verify-n6")
    wl.setup()
    report = wl.op(0)
    assert _gate_counts(wl, 0, report) == (1, 0)
    assert _gate_counts(wl, 0, dataclasses.replace(report, passed=False)) == (1, 1)
    assert _gate_counts(wl, 0, dataclasses.replace(report, num_outcomes=report.num_outcomes - 1)) == (1, 1)


def test_verify_gate_checks_the_oracle_projection_itself(monkeypatch):
    wl = tiny("verify-n6")
    wl.setup()
    report = wl.op(0)
    project = wl.bd.bell_project
    # An oracle whose projections drift passes its own report but not the reference contraction.
    monkeypatch.setattr(wl.bd, "bell_project", lambda rs, out: wl.bd.StateVector(
        wl.n, project(rs, out).amps * (1 + 1e-6)))
    assert _gate_counts(wl, 0, report) == (1, 1)


def test_setup_probe_starts_its_clock_with_numpy_unloaded():
    wl = tiny("teleport-small")
    spec = run.OUT / "setup-test.pickle"
    spec.write_bytes(pickle.dumps(wl.setup_spec()))
    try:
        code = (f"import pickle, sys; sys.path.insert(0, {str(HERE)!r}); import setup_probe; "
                f"pickle.loads(open({str(spec)!r}, 'rb').read()); print('numpy' in sys.modules)")
        loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert loaded.stdout.strip() == "False"
        probe = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(spec)],
                               capture_output=True, text=True, check=True)
        assert float(probe.stdout) > 0
    finally:
        spec.unlink()


def test_gate_fails_perturbed_teleport_draws():
    wl = tiny("teleport-small")
    wl.setup()
    outcome, amps, fid = wl.op(0)
    assert _gate_counts(wl, 0, (outcome, amps, fid)) == (1, 0)
    assert _gate_counts(wl, 0, (outcome, amps, fid - 1e-9)) == (1, 1)
    assert _gate_counts(wl, 0, (outcome, np.zeros_like(amps), fid)) == (1, 1)
    assert _gate_counts(wl, 0, (outcome, amps * (1 + 1e-6), fid)) == (1, 1)


def test_gate_fails_perturbed_cli_output():
    wl = tiny("cli-mix")
    try:
        wl.setup()
        outs = [wl.op(i, in_process=True) for i in range(wl.round_len)]
        assert [_gate_counts(wl, i, o)[1] for i, o in enumerate(outs)] == [0, 0, 0, 0]
        verify, teleport, decompose, sweep = outs
        assert _gate_counts(wl, 0, (0, verify[1].replace("result: PASS", "result: FAIL")))[1] == 1
        worse = re.sub(r"fidelity to input: .*", "fidelity to input: 0.999999999", teleport[1])
        assert worse != teleport[1]
        assert _gate_counts(wl, 1, (0, worse))[1] == 1
        assert _gate_counts(wl, 2, (1, decompose[1]))[1] == 1
        assert _gate_counts(wl, 3, (0, "\n".join(sweep[1].splitlines()[:-1])))[1] == 1
        lines = sweep[1].splitlines()
        theta, outcome, p, *rest = lines[1].split(",")
        lines[1] = ",".join([theta, outcome, repr(float(p) + 1e-6), *rest])
        assert _gate_counts(wl, 3, (0, "\n".join(lines)))[1] == 1
    finally:
        wl.close()


def test_traced_counts_match_the_workload_shape():
    predict = _measure("predict-n6", True)["result"]["metrics"]
    assert predict["oracle.bell_project.calls"]["value"] == 0
    assert predict["oracle.cross_check.self_s"]["value"] == 0
    assert predict["protocol.collapsed_state.calls"]["value"] == 4**2
    assert predict["decomposition.blocks_per_outcome"]["value"] == 2
    verify = _measure("verify-n6", True)["result"]["metrics"]
    assert verify["oracle.bell_project.calls"]["value"] == 4**2
    assert verify["oracle.bell_project.bytes_computed"]["value"] == 4**2 * 16 * 8**2
    record = _measure("teleport-small", True)
    metrics = record["result"]["metrics"]
    assert metrics["protocol.outcomes_per_draw"]["value"] == record["detail"]["mean_4_pow_n_over_traced_ops"]
    assert metrics["protocol.outcomes_per_draw"]["value"] == (4**2 + 4**3) / 2


def test_op_timings_are_scaled_by_the_probes_around_them():
    ref = run.REF_PROBE_S
    # Op 0 ran between probes of ref and ref; ops 1 and 2 between probes of 2 ref and 2 ref.
    probes = [(0, ref), (1, ref), (1, 2 * ref), (3, 2 * ref)]
    assert run.scale_to_reference([0.5, 2.0, 3.0], probes) == [0.5, 1.0, 1.5]
    assert run.scale_to_reference([0.5], [(0, ref), (1, 3 * ref)]) == [0.25]


def test_speed_probes_bracket_every_timed_op():
    record = _measure("teleport-small", False)
    samples = record["speed_probe_samples"]
    assert samples[0][0] == 0
    assert samples[-1][0] == record["result"]["attempted"]
    assert [n for n, _ in samples] == sorted({n for n, _ in samples})
    speed = run.REF_PROBE_S / statistics.median(t for _, t in samples)
    wall_setup = record["detail"]["wall_clock"]["setup_s"]
    assert record["result"]["metrics"]["setup_s"]["value"] == pytest.approx(wall_setup * speed)


def test_exits_nonzero_without_sources():
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        bare = Path(tmp)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "teleport-small", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
