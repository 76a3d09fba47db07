"""Release gate: one test per acceptance criterion.

Each test prints a single [criterion N] PASS/FAIL line with the measured
quantity (run pytest with -s to see the lines as they appear).
"""

import itertools
import time
from functools import reduce

import numpy as np

from belldecomp import (
    Channel,
    EntangledPair,
    NotInvertibleError,
    PairingConvention,
    StateVector,
    TeleportationInstance,
    bell_state,
    cli,
    collapsed_state,
    cross_check,
    enumerate_outcomes,
    inverse_sub_matrix,
    joint_state,
    random_instance,
    random_state,
    rearrange_for_measurement,
    recover,
    sub_matrix,
)

BHF = PairingConvention.BOB_HOLDS_FIRST
BHS = PairingConvention.BOB_HOLDS_SECOND
CONVENTIONS = (BHF, BHS)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

S = 1 / np.sqrt(2)


def mes_pair() -> EntangledPair:
    return EntangledPair(np.array([1, 0, 0, 1]) / np.sqrt(2))


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_oracle_equivalence():
    """20 random instances per size and convention agree with the oracle."""
    start = time.perf_counter()
    worst = 0.0
    instances = 0
    for n in (1, 2, 3, 4):
        for conv in CONVENTIONS:
            rng = np.random.default_rng(1000 + n)
            for _ in range(20):
                inst = random_instance(n, rng, conv)
                rep = cross_check(inst, tol=1e-10)
                worst = max(worst, rep.max_abs_diff)
                instances += 1
                if not rep.passed:
                    break
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 30.0
    report(
        1,
        "oracle equivalence",
        ok,
        f"max|diff| = {worst:.3e} over {instances} instances, {elapsed:.1f}s",
    )


def test_criterion_2_block_table_parity():
    """Blocks match their closed forms entry for entry, and tensor factorization holds."""
    rng = np.random.default_rng(2000)
    exact = True
    for _ in range(10):
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        y /= np.linalg.norm(y)
        p = EntangledPair(y)
        y1, y2, y3, y4 = y
        first = [
            np.array([[y1, y2], [y3, y4]]),
            np.array([[y1, -y2], [y3, -y4]]),
            np.array([[y2, y1], [y4, y3]]),
            np.array([[y2, -y1], [y4, -y3]]),
        ]
        second = [
            np.array([[y1, y3], [y2, y4]]),
            np.array([[y1, -y3], [y2, -y4]]),
            np.array([[y3, y1], [y4, y2]]),
            np.array([[y3, -y1], [y4, -y2]]),
        ]
        for r in (1, 2, 3, 4):
            exact &= np.array_equal(sub_matrix(p, r, BHF), first[r - 1])
            exact &= np.array_equal(sub_matrix(p, r, BHS), second[r - 1])

    from belldecomp import decomposition_matrix

    pairs = tuple(
        EntangledPair(v / np.linalg.norm(v))
        for v in (rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4)))
    )
    dm = decomposition_matrix(Channel(pairs), (2, 3, 4), BHF)
    blocks = [sub_matrix(p, r, BHF) for p, r in zip(pairs, (2, 3, 4))]
    factored = np.array_equal(dm, np.kron(np.kron(blocks[0], blocks[1]), blocks[2]))
    report(
        2,
        "block table parity",
        exact and factored,
        f"entry-exact over 10 pairs x 4 results x 2 conventions, three-factor product {'exact' if factored else 'broken'}",
    )


def test_criterion_3_maximally_entangled_reduction():
    """MES blocks and inverses reduce to scaled Paulis, entry-exact."""
    blocks_expected = [I2 * S, Z * S, X * S, -1j * Y * S]
    inverses_expected = [I2 * np.sqrt(2), Z * np.sqrt(2), X * np.sqrt(2), 1j * Y * np.sqrt(2)]
    ok = True
    for conv in CONVENTIONS:
        for r in (1, 2, 3, 4):
            ok &= np.array_equal(sub_matrix(mes_pair(), r, conv), blocks_expected[r - 1])
            ok &= np.array_equal(
                inverse_sub_matrix(mes_pair(), r, conv), inverses_expected[r - 1]
            )
    report(3, "maximally entangled reduction", ok, "blocks and inverses entry-exact")


def test_criterion_4_completeness():
    """Probabilities sum to 1; maximally entangled channels are uniform."""
    worst_sum = 0.0
    for n in (1, 2, 3, 4):
        for conv in CONVENTIONS:
            rng = np.random.default_rng(4000 + n)
            inst = random_instance(n, rng, conv)
            total = sum(r.probability for r in enumerate_outcomes(inst, compute_recovery=False))
            worst_sum = max(worst_sum, abs(total - 1.0))
    worst_uniform = 0.0
    for n in (1, 2, 3):
        rng = np.random.default_rng(4100 + n)
        ch = Channel(tuple(mes_pair() for _ in range(n)))
        inst = TeleportationInstance(random_state(n, rng), ch, BHS)
        for r in enumerate_outcomes(inst, compute_recovery=False):
            worst_uniform = max(worst_uniform, abs(r.probability - 4.0 ** -n))
    ok = worst_sum <= 1e-10 and worst_uniform <= 1e-12
    report(
        4,
        "completeness",
        ok,
        f"worst |sum(p)-1| = {worst_sum:.3e}, worst |p - 4^-N| = {worst_uniform:.3e}",
    )


def test_criterion_5_recovery():
    """Fidelity 1 for invertible channels; named failure otherwise."""
    worst_fid = 1.0
    for n in (1, 2, 3):
        for conv in CONVENTIONS:
            rng = np.random.default_rng(5000 + n)
            inst = random_instance(n, rng, conv)
            for rec in enumerate_outcomes(inst):
                if rec.recovered_fidelity is not None:
                    worst_fid = min(worst_fid, rec.recovered_fidelity)
    degenerate = EntangledPair(np.array([1.0, 0, 0, 1e-10], dtype=complex))
    ch = Channel((mes_pair(), degenerate))
    inst = TeleportationInstance(random_state(2, np.random.default_rng(5100)), ch, BHS)
    c = collapsed_state(inst, (1, 1))
    named = False
    try:
        recover(c, inst, (1, 1))
    except NotInvertibleError as err:
        named = err.pair_indices == (2,)
    ok = worst_fid >= 1.0 - 1e-10 and named
    report(
        5,
        "recovery",
        ok,
        f"min fidelity = {worst_fid:.15f}, degenerate pair named: {named}",
    )


def test_criterion_6_special_channels():
    """Diagonal three-pair channel and the general single-pair channel."""
    rng = np.random.default_rng(6000)
    ok = True

    coeffs = [(0.9, np.sqrt(1 - 0.81)), (0.8, 0.6), (0.6, 0.8)]
    pairs = tuple(
        EntangledPair(np.array([a, 0.0, 0.0, b], dtype=complex)) for a, b in coeffs
    )
    for conv in CONVENTIONS:
        for p, (a, b) in zip(pairs, coeffs):
            ok &= np.array_equal(sub_matrix(p, 1, conv), np.diag([a, b]).astype(complex))
            ok &= np.array_equal(sub_matrix(p, 2, conv), np.diag([a, -b]).astype(complex))
            ok &= np.array_equal(
                sub_matrix(p, 3, conv), np.array([[0, a], [b, 0]], dtype=complex)
            )
            ok &= np.array_equal(
                sub_matrix(p, 4, conv), np.array([[0, -a], [b, 0]], dtype=complex)
            )
        inst = TeleportationInstance(random_state(3, rng), Channel(pairs), conv)
        rep = cross_check(inst, tol=1e-10)
        ok &= rep.passed

    single = EntangledPair(np.array([0.8, 0.0, 0.0, 0.6], dtype=complex))
    x = random_state(1, rng)
    inst1 = TeleportationInstance(x, Channel((single,)), BHS)
    swapped = collapsed_state(inst1, (3,))
    expected = np.array([0.8 * x.amps[1], 0.6 * x.amps[0]]) / np.sqrt(2)
    ok &= bool(np.allclose(swapped.amps, expected, atol=1e-14))
    rep1 = cross_check(inst1, tol=1e-10)
    ok &= rep1.passed
    report(
        6,
        "special channels",
        ok,
        "diagonal blocks exact, single-pair swap confirmed against oracle",
    )


def test_criterion_7_reconstruction():
    """Bell bras tensored with collapsed states rebuild the joint state."""
    worst = 0.0
    for n in (1, 2, 3):
        for conv in CONVENTIONS:
            rng = np.random.default_rng(7000 + n)
            inst = random_instance(n, rng, conv)
            rs = rearrange_for_measurement(joint_state(inst), inst)
            rebuilt = np.zeros(1 << (3 * n), dtype=complex)
            for out in itertools.product((1, 2, 3, 4), repeat=n):
                bell = reduce(np.kron, [bell_state(r) for r in out])
                rebuilt += np.kron(bell, collapsed_state(inst, out).amps)
            worst = max(worst, float(np.abs(rebuilt - rs.amps).max()))
    ok = worst <= 1e-10
    report(7, "reconstruction identity", ok, f"max|diff| = {worst:.3e} for N in 1..3")


def test_criterion_8_cli_determinism(tmp_path, capsys):
    """verify and sweep are byte-identical across same-seed runs."""
    args = ["verify", "--random-instances", "1", "--seed", "0"]
    assert cli.main(args) == 0
    first = capsys.readouterr().out
    assert cli.main(args) == 0
    second = capsys.readouterr().out
    verify_same = first.encode() == second.encode()

    import json

    state = tmp_path / "s.json"
    state.write_text(json.dumps({"num_qubits": 1, "amps": [[0.6, 0.0], [0.0, 0.8]]}))
    channel = tmp_path / "c.json"
    channel.write_text(json.dumps({"pairs": [[[0.8, 0], [0, 0], [0, 0], [0.6, 0]]]}))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    sweep = ["sweep", "--state", str(state), "--channel", str(channel), "--theta-steps", "9"]
    assert cli.main(sweep + ["--output", str(a)]) == 0
    assert cli.main(sweep + ["--output", str(b)]) == 0
    sweep_same = a.read_bytes() == b.read_bytes()

    report(
        8,
        "deterministic reports",
        verify_same and sweep_same,
        f"verify bytes equal: {verify_same}, sweep bytes equal: {sweep_same}",
    )
