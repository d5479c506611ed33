"""Tests for the interactive delegation engines and their compilation."""

import hashlib
import tracemalloc
from itertools import product

import numpy as np
import pytest
from scipy.stats import chisquare

from qpiplab import audit
from qpiplab import pcalg as pa
from qpiplab import polyauth as pq
from qpiplab import polycode as pc
from qpiplab import qcore as qc
from qpiplab import qpip

import oracles

P = pc.CodeParams()
Q, D, M = P.q, P.d, P.m
BLOCK_SHAPE = qc.RegisterShape((Q,) * M)
LG = pc.LogicalGateTag


def random_state(dims, rng):
    dim = int(np.prod(dims))
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return qc.StateVector(qc.RegisterShape(tuple(dims)),
                          v / np.linalg.norm(v))


def identity_gate():
    return qpip.CircuitGate(
        qc.UnitaryMatrix(qc.RegisterShape((2,)), np.eye(2),
                         check_unitary=False), (0,))


# ------------------------------------------------- circuit representation


def test_circuit_rejects_out_of_range_wires():
    with pytest.raises(ValueError):
        qpip.CircuitIR(2, Q, (qpip.CircuitGate(LG("LX", 1), (2,)),))


def test_circuit_rejects_wrong_mode_ops():
    with pytest.raises(ValueError):
        qpip.CircuitIR(2, 2, (qpip.CircuitGate(LG("LX", 1), (0,)),))
    with pytest.raises(ValueError):
        qpip.CircuitIR(2, Q, (qpip.CircuitGate(pa.GateTag("H"), (0,)),))
    with pytest.raises(ValueError):
        qpip.CircuitIR(1, 4, ())


def test_circuit_gamma_gap_is_advisory():
    with pytest.warns(RuntimeWarning):
        qpip.CircuitIR(1, Q, (), gamma=0.5)
    with pytest.raises(ValueError):
        qpip.CircuitIR(1, Q, (), gamma=1.5)


def test_gate_arity_validation():
    with pytest.raises(ValueError):
        qpip.CircuitGate(pa.GateTag("T"), (0, 1))
    with pytest.raises(ValueError):
        qpip.CircuitGate(LG("LSUM", 1), (0,))
    with pytest.raises(ValueError):
        qpip.CircuitGate(LG("LX", 1), (0, 0))


# ------------------------------------------------- compilation to rounds


def test_compile_without_toffoli_is_one_round():
    circ = qpip.CircuitIR(2, Q, (qpip.CircuitGate(LG("LSUM", 1), (0, 1)),
                                 qpip.CircuitGate(LG("LF", 1), (0,))))
    sched = qpip.compile_to_logical(circ)
    assert sched.toffoli_count == 0
    assert len(sched.rounds) == 1
    assert [(t.name, b) for t, b in sched.rounds[0]] == \
        [("LSUM", (0, 1)), ("LF", (0,))]
    assert sched.final_map == (0, 1)


def test_compile_bare_toffoli_round_zero_is_entangling_layer():
    circ = qpip.CircuitIR(3, Q, (qpip.CircuitGate(pa.GateTag("T"),
                                                  (0, 1, 2)),))
    sched = qpip.compile_to_logical(circ)
    assert sched.toffoli_count == 1
    assert sched.block_count == 6
    assert [(t.name, t.param, b) for t, b in sched.rounds[0]] == [
        ("LSUM", 1, (2, 5)), ("LSUM", Q - 1, (3, 0)),
        ("LSUM", Q - 1, (4, 1)), ("LF", -1, (2,))]
    assert sched.rounds[1] == ()
    assert sched.gadgets[0].magic_blocks == (3, 4, 5)
    assert sched.final_map == (3, 4, 5)


def test_compile_recomposition_matches_source_unitary():
    rng = qc.make_rng(17)
    circ = qpip.CircuitIR(3, Q, (
        qpip.CircuitGate(LG("LF", 1), (1,)),
        qpip.CircuitGate(LG("LSUM", 2), (0, 2)),
        qpip.CircuitGate(pa.GateTag("T"), (0, 1, 2)),
        qpip.CircuitGate(LG("LX", 3), (2,)),
        qpip.CircuitGate(LG("LCPG", 1), (1, 2)),
    ))
    sched = qpip.compile_to_logical(circ)
    shape = qc.RegisterShape((Q,) * 3)
    for idx in rng.integers(0, Q ** 3, size=12):
        basis = qc.basis_state(shape, shape.index_to_digits(int(idx)))
        direct = qpip.apply_circuit_plain(circ, basis)
        recomposed = oracles.apply_schedule_plain(sched, circ, basis)
        assert np.max(np.abs(direct.amplitudes
                             - recomposed.amplitudes)) < 1e-8


def test_compile_rejects_matrix_gates():
    cf = qpip._controlled_fourier(Q)
    circ = qpip.CircuitIR(2, Q, (qpip.CircuitGate(cf, (0, 1)),))
    with pytest.raises(ValueError):
        qpip.compile_to_logical(circ)


def test_compile_rejects_qubit_circuits():
    circ = qpip.CircuitIR(2, 2, (qpip.CircuitGate(pa.GateTag("CNOT"),
                                                  (0, 1)),))
    with pytest.raises(ValueError):
        qpip.compile_to_logical(circ)


# ------------------------------------------------------- Toffoli gadget


def test_gadget_basis_input_all_branches_correct():
    rng = qc.make_rng(71)
    shape3 = qc.RegisterShape((Q,) * 3)
    want = shape3.digits_to_index((2, 3, (0 + 2 * 3) % Q))
    seen = set()
    for _ in range(1000):
        state = qc.tensor(qpip.magic_state(Q),
                          qc.basis_state(shape3, (2, 3, 0)))
        meas, post = oracles.toffoli_gadget(state, (3, 4, 5), (0, 1, 2), rng)
        seen.add(meas)
        probs = qc.measurement_probabilities(post, (0, 1, 2))
        assert probs[want] > 1 - 1e-9
    assert len(seen) > 80  # many distinct branches exercised


def test_gadget_superposition_matches_direct_toffoli():
    rng = qc.make_rng(72)
    f = pa.gate_matrix(pa.GateTag("F"), Q)
    shape3 = qc.RegisterShape((Q,) * 3)
    inp = qc.apply_on_wires(qc.basis_state(shape3, (0, 1, 0)), f, (0,))
    want = qc.apply_on_wires(inp, pa.gate_matrix(pa.GateTag("T"), Q),
                             (0, 1, 2))
    for _ in range(20):
        state = qc.tensor(qpip.magic_state(Q), inp)
        meas, post = oracles.toffoli_gadget(state, (3, 4, 5), (0, 1, 2), rng)
        _, collapsed = qc.project_wires(post, (3, 4, 5), meas)
        got = collapsed.amplitudes.reshape(Q ** 3, Q ** 3)
        col = np.nonzero(np.abs(got).max(axis=0) > 1e-12)[0][0]
        vec = got[:, col]
        vec = vec / np.linalg.norm(vec)
        assert abs(abs(np.vdot(want.amplitudes, vec)) - 1) < 1e-8


def test_gadget_measurement_uniform():
    rng = qc.make_rng(73)
    shape3 = qc.RegisterShape((Q,) * 3)
    counts = np.zeros(Q ** 3)
    for _ in range(2000):
        state = qc.tensor(qpip.magic_state(Q),
                          qc.basis_state(shape3, (1, 2, 3)))
        meas, _ = oracles.toffoli_gadget(state, (3, 4, 5), (0, 1, 2), rng,
                                         debug=False)
        counts[shape3.digits_to_index(meas)] += 1
    assert chisquare(counts).pvalue > 0.01


def test_gadget_rejects_malformed_magic():
    rng = qc.make_rng(74)
    shape3 = qc.RegisterShape((Q,) * 3)
    state = qc.tensor(qc.basis_state(shape3, (0, 0, 0)),
                      qc.basis_state(shape3, (2, 3, 0)))
    with pytest.raises(ValueError):
        oracles.toffoli_gadget(state, (3, 4, 5), (0, 1, 2), rng)


# ---------------------------------------------------- Pauli key updates


def test_key_update_logical_x_rule():
    key = pa.SymbolicPauli(Q, (4, 0, 1), (1, 2, 3))
    keys = [key]
    qpip.pauli_key_update(keys, LG("LX", 1), (0,), P, pc.SignKey((1, -1, 1)))
    assert keys[0] == pa.SymbolicPauli(Q, (3, 1, 0), (1, 2, 3))


def test_key_update_sum_rule():
    ka = pa.SymbolicPauli(Q, (4, 0, 1), (1, 2, 3))
    kb = pa.SymbolicPauli(Q, (1, 3, 3), (2, 2, 0))
    keys = [ka, kb]
    qpip.pauli_key_update(keys, LG("LSUM", 1), (0, 1), P,
                          pc.SignKey((1, 1, 1)))
    assert keys[0] == pa.SymbolicPauli(Q, ka.x, ka.z - kb.z)
    assert keys[1] == pa.SymbolicPauli(Q, kb.x + ka.x, kb.z)


def test_key_update_fourier_rule():
    key = pa.SymbolicPauli(Q, (4, 0, 1), (1, 2, 3))
    keys = [key]
    qpip.pauli_key_update(keys, LG("LF", 1), (0,), P, pc.SignKey((1, 1, -1)))
    for i, c in enumerate(P.interp_c):
        cinv = qc.inv_mod(c, Q)
        assert keys[0].x[i] == (-cinv * key.z[i]) % Q
        assert keys[0].z[i] == (c * key.x[i]) % Q


def test_key_update_rejects_non_logical_gates():
    with pytest.raises(ValueError):
        qpip.pauli_key_update([pa.SymbolicPauli.identity(Q, M)] * 3,
                              pa.GateTag("T"), (0, 1, 2), P,
                              pc.SignKey((1, 1, 1)))


def _encode_isometry(sign, pkey):
    """Dense q^m x q map |l> -> padded codeword block."""
    cols = []
    for a in range(Q):
        enc = pc.encode_Ek(qc.basis_state(qc.RegisterShape((Q,)), (a,)),
                           sign, P)
        cols.append(enc.amplitudes)
    iso = np.column_stack(cols)
    pad = np.eye(1)
    for i in range(M):
        pad = np.kron(pad, pa.pauli_matrix_1(Q, int(pkey.x[i]),
                                             int(pkey.z[i])))
    return pad @ iso


def _decode_block_matrix(sign, pkey):
    """Dense q^m x q^m map undoing pad then the encoding circuit."""
    pad = np.eye(1)
    for i in range(M):
        pad = np.kron(pad, pa.pauli_matrix_1(Q, int(pkey.x[i]),
                                             int(pkey.z[i])))
    cols = []
    for idx in range(Q ** M):
        vec = np.zeros(Q ** M, dtype=np.complex128)
        vec[idx] = 1.0
        dec = pc.decode_Ek(qc.StateVector(BLOCK_SHAPE, vec,
                                          check_norm=False), sign, P)
        cols.append(dec.amplitudes)
    dk = np.column_stack(cols)
    return dk @ pad.conj().T


# gate -> fixed seed of its case
KEY_UPDATE_CASES = {
    LG("LX", 2): 301, LG("LZ", 3): 302, LG("LF", 1): 303, LG("LF", -1): 304,
    LG("LM", 2): 305, LG("LSUM", 2): 306, LG("LCPG", 3): 307,
}


@pytest.mark.parametrize("tag", list(KEY_UPDATE_CASES))
def test_key_update_commutes_with_transversal_action(tag):
    rng = qc.make_rng(KEY_UPDATE_CASES[tag])
    sign = pc.random_sign_key(M, rng)
    nb = 2 if tag.name in ("LSUM", "LCPG") else 1
    keys = [pc.random_pauli_key(P, rng) for _ in range(nb)]
    psi = random_state((Q,) * nb, rng)

    iso = np.eye(1)
    for b in range(nb):
        iso = np.kron(iso, _encode_isometry(sign, keys[b]))
    physical = qc.StateVector(qc.RegisterShape((Q,) * (nb * M)),
                              iso @ psi.amplitudes, check_norm=False)
    blocks_wires = [tuple(range(b * M, (b + 1) * M)) for b in range(nb)]
    if tag.name not in ("LX", "LZ"):  # logical Paulis are key shifts only
        physical = pc.apply_logical(tag, physical, blocks_wires, sign, P)
    new_keys = list(keys)
    qpip.pauli_key_update(new_keys, tag, tuple(range(nb)), P, sign)

    dec = np.eye(1)
    for b in range(nb):
        dec = np.kron(dec, _decode_block_matrix(sign, new_keys[b]))
    plain = dec @ physical.amplitudes
    tensor = plain.reshape((Q,) * (M * nb))
    # keep only the all-zero auxiliary sector of every block
    slicer = tuple(sum(([slice(None)] + [0] * (M - 1) for _ in range(nb)),
                       []))
    logical = tensor[slicer].reshape(-1)
    ref = qc.apply_on_wires(psi, qpip._plain_logical_matrix(tag, Q),
                            tuple(range(nb))
                            if nb == 2 else (0,)).amplitudes
    norm = np.linalg.norm(logical)
    assert norm > 1 - 1e-9  # auxiliaries stayed clean
    assert abs(abs(np.vdot(ref, logical / norm)) - 1) < 1e-9


def test_key_update_covers_compiled_corrections():
    rng = qc.make_rng(99)
    sign = pc.random_sign_key(M, rng)
    keys = [pc.random_pauli_key(P, rng) for _ in range(4)]
    untouched = keys[3]
    for tag, blocks in qpip.toffoli_correction_tags(1, 2, 3, Q):
        qpip.pauli_key_update(keys, tag, blocks, P, sign)
    assert all(isinstance(k, pa.SymbolicPauli) and k.num_wires == M
               for k in keys)
    assert keys[3] is untouched


@pytest.mark.parametrize("tag", [LG("LF", 1), LG("LF", -1), LG("LM", 2),
                                 LG("LSUM", 2), LG("LCPG", 3)])
def test_frame_update_matches_dense_conjugation(tag):
    """U P U^dag equals the updated frame up to phase, U the gate
    pc.apply_logical applies, checked on a random state of the blocks."""
    rng = qc.make_rng(KEY_UPDATE_CASES[tag] + 100)
    sign = pc.random_sign_key(M, rng)
    nb = 2 if tag.name in ("LSUM", "LCPG") else 1
    wires_of = [tuple(range(b * M, (b + 1) * M)) for b in range(nb)]
    touched = (2, 0)[:nb]  # list positions of the touched frames
    frames = [pa.SymbolicPauli(Q, rng.integers(0, Q, M),
                               rng.integers(0, Q, M)) for _ in range(3)]
    before = list(frames)
    qpip.pauli_key_update(frames, tag, touched, P)
    assert frames[1] is before[1]
    psi = random_state((Q,) * (nb * M), rng)
    lhs, rhs = psi, pc.apply_logical(tag, psi, wires_of, sign, P)
    for b, wires in zip(touched, wires_of):
        lhs = qc.apply_on_wires(lhs, pa.pauli_matrix(before[b]), wires)
        rhs = qc.apply_on_wires(rhs, pa.pauli_matrix(frames[b]), wires)
    lhs = pc.apply_logical(tag, lhs, wires_of, sign, P)
    overlap = np.vdot(rhs.amplitudes, lhs.amplitudes)
    assert abs(abs(overlap) - 1) < 1e-9


@pytest.mark.parametrize("tag", [LG("LX", 2), LG("LZ", 3)])
def test_frame_update_leaves_frames_under_logical_paulis(tag):
    rng = qc.make_rng(406)
    frames = [pa.SymbolicPauli(Q, rng.integers(0, Q, M),
                               rng.integers(0, Q, M)) for _ in range(2)]
    before = list(frames)
    qpip.pauli_key_update(frames, tag, (1,), P)
    assert frames == before
    keys = list(before)
    qpip.pauli_key_update(keys, tag, (1,), P, pc.random_sign_key(M, rng))
    assert keys[1] != before[1] and keys[0] is before[0]


# ------------------------------------------------------------ transcript


def test_transcript_sequence_strictly_increases():
    """Sequence numbers are list positions."""
    t = qpip.Transcript()
    t.add("verifier->prover", "quantum-block", (0,))
    t.add("prover->verifier", "classical-string", (1, 2, 3))
    t.add("verifier->prover", "verdict", "accept")
    assert [e.round for e in t] == [0, 1, 2]
    assert t.to_lines() == ["0\tverifier->prover\tquantum-block\t0",
                            "1\tprover->verifier\tclassical-string\t1,2,3",
                            "2\tverifier->prover\tverdict\taccept"]


# ------------------------------------------------- qubit protocol engine


def test_clifford_deterministic_circuit_always_accepts():
    rng = qc.make_rng(5)
    circ = qpip.CircuitIR(2, 2, (qpip.CircuitGate(pa.GateTag("CNOT"),
                                                  (0, 1)),))
    for _ in range(1000):
        rec = qpip.run_clifford_qpip(circ, (1, 1), 1, qpip.honest_prover(),
                                     rng)
        assert rec.verdict == "accept"
        assert rec.output == (1,)


def test_clifford_biased_circuit_completeness():
    rng = qc.make_rng(6)
    gamma = 0.2
    theta = np.arcsin(np.sqrt(1 - gamma))
    rot = qc.UnitaryMatrix(qc.RegisterShape((2,)),
                           np.array([[np.cos(theta), -np.sin(theta)],
                                     [np.sin(theta), np.cos(theta)]]),
                           check_unitary=False)
    circ = qpip.CircuitIR(1, 2, (qpip.CircuitGate(rot, (0,)),), gamma=gamma)
    trials = 2500
    hits = sum(
        1 for _ in range(trials)
        if qpip.run_clifford_qpip(circ, (0,), 1, qpip.honest_prover(),
                                  rng).output == (1,))
    sigma = np.sqrt(gamma * (1 - gamma) / trials)
    assert abs(hits / trials - (1 - gamma)) < 3 * sigma + 1e-3


def test_clifford_fixed_pauli_soundness_band():
    rng = qc.make_rng(7)
    circ = qpip.CircuitIR(1, 2, (identity_gate(),))
    attack = qpip.fixed_pauli_prover(
        {2: [(0, pa.SymbolicPauli(2, [1, 0], [0, 0]))]})
    trials = 2000
    wrong = 0
    for _ in range(trials):
        rec = qpip.run_clifford_qpip(circ, (1,), 1, attack, rng)
        if rec.verdict == "accept" and rec.output != (1,):
            wrong += 1
    rate = wrong / trials
    sigma = np.sqrt(0.25 / trials)
    assert rate <= 0.0 + 0.5 + 3 * sigma
    assert abs(rate - 4 / 15) < 4 * np.sqrt((4 / 15) * (11 / 15) / trials)


def test_clifford_wrong_block_count_aborts():
    rng = qc.make_rng(8)
    circ = qpip.CircuitIR(1, 2, (identity_gate(),))
    prover = qpip.scripted_prover([], misreport_round=1)
    rec = qpip.run_clifford_qpip(circ, (1,), 1, prover, rng)
    assert rec.verdict == "abort"
    assert rec.output is None


def test_clifford_broken_variant_checks_every_round():
    rng = qc.make_rng(9)
    circ = qpip.CircuitIR(1, 2, (identity_gate(), identity_gate()))
    flip = qc.UnitaryMatrix(qc.RegisterShape((2,) * 2),
                            np.kron(np.eye(2), pa.pauli_matrix_1(2, 1, 0)),
                            check_unitary=False)
    prover = qpip.scripted_prover([(1, flip, (0, 1))])
    rejected = sum(
        1 for _ in range(60)
        if qpip.run_clifford_qpip(circ, (1,), 1, prover, rng,
                                  broken_variant=True).verdict == "reject")
    assert rejected > 0  # the per-round check sees the damaged auxiliary
    # the damaged auxiliary is caught in round 1, before the second gate
    rec = qpip.run_clifford_qpip(circ, (1,), 1, prover,
                                 qc.make_rng(10), broken_variant=True)
    if rec.verdict == "reject":
        assert rec.rounds == 1


def test_clifford_random_unitary_prover_runs():
    rng = qc.make_rng(11)
    circ = qpip.CircuitIR(1, 2, (identity_gate(),))
    prover = qpip.random_unitary_prover(env_dims=(2,))
    verdicts = {"accept": 0, "reject": 0}
    for _ in range(80):
        rec = qpip.run_clifford_qpip(circ, (1,), 1, prover, rng)
        verdicts[rec.verdict] += 1
    assert verdicts["reject"] > 0  # scrambling the block trips the check


# Records of the engine that rebuilt a StateVector for every kernel call,
# taken before it moved to raw amplitude arrays, at e=2: (circuit, inputs,
# prover, broken variant, seed, verdict, output, rounds, transcript lines
# or their count and sha256, the generator's next draw).  The raw-array
# engine must reproduce them, and every random draw.
CLIFFORD_DEMO_LINES = [
    "0\tverifier->prover\tquantum-block\t0,1",
    "1\tprover->verifier\tquantum-block\t0,1",
    "2\tverifier->prover\tquantum-block\t0,1",
    "3\tprover->verifier\tquantum-block\t1",
    "4\tverifier->prover\tquantum-block\t1",
    "5\tprover->verifier\tquantum-block\t1",
    "6\tverifier->prover\tquantum-block\t1",
    "7\tprover->verifier\tquantum-block\t0,1",
    "8\tverifier->prover\tquantum-block\t0,1",
    "9\tprover->verifier\tquantum-block\t0",
    "10\tverifier->prover\tquantum-block\t0",
    "11\tprover->verifier\tquantum-block\t0",
    "12\tverifier->prover\tquantum-block\t0",
    "13\tprover->verifier\tquantum-block\t0",
    "14\tverifier->prover\tquantum-block\t0",
    "15\tprover->verifier\tquantum-block\t0",
    "16\tverifier->prover\tquantum-block\t0",
    "17\tprover->verifier\tquantum-block\t0,1",
    "18\tverifier->prover\tquantum-block\t0,1",
    "19\tprover->verifier\tquantum-block\t0,1",
    "20\tverifier->prover\tquantum-block\t0,1",
    "21\tprover->verifier\tquantum-block\t0",
    "22\tverifier->prover\tverdict\taccept",
]
# zeno_demo_circuit(2, 40) run to the end: 2520 rounds, accepted
ZENO_E2_ACCEPT_LINES = (
    5041, "ca62fc79d53d34a8154e9b1d192d4734a37390d7e6edadf33ad0718f99a52d7f")


X_ON_DATA = pa.SymbolicPauli(2, (1, 0, 0), (0, 0, 0))
X_COORD0 = pa.SymbolicPauli(Q, (1, 0, 0), (0, 0, 0))
# Pins decisions and draws, not rounding (test_golden_rounding.py).
GOLDEN_CLIFFORD_RECORDS = {
    "demo-honest": (
        audit.clifford_demo_circuit(), (1, 0), qpip.honest_prover(), False,
        301, "accept", (1,), 11, CLIFFORD_DEMO_LINES, 2225275437830987182),
    # X on block 0's data qubit before the final round: a wrong accept
    "demo-fixed-pauli": (
        audit.clifford_demo_circuit(), (1, 0),
        qpip.fixed_pauli_prover({3: [(0, X_ON_DATA)]}), False, 302,
        "accept", (0,), 11, CLIFFORD_DEMO_LINES, 3114364727008424794),
    # a misreport in the final round, recorded before that round became
    # the last pass of the round loop
    "demo-final-misreport": (
        audit.clifford_demo_circuit(), (1, 0),
        qpip.scripted_prover([], misreport_round=11), False, 304,
        "abort", None, 11,
        CLIFFORD_DEMO_LINES[:21] + ["21\tprover->verifier\tverdict\tabort"],
        4355253921785003508),
    "zeno-broken-variant": (
        audit.zeno_demo_circuit(2, 2), (1,), qpip.zeno_prover(e=2, n_per=2),
        True, 303, "reject", None, 96,
        (193, "3332afea29ccd9e68e58a1f04cd882277c0d3c68"
              "560521ca6e3a6a7cb178cc36"), 1342264341294693594),
    # the zeno-e2 instance at full length (2520 rounds), recorded on the
    # raw-array engine before its rounds were cut to fewer numpy calls:
    # honest, a Zeno wrong accept (input 1, output 0) and a Zeno reject in
    # round 2453; every accept logs the same lines, so the next draw tells
    # them apart
    "zeno-e2-honest": (
        audit.zeno_demo_circuit(2, 40), (1,), qpip.honest_prover(), True,
        305, "accept", (1,), 2520, ZENO_E2_ACCEPT_LINES, 3232465195267206136),
    "zeno-e2-zeno-accept": (
        audit.zeno_demo_circuit(2, 40), (1,), qpip.zeno_prover(e=2, n_per=40),
        True, 306, "accept", (0,), 2520, ZENO_E2_ACCEPT_LINES,
        4292093318007371859),
    "zeno-e2-zeno-reject": (
        audit.zeno_demo_circuit(2, 40), (1,), qpip.zeno_prover(e=2, n_per=40),
        True, 307, "reject", None, 2453,
        (4907, "a2164b6ecdb5eb73eb32261d90526b42ce0a09bcd0d552c3"
               "1e8f1fcf1db48778"),
        1017391982926930037),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CLIFFORD_RECORDS))
def test_clifford_reproduces_golden_records(name):
    (circ, inputs, prover, broken, seed, verdict, output, rounds, lines,
     next_draw) = GOLDEN_CLIFFORD_RECORDS[name]
    rng = qc.make_rng(seed)
    rec = qpip.run_clifford_qpip(circ, inputs, 2, prover, rng,
                                 broken_variant=broken)
    assert rec.verdict == verdict
    assert rec.output == output
    assert rec.rounds == rounds
    got = rec.transcript.to_lines()
    if isinstance(lines, list):
        assert got == lines
    else:
        count, digest = lines
        assert len(got) == count
        assert hashlib.sha256("\n".join(got).encode()).hexdigest() == digest
    assert int(rng.integers(2 ** 62)) == next_draw


@pytest.mark.parametrize("engine", ["clifford", "dense"])
@pytest.mark.parametrize("policy", [
    # the wrong length: drops all but one amplitude
    lambda amps, ctx: amps[:1],
    # the old return type: a policy written for StateVector in and out
    lambda amps, ctx: qc.StateVector(qc.RegisterShape(ctx.dims), amps),
    # the right shape in the wrong dtype
    lambda amps, ctx: amps.real.copy(),
], ids=["wrong-length", "state-vector", "float64"])
def test_dense_engines_check_what_a_policy_returns(engine, policy):
    prover = qpip.ProverImpl(name="bad", policy=policy)
    with pytest.raises(ValueError, match="does not match the register"):
        if engine == "clifford":
            qpip.run_clifford_qpip(qpip.CircuitIR(1, 2, (identity_gate(),)),
                                   (1,), 1, prover, qc.make_rng(12))
        else:
            qpip.run_poly_qpip(qpip.CircuitIR(1, Q, ()), (0,), P, prover,
                               qc.make_rng(12))


@pytest.mark.parametrize("wires", [(0, 0), (0,), (0, 1, 2)])
def test_scripted_prover_refuses_a_step_whose_wires_do_not_fit(wires):
    flip = qc.UnitaryMatrix(qc.RegisterShape((2, 2)),
                            np.kron(np.eye(2), pa.pauli_matrix_1(2, 1, 0)),
                            check_unitary=False)
    with pytest.raises(ValueError, match="unitary dimension does not match"):
        qpip.scripted_prover([(1, flip, wires)])


def test_clifford_rejects_an_output_wire_out_of_range():
    circ = qpip.CircuitIR(1, 2, (identity_gate(),))
    with pytest.raises(ValueError, match="output wire"):
        qpip.run_clifford_qpip(circ, (1,), 1, qpip.honest_prover(),
                               qc.make_rng(13), output_wire=1)


def test_a_step_at_a_round_the_run_never_reaches_is_refused():
    flip = qc.UnitaryMatrix(qc.RegisterShape((2,)),
                            pa.pauli_matrix_1(2, 1, 0), check_unitary=False)
    # one gate: rounds 1 and 2
    with pytest.raises(ValueError, match="round 7 is never run"):
        qpip.run_clifford_qpip(qpip.CircuitIR(1, 2, (identity_gate(),)),
                               (1,), 1, qpip.scripted_prover([(7, flip, (0,))]),
                               qc.make_rng(14))
    # no Toffoli: rounds 0 and 1
    shift = qc.UnitaryMatrix(qc.RegisterShape((Q,)),
                             pa.pauli_matrix_1(Q, 1, 0), check_unitary=False)
    with pytest.raises(ValueError, match="round 2 is never run"):
        qpip.run_poly_qpip(qpip.CircuitIR(1, Q, ()), (0,), P,
                           qpip.scripted_prover([(2, shift, (0,))]),
                           qc.make_rng(14))


def test_keys_are_applied_only_in_rounds_where_the_prover_acts(monkeypatch):
    built = []
    real = pa._symplectic_matrix
    monkeypatch.setattr(pa, "_symplectic_matrix",
                        lambda levels: built.append(levels) or real(levels))
    circ = audit.clifford_demo_circuit()  # two blocks, eleven rounds
    flip = qc.UnitaryMatrix(qc.RegisterShape((2,)),
                            pa.pauli_matrix_1(2, 1, 0), check_unitary=False)
    for prover, seals in [
            (qpip.honest_prover(), 0),
            (qpip.scripted_prover([], misreport_round=5), 0),
            # round 3 seals both blocks; their later K^dag reuses the keys
            (qpip.fixed_pauli_prover({3: [(0, X_ON_DATA)]}), 2),
            (qpip.scripted_prover([(3, flip, (3,))]), 2)]:
        built.clear()
        qpip.run_clifford_qpip(circ, (1, 0), 2, prover, qc.make_rng(15))
        assert len(built) == seals, prover.name


def _coupling_circuit(n):
    g, h, k = qpip.CircuitGate, pa.GateTag("H"), pa.GateTag("K")
    if n == 1:
        return qpip.CircuitIR(1, 2, (g(h, (0,)), g(k, (0,)), g(h, (0,))))
    cnot = pa.GateTag("CNOT")
    return qpip.CircuitIR(2, 2, (g(h, (0,)), g(cnot, (0, 1)), g(k, (1,)),
                                 g(cnot, (1, 0))))


def _coupling_prover(kind, seed, e, n, rounds):
    """A prover of the given kind; its rounds, blocks, wires and operators
    are drawn from `seed`, apart from the trial's generator."""
    draw = np.random.default_rng(seed)
    rnd = 1 + int(draw.integers(rounds))
    if kind == "honest":
        return qpip.honest_prover()
    if kind == "fixed-pauli":
        x, z = draw.integers(0, 2, size=(2, 1 + e))
        return qpip.fixed_pauli_prover(
            {rnd: [(int(draw.integers(n)), pa.SymbolicPauli(2, x, z))]})
    if kind == "scripted":
        wires = tuple(draw.choice(n * (1 + e), size=2, replace=False))
        u = qc.UnitaryMatrix(qc.RegisterShape((2, 2)),
                             qc.haar_unitary(4, draw), check_unitary=False)
        return qpip.scripted_prover([(rnd, u, wires)])
    if kind == "misreport":
        return qpip.scripted_prover([], misreport_round=rnd)
    if kind == "zeno":
        return qpip.zeno_prover(e=e, n_per=2)
    return qpip.random_unitary_prover(env_dims=(2,))


@pytest.mark.parametrize("kind", ["honest", "fixed-pauli", "scripted",
                                  "misreport", "zeno", "random-unitary"])
def test_sealing_only_where_the_prover_acts_matches_always_sealed(kind):
    """At equal seeds the engine and the always-sealed oracle give the same
    record and leave the generator in the same state."""
    verdicts = set()
    for e, n, broken in product((1, 2), (1, 2), (False, True)):
        circ = _coupling_circuit(n)
        inputs = (1, 0)[:n]
        for seed in range(40):
            prover = _coupling_prover(kind, seed, e, n, len(circ.gates) + 1)
            rng, ref_rng = qc.make_rng(seed), qc.make_rng(seed)
            rec = qpip.run_clifford_qpip(circ, inputs, e, prover, rng,
                                         broken_variant=broken)
            ref = oracles.run_clifford_qpip_always_sealed(
                circ, inputs, e, prover, ref_rng, broken_variant=broken)
            assert (rec.verdict, rec.output, rec.rounds) == \
                (ref.verdict, ref.output, ref.rounds)
            assert rec.transcript.to_lines() == ref.transcript.to_lines()
            assert rng.integers(2 ** 62) == ref_rng.integers(2 ** 62)
            # one 32-bit draw apart can pass the line above, not this one
            assert np.array_equal(rng.integers(0, 2, size=8),
                                  ref_rng.integers(0, 2, size=8))
            verdicts.add(rec.verdict)
    if kind not in ("honest", "misreport"):
        assert len(verdicts) > 1  # the attack is caught in some trials only


# ------------------------------------------------- qudit protocol engine


def test_poly_dense_honest_matches_reference_everywhere():
    rng = qc.make_rng(12)
    circ = qpip.CircuitIR(1, Q, (qpip.CircuitGate(LG("LX", 2), (0,)),
                                 qpip.CircuitGate(LG("LF", 1), (0,)),
                                 qpip.CircuitGate(LG("LF", 1), (0,))))
    for inp in range(Q):
        ref = oracles.reference_output_distribution(circ, (inp,))
        want = int(np.argmax(ref))
        for _ in range(10):
            rec = qpip.run_poly_qpip(circ, (inp,), P, qpip.honest_prover(),
                                     rng)
            assert rec.verdict == "accept"
            assert rec.output == (want,)
    # the worked instance: shift by two then double Fourier flips the sign
    rec = qpip.run_poly_qpip(circ, (3,), P, qpip.honest_prover(), rng)
    assert rec.output == (0,)


def test_poly_dense_single_coordinate_x_always_aborts():
    rng = qc.make_rng(13)
    circ = qpip.CircuitIR(1, Q, ())
    attack = qpip.fixed_pauli_prover(
        {1: [(0, pa.SymbolicPauli(Q, [1, 0, 0], [0, 0, 0]))]})
    trials = 200
    aborts = sum(
        1 for _ in range(trials)
        if qpip.run_poly_qpip(circ, (3,), P, attack, rng).verdict == "abort")
    sigma = np.sqrt(0.25 / trials)
    assert aborts / trials >= 1 - 1 / 2 ** (M - 1) - 3 * sigma
    assert aborts == trials  # single-coordinate shifts break every sign key


def test_poly_frame_toffoli_honest_output():
    rng = qc.make_rng(14)
    circ = qpip.CircuitIR(3, Q, (qpip.CircuitGate(pa.GateTag("T"),
                                                  (0, 1, 2)),))
    for _ in range(300):
        rec = qpip.run_poly_qpip(circ, (2, 3, 0), P, qpip.honest_prover(),
                                 rng, engine="logical-frame",
                                 output_wires=(0, 1, 2))
        assert rec.verdict == "accept"
        assert rec.output == (2, 3, 1)


def test_poly_round_structure_in_transcript():
    rng = qc.make_rng(15)
    circ = qpip.CircuitIR(3, Q, (qpip.CircuitGate(pa.GateTag("T"),
                                                  (0, 1, 2)),))
    rec = qpip.run_poly_qpip(circ, (2, 3, 0), P, qpip.honest_prover(), rng,
                             engine="logical-frame")
    to_v = [e for e in rec.transcript
            if e.kind == "classical-string"
            and e.direction == "prover->verifier"]
    to_p = [e for e in rec.transcript
            if e.kind == "classical-string"
            and e.direction == "verifier->prover"]
    assert len(to_v) == 2  # one gadget trip plus the final readout
    assert len(to_v[0].payload) == 3 * M
    assert len(to_v[1].payload) == M
    assert len(to_p) == 1
    assert len(to_p[0].payload) == 3


def test_poly_engines_agree_for_pauli_plan():
    rng_a = qc.make_rng(16)
    rng_b = qc.make_rng(17)
    circ = qpip.CircuitIR(1, Q, (qpip.CircuitGate(LG("LF", 1), (0,)),))
    # uniform-signed X footprint: correlated for exactly 2 of 8 sign keys
    attack = qpip.fixed_pauli_prover(
        {1: [(0, pa.SymbolicPauli(Q, [1, 1, 1], [0, 0, 0]))]})
    trials = 400
    dense_aborts = sum(
        1 for _ in range(trials)
        if qpip.run_poly_qpip(circ, (2,), P, attack, rng_a).verdict ==
        "abort")
    frame_aborts = sum(
        1 for _ in range(trials)
        if qpip.run_poly_qpip(circ, (2,), P, attack, rng_b,
                              engine="logical-frame").verdict == "abort")
    expected = 0.75  # six of the eight sign keys flag the footprint
    sigma = np.sqrt(expected * (1 - expected) / trials)
    assert abs(dense_aborts / trials - expected) < 4 * sigma
    assert abs(frame_aborts / trials - expected) < 4 * sigma


def test_poly_engines_agree_for_honest_runs():
    rng = qc.make_rng(18)
    circ = qpip.CircuitIR(2, Q, (qpip.CircuitGate(LG("LSUM", 1), (0, 1)),
                                 qpip.CircuitGate(LG("LM", 3), (1,))))
    for _ in range(25):
        a = qpip.run_poly_qpip(circ, (2, 4), P, qpip.honest_prover(), rng,
                               output_wires=(0, 1))
        b = qpip.run_poly_qpip(circ, (2, 4), P, qpip.honest_prover(), rng,
                               engine="logical-frame", output_wires=(0, 1))
        assert a.verdict == b.verdict == "accept"
        assert a.output == b.output


def test_poly_transcript_strings_look_keyless():
    """Honest transcript digits are uniform whatever the keys hide."""
    rng = qc.make_rng(19)
    circ = qpip.CircuitIR(1, Q, ())
    counts = np.zeros((M, Q))
    trials = 600
    for _ in range(trials):
        rec = qpip.run_poly_qpip(circ, (3,), P, qpip.honest_prover(), rng)
        payload = [e for e in rec.transcript
                   if e.kind == "classical-string"][0].payload
        for i, v in enumerate(payload):
            counts[i, v] += 1
    for i in range(M):
        assert chisquare(counts[i]).pvalue > 1e-3


def test_poly_frame_rejects_dense_policies():
    rng = qc.make_rng(20)
    circ = qpip.CircuitIR(1, Q, ())
    prover = qpip.random_unitary_prover(env_dims=())
    with pytest.raises(ValueError):
        qpip.run_poly_qpip(circ, (0,), P, prover, rng,
                           engine="logical-frame")


def test_bare_pauli_plan_runs_alike_on_both_poly_engines():
    # the verdict and output turn on the keys and the plan alone, so the
    # dense and logical-frame engines agree seed for seed
    circ = audit.poly_demo_circuit(Q)
    plans = [
        {1: [(0, X_COORD0)]},
        {1: [(0, pa.SymbolicPauli(Q, (1, 1, 1), (0, 0, 0)))]},
        {0: [(0, pa.SymbolicPauli(Q, (2, 2, 2), (1, 0, 3)))]},
        {0: [(0, pa.SymbolicPauli(Q, (0, 0, 0), (1, 2, 3)))],
         1: [(0, pa.SymbolicPauli(Q, (3, 3, 3), (0, 4, 0)))]},
    ]
    verdicts = {"accept": 0, "abort": 0}
    for plan in plans:
        prover = qpip.ProverImpl(name="plan", pauli_plan=plan)
        for seed in range(50):
            dense, frames = (
                qpip.run_poly_qpip(circ, (3,), P, prover, qc.make_rng(seed),
                                   engine=engine)
                for engine in ("dense", "logical-frame"))
            assert (dense.verdict, dense.output) == \
                (frames.verdict, frames.output), (plan, seed)
            verdicts[dense.verdict] += 1
    assert min(verdicts.values()) > 0


@pytest.mark.parametrize("engine, prover, message", [
    # a policy runs on the dense engines only, beside a plan or not
    ("logical-frame", qpip.ProverImpl(
        name="both", policy=lambda amps, ctx: amps,
        pauli_plan={1: ((0, X_COORD0),)}), "Pauli plans only"),
    # an environment the dense register cannot hold
    ("dense", qpip.ProverImpl(name="big", env_dims=(Q,) * 7), "too large"),
    ("dense", qpip.scripted_prover([], misreport_round=1), "misreport"),
    ("logical-frame", qpip.ProverImpl(name="misreport", pauli_plan={},
                                      misreport_round=1), "misreport"),
    # a plan that would never fire, hit another block or fail mid-run
    *((engine, qpip.fixed_pauli_prover(plan), message)
      for engine, plan, message in [
          ("logical-frame", {2: [(0, X_COORD0)]}, "round 2 is never run"),
          ("logical-frame", {1: [(99, X_COORD0)]}, "block 99"),
          ("logical-frame", {1: [(-1, X_COORD0)]}, "block -1"),
          ("logical-frame", {1: [(0, pa.SymbolicPauli(7, (1, 0, 0),
                                                      (0, 0, 0)))]},
           r"\(q, m\) is not \(5, 3\)"),
          ("dense", {2: [(0, X_COORD0)]}, "round 2 is never run"),
          ("dense", {0: [(1, X_COORD0)]}, "block 1"),
          ("dense", {1: [(0, pa.SymbolicPauli(Q, (1, 0), (0, 0)))]},
           r"\(q, m\) is not \(5, 3\)"),
          ("clifford", {0: [(0, X_ON_DATA)]}, "round 0 is never run"),
          ("clifford", {3: [(0, X_ON_DATA)]}, "round 3 is never run"),
          ("clifford", {2: [(-1, X_ON_DATA)]}, "block -1"),
          ("clifford", {1: [(0, pa.SymbolicPauli(2, (1, 0), (0, 0)))]},
           r"\(q, m\) is not \(2, 3\)")]),
    # a misreport in a round the run never reaches would never fire
    ("clifford", qpip.scripted_prover([], misreport_round=3),
     "round 3 is never run"),
])
def test_engines_refuse_prover_fields_they_cannot_honour(engine, prover,
                                                         message):
    # one gate (rounds 1 and 2) at e = 2, or no Toffoli (rounds 0 and 1):
    # one block either way
    rng = qc.make_rng(22)
    with pytest.raises(ValueError, match=message):
        if engine == "clifford":
            qpip.run_clifford_qpip(qpip.CircuitIR(1, 2, (identity_gate(),)),
                                   (1,), 2, prover, rng)
        else:
            qpip.run_poly_qpip(qpip.CircuitIR(1, Q, ()), (0,), P, prover,
                               rng, engine=engine)


def test_a_haar_draw_above_the_cap_is_refused_before_it_allocates():
    """Two q = 5 blocks and a q = 5 environment: 78,125 amplitudes fit the
    dense cap, but the policy's Haar unitary over them would not."""
    circ = qpip.CircuitIR(2, Q, ())
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="dimension 78125"):
            qpip.run_poly_qpip(circ, (0, 0), P,
                               qpip.random_unitary_prover((Q,)),
                               qc.make_rng(23))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20


def test_poly_dense_rejects_toffoli_circuits():
    rng = qc.make_rng(21)
    circ = qpip.CircuitIR(3, Q, (qpip.CircuitGate(pa.GateTag("T"),
                                                  (0, 1, 2)),))
    with pytest.raises(ValueError):
        qpip.run_poly_qpip(circ, (0, 0, 0), P, qpip.honest_prover(), rng)


def test_frame_algebra_teleportation_shape():
    """Outcomes are uniform before projection and exact after correction."""
    shape6 = qc.RegisterShape((Q,) * 6)
    state = qc.tensor(qc.basis_state(qc.RegisterShape((Q,) * 3), (2, 3, 0)),
                      qpip.magic_state(Q))
    for tag, blocks in qpip._entangling_layer((0, 1, 2), (3, 4, 5), Q):
        state = qc.apply_on_wires(state, qpip._plain_logical_matrix(tag, Q),
                                  blocks)
    probs = qc.measurement_probabilities(state, (0, 1, 2))
    assert np.max(np.abs(probs - 1 / Q ** 3)) < 1e-12
    beta = (4, 1, 2)
    _, branch = qc.project_wires(state, (0, 1, 2), beta)
    for tag, blocks in qpip.toffoli_correction_tags(*beta, Q):
        branch = qc.apply_on_wires(branch, qpip._plain_logical_matrix(tag,
                                                                      Q),
                                   tuple(3 + b for b in blocks))
    want = qc.apply_on_wires(
        qc.basis_state(qc.RegisterShape((Q,) * 3), (2, 3, 0)),
        pa.gate_matrix(pa.GateTag("T"), Q), (0, 1, 2))
    shape3 = qc.RegisterShape((Q,) * 3)
    vec = branch.amplitudes.reshape(Q ** 3, Q ** 3)[
        shape3.digits_to_index(beta)]
    vec = vec / np.linalg.norm(vec)
    assert abs(abs(np.vdot(want.amplitudes, vec)) - 1) < 1e-12


# ------------------------------------------ frame engine: live blocks only


def _toffoli(*wires):
    return qpip.CircuitGate(pa.GateTag("T"), wires)


TOFFOLI2 = qpip.CircuitIR(3, Q, (_toffoli(0, 1, 2), _toffoli(0, 1, 2)))
MIXED_TOFFOLI2 = qpip.CircuitIR(3, Q, (
    qpip.CircuitGate(LG("LF", 1), (0,)),
    _toffoli(0, 1, 2),
    qpip.CircuitGate(LG("LSUM", 2), (1, 2)),
    qpip.CircuitGate(LG("LCPG", 3), (2, 0)),
    qpip.CircuitGate(LG("LM", 3), (1,)),
    _toffoli(2, 0, 1),
    qpip.CircuitGate(LG("LX", 1), (2,)),
    qpip.CircuitGate(LG("LF", -1), (1,)),
))
X_ALL = pa.SymbolicPauli(Q, (1, 1, 1), (0, 0, 0))

# Records of the engine that held all n + 3L blocks in one register, for
# fixed seeds: (circuit, inputs, Pauli plan, output wires, seed, verdict,
# output, invalid rounds, transcript lines, the generator's next draw).
# The live-block register must reproduce them, and every random draw.
# Pins decisions and draws, not rounding (test_golden_rounding.py).
GOLDEN_FRAME_RECORDS = {
    "toffoli2-honest": (
        TOFFOLI2, (2, 3, 0), None, (2,), 101, "accept", (2,), (), [
            "0\tverifier->prover\tquantum-block\t0,1,2,3,4,5,6,7,8",
            "1\tprover->verifier\tclassical-string\t1,4,4,0,3,3,2,0,2",
            "2\tverifier->prover\tclassical-string\t4,1,0",
            "3\tprover->verifier\tclassical-string\t1,2,4,1,3,4,4,0,3",
            "4\tverifier->prover\tclassical-string\t2,4,0",
            "5\tprover->verifier\tclassical-string\t2,3,3",
            "6\tverifier->prover\tverdict\taccept",
        ], 2167140399949830950),
    "toffoli2-x-coord0": (
        TOFFOLI2, (2, 3, 0), {1: [(0, X_COORD0)]}, (2,), 102, "abort", (4,),
        (1,), [
            "0\tverifier->prover\tquantum-block\t0,1,2,3,4,5,6,7,8",
            "1\tprover->verifier\tclassical-string\t0,0,4,2,1,4,0,1,4",
            "2\tverifier->prover\tclassical-string\t4,2,1",
            "3\tprover->verifier\tclassical-string\t2,0,0,4,3,2,3,1,0",
            "4\tverifier->prover\tclassical-string\t4,4,2",
            "5\tprover->verifier\tclassical-string\t3,4,4",
            "6\tverifier->prover\tverdict\tabort",
        ], 1346156798339011562),
    "mixed-honest": (
        MIXED_TOFFOLI2, (1, 4, 2), None, (0, 1, 2), 103, "accept", (3, 1, 3),
        (), [
            "0\tverifier->prover\tquantum-block\t0,1,2,3,4,5,6,7,8",
            "1\tprover->verifier\tclassical-string\t3,4,0,3,3,2,2,4,2",
            "2\tverifier->prover\tclassical-string\t0,0,1",
            "3\tprover->verifier\tclassical-string\t4,2,0,2,2,2,1,2,4",
            "4\tverifier->prover\tclassical-string\t1,3,1",
            "5\tprover->verifier\tclassical-string\t4,0,4",
            "6\tprover->verifier\tclassical-string\t4,0,0",
            "7\tprover->verifier\tclassical-string\t2,3,1",
            "8\tverifier->prover\tverdict\taccept",
        ], 1291630524900328728),
    "mixed-x-on-magic-blocks": (
        MIXED_TOFFOLI2, (1, 4, 2), {1: [(5, X_COORD0)], 2: [(3, X_ALL)]},
        (0, 1, 2), 104, "abort", (3, 2, 0), (2, 2), [
            "0\tverifier->prover\tquantum-block\t0,1,2,3,4,5,6,7,8",
            "1\tprover->verifier\tclassical-string\t3,2,1,0,2,2,0,3,2",
            "2\tverifier->prover\tclassical-string\t4,0,3",
            "3\tprover->verifier\tclassical-string\t3,2,1,0,0,0,1,0,4",
            "4\tverifier->prover\tclassical-string\t1,3,0",
            "5\tprover->verifier\tclassical-string\t1,3,4",
            "6\tprover->verifier\tclassical-string\t1,0,0",
            "7\tprover->verifier\tclassical-string\t2,0,2",
            "8\tverifier->prover\tverdict\tabort",
        ], 513511870780432109),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_FRAME_RECORDS))
def test_poly_frame_reproduces_golden_records(name):
    (circ, inputs, plan, outputs, seed, verdict, output, invalid, lines,
     next_draw) = GOLDEN_FRAME_RECORDS[name]
    prover = qpip.honest_prover() if plan is None \
        else qpip.fixed_pauli_prover(plan)
    rng = qc.make_rng(seed)
    rec = qpip.run_poly_qpip(circ, inputs, P, prover, rng,
                             engine="logical-frame", output_wires=outputs)
    assert rec.verdict == verdict
    assert rec.output == output
    assert rec.invalid_rounds == invalid
    assert rec.rounds == 4
    assert rec.transcript.to_lines() == lines
    assert int(rng.integers(2 ** 62)) == next_draw


@pytest.mark.parametrize("toffolis", [3, 10])
def test_poly_frame_runs_long_toffoli_chains(toffolis):
    gates = [_toffoli(k % 3, (k + 1) % 3, (k + 2) % 3)
             for k in range(toffolis)]
    circ = qpip.CircuitIR(3, Q, tuple(gates))
    inputs = (2, 3, 1)
    shape = qc.RegisterShape((Q,) * 3)
    plain = qpip.apply_circuit_plain(circ, qc.basis_state(shape, inputs))
    top = int(np.argmax(np.abs(plain.amplitudes)))
    assert abs(plain.amplitudes[top]) == pytest.approx(1.0)
    want = shape.index_to_digits(top)
    assert want != inputs
    rng = qc.make_rng(22)
    for _ in range(3):
        rec = qpip.run_poly_qpip(circ, inputs, P, qpip.honest_prover(), rng,
                                 engine="logical-frame",
                                 output_wires=(0, 1, 2))
        assert rec.verdict == "accept"
        assert rec.output == want
        assert rec.transcript[0].payload == \
            tuple(range(3 + 3 * toffolis))


def test_poly_frame_caps_the_live_register():
    """q^(n+3) decides: 5^10 amplitudes exceed the cap, 5^7 do not."""
    rng = qc.make_rng(23)
    wide = qpip.CircuitIR(7, Q, (_toffoli(0, 1, 2),))
    with pytest.raises(ValueError, match="logical register too large"):
        qpip.run_poly_qpip(wide, (0,) * 7, P, qpip.honest_prover(), rng,
                           engine="logical-frame")
    clifford_only = qpip.CircuitIR(7, Q, (qpip.CircuitGate(LG("LSUM", 1),
                                                          (0, 6)),))
    rec = qpip.run_poly_qpip(clifford_only, (1,) + (0,) * 6, P,
                             qpip.honest_prover(), rng,
                             engine="logical-frame", output_wires=(6,))
    assert rec.output == (1,)


@pytest.mark.parametrize("q", [5, 7])
def test_gather_equals_the_dense_product(q):
    rng = np.random.default_rng(q)
    dims = (q, q, q, 2, q, q)
    amps = rng.normal(size=2 * q ** 5) + 1j * rng.normal(size=2 * q ** 5)
    for tag in [LG(name, c) for name in ("LSUM", "LX", "LM")
                for c in range(1, q)]:
        perm = qpip._gather_map(tag, q)
        mat = qpip._plain_logical_matrix(tag, q).entries
        # leading, non-leading and reversed wire tuples
        for wires in ([(0, 1), (2, 5), (4, 1)] if tag.name == "LSUM"
                      else [(0,), (2,), (5,)]):
            assert np.array_equal(qc._gather_raw(amps, dims, perm, wires),
                                  qc._apply_raw(amps, dims, mat, wires))
    qc._gather_index.cache_clear()  # the q = 7 indices hold 14 MB


def test_gather_map_refuses_gates_with_phases_and_indices_are_read_only():
    for q in (5, 7):
        for tag in (LG("LF", 1), LG("LF", -1), LG("LZ", 1), LG("LZ", 2),
                    LG("LCPG", 1), LG("LCPG", q - 1)):
            assert qpip._gather_map(tag, q) is None
    idx = qc._gather_index((Q,) * 3, (2, 0), qpip._gather_map(LG("LSUM", 1),
                                                              Q))
    assert sorted(idx) == list(range(Q ** 3))
    with pytest.raises(ValueError, match="read-only"):
        idx[0] = 1


@pytest.mark.parametrize("plan", [None, {1: [(5, X_COORD0)],
                                         2: [(3, X_ALL)]}],
                         ids=["honest", "pauli-plan"])
@pytest.mark.parametrize("circ", [TOFFOLI2, MIXED_TOFFOLI2],
                         ids=["toffoli2", "mixed-toffoli2"])
def test_poly_frame_gather_matches_the_dense_path(monkeypatch, circ, plan):
    """Forcing every gate through the dense product moves no record."""
    prover = qpip.honest_prover() if plan is None \
        else qpip.fixed_pauli_prover(plan)

    def records():
        out = []
        for seed in range(40):
            rng = qc.make_rng(seed)
            rec = qpip.run_poly_qpip(circ, (2, 3, 1), P, prover, rng,
                                     engine="logical-frame",
                                     output_wires=(0, 1, 2))
            out.append((rec.verdict, rec.output, rec.invalid_rounds,
                        rec.transcript.to_lines(), int(rng.integers(2 ** 62))))
        return out

    gathers = []
    gather = qc._gather_raw
    monkeypatch.setattr(qc, "_gather_raw",
                        lambda *args: gathers.append(1) or gather(*args))
    gathered = records()
    count = len(gathers)
    assert count >= 40 * 3 * circ.toffoli_count  # the entangling SUMs
    monkeypatch.setattr(qpip, "_gather_map", lambda tag, q: None)
    assert records() == gathered
    assert len(gathers) == count


# ----------------------------------------------------- universal circuit


def test_universal_empty_description_is_identity():
    circ = qpip.build_universal_circuit([], 2, 2)
    shape = qc.RegisterShape((Q, Q))
    for idx in range(Q * Q):
        basis = qc.basis_state(shape, shape.index_to_digits(idx))
        out = oracles.apply_universal(circ, basis, [], 2, 2)
        assert np.array_equal(out.amplitudes, basis.amplitudes)


def test_universal_sum_description_matches_direct_gate():
    desc = [("SUM", (0, 1))]
    circ = qpip.build_universal_circuit(desc, 2, 2)
    shape = qc.RegisterShape((Q, Q))
    direct = pa.gate_matrix(pa.GateTag("SUM"), Q)
    for idx in range(Q * Q):
        basis = qc.basis_state(shape, shape.index_to_digits(idx))
        out = oracles.apply_universal(circ, basis, desc, 2, 2)
        want = qc.apply_on_wires(basis, direct, (0, 1))
        assert np.max(np.abs(out.amplitudes - want.amplitudes)) < 1e-12


def test_universal_fourier_then_sum_composition():
    rng = qc.make_rng(30)
    desc = [("F", (1,)), ("SUM", (1, 0))]
    circ = qpip.build_universal_circuit(desc, 2, 2)
    psi = random_state((Q, Q), rng)
    out = oracles.apply_universal(circ, psi, desc, 2, 2)
    want = qc.apply_on_wires(psi, pa.gate_matrix(pa.GateTag("F"), Q), (1,))
    want = qc.apply_on_wires(want, pa.gate_matrix(pa.GateTag("SUM"), Q),
                             (1, 0))
    assert np.max(np.abs(out.amplitudes - want.amplitudes)) < 1e-12


def test_universal_structure_is_description_independent():
    a = qpip.build_universal_circuit([("SUM", (0, 1))], 2, 2)
    b = qpip.build_universal_circuit([("F", (0,)), ("F", (1,))], 2, 2)
    assert len(a.gates) == len(b.gates)
    for ga, gb in zip(a.gates, b.gates):
        assert ga.wires == gb.wires
        assert type(ga.op) is type(gb.op)
    assert a.n == 2 + 2 * 4


def test_universal_description_digits_one_hot():
    digits = qpip.universal_description_digits([("SUM", (0, 1))], 2, 2)
    assert digits == (0, 0, 1, 0, 0, 0, 0, 0)
    assert sum(digits) == 1


def test_universal_description_overflow():
    with pytest.raises(ValueError):
        qpip.universal_description_digits([("F", (0,))] * 3, 2, 2)
    with pytest.raises(ValueError):
        qpip.universal_description_digits([("F", (5,))], 2, 2)


# ------------------------------------------------------ symmetric wrapper


def _membership_runners():
    """YES iff the single input bit is 1; both sides are deterministic."""
    ident = qpip.CircuitIR(1, 2, (identity_gate(),))
    flip = qc.UnitaryMatrix(qc.RegisterShape((2,)),
                            pa.pauli_matrix_1(2, 1, 0), check_unitary=False)
    negated = qpip.CircuitIR(1, 2, (qpip.CircuitGate(flip, (0,)),))

    def lang(x, prover, rng):
        return qpip.run_clifford_qpip(ident, (x,), 1, prover, rng)

    def comp(x, prover, rng):
        return qpip.run_clifford_qpip(negated, (x,), 1, prover, rng)

    return lang, comp


def test_sym_wrapper_truthful_answers():
    rng = qc.make_rng(40)
    lang, comp = _membership_runners()
    honest = qpip.honest_prover()
    assert oracles.run_qpip_sym(lang, comp, 1, True, honest, rng) == 1
    assert oracles.run_qpip_sym(lang, comp, 0, False, honest, rng) == 0


def test_sym_wrapper_lying_prover_never_certifies_the_lie():
    rng = qc.make_rng(41)
    lang, comp = _membership_runners()
    honest = qpip.honest_prover()
    for x in (0, 1):
        for _ in range(50):
            out = oracles.run_qpip_sym(lang, comp, x, x != 1, honest, rng)
            assert out == oracles.ABORT  # the claimed side disconfirms


# ------------------------------------------- dense engine: golden records

# Deterministic output: the LZ and LCPG between the two Fouriers shift
# wire 0, so a wrong LX, LZ, LCPG or LF action changes the record.
MIXED_DENSE = qpip.CircuitIR(2, Q, (
    qpip.CircuitGate(LG("LX", 3), (1,)),
    qpip.CircuitGate(LG("LSUM", 2), (1, 0)),
    qpip.CircuitGate(LG("LM", 2), (0,)),
    qpip.CircuitGate(LG("LF", 1), (0,)),
    qpip.CircuitGate(LG("LCPG", 3), (0, 1)),
    qpip.CircuitGate(LG("LZ", 1), (0,)),
    qpip.CircuitGate(LG("LF", -1), (0,)),
    qpip.CircuitGate(LG("LSUM", 4), (0, 1)),
))

# Records of the dense engine when it ran its own copy of the transversal
# gates, for fixed seeds: (inputs, Pauli plan, seed, verdict, output,
# invalid rounds, transcript lines, the generator's next draw).
# Pins decisions and draws, not rounding.
GOLDEN_DENSE_RECORDS = {
    "honest": (
        (1, 3), None, 201, "accept", (0, 1), (), [
            "0\tverifier->prover\tquantum-block\t0,1",
            "1\tprover->verifier\tclassical-string\t4,4,0",
            "2\tprover->verifier\tclassical-string\t4,2,0",
            "3\tverifier->prover\tverdict\taccept",
        ], 2334987829646676659),
    "honest-b": (
        (4, 0), None, 204, "accept", (0, 3), (), [
            "0\tverifier->prover\tquantum-block\t0,1",
            "1\tprover->verifier\tclassical-string\t4,2,2",
            "2\tprover->verifier\tclassical-string\t3,0,3",
            "3\tverifier->prover\tverdict\taccept",
        ], 1974360707012260350),
    "x-coord0": (
        (1, 3), {1: [(0, X_COORD0)]}, 202, "abort", (2, 1), (1,), [
            "0\tverifier->prover\tquantum-block\t0,1",
            "1\tprover->verifier\tclassical-string\t1,4,1",
            "2\tprover->verifier\tclassical-string\t4,1,4",
            "3\tverifier->prover\tverdict\tabort",
        ], 1454546307345730425),
    "z-all": (
        (4, 2), {1: [(1, pa.SymbolicPauli(Q, (0, 0, 0), (1, 1, 1)))]}, 203,
        "accept", (4, 1), (), [
            "0\tverifier->prover\tquantum-block\t0,1",
            "1\tprover->verifier\tclassical-string\t3,3,0",
            "2\tprover->verifier\tclassical-string\t4,1,4",
            "3\tverifier->prover\tverdict\taccept",
        ], 864515368670982352),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DENSE_RECORDS))
def test_poly_dense_reproduces_golden_records(name):
    inputs, plan, seed, verdict, output, invalid, lines, next_draw = \
        GOLDEN_DENSE_RECORDS[name]
    prover = qpip.honest_prover() if plan is None \
        else qpip.fixed_pauli_prover(plan)
    rng = qc.make_rng(seed)
    rec = qpip.run_poly_qpip(MIXED_DENSE, inputs, P, prover, rng,
                             output_wires=(0, 1))
    assert rec.verdict == verdict
    assert rec.output == output
    assert rec.invalid_rounds == invalid
    assert rec.rounds == 2
    assert rec.transcript.to_lines() == lines
    assert int(rng.integers(2 ** 62)) == next_draw
    if plan is None:
        shape = qc.RegisterShape((Q, Q))
        plain = qpip.apply_circuit_plain(MIXED_DENSE,
                                         qc.basis_state(shape, inputs))
        assert abs(plain.amplitudes[shape.digits_to_index(output)]) == \
            pytest.approx(1.0)
