"""Tests for polynomial-code authentication with pad and sign keys."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import unitary_group

from qpiplab import pcalg as pa
from qpiplab import polyauth as pq
from qpiplab import polycode as pc
from qpiplab import qcore as qc

import oracles

P = pc.CodeParams()
Q, D, M = P.q, P.d, P.m
SHAPE = qc.RegisterShape((Q,) * M)
PSI0 = qc.basis_state(qc.RegisterShape((Q,)), (0,))

FROZEN_HISTOGRAM = {0: 13272, 2: 2208, 4: 144}
FROZEN_MAX_MASS = 0.5
FROZEN_NUM_MAXIMIZERS = 120
FROZEN_RESEND_UNKEYED = 107.0 / 125.0


def pauli_attack(x, z):
    op = pa.SymbolicPauli(Q, np.array(x, dtype=np.int64),
                          np.array(z, dtype=np.int64))
    return qc.UnitaryMatrix(SHAPE, pa.pauli_matrix(op).entries,
                            check_unitary=False)


def random_state(dim, rng):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def dense_key_average_mass(x, z, psi):
    """Independent key-averaged undetected-and-wrong mass for one Pauli."""
    op = pauli_attack(x, z)
    proj = np.eye(Q) - np.outer(psi.amplitudes, psi.amplitudes.conj())
    total = 0.0
    for k in pc.all_sign_keys(M):
        enc = pc.encode_Ek(psi, k, P)
        hit = op.entries @ enc.amplitudes
        dec = pc.decode_Ek(qc.StateVector(SHAPE, hit, check_norm=False), k, P)
        sector = dec.amplitudes.reshape(Q, Q ** (M - 1))[:, 0]
        total += float(np.real(sector.conj() @ proj @ sector))
    return total / 2 ** M


# ------------------------------------------------------- encode / decode

def test_random_key_fields():
    rng = qc.make_rng(3)
    for _ in range(20):
        key = pq.random_poly_key(P, rng)
        assert all(s in (1, -1) for s in key.sign.k)
        assert all(0 <= v < Q for v in key.pauli.x)
        assert all(0 <= v < Q for v in key.pauli.z)


def test_encode_decode_round_trip():
    rng = qc.make_rng(5)
    for a in range(Q):
        psi = qc.basis_state(qc.RegisterShape((Q,)), (a,))
        key = pq.random_poly_key(P, rng)
        verdict, msg = oracles.pqas_decode(pq.pqas_encode(psi, key, P), key, P,
                                      rng)
        assert verdict == "valid"
        assert abs(abs(msg.amplitudes[a]) - 1) < 1e-10
    for _ in range(20):
        psi = qc.StateVector(qc.RegisterShape((Q,)), random_state(Q, rng))
        key = pq.random_poly_key(P, rng)
        verdict, msg = oracles.pqas_decode(pq.pqas_encode(psi, key, P), key, P,
                                      rng)
        assert verdict == "valid"
        assert qc.state_fidelity(msg, psi) > 1 - 1e-10


def test_decode_rejects_wrong_register():
    rng = qc.make_rng(1)
    key = pq.random_poly_key(P, rng)
    bad = qc.basis_state(qc.RegisterShape((Q, Q)), (0, 0))
    with pytest.raises(ValueError):
        oracles.pqas_decode(bad, key, P, rng)


def test_pad_average_is_maximally_mixed():
    rng = qc.make_rng(9)
    psi = qc.StateVector(qc.RegisterShape((Q,)), random_state(Q, rng))
    k = pc.all_sign_keys(M)[2]
    rho = pc.encode_Ek(psi, k, P).to_density().entries
    digits = np.indices((Q,) * M).reshape(M, -1)
    omega = np.exp(2j * np.pi / Q)
    # the pad group average factors into the X stage then the Z stage
    avg_x = np.zeros_like(rho)
    for xi in range(Q ** M):
        perm = np.ravel_multi_index(
            tuple((digits + digits[:, xi][:, None]) % Q), (Q,) * M)
        avg_x += rho[np.ix_(perm, perm)]
    avg_x /= Q ** M
    avg = np.zeros_like(rho)
    for zi in range(Q ** M):
        ph = omega ** (digits[:, zi] @ digits % Q)
        avg += np.outer(ph, ph.conj()) * avg_x
    avg /= Q ** M
    assert np.max(np.abs(avg - np.eye(Q ** M) / Q ** M)) < 1e-12


def test_correlated_logical_tamper_shifts_message():
    rng = qc.make_rng(17)
    for a in (0, 2, 4):
        psi = qc.basis_state(qc.RegisterShape((Q,)), (a,))
        key = pq.random_poly_key(P, rng)
        enc = pq.pqas_encode(psi, key, P)
        fp = pc.logical_x_footprint(1, key.sign, P)
        hit = pa.pauli_matrix(fp).entries @ enc.amplitudes
        verdict, msg = oracles.pqas_decode(
            qc.StateVector(SHAPE, hit, check_norm=False), key, P, rng)
        assert verdict == "valid"
        assert abs(abs(msg.amplitudes[(a + 1) % Q]) - 1) < 1e-10


def test_single_wire_shift_always_aborts():
    rng = qc.make_rng(23)
    for _ in range(30):
        key = pq.random_poly_key(P, rng)
        enc = pq.pqas_encode(qc.basis_state(qc.RegisterShape((Q,)), (1,)),
                             key, P)
        x = np.zeros(M, dtype=np.int64)
        x[int(rng.integers(M))] = int(rng.integers(1, Q))
        hit = pa.pauli_matrix(
            pa.SymbolicPauli(Q, x, np.zeros(M, dtype=np.int64))).entries \
            @ enc.amplitudes
        verdict, _ = oracles.pqas_decode(
            qc.StateVector(SHAPE, hit, check_norm=False), key, P, rng)
        assert verdict == "abort"


# ------------------------------------------------------------------ scan

def histogram(rep) -> dict[int, int]:
    return {int(c): n for c, n in rep.detail["correlation_histogram"].items()}


def test_scan_frozen_summary():
    rep = pq.sign_key_security_scan(P)
    assert histogram(rep) == FROZEN_HISTOGRAM
    assert abs(rep.estimate - FROZEN_MAX_MASS) < 1e-12
    assert rep.detail["max_mass"] == rep.estimate
    assert rep.detail["num_maximizers"] == FROZEN_NUM_MAXIMIZERS
    assert rep.epsilon == P.epsilon == 0.25
    assert rep.verdict == "fail"
    masses, counts = pq.sign_key_masses(P)
    assert masses[0] == 0.0
    assert counts[0] == 0
    assert sum(histogram(rep).values()) == Q ** (2 * M) - 1


def test_scan_histogram_consistent_with_per_key_count():
    rep = pq.sign_key_security_scan(P)
    pair_total = sum(c * n for c, n in histogram(rep).items())
    # each of the 8 keys is correlated with 25^2 - 1 non-identity operators
    assert pair_total == 2 ** M * (Q ** (D + 1) * Q ** (D + 1) - 1)


def test_scan_maximizer_structure():
    masses, counts = pq.sign_key_masses(P)
    grid = np.indices((Q,) * (2 * M)).reshape(2 * M, -1).T
    xs, zs = grid[:, :M], grid[:, M:]
    at_max = masses > FROZEN_MAX_MASS - 1e-12
    assert counts[at_max].min() == 4
    x_only = at_max & (zs == 0).all(axis=1) & ~(xs == 0).all(axis=1)
    assert int(x_only.sum()) == 24
    # the four-key phase-only operators pass undetected but do not
    # change a standard-basis message, so their mass vanishes
    z_only_four = (counts == 4) & (xs == 0).all(axis=1)
    assert int(z_only_four.sum()) == 24
    assert np.max(masses[z_only_four]) < 1e-12
    assert int((counts == 4).sum()) == \
        FROZEN_NUM_MAXIMIZERS + 24


def test_scan_four_key_example_listed():
    rep = pq.sign_key_security_scan(P)
    entries = {(tuple(w["x"]), tuple(w["z"])): w
               for w in rep.detail["worst"]}
    w = entries.get(((3, 4, 0), (0, 0, 0)))
    if w is None:
        masses, counts = pq.sign_key_masses(P)
        grid = np.indices((Q,) * (2 * M)).reshape(2 * M, -1).T
        row = np.nonzero((grid == [3, 4, 0, 0, 0, 0]).all(axis=1))[0][0]
        assert abs(masses[row] - FROZEN_MAX_MASS) < 1e-12
        assert counts[row] == 4
    else:
        assert w["mass"] == pytest.approx(FROZEN_MAX_MASS)
        assert w["keys_correlated"] == 4


def test_scan_masses_match_dense_average():
    masses, _ = pq.sign_key_masses(P)
    grid = np.indices((Q,) * (2 * M)).reshape(2 * M, -1).T
    rng = qc.make_rng(31)
    rows = list(rng.integers(1, Q ** (2 * M), size=6))
    rows.append(int(np.nonzero(
        (grid == [3, 4, 0, 0, 0, 0]).all(axis=1))[0][0]))
    for row in rows:
        x, z = grid[row][:M], grid[row][M:]
        dense = dense_key_average_mass(x, z, PSI0)
        assert abs(dense - masses[row]) < 1e-12


def test_scan_random_message_still_violates_halved_bound():
    rng = qc.make_rng(41)
    psi = qc.StateVector(qc.RegisterShape((Q,)), random_state(Q, rng))
    rep = pq.sign_key_security_scan(P, psi)
    assert rep.epsilon < rep.estimate < FROZEN_MAX_MASS
    assert rep.verdict == "fail"
    assert histogram(rep) == FROZEN_HISTOGRAM


def test_scan_rejects_other_block_sizes():
    p7 = pc.CodeParams(q=7, d=2, alphas=(1, 2, 3, 4, 5))
    with pytest.raises(ValueError):
        pq.sign_key_security_scan(p7)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=6, max_size=6))
def test_scan_mass_equals_dense_average_property(digits):
    x, z = digits[:M], digits[M:]
    if all(v == 0 for v in digits):
        return
    masses, _ = pq.sign_key_masses(P)
    row = int(np.ravel_multi_index(digits, (Q,) * (2 * M)))
    assert abs(dense_key_average_mass(x, z, PSI0) - masses[row]) < 1e-12


# ------------------------------------------------------------ experiment

def test_identity_attack_perfect():
    ident = qc.UnitaryMatrix(SHAPE, np.eye(Q ** M, dtype=complex))
    rec = pq.pqas_security_experiment(P, PSI0, ident)
    assert rec.estimate == 0.0
    assert rec.detail["alpha_identity"] == pytest.approx(1.0)
    assert rec.verdict == "pass"
    assert rec.epsilon == 0.25


def test_fixed_pauli_attacks_match_scan():
    masses, _ = pq.sign_key_masses(P)
    grid = np.indices((Q,) * (2 * M)).reshape(2 * M, -1).T
    rng = qc.make_rng(47)
    for row in rng.integers(1, Q ** (2 * M), size=8):
        x, z = grid[row][:M], grid[row][M:]
        rec = pq.pqas_security_experiment(P, PSI0, pauli_attack(x, z))
        assert rec.detail["alpha_identity"] == pytest.approx(0.0, abs=1e-12)
        assert rec.estimate == pytest.approx(float(masses[row]), abs=1e-10)


def test_four_key_attack_reaches_one_half():
    att = pauli_attack((3, 4, 0), (0, 0, 0))
    rec = pq.pqas_security_experiment(P, PSI0, att)
    assert rec.estimate == pytest.approx(0.5, abs=1e-12)
    assert rec.verdict == "fail"


def test_random_attacks_obey_scaled_bound():
    rng = qc.make_rng(53)
    for trial in range(6):
        u = unitary_group.rvs(Q ** M, random_state=rng)
        att = qc.UnitaryMatrix(SHAPE, u)
        rec = pq.pqas_security_experiment(P, PSI0, att)
        assert rec.verdict == "pass"
        assert rec.estimate <= (1 - rec.detail["alpha_identity"]) * 0.25 \
            + 1e-8
    env = qc.StateVector(qc.RegisterShape((2,)), random_state(2, rng))
    for trial in range(2):
        u = unitary_group.rvs(Q ** M * 2, random_state=rng)
        att = qc.UnitaryMatrix(qc.RegisterShape((Q, Q, Q, 2)), u)
        rec = pq.pqas_security_experiment(P, PSI0, att, env_state=env)
        assert rec.verdict == "pass"


def test_literal_average_matches_closed_form():
    rng = qc.make_rng(59)
    u = unitary_group.rvs(Q ** M, random_state=rng)
    att = qc.UnitaryMatrix(SHAPE, u)
    rec = pq.pqas_security_experiment(P, PSI0, att)
    lit = oracles.pqas_average_literal(P, PSI0, att)
    assert abs(lit - rec.estimate) < 1e-10
    assert oracles.pqas_average_literal(
        P, PSI0, pauli_attack((3, 4, 0), (0, 0, 0))) == \
        pytest.approx(0.5, abs=1e-12)


def test_experiment_input_validation():
    ident = qc.UnitaryMatrix(SHAPE, np.eye(Q ** M, dtype=complex))
    small = qc.UnitaryMatrix(qc.RegisterShape((Q,)),
                             np.eye(Q, dtype=complex))
    with pytest.raises(ValueError):
        pq.pqas_security_experiment(P, PSI0, small)
    p7 = pc.CodeParams(q=7, d=2, alphas=(1, 2, 3, 4, 5))
    psi7 = qc.basis_state(qc.RegisterShape((7,)), (0,))
    with pytest.raises(ValueError, match="m = 3"):
        pq.pqas_security_experiment(p7, psi7, ident)
    with pytest.raises(ValueError):
        oracles.pqas_average_literal(
            P, PSI0, qc.UnitaryMatrix(qc.RegisterShape((Q, Q, Q, 2)),
                                      np.eye(Q ** M * 2, dtype=complex)))


# --------------------------------------------------------- measure-resend

def test_measure_resend_without_pad_breaks_the_scheme():
    rec = pq.measure_resend_experiment(P, PSI0, keyed=False)
    assert rec.detail["trials"] is None
    assert rec.verdict == "fail"
    assert rec.estimate == pytest.approx(FROZEN_RESEND_UNKEYED, abs=1e-9)


def test_measure_resend_with_pad_is_caught():
    rng = qc.make_rng(67)
    rec = pq.measure_resend_experiment(P, PSI0, keyed=True, rng=rng,
                                       trials=1200)
    assert rec.detail["trials"] == 1200
    assert rec.verdict == "pass"
    assert rec.estimate < 0.15


def test_measure_resend_keyed_needs_rng():
    with pytest.raises(ValueError):
        pq.measure_resend_experiment(P, PSI0, keyed=True)


# --------------------------------------------------------- serialization

def test_reports_serialize_to_json():
    rep = pq.sign_key_security_scan(P)
    blob = json.dumps(rep.to_dict())
    back = json.loads(blob)
    assert back["max_mass"] == 0.5
    assert back["correlation_histogram"]["4"] == 144
    ident = qc.UnitaryMatrix(SHAPE, np.eye(Q ** M, dtype=complex))
    rec = pq.pqas_security_experiment(P, PSI0, ident)
    assert json.loads(json.dumps(rec.to_dict()))["alpha_identity"] == 1.0
    mr = pq.measure_resend_experiment(P, PSI0, keyed=False)
    assert json.loads(json.dumps(mr.to_dict()))["verdict"] == "fail"
