"""Clifford authentication: round trips, projectors, security bounds."""

import numpy as np
import pytest

from qpiplab import cliffauth as ca
from qpiplab import pcalg as pa
from qpiplab import qcore as qc

PARAMS = ca.CliffordQasParams(1, 1)
PSI = qc.StateVector(qc.RegisterShape((2,)), np.array([0.6, 0.8j]))


def haar(dim: int, rng) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    u, r = np.linalg.qr(z)
    return u * (np.diag(r) / np.abs(np.diag(r)))


def pauli_attack(x, z) -> qc.UnitaryMatrix:
    u = pa.pauli_matrix(pa.SymbolicPauli(2, x, z))
    return qc.UnitaryMatrix(u.shape, u.entries, check_unitary=False)


def nonidentity_paulis(m: int):
    for b in range(1, 4 ** m):
        digits = [(b >> (2 * w)) & 3 for w in range(m)]
        yield [d & 1 for d in digits], [d >> 1 for d in digits]


# -------------------------------------------------------------- plumbing

def test_params_validation():
    assert PARAMS.m == 2
    with pytest.raises(ValueError):
        ca.CliffordQasParams(0, 1)
    with pytest.raises(ValueError):
        ca.CliffordQasParams(1, 0)


def test_projectors_partition():
    proj = ca.QasProjectors(PSI, 1)
    assert np.allclose(proj.pi0 @ proj.pi1, 0, atol=1e-12)
    assert np.allclose(proj.pi0 + proj.pi1, np.eye(4), atol=1e-12)
    assert np.allclose(proj.pi0 @ proj.pi0, proj.pi0, atol=1e-12)


def test_encode_identity_key():
    key = ca.identity_key(PARAMS)
    zero = qc.basis_state(qc.RegisterShape((2,)), (0,))
    out = ca.cqas_encode(zero, key)
    want = np.zeros(4)
    want[0] = 1
    assert np.allclose(out.amplitudes, want)


def test_round_trip_random_keys():
    rng = qc.make_rng(17)
    for _ in range(100):
        key = ca.random_clifford_key(PARAMS, rng)
        verdict, out = ca.cqas_decode(ca.cqas_encode(PSI, key), key, 1, rng)
        assert verdict == "valid"
        assert qc.state_fidelity(out, PSI) > 1 - 1e-9


def test_encode_average_is_maximally_mixed():
    zero = qc.basis_state(qc.RegisterShape((2,)), (0,))
    acc = np.zeros((4, 4), dtype=np.complex128)
    for el in pa.enumerate_clifford(2):
        amps = ca.cqas_encode(zero, ca.CliffordKey(el)).amplitudes
        acc += np.outer(amps, amps.conj())
    acc /= len(pa.enumerate_clifford(2))
    assert np.allclose(acc, np.eye(4) / 4, atol=1e-10)


def test_decode_aborts_on_auxiliary_flip():
    rng = qc.make_rng(2)
    key = ca.identity_key(PARAMS)
    enc = ca.cqas_encode(PSI, key)
    tampered = qc.apply_on_wires(enc, pauli_attack([0, 1], [0, 0]),
                                 (0, 1))
    verdict, out = ca.cqas_decode(tampered, key, 1, rng)
    assert verdict == "abort" and out is None


def test_decode_accepts_phase_tamper_with_wrong_state():
    """Z on the message under the identity key is never caught; the
    output fidelity drops to |<psi|Z|psi>|^2 exactly."""
    rng = qc.make_rng(2)
    key = ca.identity_key(PARAMS)
    enc = ca.cqas_encode(PSI, key)
    tampered = qc.apply_on_wires(enc, pauli_attack([0, 0], [1, 0]), (0, 1))
    verdict, out = ca.cqas_decode(tampered, key, 1, rng)
    assert verdict == "valid"
    zpsi = PSI.amplitudes * np.array([1, -1])
    want = abs(np.vdot(PSI.amplitudes, zpsi)) ** 2
    assert abs(qc.state_fidelity(out, PSI) - want) < 1e-12
    assert abs(want - 0.0784) < 1e-12


# -------------------------------------------------------------- security

def test_identity_attack_perfect():
    ident = qc.UnitaryMatrix(qc.RegisterShape((2, 2)), np.eye(4))
    rec = ca.cqas_security_experiment(PARAMS, PSI, ident)
    assert abs(rec.detail["tr_pi1"] - 1) < 1e-10
    assert rec.detail["tr_pi0"] < 1e-10
    assert abs(rec.detail["s"] - 1) < 1e-10
    assert rec.verdict == "pass"
    assert rec.estimate == 1 - rec.detail["tr_pi1"]
    assert rec.epsilon == PARAMS.epsilon == 0.5


def test_all_pauli_attacks_bounded():
    masses = []
    for x, z in nonidentity_paulis(2):
        rec = ca.cqas_security_experiment(PARAMS, PSI, pauli_attack(x, z))
        assert rec.detail["tr_pi0"] <= 0.5 + 1e-8
        assert abs(rec.detail["s"]) < 1e-10
        assert rec.detail["two_term_residual"] < 1e-8
        masses.append(rec.detail["tr_pi0"])
    # a fixed Pauli depolarizes completely; the only undetected-and-wrong
    # mass comes from the 4 harmful survivors among the 15 images
    assert abs(max(masses) - 4 / 15) < 1e-9


def test_random_attack_with_environment():
    rng = qc.make_rng(11)
    env = qc.basis_state(qc.RegisterShape((2,)), (0,))
    for _ in range(6):
        u = qc.UnitaryMatrix(qc.RegisterShape((2, 2, 2)), haar(8, rng))
        rec = ca.cqas_security_experiment(PARAMS, PSI, u, env)
        assert rec.detail["tr_pi0"] <= (1 - rec.detail["s"]) / 2 + 1e-8
        assert rec.detail["tr_pi1"] >= 1 - rec.epsilon - 1e-8
        assert rec.verdict == "pass"
        assert rec.detail["two_term_residual"] < 1e-8


def test_undetected_pauli_count():
    """Non-identity Paulis that keep every auxiliary reading zero."""
    count = 0
    for x, z in nonidentity_paulis(2):
        if x[1] == 0:  # X part must not touch the auxiliary wire
            count += 1
    assert count == 4 * 2 - 1 == 7


def test_attack_family_monotonicity():
    """Rotating the message wire harder moves mass from s into pi0."""
    env = None
    prev_pi0, prev_s = -1.0, 2.0
    for theta in np.linspace(0.0, np.pi / 2, 5):
        rot = np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * \
            np.array([[0, 1], [1, 0]])
        u = qc.UnitaryMatrix(qc.RegisterShape((2, 2)),
                             np.kron(rot, np.eye(2)), check_unitary=False)
        rec = ca.cqas_security_experiment(PARAMS, PSI, u, env)
        assert rec.detail["tr_pi0"] >= prev_pi0 - 1e-12
        assert rec.detail["s"] <= prev_s + 1e-12
        prev_pi0, prev_s = rec.detail["tr_pi0"], rec.detail["s"]
    assert prev_s < 0.6 and prev_pi0 > 0.1


def test_sampled_mode_tracks_exact():
    rng = qc.make_rng(19)
    attack = pauli_attack([1, 0], [0, 0])
    exact = ca.cqas_security_experiment(PARAMS, PSI, attack)
    sampled = ca.cqas_security_experiment(PARAMS, PSI, attack,
                                          mode="sampled", rng=rng,
                                          trials=3000)
    sigma = 3 / np.sqrt(3000)
    assert abs(sampled.detail["tr_pi0"] - exact.detail["tr_pi0"]) < sigma
    assert abs(sampled.detail["tr_pi1"] - exact.detail["tr_pi1"]) < sigma
    assert sampled.interval == pytest.approx(
        (sampled.estimate - sigma, sampled.estimate + sigma))


def test_mode_errors():
    big = ca.CliffordQasParams(2, 1)
    psi2 = qc.basis_state(qc.RegisterShape((2, 2)), (0, 0))
    ident8 = qc.UnitaryMatrix(qc.RegisterShape((2, 2, 2)), np.eye(8))
    with pytest.raises(ValueError):
        ca.cqas_security_experiment(big, psi2, ident8, mode="exact")
    ident4 = qc.UnitaryMatrix(qc.RegisterShape((2, 2)), np.eye(4))
    with pytest.raises(ValueError):
        ca.cqas_security_experiment(PARAMS, PSI, ident4, mode="sampled")
    with pytest.raises(ValueError):
        ca.cqas_security_experiment(PARAMS, PSI, ident4, mode="bogus")
