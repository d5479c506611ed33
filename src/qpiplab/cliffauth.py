"""Clifford-keyed authentication: encode, decode, security experiments.

A message of l qubits is padded with e zeroed auxiliary qubits and hidden
under a uniformly random Clifford on all m = l + e qubits.  Averaging any
fixed attack over the key group turns it into a depolarizing mixture, so
an undetected-and-wrong outcome survives with probability at most 2^-e.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import pcalg as pa
from . import qcore as qc


@dataclass(frozen=True)
class CliffordQasParams:
    """Register split: l message qubits, e auxiliary check qubits."""

    l: int = 1
    e: int = 1

    def __post_init__(self):
        if self.l < 1 or self.e < 1:
            raise ValueError("need at least one message and one auxiliary")

    @property
    def m(self) -> int:
        return self.l + self.e

    @property
    def epsilon(self) -> float:
        """Soundness of the scheme: an undetected wrong message survives
        with probability at most 2^-e."""
        return 2.0 ** (-self.e)

    def shape(self) -> qc.RegisterShape:
        return qc.RegisterShape((2,) * self.m)


@dataclass(frozen=True)
class CliffordKey:
    element: pa.CliffordElement

    @property
    def m(self) -> int:
        return self.element.n


def random_clifford_key(params: CliffordQasParams,
                        rng: np.random.Generator) -> CliffordKey:
    return CliffordKey(pa.sample_clifford(params.m, rng))


def identity_key(params: CliffordQasParams) -> CliffordKey:
    mat = qc.UnitaryMatrix(qc.RegisterShape((2,) * params.m),
                           np.eye(2 ** params.m), check_unitary=False)
    return CliffordKey(pa.CliffordElement(params.m, mat, ()))


class QasProjectors:
    """Accept/reject projectors for one message state.

    pi0 catches "auxiliaries read zero but the message is wrong";
    pi1 is its complement: correct-and-valid plus every abort.
    """

    def __init__(self, psi: qc.StateVector, e: int):
        l = psi.shape.num_wires
        if psi.shape.dims != (2,) * l:
            raise ValueError("message must be qubits")
        self.psi = psi
        zero = np.zeros(2 ** e)
        zero[0] = 1.0
        aux_ok = np.outer(zero, zero)
        proj_psi = np.outer(psi.amplitudes, psi.amplitudes.conj())
        eye_l = np.eye(2 ** l)
        self.pi0 = np.kron(eye_l - proj_psi, aux_ok)
        self.pi1 = np.kron(proj_psi, aux_ok) + \
            np.kron(eye_l, np.eye(2 ** e) - aux_ok)


def cqas_encode(psi: qc.StateVector, key: CliffordKey) -> qc.StateVector:
    """C_k (|psi> (x) |0>^e)."""
    l = psi.shape.num_wires
    e = key.m - l
    if e < 1:
        raise ValueError("key acts on more wires than the message provides")
    state = psi
    for _ in range(e):
        state = qc.tensor(state, qc.basis_state(qc.RegisterShape((2,)), (0,)))
    u = qc.UnitaryMatrix(state.shape, key.element.matrix.entries,
                         check_unitary=False)
    return qc.apply_on_wires(state, u, tuple(range(key.m)))


def cqas_decode(state: qc.StateVector, key: CliffordKey, l: int,
                rng: np.random.Generator
                ) -> tuple[str, qc.StateVector | None]:
    """Undo the key, measure the auxiliaries, keep the message on success."""
    m = key.m
    if state.shape.dims != (2,) * m:
        raise ValueError("state does not match the key register")
    u = qc.UnitaryMatrix(state.shape, key.element.dagger_matrix(),
                         check_unitary=False)
    plain = qc.apply_on_wires(state, u, tuple(range(m)))
    outcome, post = qc.measure_wires(plain, tuple(range(l, m)), rng)
    if any(outcome):
        return "abort", None
    amps = post.amplitudes.reshape(2 ** l, 2 ** (m - l))[:, 0]
    return "valid", qc.StateVector(qc.RegisterShape((2,) * l), amps)


def _attack_setup(params: CliffordQasParams, psi: qc.StateVector,
                  attack: qc.UnitaryMatrix,
                  env_state: qc.StateVector | None):
    m = params.m
    if psi.shape.num_wires != params.l:
        raise ValueError("message size disagrees with params")
    plain = psi
    for _ in range(params.e):
        plain = qc.tensor(plain, qc.basis_state(qc.RegisterShape((2,)), (0,)))
    if env_state is None:
        full_shape = plain.shape
        rho = plain.to_density()
        env_dim = 1
        rho_env = np.array([[1.0 + 0j]])
    else:
        rho = qc.tensor(plain.to_density(), env_state.to_density())
        full_shape = rho.shape
        env_dim = env_state.shape.dim
        rho_env = env_state.to_density().entries
    if attack.shape.dim != full_shape.dim:
        raise ValueError("attack must cover message, auxiliaries and "
                         "environment")
    return m, rho, env_dim, rho_env


def _identity_weight(attack: qc.UnitaryMatrix, m: int, env_dim: int,
                     rho_env: np.ndarray) -> float:
    blocks = pa.pauli_decompose(attack.entries, 2, m, env_dim)
    u_i = blocks[0, 0]
    return float(np.trace(u_i @ rho_env @ u_i.conj().T).real)


def _two_term_reference(rho_plain: np.ndarray, s: float, m: int
                        ) -> np.ndarray:
    paulis = pa.all_pauli_matrices(2, m)
    mix = np.einsum("kij,jl,kml->im", paulis, rho_plain, paulis.conj(),
                    optimize=True)
    mix = (mix - rho_plain) / (4 ** m - 1)
    return s * rho_plain + (1 - s) * mix


def cqas_security_experiment(params: CliffordQasParams, psi: qc.StateVector,
                             attack: qc.UnitaryMatrix,
                             env_state: qc.StateVector | None = None,
                             mode: str = "exact",
                             rng: np.random.Generator | None = None,
                             trials: int = 2000):
    """Average the attacked round over keys and score Bob's state.

    Exact mode sums the whole key group (m <= 2) and checks that the
    averaged state collapses to the two-term mixture
    s*rho + (1-s)/(4^m-1) sum_P P rho P^dag; sampled mode draws keys and
    gives the estimate a +-3/sqrt(trials) interval.  The claim is
    tr(Pi_1 rho_B) >= 1 - epsilon, gated on 1 - tr(Pi_1 rho_B).
    """
    from . import audit  # audit imports this module
    m, rho, env_dim, rho_env = _attack_setup(params, psi, attack, env_state)
    proj = QasProjectors(psi, params.e)
    kept = tuple(range(m))

    if mode == "exact":
        if m > 2:
            raise ValueError("exact averaging is enumerated only for m <= 2")
        avg = pa.group_average_channel(rho, attack, "clifford", kept)
        rho_b = qc.partial_trace(avg, kept) if env_dim > 1 else avg
        s = _identity_weight(attack, m, env_dim, rho_env)
        plain = qc.partial_trace(rho, kept) if env_dim > 1 else rho
        ref = _two_term_reference(plain.entries, s, m)
        residual = float(np.max(np.abs(rho_b.entries - ref)))
        if residual > 1e-8:
            raise AssertionError(
                f"averaged state missed the two-term form by {residual:.3e}")
        trial_count = None
    elif mode == "sampled":
        if rng is None:
            raise ValueError("sampled mode needs an rng")
        acc = np.zeros((2 ** m, 2 ** m), dtype=np.complex128)
        for _ in range(trials):
            el = pa.sample_clifford(m, rng)
            u = qc.UnitaryMatrix(qc.RegisterShape((2,) * m), el.matrix.entries,
                                 check_unitary=False)
            st = qc.apply_on_wires(rho, u, kept)
            st = qc.DensityMatrix(st.shape,
                                  attack.entries @ st.entries
                                  @ attack.entries.conj().T, check_psd=False)
            st = qc.apply_on_wires(
                st, qc.UnitaryMatrix(u.shape, u.entries.conj().T,
                                     check_unitary=False), kept)
            reduced = qc.partial_trace(st, kept) if env_dim > 1 else st
            acc += reduced.entries
        rho_b = qc.DensityMatrix(qc.RegisterShape((2,) * m), acc / trials,
                                 check_psd=False)
        s = _identity_weight(attack, m, env_dim, rho_env)
        residual = None
        trial_count = trials
    else:
        raise ValueError(f"unknown mode {mode!r}")

    tr_pi1 = float(np.trace(proj.pi1 @ rho_b.entries).real)
    tr_pi0 = float(np.trace(proj.pi0 @ rho_b.entries).real)
    est = 1.0 - tr_pi1
    if mode == "exact":
        interval, limit = (est, est), params.epsilon + 1e-8
    else:
        half = 3.0 / math.sqrt(max(trials, 1))
        interval, limit = (est - half, est + half), params.epsilon
    return audit.gate("1 - tr(Pi_1 rho_B) <= epsilon", params.epsilon, est,
                      interval,
                      {"mode": mode, "tr_pi0": tr_pi0, "tr_pi1": tr_pi1,
                       "s": s, "two_term_residual": residual,
                       "trials": trial_count}, limit=limit)
