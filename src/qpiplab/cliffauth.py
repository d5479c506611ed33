"""Clifford-keyed authentication: encode, decode, security experiment.

A message of l qubits is padded with e zeroed auxiliary qubits and hidden
under a uniformly random Clifford on all m = l + e qubits.  The key
average turns any attack into s*id + (1 - s)*(a uniform non-identity
Pauli), s the attack's identity weight, so the worst attack is one
twirled non-identity Pauli.  The security experiment computes that
attack's undetected-and-wrong mass exactly from the message, with no key
enumerated or drawn, and gates it against 2^-e.
"""

from dataclasses import dataclass

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


def random_clifford_key(params: CliffordQasParams,
                        rng: np.random.Generator) -> pa.CliffordElement:
    """A uniformly random Clifford on the m = l + e register: the key."""
    return pa.sample_clifford(params.m, rng)


def cqas_encode(psi: qc.StateVector,
                key: pa.CliffordElement) -> qc.StateVector:
    """C_k (|psi> (x) |0>^e)."""
    l = psi.shape.num_wires
    e = key.n - l
    if e < 1:
        raise ValueError("key acts on more wires than the message provides")
    state = psi
    for _ in range(e):
        state = qc.tensor(state, qc.basis_state(qc.RegisterShape((2,)), (0,)))
    u = qc.UnitaryMatrix(state.shape, key.matrix.entries,
                         check_unitary=False)
    return qc.apply_on_wires(state, u, tuple(range(key.n)))


def cqas_decode(state: qc.StateVector, key: pa.CliffordElement, l: int,
                rng: np.random.Generator
                ) -> tuple[str, qc.StateVector | None]:
    """Undo the key, measure the auxiliaries, keep the message on success."""
    m = key.n
    if state.shape.dims != (2,) * m:
        raise ValueError("state does not match the key register")
    u = qc.UnitaryMatrix(state.shape, key.dagger_matrix(),
                         check_unitary=False)
    plain = qc.apply_on_wires(state, u, tuple(range(m)))
    outcome, post = qc.measure_wires(plain, tuple(range(l, m)), rng)
    if any(outcome):
        return "abort", None
    amps = post.amplitudes.reshape(2 ** l, 2 ** (m - l))[:, 0]
    return "valid", qc.StateVector(qc.RegisterShape((2,) * l), amps)


def _worst_attack_mass(psi: qc.StateVector, e: int) -> float:
    """c: the undetected-and-wrong mass of one twirled non-identity Pauli.

    The mean, over the 4^m - 1 non-identity Paulis, of 1 - |<psi|P|psi>|^2
    for those with no X on an auxiliary qubit, and of 0 for the rest.
    Such a Pauli is a data Pauli times a Z pattern on the auxiliaries, so
    each of the 4^l data Paulis counts 2^e times.  For a pure psi this is
    2^m (2^l - 1) / (4^m - 1), always below 2^-e.
    """
    l = psi.shape.num_wires
    amps = psi.amplitudes
    overlaps = np.abs(np.einsum("i,kij,j->k", amps.conj(),
                                pa.qubit_pauli_basis(l), amps)) ** 2
    return float(2 ** e * (4 ** l - overlaps.sum()) / (4 ** (l + e) - 1))


def cqas_security_experiment(params: CliffordQasParams, psi: qc.StateVector,
                             attack: qc.UnitaryMatrix,
                             env_state: qc.StateVector | None = None):
    """The largest undetected-and-wrong mass of any attack, against epsilon.

    The key average turns any attack, environment included, into
    s*id + (1 - s)*(a uniform non-identity Pauli), s the attack's identity
    weight (lemmas `pauli-decoherence` and `clifford-twirl`).  The mass is
    linear in that mixture and the identity leaves none, so the supremum
    over attacks is c, one twirled non-identity Pauli's mass, computed
    exactly from psi.  The given attack is the cross-check in the detail:
    its mass tr(Pi_0 rho_B) = (1 - s) c, with s = Tr(U_I rho_E U_I^dag)
    and U_I = Tr_block(U) / 2^m.
    """
    from . import audit  # audit imports this module
    l, m = params.l, params.m
    if psi.shape.dims != (2,) * l:
        raise ValueError("message size disagrees with params")
    env_dim = 1 if env_state is None else env_state.shape.dim
    if attack.shape.dim != 2 ** m * env_dim:
        raise ValueError("attack must cover message, auxiliaries and "
                         "environment")
    u = attack.entries.reshape(2 ** m, env_dim, 2 ** m, env_dim)
    u_i = np.einsum("iaib->ab", u) / 2 ** m
    rho_env = np.ones((1, 1)) if env_state is None else \
        env_state.to_density().entries
    s = float(np.trace(u_i @ rho_env @ u_i.conj().T).real)
    c = _worst_attack_mass(psi, params.e)
    tr_pi0 = (1.0 - s) * c
    return audit.gate("every attack's 1 - tr(Pi_1 rho_B) <= epsilon",
                      params.epsilon, c, (c, c),
                      {"tr_pi0": tr_pi0, "tr_pi1": 1.0 - tr_pi0, "s": s})
