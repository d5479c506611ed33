"""Reference oracles: literal evaluations the tests pin the library against.

Each function here is a reference, not part of the library: it computes
from the definition something the library computes another way, and no
CLI run, audit or engine calls it.

- `toffoli_gadget` teleports a T gate on a dense register; the
  logical-frame engine runs the same layer and corrections on live blocks.
- `apply_universal` evaluates the fixed universal circuit with its
  controls resolved classically.
- `build_Dk` and `dense_encoder` are the interpolation circuit D_k and
  the encoder E_k as dense matrices; the library applies them as index
  permutations.
- `pqas_average_literal` sums the polynomial-QAS experiment over every
  key; `polyauth.pqas_security_experiment` uses a closed form.
  `pqas_decode` is the scheme's decoder, which no run needs: the
  experiments score the keyed state without measuring it.
- `cqas_key_average` sums an attack over every Clifford key of C_m
  (m <= 2), and `two_term_reference` and `QasProjectors` give the form it
  collapses to and the projectors that score it;
  `cliffauth.cqas_security_experiment` computes the worst attack's mass
  from the Pauli reduction and a drawn attack's from its identity weight.
- `all_pauli_matrices` stacks every Pauli on m wires densely;
  `audit._pad_average` averages over the pads without building them.
- `pad_average_scatter` twirls a density over the Pauli pads by scattering
  each shifted copy; `audit._pad_average` gathers them.
- `poly_block_view_per_key` twirls every sign key's encoded state on its
  own; `audit._poly_block_view` twirls their average once.
- `run_qpip_sym` is the paper's symmetric wrapper ("any language in BQP
  has a QPIP"): the prover's claim picks the side to verify, and the
  outcome is 1, 0 or ABORT.
- `reference_output_distribution` and `apply_schedule_plain` evaluate a
  circuit, or its compiled schedule, on bare wires with no protocol.
- `conjugate_by_encoding` conjugates a Pauli by E_k in exponent form; the
  library decides correlation from the decoded frame instead.
- `symplectic_draw_per_candidate` draws one three-qubit Clifford key's
  transvections with one `rng.integers` call per candidate;
  `pcalg._symplectic_draws` pools the same bits of a whole run of keys,
  a few calls per run.
- `run_clifford_qpip_always_sealed` is the qubit engine that holds every
  block under its key in every round and applies K and K^dag each round;
  `qpip.run_clifford_qpip` seals blocks only in rounds where the prover
  acts.
- `identity_key` and `biased_clifford_circuit` build reference inputs:
  the trivial Clifford key, and a one-qubit circuit whose output bias is
  known in closed form.
- `FLOAT_LEMMAS` holds the dense complex-float form of each lemma check
  that `audit.LEMMA_COVERAGE` decides by index maps, exponents mod q or
  tableau counts: the same draws from the same generator, the same
  identity, evaluated on full state vectors and 4x4 matrices.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from qpiplab import audit
from qpiplab import cliffauth as ca
from qpiplab import pcalg as pa
from qpiplab import polyauth as pq
from qpiplab import polycode as pc
from qpiplab import qcore as qc
from qpiplab import qpip

ABORT = "ABORT"


# ------------------------------------------------------ plain circuits


def biased_clifford_circuit(gamma: float) -> qpip.CircuitIR:
    """One-qubit circuit whose output reads 1 with probability 1 - gamma."""
    theta = math.asin(math.sqrt(1.0 - gamma))
    rot = qc.UnitaryMatrix(qc.RegisterShape((2,)),
                           np.array([[math.cos(theta), -math.sin(theta)],
                                     [math.sin(theta), math.cos(theta)]]),
                           check_unitary=False)
    return qpip.CircuitIR(1, 2, (qpip.CircuitGate(rot, (0,)),), gamma=gamma)


def reference_output_distribution(circuit: qpip.CircuitIR,
                                  input_digits: Sequence[int],
                                  output_wire: int = 0) -> np.ndarray:
    """Exact output-wire distribution of the bare circuit."""
    shape = qc.RegisterShape((circuit.wire_dim,) * circuit.n)
    state = qc.basis_state(shape, tuple(input_digits))
    state = qpip.apply_circuit_plain(circuit, state)
    return qc.measurement_probabilities(state, (output_wire,))


def apply_schedule_plain(schedule: qpip.LogicalSchedule,
                         circuit: qpip.CircuitIR,
                         state: qc.StateVector) -> qc.StateVector:
    """Recompose segment-T-segment on bare source wires (no gadgets)."""
    q = circuit.wire_dim
    t_mat = pa.gate_matrix(pa.GateTag("T"), q)
    for i, seg in enumerate(schedule.segments):
        for g in seg:
            state = qc.apply_on_wires(
                state, qpip._plain_logical_matrix(g.op, q), g.wires)
        if i < schedule.toffoli_count:
            state = qc.apply_on_wires(state, t_mat,
                                      schedule.gadgets[i].source_wires)
    return state


# ------------------------------------------------------- Toffoli gadget


def _magic_overlap(state: qc.StateVector, wires: Sequence[int],
                   q: int) -> float:
    """Probability weight of the magic pattern on the given wires."""
    dims = state.shape.dims
    tensor = state.amplitudes.reshape(dims)
    moved = np.moveaxis(tensor, wires, range(len(wires)))
    flat = moved.reshape(q ** 3, -1)
    overlap = qpip.magic_state(q).amplitudes.conj() @ flat
    return float(np.vdot(overlap, overlap).real)


def toffoli_gadget(state: qc.StateVector, target_wires: Sequence[int],
                   magic_wires: Sequence[int], rng: np.random.Generator,
                   debug: bool = True
                   ) -> tuple[tuple[int, int, int], qc.StateVector]:
    """Teleport a T gate: entangle, measure the targets, correct the magics.

    The corrected state carries T applied to the original target content on
    the magic wires, for every measurement branch; the measured wires
    collapse to the observed digits.  `debug` checks first that the magic
    wires hold the resource state.
    """
    target_wires = tuple(target_wires)
    magic_wires = tuple(magic_wires)
    if len(target_wires) != 3 or len(magic_wires) != 3:
        raise ValueError("the gadget consumes three targets and three magics")
    q = state.shape.dims[target_wires[0]]
    if debug and _magic_overlap(state, magic_wires, q) < 1.0 - 1e-9:
        raise ValueError("magic wires do not hold the Toffoli resource state")

    abs_wires = target_wires + magic_wires
    for tag, blocks in qpip._entangling_layer((0, 1, 2), (3, 4, 5), q):
        state = qc.apply_on_wires(state, qpip._plain_logical_matrix(tag, q),
                                  tuple(abs_wires[b] for b in blocks))
    measurement, state = qc.measure_wires(state, target_wires, rng)
    for tag, blocks in qpip.toffoli_correction_tags(*measurement, q):
        state = qc.apply_on_wires(state, qpip._plain_logical_matrix(tag, q),
                                  tuple(magic_wires[b] for b in blocks))
    return measurement, state


# ----------------------------------------------------- universal circuit


def apply_universal(circuit: qpip.CircuitIR, data_state: qc.StateVector,
                    desc: Sequence[tuple[str, tuple[int, ...]]],
                    n: int, max_gates: int) -> qc.StateVector:
    """Evaluate the universal circuit with the controls resolved classically.

    Basis-state descriptions keep the control register diagonal for the
    whole run, so each controlled gate either fires or idles; this is the
    exact action of the full circuit on data ⊗ |description digits>.
    """
    q = circuit.wire_dim
    digits = qpip.universal_description_digits(desc, n, max_gates)
    lib = qpip._universal_library(n)
    state = data_state
    for slot in range(max_gates):
        for ell, (name, wires) in enumerate(lib):
            if digits[slot * len(lib) + ell] == 0:
                continue
            tag = pa.GateTag("F") if name == "F" else pa.GateTag("SUM")
            state = qc.apply_on_wires(state, pa.gate_matrix(tag, q), wires)
    return state


# ------------------------------------------------- signed-polynomial code


def build_Dk(k: pc.SignKey, p: pc.CodeParams) -> qc.UnitaryMatrix:
    """Dense interpolation circuit: a permutation on the m-wire register."""
    lmap, _ = pc._dk_maps(k.k, p)
    perm = pc._perm_from_linear(lmap, p.q)
    mat = np.zeros((p.q ** p.m,) * 2)
    mat[perm, np.arange(p.q ** p.m)] = 1.0
    return qc.UnitaryMatrix(p.shape(), mat, check_unitary=False)


def dense_encoder(k: pc.SignKey, p: pc.CodeParams) -> np.ndarray:
    """E_k as a matrix: Fourier on wires 1..d, then D_k."""
    f = pa.gate_matrix(pa.GateTag("F"), p.q)
    e = np.eye(p.q ** p.m, dtype=np.complex128)
    for w in range(1, p.d + 1):
        e = qc.embed_unitary(f, (w,), p.shape()).entries @ e
    return build_Dk(k, p).entries @ e


def conjugate_by_encoding(p_op: pa.SymbolicPauli, k: pc.SignKey,
                          p: pc.CodeParams,
                          dagger: bool = False) -> pa.SymbolicPauli:
    """Exponent image of E_k P E_k^dag (or E_k^dag P E_k with dagger).

    D_k is a classical linear map v -> Lv, so it sends X^x Z^z to
    X^{Lx} Z^{L^{-T} z} exactly; the Fourier layer rotates wires 1..d.
    """
    lmap, linv = pc._dk_maps(k.k, p)
    q = p.q
    if not dagger:
        x = p_op.x.copy()
        z = p_op.z.copy()
        for w in range(1, p.d + 1):
            z[w], x[w] = (x[w]) % q, (-z[w]) % q  # F conjugation
        return pa.SymbolicPauli(q, lmap @ x % q, linv.T @ z % q)
    x = linv @ p_op.x % q
    z = lmap.T @ p_op.z % q
    for w in range(1, p.d + 1):
        z[w], x[w] = (-x[w]) % q, (z[w]) % q  # F^dag conjugation
    return pa.SymbolicPauli(q, x, z)


def pqas_decode(state: qc.StateVector, key: pq.PolyQasKey,
                p: pc.CodeParams, rng: np.random.Generator
                ) -> tuple[str, qc.StateVector | None]:
    """Strip the pad, undo the encoder, measure the m-1 auxiliaries."""
    if state.shape != p.shape():
        raise ValueError("state does not match the code register")
    pad_dag = pa.pauli_matrix(key.pauli).entries.conj().T
    stripped = qc.StateVector(state.shape, pad_dag @ state.amplitudes,
                              check_norm=False)
    plain = pc.decode_Ek(stripped, key.sign, p)
    outcome, post = qc.measure_wires(plain, tuple(range(1, p.m)), rng)
    if any(outcome):
        return "abort", None
    amps = post.amplitudes.reshape(p.q, p.q ** (p.m - 1))[:, 0]
    return "valid", qc.StateVector(qc.RegisterShape((p.q,)), amps)


def pqas_average_literal(p: pc.CodeParams, psi: qc.StateVector,
                         attack: qc.UnitaryMatrix) -> float:
    """Reference value of the experiment by summing every key literally.

    Environment-free; pins the closed-form average used by
    pqas_security_experiment.  Batched over the q^m shift patterns with
    one matrix product per phase pattern.
    """
    q, m = p.q, p.m
    db = q ** m
    if attack.shape.dim != db:
        raise ValueError("literal reference is environment-free")
    keys = pc.all_sign_keys(m)
    proj = np.eye(q) - np.outer(psi.amplitudes, psi.amplitudes.conj())
    digits = np.indices((q,) * m).reshape(m, -1)
    omega = np.exp(2j * np.pi / q)
    fwd = np.empty((db, db), dtype=np.int64)
    rev = np.empty((db, db), dtype=np.int64)
    for xi in range(db):
        xd = digits[:, xi][:, None]
        fwd[xi] = np.ravel_multi_index(tuple((digits - xd) % q), (q,) * m)
        rev[xi] = np.ravel_multi_index(tuple((digits + xd) % q), (q,) * m)
    total = 0.0
    for k in keys:
        w0 = pc.encode_Ek(psi, k, p).amplitudes
        shift_rows = w0[fwd]
        edag_t = dense_encoder(k, p).conj()
        for zi in range(db):
            phase = omega ** (digits[:, zi] @ digits % q)
            branch = phase[None, :] * shift_rows
            out = (branch @ attack.entries.T) * phase.conj()[None, :]
            back = np.take_along_axis(out, rev, axis=1)
            dec = back @ edag_t
            sector = dec.reshape(db, q, q ** (m - 1))[:, :, 0]
            total += float(np.einsum("ra,ab,rb->", sector.conj(), proj,
                                     sector, optimize=True).real)
    return total / (len(keys) * db * db)


def all_pauli_matrices(q: int, m: int) -> np.ndarray:
    """Stack of all q^{2m} Pauli matrices Z^z X^x on m wires.

    Index order: (x digits, then z digits), wire 0 most significant
    within each part.
    """
    dim = q ** m
    count = q ** (2 * m)
    if count * dim * dim > 2 ** 28:
        raise ValueError("Pauli stack too large")
    out = np.zeros((count, dim, dim), dtype=np.complex128)
    shape = qc.RegisterShape((q,) * (2 * m), dim_cap=2 ** 62)
    for idx in range(count):
        digits = shape.index_to_digits(idx)
        p = pa.SymbolicPauli(q, digits[:m], digits[m:])
        out[idx] = pa.pauli_matrix(p).entries
    return out


def pad_average_scatter(rho: np.ndarray, q: int, m: int) -> np.ndarray:
    """Pauli-pad average of a q^m-dim density, each shift scattered."""
    dim = q ** m
    grid = np.indices((q,) * m).reshape(m, -1)
    phases = np.exp(2j * np.pi / q * (grid.T @ grid))
    kernel = (phases @ phases.conj().T) / dim
    dephased = rho * kernel
    out = np.zeros_like(dephased)
    idx = np.arange(dim)
    for shift in range(dim):
        sdig = np.array(np.unravel_index(shift, (q,) * m))
        perm = np.ravel_multi_index(
            tuple((grid + sdig[:, None]) % q), (q,) * m)
        out[np.ix_(perm, perm)] += dephased[np.ix_(idx, idx)]
    return out / dim


def poly_block_view_per_key(digit: int, p: pc.CodeParams) -> np.ndarray:
    """One-block prover view, each sign key's state twirled on its own."""
    base = qc.basis_state(qc.RegisterShape((p.q,)), (digit,))
    keys = pc.all_sign_keys(p.m)
    dim = p.q ** p.m
    acc = np.zeros((dim, dim), dtype=np.complex128)
    for sign in keys:
        enc = pc.encode_Ek(base, sign, p)
        acc += pad_average_scatter(
            np.outer(enc.amplitudes, enc.amplitudes.conj()), p.q, p.m)
    return acc / len(keys)


# ---------------------------------------------------------- Clifford keys


def identity_key(params: ca.CliffordQasParams) -> pa.CliffordElement:
    """The trivial key: encoding with it only appends the auxiliaries."""
    mat = qc.UnitaryMatrix(qc.RegisterShape((2,) * params.m),
                           np.eye(2 ** params.m), check_unitary=False)
    return pa.CliffordElement(params.m, mat, ())


class QasProjectors:
    """Accept/reject projectors of the Clifford QAS for one message state.

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


def plain_qas_state(params: ca.CliffordQasParams,
                    psi: qc.StateVector) -> np.ndarray:
    """|psi><psi| (x) |0><0|^e, the unkeyed Clifford QAS block."""
    plain = psi
    for _ in range(params.e):
        plain = qc.tensor(plain, qc.basis_state(qc.RegisterShape((2,)), (0,)))
    return plain.to_density().entries


def cqas_key_average(params: ca.CliffordQasParams, psi: qc.StateVector,
                     attack: qc.UnitaryMatrix,
                     env_state: qc.StateVector | None = None) -> np.ndarray:
    """Bob's state rho_B with the attack averaged over every key of C_m.

    The enumeration oracle of `cliffauth.cqas_security_experiment` (m <= 2):
    (1/|C_m|) sum_g (g^dag (x) I) U (g (x) I) applied to the plain block
    (x) rho_E, the environment then traced out.
    """
    rho = plain_qas_state(params, psi)
    env_dim = 1 if env_state is None else env_state.shape.dim
    if env_state is not None:
        rho = np.kron(rho, env_state.to_density().entries)
    g = np.kron(pa.clifford_stack(params.m), np.eye(env_dim))
    a = g.conj().transpose(0, 2, 1) @ attack.entries @ g
    avg = np.mean(a @ rho @ a.conj().transpose(0, 2, 1), axis=0)
    db = 2 ** params.m
    return np.einsum("iaja->ij", avg.reshape(db, env_dim, db, env_dim))


def two_term_reference(rho_plain: np.ndarray, s: float, m: int
                       ) -> np.ndarray:
    """s rho + (1 - s)/(4^m - 1) sum_{P != I} P rho P^dag: the two-term
    form the Clifford twirl reduces an attack of identity weight s to."""
    paulis = all_pauli_matrices(2, m)
    mix = np.einsum("kij,jl,kml->im", paulis, rho_plain, paulis.conj(),
                    optimize=True)
    mix = (mix - rho_plain) / (4 ** m - 1)
    return s * rho_plain + (1 - s) * mix


def _bits_to_int(bits: np.ndarray) -> int:
    return sum(b << i for i, b in enumerate(bits.tolist()))


def symplectic_draw_per_candidate(n: int, rng: np.random.Generator
                                  ) -> tuple[tuple[tuple[int, ...], ...], int]:
    """One draw of `pcalg._symplectic_draws` with one `rng.integers` call
    per candidate.

    Each f1 and h candidate is its own `rng.integers(0, 2, size=width)`
    call and the Pauli bits one more, so about 10.4 calls per three-qubit
    key; the library draws the same bits for a whole run of keys from one
    pool, topped up by a few calls.
    """
    levels = []
    for width in range(2 * n, 0, -2):
        while True:
            f1 = _bits_to_int(rng.integers(0, 2, size=width))
            if f1:
                break
        tv = pa._find_transvections(1, f1, width)  # e1 = x_0 to f1
        while True:
            h = _bits_to_int(rng.integers(0, 2, size=width))
            if pa._symp(f1, h):
                break
        u = 2  # e2 = z_0, carried through the transvections so far
        for v in tv:
            if pa._symp(u, v):
                u ^= v
        levels.append(tuple(tv + pa._find_transvections(u, h, width,
                                                        fix=f1)))
    return tuple(levels), _bits_to_int(rng.integers(0, 2, size=2 * n))


# ------------------------------------------------- qubit protocol engine


def run_clifford_qpip_always_sealed(circuit: qpip.CircuitIR,
                                    input_bits: Sequence[int], e: int,
                                    prover: qpip.ProverImpl,
                                    rng: np.random.Generator,
                                    broken_variant: bool = False,
                                    output_wire: int = 0
                                    ) -> qpip.VerdictRecord:
    """`qpip.run_clifford_qpip` with every block sealed in every round.

    Each block is encoded under its key at the start; each round the
    prover's turn runs, the touched blocks get K^dag, the gate, and K again
    (a fresh key unless `broken_variant`).  Keys and measurements draw from
    `rng` at the same points as the library engine's.
    """
    n, m_b = circuit.n, 1 + e
    qpip._check_dense_prover(prover, range(1, len(circuit.gates) + 2), n,
                             2, m_b)
    params = ca.CliffordQasParams(l=1, e=e)
    keys = [ca.random_clifford_key(params, rng) for _ in range(n)]
    state = None
    for b, bit in enumerate(input_bits):
        enc = ca.cqas_encode(qc.basis_state(qc.RegisterShape((2,)),
                                            (int(bit),)), keys[b])
        state = enc if state is None else qc.tensor(state, enc)
    for dim in prover.env_dims:
        state = qc.tensor(state, qc.basis_state(qc.RegisterShape((dim,)),
                                                (0,)))
    dims, amps = state.shape.dims, state.amplitudes
    block_wires = tuple(tuple(range(b * m_b, (b + 1) * m_b))
                        for b in range(n))
    env_wires = tuple(range(n * m_b, len(dims)))

    transcript = qpip.Transcript()
    transcript.add("verifier->prover", "quantum-block", tuple(range(n)))
    rounds = [(g.wires, tuple(b * m_b for b in g.wires),
               qpip._plain_logical_matrix(g.op, 2).entries
               if isinstance(g.op, pa.GateTag) else g.op.entries)
              for g in circuit.gates] + [((output_wire,), (), None)]
    for i, (touched, data, op) in enumerate(rounds, start=1):
        if prover.misreport_round == i:
            transcript.add("prover->verifier", "verdict", "abort")
            return qpip.VerdictRecord("abort", None, transcript, i)
        amps = qpip._run_policy(prover, amps, dims, i, block_wires,
                                env_wires, rng)
        transcript.add("prover->verifier", "quantum-block", touched)
        for b in touched:
            amps = qc._apply_raw(amps, dims, keys[b].dagger_matrix(),
                                 block_wires[b])
        if broken_variant or op is None:
            for b in touched:
                outcome, amps = qc._measure_raw(amps, dims,
                                                block_wires[b][1:], rng)
                if any(outcome):
                    transcript.add("verifier->prover", "verdict", "reject")
                    return qpip.VerdictRecord("reject", None, transcript, i)
        if op is None:
            break
        amps = qc._apply_raw(amps, dims, op, data)
        for b in touched:
            if not broken_variant:
                keys[b] = ca.random_clifford_key(params, rng)
            amps = qc._apply_raw(amps, dims, keys[b].matrix.entries,
                                 block_wires[b])
        transcript.add("verifier->prover", "quantum-block", touched)

    bit, _ = qc._measure_raw(amps, dims, (block_wires[output_wire][0],), rng)
    transcript.add("verifier->prover", "verdict", "accept")
    return qpip.VerdictRecord("accept", (int(bit[0]),), transcript, i)


# ------------------------------------------------------ symmetric wrapper


Runner = Callable[[object, qpip.ProverImpl, np.random.Generator],
                  qpip.VerdictRecord]


def run_qpip_sym(lang_runner: Runner, complement_runner: Runner,
                 x: object, claim: bool, prover: qpip.ProverImpl,
                 rng: np.random.Generator) -> int | str:
    """Verify the side the prover claims: x in the language or not.

    Returns 1 for a verified yes, 0 for a verified no, and ABORT whenever
    the run rejects or the claimed side's protocol does not confirm.
    """
    record = (lang_runner if claim else complement_runner)(x, prover, rng)
    confirmed = (record.verdict == "accept" and record.output is not None
                 and record.output[0] == 1)
    if not confirmed:
        return ABORT
    return 1 if claim else 0


# ------------------------------------------------- lemma checks in floats


def _apply_symbolic(vecs: np.ndarray, op: pa.SymbolicPauli,
                    q: int, m: int) -> np.ndarray:
    """Apply a block Pauli to the columns of a dense q^m by n array."""
    grid = pc._digit_grid(q, m)
    src = np.ravel_multi_index(tuple((grid - op.x[:, None]) % q), (q,) * m)
    phases = np.exp(2j * np.pi / q * (op.z @ ((grid - op.x[:, None]) % q)))
    return phases[:, None] * vecs[src]


def _footprint_dense(part: str, every_polynomial: bool) -> Callable:
    """logical-x/z and correlated-x/z: the largest amplitude error."""
    def check(rng, cvec, p) -> float:
        q, m = p.q, p.m
        omega = np.exp(2j * np.pi / q)
        zero = np.zeros(m, dtype=np.int64)
        res = 0.0
        for k in pc.all_sign_keys(m):
            kk = k.residues(q)
            words = audit._codespace_matrix(k, p)
            for idx in range(q ** (p.d + 1)) if every_polynomial else (1,):
                coeffs = [(idx // q ** t) % q for t in range(p.d + 1)]
                evals = np.array([kk[i] * pc.poly_eval(coeffs, al, q) % q
                                  for i, al in enumerate(p.alphas)])
                fp = (pa.SymbolicPauli(q, evals, zero) if part == "x" else
                      pa.SymbolicPauli(q, zero, np.array(p.interp_c) * evals))
                got = _apply_symbolic(words, fp, q, m)
                want = (words[:, (np.arange(q) + coeffs[0]) % q]
                        if part == "x" else words * np.array(
                            [omega ** (coeffs[0] * a) for a in range(q)]))
                res = max(res, float(np.max(np.abs(got - want))))
        return res
    return check


def _logical_sum_dense(rng, cvec, p) -> float:
    """logical-sum on full two-block states, gathered through SUM's map."""
    q, m = p.q, p.m
    sum1 = pc._sum_power(1, q).entries
    pair_src = np.argmax(sum1, axis=1)
    res = float(np.max(np.abs(sum1 - np.eye(q * q)[pair_src])))
    grid = pc._digit_grid(q, 2 * m)
    moved = pair_src[grid[:m] * q + grid[m:]]
    src = np.ravel_multi_index(tuple(np.concatenate([moved // q, moved % q])),
                               (q,) * (2 * m))
    for k in pc.all_sign_keys(m):
        w = audit._codespace_matrix(k, p).T
        for a in range(q):  # row b: |S_a^k>|S_b^k>
            state = (w[a, :, None] * w[:, None, :]).reshape(q, -1)
            want = state[(a + np.arange(q)) % q]
            res = max(res, float(np.max(np.abs(state.take(src, axis=1)
                                               - want))))
    return res


def _clifford_decoherence_dense(rng, cvec, p) -> float:
    """clifford-decoherence: the twirled cross term on a random state."""
    stack = pa.clifford_stack(2)
    pm = np.kron(pa.pauli_matrix_1(2, 1, 0), np.eye(2))
    pm2 = np.kron(pa.pauli_matrix_1(2, 0, 1),
                  pa.pauli_matrix_1(2, 0, 1))
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    rho = np.outer(v, v.conj())
    a = np.matmul(stack.conj().transpose(0, 2, 1), np.matmul(pm, stack))
    b = np.matmul(stack.conj().transpose(0, 2, 1), np.matmul(pm2, stack))
    cross = np.einsum("kab,bc,kdc->ad", a, rho, b.conj()) / len(stack)
    return float(np.max(np.abs(cross)))


def _pauli_partitioning_dense(rng, cvec, p) -> float:
    """pauli-partitioning-by-cliffords from dense conjugates' overlaps."""
    stack = pa.clifford_stack(2)
    pm = np.kron(pa.pauli_matrix_1(2, 1, 0), np.eye(2))
    conj = np.matmul(stack.conj().transpose(0, 2, 1), np.matmul(pm, stack))
    basis = pa.qubit_pauli_basis(2)
    overlaps = np.abs(np.einsum("kab,qba->kq", conj,
                                basis.conj().transpose(0, 2, 1))) / 4
    hits = np.argmax(overlaps, axis=1)
    counts = np.bincount(hits, minlength=16)
    expected = len(stack) / 15
    res = float(counts[0])
    res = max(res, float(np.max(np.abs(counts[1:] - expected))))
    res = max(res, float(np.max(np.abs(np.max(overlaps, axis=1) - 1.0))))
    return res


def _pauli_criterion_dense(rng, cvec, p) -> float:
    """pauli-criterion with overlaps taken on full codeword vectors."""
    q, m = p.q, p.m
    mismatches = 0
    pair_total = 0
    sample = 0
    for k in pc.all_sign_keys(m):
        w = audit._codespace_matrix(k, p)
        xset, zset = pc._correlated_patterns(k.k, p)
        pair_total += len(xset) * len(zset) - 1
        for _ in range(60):
            x = rng.integers(0, q, size=m)
            z = rng.integers(0, q, size=m)
            if not x.any() and not z.any():
                continue
            op = pa.SymbolicPauli(q, x, z)
            predicted = pc.is_k_correlated(op, k, p)
            cols = _apply_symbolic(w, op, q, m)
            overlap = float(np.max(np.abs(w.conj().T @ cols)))
            if predicted != (overlap > 0.5):
                mismatches += 1
            if min(overlap, abs(overlap - 1.0)) > 1e-9:
                mismatches += 1
            sample += 1
    if pair_total != len(pc.all_sign_keys(m)) * (q ** (2 * (p.d + 1)) - 1):
        mismatches += 1
    if sample == 0:
        mismatches += 1
    return float(mismatches)


def _uncorrelated_action_dense(rng, cvec, p) -> float:
    """uncorrelated-action: the largest overlap on full codeword vectors."""
    q, m = p.q, p.m
    res = 0.0
    for k in pc.all_sign_keys(m):
        w = audit._codespace_matrix(k, p)
        done = 0
        while done < 25:
            x = rng.integers(0, q, size=m)
            z = rng.integers(0, q, size=m)
            if not x.any() and not z.any():
                continue
            op = pa.SymbolicPauli(q, x, z)
            if pc.is_k_correlated(op, k, p):
                continue
            cols = _apply_symbolic(w, op, q, m)
            res = max(res, float(np.max(np.abs(w.conj().T @ cols))))
            done += 1
    return res


# lemma name -> its dense check, same signature as `audit.LEMMA_COVERAGE`
FLOAT_LEMMAS: dict[str, Callable] = {
    "logical-x": _footprint_dense("x", every_polynomial=False),
    "logical-sum": _logical_sum_dense,
    "logical-z": _footprint_dense("z", every_polynomial=False),
    "clifford-decoherence": _clifford_decoherence_dense,
    "pauli-partitioning-by-cliffords": _pauli_partitioning_dense,
    "correlated-x": _footprint_dense("x", every_polynomial=True),
    "correlated-z": _footprint_dense("z", every_polynomial=True),
    "pauli-criterion": _pauli_criterion_dense,
    "uncorrelated-action": _uncorrelated_action_dense,
}
