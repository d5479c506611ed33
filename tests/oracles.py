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
- `run_qpip_sym` is the paper's symmetric wrapper ("any language in BQP
  has a QPIP"): the prover's claim picks the side to verify, and the
  outcome is 1, 0 or ABORT.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from qpiplab import pcalg as pa
from qpiplab import polycode as pc
from qpiplab import qcore as qc
from qpiplab import qpip

ABORT = "ABORT"


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
