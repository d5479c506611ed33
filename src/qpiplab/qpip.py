"""Interactive verification of delegated quantum circuits.

A nearly classical verifier delegates a circuit to an untrusted prover,
hiding every wire inside an authenticated block.  This module supplies the
pieces that turn the authentication layers into full protocols: a circuit
representation, compilation of Toffoli gates into measurement rounds, the
Toffoli-by-teleportation gadget, Pauli-key bookkeeping, transcripts, prover
policies, the qubit (Clifford-authenticated) and qudit (polynomial-code)
protocol engines, a fixed universal circuit, and the symmetric wrapper that
turns accept/reject into {1, 0, ABORT}.

Two simulation engines back the qudit protocol.  The dense engine holds the
whole physical register and is limited to Toffoli-free circuits at desk
scale.  The logical-frame engine holds the logical state of the live blocks
only, the n wires' current blocks plus the magic triple of the running
gadget (q^(n+3) amplitudes whatever the gadget count), and one symbolic
Pauli frame per block; Clifford rounds act on the logical state while keys
and frames evolve by exact conjugation rules, which covers honest and
Pauli-attacking provers at any gadget count.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import cliffauth as ca
from . import pcalg as pa
from . import polycode as pc
from . import qcore as qc

ABORT = "ABORT"

_DENSE_AMPLITUDE_CAP = 2_000_000


# --------------------------------------------------------------- circuits


@dataclass(frozen=True)
class CircuitGate:
    """One gate: a tagged library element or an explicit small unitary."""

    op: pa.GateTag | pc.LogicalGateTag | qc.UnitaryMatrix
    wires: tuple[int, ...]

    def __post_init__(self):
        wires = tuple(int(w) for w in self.wires)
        object.__setattr__(self, "wires", wires)
        if len(set(wires)) != len(wires):
            raise ValueError("gate wires must be distinct")
        if isinstance(self.op, pa.GateTag):
            if len(wires) != self.op.arity:
                raise ValueError(f"{self.op.name} needs {self.op.arity} wires")
        elif isinstance(self.op, pc.LogicalGateTag):
            need = 2 if self.op.name in ("LSUM", "LCPG") else 1
            if len(wires) != need:
                raise ValueError(f"{self.op.name} needs {need} wires")
        elif isinstance(self.op, qc.UnitaryMatrix):
            if len(wires) != self.op.shape.num_wires:
                raise ValueError("matrix gate wire count mismatch")
        else:
            raise TypeError(f"unsupported gate op {type(self.op).__name__}")


@dataclass(frozen=True)
class CircuitIR:
    """A delegated circuit: wires, ordered gates, declared error bound.

    wire_dim 2 selects the qubit protocol; gates are H/K/CNOT tags or
    explicit unitaries on at most two wires.  An odd prime wire_dim
    selects the qudit protocol; gates are logical Clifford tags plus the
    three-wire T.  Explicit unitaries on qudit wires are legal in the
    representation (the universal circuit uses controlled Fouriers) but
    only the dense universal evaluator accepts them.
    """

    n: int
    wire_dim: int
    gates: tuple[CircuitGate, ...]
    gamma: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.n < 1:
            raise ValueError("need at least one wire")
        if self.wire_dim != 2 and (self.wire_dim < 3
                                   or not qc.is_prime(self.wire_dim)):
            raise ValueError("wire_dim must be 2 or an odd prime")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if 1.0 - 2.0 * self.gamma <= 0.0:
            warnings.warn(
                f"declared error bound gamma={self.gamma} leaves no promise "
                "gap; acceptance statistics will not separate the cases",
                RuntimeWarning, stacklevel=2)
        for g in self.gates:
            if any(w < 0 or w >= self.n for w in g.wires):
                raise ValueError("gate wire out of range")
            self._check_mode_op(g)

    def _check_mode_op(self, g: CircuitGate) -> None:
        if isinstance(g.op, qc.UnitaryMatrix):
            if g.op.shape.dims != (self.wire_dim,) * len(g.wires):
                raise ValueError("matrix gate dimension mismatch")
            if self.wire_dim == 2 and len(g.wires) > 2:
                raise ValueError("qubit-mode unitaries act on <= 2 wires")
            return
        if self.wire_dim == 2:
            if not (isinstance(g.op, pa.GateTag)
                    and g.op.name in ("H", "K", "CNOT")):
                raise ValueError("qubit mode takes H/K/CNOT tags or matrices")
        else:
            tag_ok = (isinstance(g.op, pc.LogicalGateTag)
                      or (isinstance(g.op, pa.GateTag) and g.op.name == "T"))
            if not tag_ok:
                raise ValueError("qudit mode takes logical tags or T")

    @property
    def mode(self) -> str:
        return "clifford" if self.wire_dim == 2 else "poly"

    @property
    def toffoli_count(self) -> int:
        return sum(1 for g in self.gates
                   if isinstance(g.op, pa.GateTag) and g.op.name == "T")


def _plain_logical_matrix(tag: pc.LogicalGateTag, q: int) -> qc.UnitaryMatrix:
    """Action of a logical gate on bare qudits (the unencoded reference)."""
    if tag.name == "LX":
        mat = pa.pauli_matrix_1(q, tag.param % q, 0)
        return qc.UnitaryMatrix(qc.RegisterShape((q,)), mat,
                                check_unitary=False)
    if tag.name == "LZ":
        mat = pa.pauli_matrix_1(q, 0, tag.param % q)
        return qc.UnitaryMatrix(qc.RegisterShape((q,)), mat,
                                check_unitary=False)
    if tag.name == "LSUM":
        return pc._sum_power(tag.param % q, q)
    if tag.name == "LCPG":
        return pc._cpg_power(tag.param % q, q)
    if tag.name == "LF":
        f = pa.gate_matrix(pa.GateTag("F"), q)
        mat = f.entries if tag.param == 1 else f.entries.conj().T
        return qc.UnitaryMatrix(f.shape, mat, check_unitary=False)
    if tag.name == "LM":
        return pa.gate_matrix(pa.GateTag("M_r", tag.param % q), q)
    raise ValueError(f"unknown logical gate {tag.name!r}")


def apply_circuit_plain(circuit: CircuitIR,
                        state: qc.StateVector) -> qc.StateVector:
    """Run the circuit on bare wires with no authentication layer."""
    q = circuit.wire_dim
    for g in circuit.gates:
        if isinstance(g.op, qc.UnitaryMatrix):
            state = qc.apply_on_wires(state, g.op, g.wires)
        elif isinstance(g.op, pa.GateTag):
            state = qc.apply_on_wires(state, pa.gate_matrix(g.op, q), g.wires)
        else:
            state = qc.apply_on_wires(state, _plain_logical_matrix(g.op, q),
                                      g.wires)
    return state


def reference_output_distribution(circuit: CircuitIR,
                                  input_digits: Sequence[int],
                                  output_wire: int = 0) -> np.ndarray:
    """Exact output-wire distribution of the bare circuit."""
    shape = qc.RegisterShape((circuit.wire_dim,) * circuit.n)
    state = qc.basis_state(shape, tuple(input_digits))
    state = apply_circuit_plain(circuit, state)
    return qc.measurement_probabilities(state, (output_wire,))


# ------------------------------------------------- compilation to rounds


@dataclass(frozen=True)
class GadgetStep:
    """One Toffoli teleportation: which blocks are consumed and created."""

    source_wires: tuple[int, int, int]
    target_blocks: tuple[int, int, int]
    magic_blocks: tuple[int, int, int]


@dataclass(frozen=True)
class LogicalSchedule:
    """Round decomposition of a qudit circuit.

    segments[i] holds the Clifford gates between the i-th and (i+1)-th
    Toffoli on source wires; rounds[i] holds the same gates remapped to
    block indices and merged with the next gadget's entangling layer, as
    the verifier executes them.  final_map sends each source wire to the
    block holding it after the last gadget.
    """

    n: int
    toffoli_count: int
    block_count: int
    segments: tuple[tuple[CircuitGate, ...], ...]
    gadgets: tuple[GadgetStep, ...]
    rounds: tuple[tuple[tuple[pc.LogicalGateTag, tuple[int, ...]], ...], ...]
    final_map: tuple[int, ...]


def _entangling_layer(target_blocks: Sequence[int],
                      magic_blocks: Sequence[int],
                      q: int) -> list[tuple[pc.LogicalGateTag, tuple[int, ...]]]:
    """Pre-measurement layer coupling data blocks to a fresh magic triple."""
    t1, t2, t3 = target_blocks
    g1, g2, g3 = magic_blocks
    return [
        (pc.LogicalGateTag("LSUM", 1), (t3, g3)),
        (pc.LogicalGateTag("LSUM", q - 1), (g1, t1)),
        (pc.LogicalGateTag("LSUM", q - 1), (g2, t2)),
        (pc.LogicalGateTag("LF", -1), (t3,)),
    ]


def compile_to_logical(circuit: CircuitIR) -> LogicalSchedule:
    """Split a qudit circuit at its Toffolis into per-round gate lists."""
    if circuit.mode != "poly":
        raise ValueError("only qudit circuits compile to logical rounds")
    q = circuit.wire_dim
    wire_block = list(range(circuit.n))
    next_block = circuit.n

    segments: list[tuple[CircuitGate, ...]] = []
    gadgets: list[GadgetStep] = []
    rounds: list[tuple[tuple[pc.LogicalGateTag, tuple[int, ...]], ...]] = []
    seg: list[CircuitGate] = []
    rnd: list[tuple[pc.LogicalGateTag, tuple[int, ...]]] = []

    for g in circuit.gates:
        if isinstance(g.op, qc.UnitaryMatrix):
            raise ValueError("explicit unitaries are not compilable; they "
                             "belong to the dense universal evaluator")
        if isinstance(g.op, pa.GateTag):
            targets = tuple(wire_block[w] for w in g.wires)
            magics = (next_block, next_block + 1, next_block + 2)
            next_block += 3
            rnd.extend(_entangling_layer(targets, magics, q))
            segments.append(tuple(seg))
            gadgets.append(GadgetStep(g.wires, targets, magics))
            rounds.append(tuple(rnd))
            seg, rnd = [], []
            for w, b in zip(g.wires, magics):
                wire_block[w] = b
        else:
            seg.append(g)
            rnd.append((g.op, tuple(wire_block[w] for w in g.wires)))
    segments.append(tuple(seg))
    rounds.append(tuple(rnd))

    return LogicalSchedule(n=circuit.n, toffoli_count=len(gadgets),
                           block_count=next_block,
                           segments=tuple(segments), gadgets=tuple(gadgets),
                           rounds=tuple(rounds),
                           final_map=tuple(wire_block))


def apply_schedule_plain(schedule: LogicalSchedule, circuit: CircuitIR,
                         state: qc.StateVector) -> qc.StateVector:
    """Recompose segment-T-segment on bare source wires (no gadgets)."""
    q = circuit.wire_dim
    t_mat = pa.gate_matrix(pa.GateTag("T"), q)
    for i, seg in enumerate(schedule.segments):
        for g in seg:
            state = qc.apply_on_wires(state, _plain_logical_matrix(g.op, q),
                                      g.wires)
        if i < schedule.toffoli_count:
            state = qc.apply_on_wires(state, t_mat,
                                      schedule.gadgets[i].source_wires)
    return state


# ------------------------------------------------------- Toffoli gadget


def magic_state(q: int) -> qc.StateVector:
    """The three-wire resource (1/q) sum_{a,b} |a, b, ab>."""
    shape = qc.RegisterShape((q, q, q))
    amps = np.zeros(q ** 3, dtype=np.complex128)
    for a in range(q):
        for b in range(q):
            amps[shape.digits_to_index((a, b, a * b % q))] = 1.0
    return qc.StateVector(shape, amps / q)


def toffoli_correction_tags(x: int, y: int, z: int, q: int
                            ) -> list[tuple[pc.LogicalGateTag,
                                            tuple[int, ...]]]:
    """Correction gates for measurement (x, y, z), on relative blocks 0,1,2.

    Applied left to right this equals T (X^x o X^y o Z^z) T^dag, so with
    the teleportation measurement fed in it finishes the gate exactly.
    """
    x, y, z = x % q, y % q, z % q
    out: list[tuple[pc.LogicalGateTag, tuple[int, ...]]] = []
    if z:
        out.append((pc.LogicalGateTag("LCPG", q - z), (0, 1)))
    if x:
        out.append((pc.LogicalGateTag("LSUM", x), (1, 2)))
    if y:
        out.append((pc.LogicalGateTag("LSUM", y), (0, 2)))
    paulis = ((x, (-y * z) % q), (y, (-x * z) % q), ((x * y) % q, z))
    for b, (px, pz) in enumerate(paulis):
        if px:
            out.append((pc.LogicalGateTag("LX", px), (b,)))
        if pz:
            out.append((pc.LogicalGateTag("LZ", pz), (b,)))
    return out


def _magic_overlap(state: qc.StateVector, wires: Sequence[int],
                   q: int) -> float:
    """Probability weight of the magic pattern on the given wires."""
    dims = state.shape.dims
    tensor = state.amplitudes.reshape(dims)
    moved = np.moveaxis(tensor, wires, range(len(wires)))
    flat = moved.reshape(q ** 3, -1)
    overlap = magic_state(q).amplitudes.conj() @ flat
    return float(np.vdot(overlap, overlap).real)


def toffoli_gadget(state: qc.StateVector, target_wires: Sequence[int],
                   magic_wires: Sequence[int], rng: np.random.Generator,
                   debug: bool = True
                   ) -> tuple[tuple[int, int, int], qc.StateVector]:
    """Teleport a T gate: entangle, measure the targets, correct the magics.

    The corrected state carries T applied to the original target content on
    the magic wires, for every measurement branch; the measured wires
    collapse to the observed digits.
    """
    target_wires = tuple(target_wires)
    magic_wires = tuple(magic_wires)
    if len(target_wires) != 3 or len(magic_wires) != 3:
        raise ValueError("the gadget consumes three targets and three magics")
    q = state.shape.dims[target_wires[0]]
    if debug and _magic_overlap(state, magic_wires, q) < 1.0 - 1e-9:
        raise ValueError("magic wires do not hold the Toffoli resource state")

    rel = {i: w for i, w in enumerate(magic_wires)}
    layer = _entangling_layer((0, 1, 2), (3, 4, 5), q)
    abs_wires = {0: target_wires[0], 1: target_wires[1], 2: target_wires[2],
                 3: magic_wires[0], 4: magic_wires[1], 5: magic_wires[2]}
    for tag, blocks in layer:
        mat = _plain_logical_matrix(tag, q)
        state = qc.apply_on_wires(state, mat,
                                  tuple(abs_wires[b] for b in blocks))
    measurement, state = qc.measure_wires(state, target_wires, rng)
    for tag, blocks in toffoli_correction_tags(*measurement, q):
        mat = _plain_logical_matrix(tag, q)
        state = qc.apply_on_wires(state, mat,
                                  tuple(rel[b] for b in blocks))
    return measurement, state


# ---------------------------------------------------- Pauli key updates


def _update_xz(tag: pc.LogicalGateTag, xs: list[np.ndarray],
               zs: list[np.ndarray], k: pc.SignKey | None,
               p: pc.CodeParams) -> None:
    """Shared conjugation rules on (x, z) exponent vectors, in place.

    The same algebra moves verifier keys and adversarial Pauli frames
    through a transversal gate; only LX/LZ need the sign key, because the
    verifier implements logical Paulis purely as key shifts.
    """
    q = p.q
    c = np.array(p.interp_c, dtype=np.int64)
    cinv = np.array([qc.inv_mod(int(v), q) for v in p.interp_c],
                    dtype=np.int64)
    if tag.name == "LX":
        kv = np.array(k.k, dtype=np.int64)
        xs[0][:] = (xs[0] - tag.param * kv) % q
    elif tag.name == "LZ":
        kv = np.array(k.k, dtype=np.int64)
        zs[0][:] = (zs[0] - tag.param * c * kv) % q
    elif tag.name == "LSUM":
        t = tag.param % q
        zs[0][:] = (zs[0] - t * zs[1]) % q
        xs[1][:] = (xs[1] + t * xs[0]) % q
    elif tag.name == "LCPG":
        t = tag.param % q
        za = (zs[0] + t * c * xs[1]) % q
        zb = (zs[1] + t * c * xs[0]) % q
        zs[0][:], zs[1][:] = za, zb
    elif tag.name == "LF":
        if tag.param == 1:
            nx = (-cinv * zs[0]) % q
            nz = (c * xs[0]) % q
        else:
            nx = (cinv * zs[0]) % q
            nz = (-c * xs[0]) % q
        xs[0][:], zs[0][:] = nx, nz
    elif tag.name == "LM":
        r = tag.param % q
        xs[0][:] = (r * xs[0]) % q
        zs[0][:] = (qc.inv_mod(r, q) * zs[0]) % q
    else:
        raise ValueError(f"no key rule for gate {tag.name!r}")


def pauli_key_update(keys: Sequence[pc.PauliKey], gate: pc.LogicalGateTag,
                     blocks: Sequence[int], k: pc.SignKey,
                     p: pc.CodeParams) -> tuple[pc.PauliKey, ...]:
    """Return the key list after one logical gate on the given blocks."""
    out = list(keys)
    xs = [np.array(out[b].x, dtype=np.int64) for b in blocks]
    zs = [np.array(out[b].z, dtype=np.int64) for b in blocks]
    _update_xz(gate, xs, zs, k, p)
    for i, b in enumerate(blocks):
        out[b] = pc.PauliKey(z=tuple(int(v) for v in zs[i]),
                             x=tuple(int(v) for v in xs[i]))
    return tuple(out)


def _frame_update(frames: list[pa.SymbolicPauli], gate: pc.LogicalGateTag,
                  blocks: Sequence[int], p: pc.CodeParams) -> None:
    """Conjugate attack frames through the transversal gate, in place."""
    if gate.name in ("LX", "LZ"):
        return  # key-shift gates have no physical circuit to pass through
    xs = [frames[b].x.copy() for b in blocks]
    zs = [frames[b].z.copy() for b in blocks]
    _update_xz(gate, xs, zs, None, p)
    for i, b in enumerate(blocks):
        frames[b] = pa.SymbolicPauli(p.q, xs[i], zs[i])


# ------------------------------------------------------------ transcript


@dataclass(frozen=True)
class TranscriptEntry:
    """One message: sequence number, direction, kind, classical payload."""

    round: int
    direction: str
    kind: str
    payload: tuple[int, ...] | str

    _DIRECTIONS = ("verifier->prover", "prover->verifier")
    _KINDS = ("quantum-block", "classical-string", "verdict")

    def __post_init__(self):
        if self.direction not in self._DIRECTIONS:
            raise ValueError(f"bad direction {self.direction!r}")
        if self.kind not in self._KINDS:
            raise ValueError(f"bad kind {self.kind!r}")
        if not isinstance(self.payload, str):
            object.__setattr__(self, "payload",
                               tuple(int(v) for v in self.payload))

    def to_line(self) -> str:
        body = (self.payload if isinstance(self.payload, str)
                else ",".join(str(v) for v in self.payload))
        return f"{self.round}\t{self.direction}\t{self.kind}\t{body}"


class Transcript:
    """Append-only message log with strictly increasing sequence numbers.

    Export format is one tab-separated line per entry: sequence number,
    direction, kind, then the payload digits joined by commas (or the
    verdict word).  Quantum messages log only block descriptors; key
    material never appears.
    """

    def __init__(self, entries: Iterable[TranscriptEntry] = ()):
        self._entries: list[TranscriptEntry] = []
        for e in entries:
            self.append(e)

    def append(self, entry: TranscriptEntry) -> None:
        if self._entries and entry.round <= self._entries[-1].round:
            raise ValueError("transcript sequence numbers must increase")
        self._entries.append(entry)

    def add(self, direction: str, kind: str,
            payload: tuple[int, ...] | str) -> None:
        nxt = self._entries[-1].round + 1 if self._entries else 0
        self.append(TranscriptEntry(nxt, direction, kind, payload))

    @property
    def entries(self) -> tuple[TranscriptEntry, ...]:
        return tuple(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def to_lines(self) -> list[str]:
        return [e.to_line() for e in self._entries]

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "Transcript":
        out = cls()
        for line in lines:
            line = line.strip()
            if not line:
                continue
            seq, direction, kind, body = line.split("\t")
            payload: tuple[int, ...] | str
            if kind == "verdict":
                payload = body
            else:
                payload = tuple(int(v) for v in body.split(",")) if body \
                    else ()
            out.append(TranscriptEntry(int(seq), direction, kind, payload))
        return out


@dataclass
class VerifierState:
    """Verifier-held secrets and flags; never serialized into transcripts."""

    mode: str
    sign_key: pc.SignKey | None = None
    pauli_keys: list[pc.PauliKey] | None = None
    clifford_keys: list[ca.CliffordKey] | None = None
    round_index: int = 0
    invalid_rounds: list[int] = field(default_factory=list)


@dataclass(frozen=True)
class VerdictRecord:
    """Protocol outcome: verdict, decoded output digits, message log."""

    verdict: str
    output: tuple[int, ...] | None
    transcript: Transcript
    rounds: int
    invalid_rounds: tuple[int, ...] = ()

    def __post_init__(self):
        if self.verdict not in ("accept", "reject", "abort"):
            raise ValueError(f"bad verdict {self.verdict!r}")


# -------------------------------------------------------- prover models


@dataclass(frozen=True)
class PolicyContext:
    """What a dense-engine policy sees when it gets the register."""

    phase: str
    round_index: int
    block_wires: tuple[tuple[int, ...], ...]
    env_wires: tuple[int, ...]
    rng: np.random.Generator


@dataclass(frozen=True)
class ProverImpl:
    """A prover: an optional dense policy, an optional Pauli plan.

    The dense policy rewrites the register at each message exchange; the
    Pauli plan maps a protocol round to (block, Pauli) pairs and is the
    only adversarial language the logical-frame engine accepts.  The
    announce hook serves the symmetric wrapper.  Policies never see
    verifier keys; they receive only the register and public context.
    """

    name: str
    policy: Callable[[qc.StateVector, PolicyContext],
                     qc.StateVector] | None = None
    pauli_plan: Mapping[int, tuple[tuple[int, pa.SymbolicPauli], ...]] | \
        None = None
    env_dims: tuple[int, ...] = ()
    announce: Callable[[object], bool] | None = None
    misreport_round: int | None = None


def honest_prover(announce: Callable[[object], bool] | None = None
                  ) -> ProverImpl:
    return ProverImpl(name="honest", announce=announce)


def _apply_block_pauli(state: qc.StateVector, wires: Sequence[int],
                       p_op: pa.SymbolicPauli) -> qc.StateVector:
    q = p_op.q
    for i, w in enumerate(wires):
        x, z = int(p_op.x[i]), int(p_op.z[i])
        if x == 0 and z == 0:
            continue
        u = qc.UnitaryMatrix(qc.RegisterShape((q,)),
                             pa.pauli_matrix_1(q, x, z), check_unitary=False)
        state = qc.apply_on_wires(state, u, (w,))
    return state


def fixed_pauli_prover(plan: Mapping[int, Sequence[tuple[int,
                                                         pa.SymbolicPauli]]],
                       name: str = "fixed-pauli") -> ProverImpl:
    """Apply fixed Paulis to chosen blocks at chosen protocol rounds.

    The same plan drives both engines: the dense policy multiplies the
    Pauli matrices onto the block wires, the frame engine composes the
    Paulis onto its symbolic frames.
    """
    frozen = {int(r): tuple((int(b), op) for b, op in steps)
              for r, steps in plan.items()}

    def policy(state: qc.StateVector, ctx: PolicyContext) -> qc.StateVector:
        for b, op in frozen.get(ctx.round_index, ()):
            state = _apply_block_pauli(state, ctx.block_wires[b], op)
        return state

    return ProverImpl(name=name, policy=policy, pauli_plan=frozen)


def scripted_prover(steps: Sequence[tuple[int, str, qc.UnitaryMatrix,
                                          tuple[int, ...]]],
                    misreport_round: int | None = None,
                    name: str = "scripted") -> ProverImpl:
    """Apply listed unitaries at (round, phase) on absolute register wires."""
    table: dict[tuple[int, str], list[tuple[qc.UnitaryMatrix,
                                            tuple[int, ...]]]] = {}
    for rnd, phase, u, wires in steps:
        table.setdefault((int(rnd), phase), []).append((u, tuple(wires)))

    def policy(state: qc.StateVector, ctx: PolicyContext) -> qc.StateVector:
        for u, wires in table.get((ctx.round_index, ctx.phase), ()):
            state = qc.apply_on_wires(state, u, wires)
        return state

    return ProverImpl(name=name, policy=policy,
                      misreport_round=misreport_round)


def random_unitary_prover(env_dims: tuple[int, ...],
                          seed: int | None = None,
                          name: str = "random-unitary") -> ProverImpl:
    """Haar-random unitary over all held block wires plus the environment."""
    from scipy.stats import unitary_group

    draw_rng = qc.make_rng(seed)

    def policy(state: qc.StateVector, ctx: PolicyContext) -> qc.StateVector:
        wires = tuple(w for ws in ctx.block_wires for w in ws) + \
            ctx.env_wires
        dims = tuple(state.shape.dims[w] for w in wires)
        dim = int(np.prod(dims))
        mat = unitary_group.rvs(dim, random_state=draw_rng)
        u = qc.UnitaryMatrix(qc.RegisterShape(dims), mat, check_unitary=False)
        return qc.apply_on_wires(state, u, wires)

    return ProverImpl(name=name, policy=policy, env_dims=env_dims)


def _run_policy(prover: ProverImpl, state: qc.StateVector, phase: str,
                round_index: int,
                block_wires: tuple[tuple[int, ...], ...],
                env_wires: tuple[int, ...],
                rng: np.random.Generator) -> qc.StateVector:
    if prover.policy is None:
        return state
    ctx = PolicyContext(phase=phase, round_index=round_index,
                        block_wires=block_wires, env_wires=env_wires,
                        rng=rng)
    return prover.policy(state, ctx)


# ------------------------------------------------- qubit protocol engine


def run_clifford_qpip(circuit: CircuitIR, input_bits: Sequence[int], e: int,
                      prover: ProverImpl, rng: np.random.Generator,
                      broken_variant: bool = False,
                      output_wire: int = 0) -> VerdictRecord:
    """Delegate a qubit circuit behind per-wire Clifford authentication.

    Every wire travels as a block of 1 + e qubits under its own Clifford
    key.  Each gate round the verifier takes the touched blocks, strips
    their keys, applies the gate to the data qubits, and re-encodes under
    fresh keys.  The auxiliary qubits are checked only once, in the final
    round, on the output block; checking them every round and reusing keys
    (broken_variant=True) reproduces the insecure protocol cousin that the
    accumulated-small-rotation attack defeats.
    """
    if circuit.mode != "clifford":
        raise ValueError("this engine runs qubit circuits")
    if len(input_bits) != circuit.n:
        raise ValueError("input length mismatch")
    n, m_b = circuit.n, 1 + e
    total_amps = 2 ** (n * m_b) * int(np.prod(prover.env_dims or (1,)))
    if total_amps > _DENSE_AMPLITUDE_CAP:
        raise ValueError("register too large for the dense engine")
    params = ca.CliffordQasParams(l=1, e=e)
    shape1 = qc.RegisterShape((2,))

    keys = [ca.random_clifford_key(params, rng) for _ in range(n)]
    state: qc.StateVector | None = None
    for b, bit in enumerate(input_bits):
        enc = ca.cqas_encode(qc.basis_state(shape1, (int(bit),)), keys[b])
        state = enc if state is None else qc.tensor(state, enc)
    for dim in prover.env_dims:
        state = qc.tensor(state, qc.basis_state(qc.RegisterShape((dim,)),
                                                (0,)))
    block_wires = tuple(tuple(range(b * m_b, (b + 1) * m_b))
                        for b in range(n))
    env_wires = tuple(range(n * m_b, n * m_b + len(prover.env_dims)))

    vs = VerifierState(mode="clifford", clifford_keys=keys)
    transcript = Transcript()
    transcript.add("verifier->prover", "quantum-block", tuple(range(n)))

    def block_unitary(key: ca.CliffordKey, dagger: bool) -> qc.UnitaryMatrix:
        mat = key.element.dagger_matrix() if dagger else \
            key.element.matrix.entries
        return qc.UnitaryMatrix(qc.RegisterShape((2,) * m_b), mat,
                                check_unitary=False)

    total_rounds = len(circuit.gates) + 1
    for i, gate in enumerate(circuit.gates, start=1):
        vs.round_index = i
        if prover.misreport_round == i:
            transcript.add("prover->verifier", "verdict", "abort")
            return VerdictRecord("abort", None, transcript, i)
        state = _run_policy(prover, state, "send", i, block_wires,
                            env_wires, rng)
        touched = gate.wires
        transcript.add("prover->verifier", "quantum-block", touched)
        for b in touched:
            state = qc.apply_on_wires(state, block_unitary(keys[b], True),
                                      block_wires[b])
        if broken_variant:
            for b in touched:
                aux = block_wires[b][1:]
                outcome, state = qc.measure_wires(state, aux, rng)
                if any(outcome):
                    transcript.add("verifier->prover", "verdict", "reject")
                    return VerdictRecord("reject", None, transcript, i)
        data = tuple(block_wires[b][0] for b in touched)
        if isinstance(gate.op, pa.GateTag):
            state = qc.apply_on_wires(state, pa.gate_matrix(gate.op, 2), data)
        else:
            state = qc.apply_on_wires(state, gate.op, data)
        for b in touched:
            if not broken_variant:
                keys[b] = ca.random_clifford_key(params, rng)
            state = qc.apply_on_wires(state, block_unitary(keys[b], False),
                                      block_wires[b])
        transcript.add("verifier->prover", "quantum-block", touched)

    final = total_rounds
    vs.round_index = final
    if prover.misreport_round == final:
        transcript.add("prover->verifier", "verdict", "abort")
        return VerdictRecord("abort", None, transcript, final)
    state = _run_policy(prover, state, "send", final, block_wires,
                        env_wires, rng)
    out_block = output_wire
    transcript.add("prover->verifier", "quantum-block", (out_block,))
    state = qc.apply_on_wires(state, block_unitary(keys[out_block], True),
                              block_wires[out_block])
    aux = block_wires[out_block][1:]
    outcome, state = qc.measure_wires(state, aux, rng)
    if any(outcome):
        transcript.add("verifier->prover", "verdict", "reject")
        return VerdictRecord("reject", None, transcript, final)
    bit, state = qc.measure_wires(state, (block_wires[out_block][0],), rng)
    transcript.add("verifier->prover", "verdict", "accept")
    return VerdictRecord("accept", (int(bit[0]),), transcript, final)


# ------------------------------------------------- qudit protocol engine


def _transversal_apply(state: qc.StateVector, tag: pc.LogicalGateTag,
                       blocks_wires: Sequence[Sequence[int]],
                       p: pc.CodeParams) -> qc.StateVector:
    """The physical circuit an honest prover runs for one logical gate.

    Logical Paulis are key shifts on the verifier side, so the prover does
    nothing for LX/LZ; the other gates act coordinate-wise.
    """
    q = p.q
    if tag.name in ("LX", "LZ"):
        return state
    if tag.name == "LSUM":
        t = tag.param % q
        for i in range(p.m):
            state = qc.apply_on_wires(state, pc._sum_power(t, q),
                                      (blocks_wires[0][i],
                                       blocks_wires[1][i]))
        return state
    if tag.name == "LCPG":
        t = tag.param % q
        for i in range(p.m):
            state = qc.apply_on_wires(
                state, pc._cpg_power(t * p.interp_c[i] % q, q),
                (blocks_wires[0][i], blocks_wires[1][i]))
        return state
    if tag.name == "LF":
        for i in range(p.m):
            f = pa.gate_matrix(pa.GateTag("F_r", p.interp_c[i]), q)
            mat = f.entries if tag.param == 1 else f.entries.conj().T
            u = qc.UnitaryMatrix(f.shape, mat, check_unitary=False)
            state = qc.apply_on_wires(state, u, (blocks_wires[0][i],))
        return state
    if tag.name == "LM":
        m_gate = pa.gate_matrix(pa.GateTag("M_r", tag.param % q), q)
        for i in range(p.m):
            state = qc.apply_on_wires(state, m_gate, (blocks_wires[0][i],))
        return state
    raise ValueError(f"unknown logical gate {tag.name!r}")


def _sample_codeword_string(value: int, k: pc.SignKey, pkey: pc.PauliKey,
                            frame: pa.SymbolicPauli, p: pc.CodeParams,
                            rng: np.random.Generator) -> tuple[int, ...]:
    """Digits a standard-basis readout of an authenticated block produces."""
    lmap, _ = pc._dk_maps(k.k, p)
    vec = np.zeros(p.m, dtype=np.int64)
    vec[0] = value % p.q
    vec[1:p.d + 1] = rng.integers(0, p.q, size=p.d)
    w = lmap @ vec % p.q
    raw = (w + np.array(pkey.x, dtype=np.int64) + frame.x) % p.q
    return tuple(int(v) for v in raw)


def run_poly_qpip(circuit: CircuitIR, input_digits: Sequence[int],
                  p: pc.CodeParams, prover: ProverImpl,
                  rng: np.random.Generator, engine: str = "dense",
                  output_wires: Sequence[int] = (0,)) -> VerdictRecord:
    """Delegate a qudit circuit behind the signed-polynomial code.

    All blocks ship up front under one shared sign key and fresh Pauli
    keys.  Clifford segments cost no quantum traffic: the prover applies
    them transversally while the verifier updates keys.  Each Toffoli is
    one classical round trip: the prover measures the three consumed
    blocks and sends the 3m digits, the verifier decodes, replies with the
    three logical values, and both sides run the correction.  A final
    m-digit message per output wire closes the run; any invalid decode
    along the way aborts at the end.
    """
    if circuit.mode != "poly" or circuit.wire_dim != p.q:
        raise ValueError("circuit and code parameters disagree")
    if len(input_digits) != circuit.n:
        raise ValueError("input length mismatch")
    schedule = compile_to_logical(circuit)
    if engine == "dense":
        return _poly_dense(circuit, schedule, input_digits, p, prover, rng,
                           tuple(output_wires))
    if engine == "logical-frame":
        return _poly_frames(circuit, schedule, input_digits, p, prover, rng,
                            tuple(output_wires))
    raise ValueError(f"unknown engine {engine!r}")


def _poly_dense(circuit: CircuitIR, schedule: LogicalSchedule,
                input_digits: Sequence[int], p: pc.CodeParams,
                prover: ProverImpl, rng: np.random.Generator,
                output_wires: tuple[int, ...]) -> VerdictRecord:
    if schedule.toffoli_count > 0:
        raise ValueError("the dense engine runs Toffoli-free circuits; use "
                         "the logical-frame engine for gadget rounds")
    q, m, n = p.q, p.m, circuit.n
    total_amps = q ** (n * m) * int(np.prod(prover.env_dims or (1,)))
    if total_amps > _DENSE_AMPLITUDE_CAP:
        raise ValueError("register too large for the dense engine")

    from . import polyauth as pya

    sign = pc.random_sign_key(m, rng)
    keys = [pc.random_pauli_key(p, rng) for _ in range(n)]
    shape1 = qc.RegisterShape((q,))
    state: qc.StateVector | None = None
    for b, digit in enumerate(input_digits):
        enc = pya.pqas_encode(qc.basis_state(shape1, (int(digit),)),
                              pya.PolyQasKey(sign, keys[b]), p)
        state = enc if state is None else qc.tensor(state, enc)
    for dim in prover.env_dims:
        state = qc.tensor(state, qc.basis_state(qc.RegisterShape((dim,)),
                                                (0,)))
    block_wires = tuple(tuple(range(b * m, (b + 1) * m)) for b in range(n))
    env_wires = tuple(range(n * m, n * m + len(prover.env_dims)))

    vs = VerifierState(mode="poly", sign_key=sign, pauli_keys=keys)
    transcript = Transcript()
    transcript.add("verifier->prover", "quantum-block", tuple(range(n)))
    state = _run_policy(prover, state, "recv", 0, block_wires, env_wires,
                        rng)

    for gate in circuit.gates:
        tag = gate.op
        wires_of = [block_wires[b] for b in gate.wires]
        state = _transversal_apply(state, tag, wires_of, p)
        new_keys = pauli_key_update(keys, tag, gate.wires, sign, p)
        keys[:] = list(new_keys)

    final_round = 1
    vs.round_index = final_round
    state = _run_policy(prover, state, "send", final_round, block_wires,
                        env_wires, rng)
    outputs: list[int] = []
    for w in output_wires:
        raw, state = qc.measure_wires(state, block_wires[w], rng)
        transcript.add("prover->verifier", "classical-string", raw)
        decoded = pc.decode_measurement(raw, sign, keys[w], p)
        if not decoded.valid:
            vs.invalid_rounds.append(final_round)
        outputs.append(decoded.value)
    verdict = "abort" if vs.invalid_rounds else "accept"
    transcript.add("verifier->prover", "verdict", verdict)
    return VerdictRecord(verdict, tuple(outputs), transcript,
                         rounds=final_round + 1,
                         invalid_rounds=tuple(vs.invalid_rounds))


def _poly_frames(circuit: CircuitIR, schedule: LogicalSchedule,
                 input_digits: Sequence[int], p: pc.CodeParams,
                 prover: ProverImpl, rng: np.random.Generator,
                 output_wires: tuple[int, ...]) -> VerdictRecord:
    if prover.policy is not None and prover.pauli_plan is None:
        raise ValueError("the logical-frame engine accepts honest provers "
                         "or Pauli plans only")
    q, m = p.q, p.m
    blocks = schedule.block_count
    L = schedule.toffoli_count
    # The register holds only live blocks: the n wires' current blocks, plus
    # one magic triple while its gadget runs, so q^(n+3) at any gadget count.
    if q ** (circuit.n + 3 * (L > 0)) > _DENSE_AMPLITUDE_CAP:
        raise ValueError("logical register too large")

    sign = pc.random_sign_key(m, rng)
    keys = [pc.random_pauli_key(p, rng) for _ in range(blocks)]
    frames = [pa.SymbolicPauli.identity(q, m) for _ in range(blocks)]

    state = qc.basis_state(qc.RegisterShape((q,) * circuit.n),
                           tuple(int(v) for v in input_digits))
    live = list(range(circuit.n))  # block id held at each register wire

    vs = VerifierState(mode="poly", sign_key=sign, pauli_keys=keys)
    transcript = Transcript()
    transcript.add("verifier->prover", "quantum-block", tuple(range(blocks)))

    def inject(round_index: int) -> None:
        if prover.pauli_plan is None:
            return
        for b, op in prover.pauli_plan.get(round_index, ()):
            frames[b] = frames[b].compose(op)

    def run_round_ops(ops) -> None:
        nonlocal state
        for tag, bs in ops:
            mat = _plain_logical_matrix(tag, q)
            state = qc.apply_on_wires(state, mat,
                                      tuple(live.index(b) for b in bs))
            keys[:] = list(pauli_key_update(keys, tag, bs, sign, p))
            _frame_update(frames, tag, bs, p)

    inject(0)
    for i in range(L + 1):
        if i < L:
            state = qc.tensor(state, magic_state(q))
            live.extend(schedule.gadgets[i].magic_blocks)
        run_round_ops(schedule.rounds[i])
        if i == L:
            break
        gadget = schedule.gadgets[i]
        round_no = i + 1
        vs.round_index = round_no
        inject(round_no)
        wires = tuple(live.index(b) for b in gadget.target_blocks)
        values, state = qc.measure_wires(state, wires, rng)
        # the measured blocks are basis states now: slice their axes out
        amps = np.moveaxis(state.amplitudes.reshape(state.shape.dims),
                           wires, (0, 1, 2))[values]
        for b in gadget.target_blocks:
            live.remove(b)
        state = qc.StateVector(qc.RegisterShape((q,) * len(live)), amps,
                               check_norm=False)
        raw_all: list[int] = []
        betas: list[int] = []
        for b, val in zip(gadget.target_blocks, values):
            raw = _sample_codeword_string(int(val), sign, keys[b],
                                          frames[b], p, rng)
            raw_all.extend(raw)
            decoded = pc.decode_measurement(raw, sign, keys[b], p)
            if not decoded.valid:
                vs.invalid_rounds.append(round_no)
            betas.append(decoded.value)
        transcript.add("prover->verifier", "classical-string",
                       tuple(raw_all))
        transcript.add("verifier->prover", "classical-string", tuple(betas))
        correction = toffoli_correction_tags(*betas, q)
        mapped = [(tag, tuple(gadget.magic_blocks[b] for b in bs))
                  for tag, bs in correction]
        run_round_ops(mapped)

    final_round = L + 1
    vs.round_index = final_round
    inject(final_round)
    outputs: list[int] = []
    for w in output_wires:
        b = schedule.final_map[w]
        val, state = qc.measure_wires(state, (live.index(b),), rng)
        raw = _sample_codeword_string(int(val[0]), sign, keys[b], frames[b],
                                      p, rng)
        transcript.add("prover->verifier", "classical-string", raw)
        decoded = pc.decode_measurement(raw, sign, keys[b], p)
        if not decoded.valid:
            vs.invalid_rounds.append(final_round)
        outputs.append(decoded.value)
    verdict = "abort" if vs.invalid_rounds else "accept"
    transcript.add("verifier->prover", "verdict", verdict)
    return VerdictRecord(verdict, tuple(outputs), transcript,
                         rounds=final_round + 1,
                         invalid_rounds=tuple(vs.invalid_rounds))


# ----------------------------------------------------- universal circuit


def _universal_library(n: int) -> list[tuple[str, tuple[int, ...]]]:
    lib: list[tuple[str, tuple[int, ...]]] = []
    for w in range(n):
        lib.append(("F", (w,)))
    for i in range(n):
        for j in range(n):
            if i != j:
                lib.append(("SUM", (i, j)))
    return lib


def _controlled_fourier(q: int) -> qc.UnitaryMatrix:
    """Two-wire gate applying the Fourier to the target iff control is 1."""
    f = pa.gate_matrix(pa.GateTag("F"), q).entries
    mat = np.eye(q * q, dtype=np.complex128)
    mat[q:2 * q, q:2 * q] = f
    return qc.UnitaryMatrix(qc.RegisterShape((q, q)), mat,
                            check_unitary=False)


def build_universal_circuit(desc: Sequence[tuple[str, tuple[int, ...]]],
                            n: int, max_gates: int,
                            wire_dim: int = 5) -> CircuitIR:
    """Fixed circuit that applies any short {Fourier, SUM} program.

    The gate list depends only on (n, max_gates, wire_dim): one slot per
    program step, each slot containing every library gate controlled by
    its own one-hot wire.  The description is validated here but enters
    only through the control-wire inputs, produced by
    universal_description_digits.
    """
    universal_description_digits(desc, n, max_gates)  # validate
    lib = _universal_library(n)
    cf = _controlled_fourier(wire_dim)
    gates: list[CircuitGate] = []
    ctrl = n
    for _ in range(max_gates):
        for name, wires in lib:
            if name == "F":
                gates.append(CircuitGate(cf, (ctrl, wires[0])))
            else:
                gates.append(CircuitGate(pa.GateTag("T"),
                                         (ctrl, wires[0], wires[1])))
            ctrl += 1
    return CircuitIR(n=n + max_gates * len(lib), wire_dim=wire_dim,
                     gates=tuple(gates), gamma=0.0)


def universal_description_digits(desc: Sequence[tuple[str, tuple[int, ...]]],
                                 n: int, max_gates: int) -> tuple[int, ...]:
    """One-hot control digits encoding a program for the universal circuit."""
    lib = _universal_library(n)
    if len(desc) > max_gates:
        raise ValueError("description longer than the circuit's gate slots")
    digits: list[int] = []
    for step in desc:
        name, wires = step[0], tuple(step[1])
        if (name, wires) not in lib:
            raise ValueError(f"description step {step!r} is not in the "
                             "gate library")
        idx = lib.index((name, wires))
        digits.extend(1 if j == idx else 0 for j in range(len(lib)))
    for _ in range(max_gates - len(desc)):
        digits.extend(0 for _ in range(len(lib)))
    return tuple(digits)


def apply_universal(circuit: CircuitIR, data_state: qc.StateVector,
                    desc: Sequence[tuple[str, tuple[int, ...]]],
                    n: int, max_gates: int) -> qc.StateVector:
    """Evaluate the universal circuit with the controls resolved classically.

    Basis-state descriptions keep the control register diagonal for the
    whole run, so each controlled gate either fires or idles; this is the
    exact action of the full circuit on data ⊗ |description digits>.
    """
    q = circuit.wire_dim
    digits = universal_description_digits(desc, n, max_gates)
    lib = _universal_library(n)
    state = data_state
    for slot in range(max_gates):
        for ell, (name, wires) in enumerate(lib):
            if digits[slot * len(lib) + ell] == 0:
                continue
            tag = pa.GateTag("F") if name == "F" else pa.GateTag("SUM")
            state = qc.apply_on_wires(state, pa.gate_matrix(tag, q), wires)
    return state


# ------------------------------------------------------ symmetric wrapper


def run_qpip_sym(lang_runner: Callable[[object, ProverImpl,
                                        np.random.Generator], VerdictRecord],
                 complement_runner: Callable[[object, ProverImpl,
                                              np.random.Generator],
                                             VerdictRecord],
                 x: object, prover: ProverImpl,
                 rng: np.random.Generator) -> int | str:
    """Let the prover claim yes or no, then verify the claimed side.

    Returns 1 for a verified yes, 0 for a verified no, and ABORT whenever
    the run rejects or the claimed side's protocol does not confirm.
    """
    if prover.announce is None:
        raise ValueError("the symmetric wrapper needs an announcing prover")
    claim = bool(prover.announce(x))
    record = (lang_runner if claim else complement_runner)(x, prover, rng)
    confirmed = (record.verdict == "accept" and record.output is not None
                 and record.output[0] == 1)
    if not confirmed:
        return ABORT
    return 1 if claim else 0
