"""Interactive verification of delegated quantum circuits.

A nearly classical verifier delegates a circuit to an untrusted prover,
hiding every wire inside an authenticated block.  This module supplies the
pieces that turn the authentication layers into full protocols: a circuit
representation, compilation of Toffoli gates into measurement rounds, the
magic state and correction rules of the Toffoli-by-teleportation gadget,
Pauli-key bookkeeping, transcripts, the provers, the qubit
(Clifford-authenticated) and qudit (polynomial-code) protocol engines, and
a fixed universal circuit.

Two simulation engines back the qudit protocol.  The dense engine holds the
whole physical register and is limited to Toffoli-free circuits at desk
scale.  The logical-frame engine holds the logical state of the live blocks
only, the n wires' current blocks plus the magic triple of the running
gadget (q^(n+3) amplitudes whatever the gadget count), and one symbolic
Pauli frame per block; Clifford rounds act on the logical state while keys
and frames evolve by exact conjugation rules, which covers honest and
Pauli-attacking provers at any gadget count.

Verifier keys and attack frames share one type, `pcalg.SymbolicPauli`,
and one rule table, `pauli_key_update`, which moves either through a
transversal gate at a cost independent of the block count.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import chain, product
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import cliffauth as ca
from . import pcalg as pa
from . import polycode as pc
from . import qcore as qc

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
    representation (the universal circuit uses controlled Fouriers), but
    no engine runs them: only the tests' reference evaluator of the
    universal circuit does.
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

    @cached_property
    def _qubit_rounds(self) -> dict:
        """Per block size: each gate's wires, data wires and matrix, as
        `run_clifford_qpip` resolves them once."""
        return {}


@lru_cache(maxsize=None)
def _plain_logical_matrix(tag: pa.GateTag | pc.LogicalGateTag,
                          q: int) -> qc.UnitaryMatrix:
    """Library or logical gate acting on bare qudits (the plain reference).

    Memoised per (tag, q); the matrix is read-only, shared by every caller.
    """
    if isinstance(tag, pa.GateTag):
        u = pa.gate_matrix(tag, q)
    elif tag.name in ("LX", "LZ"):
        x, z = (tag.param % q, 0) if tag.name == "LX" else (0, tag.param % q)
        u = qc.UnitaryMatrix(qc.RegisterShape((q,)),
                             pa.pauli_matrix_1(q, x, z), check_unitary=False)
    elif tag.name == "LSUM":
        u = pc._sum_power(tag.param % q, q)
    elif tag.name == "LCPG":
        u = pc._cpg_power(tag.param % q, q)
    elif tag.name == "LF":
        f = pa.gate_matrix(pa.GateTag("F"), q)
        mat = f.entries if tag.param == 1 else f.entries.conj().T
        u = qc.UnitaryMatrix(f.shape, mat, check_unitary=False)
    elif tag.name == "LM":
        u = pa.gate_matrix(pa.GateTag("M_r", tag.param % q), q)
    else:
        raise ValueError(f"unknown logical gate {tag.name!r}")
    u.entries.setflags(write=False)
    return u


@lru_cache(maxsize=None)
def _gather_map(tag: pc.LogicalGateTag, q: int) -> tuple[int, ...] | None:
    """The column of each row's 1 when the gate's plain matrix is a 0/1
    permutation (LSUM, LX, LM), else None (LF, LZ, LCPG carry phases)."""
    mat = _plain_logical_matrix(tag, q).entries
    rows, cols = np.nonzero(mat)  # a unitary with N nonzeros all 1 permutes
    if len(rows) == len(mat) and (mat[rows, cols] == 1).all():
        return tuple(cols.tolist())
    return None


def apply_circuit_plain(circuit: CircuitIR,
                        state: qc.StateVector) -> qc.StateVector:
    """Run the circuit on bare wires with no authentication layer."""
    q = circuit.wire_dim
    for g in circuit.gates:
        op = g.op if isinstance(g.op, qc.UnitaryMatrix) else \
            _plain_logical_matrix(g.op, q)
        state = qc.apply_on_wires(state, op, g.wires)
    return state


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
            raise ValueError("explicit unitaries do not compile to "
                             "logical rounds")
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


# ------------------------------------------------------- Toffoli gadget


@lru_cache(maxsize=None)
def magic_state(q: int) -> qc.StateVector:
    """The three-wire resource (1/q) sum_{a,b} |a, b, ab>.

    Memoised per q; the amplitudes are read-only, shared by every caller.
    """
    shape = qc.RegisterShape((q, q, q))
    amps = np.zeros(q ** 3, dtype=np.complex128)
    for a in range(q):
        for b in range(q):
            amps[shape.digits_to_index((a, b, a * b % q))] = 1.0
    state = qc.StateVector(shape, amps / q)
    state.amplitudes.setflags(write=False)
    return state


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


# ---------------------------------------------------- Pauli key updates


@lru_cache(maxsize=None)
def _interp_weights(p: pc.CodeParams) -> tuple[np.ndarray, np.ndarray]:
    """The interpolation weights c and their inverses mod q, read-only."""
    c_cinv = np.array([(c, qc.inv_mod(c, p.q)) for c in p.interp_c],
                      dtype=np.int64).T
    c_cinv.setflags(write=False)
    return c_cinv[0], c_cinv[1]


def pauli_key_update(paulis: list[pa.SymbolicPauli],
                     gate: pc.LogicalGateTag, blocks: Sequence[int],
                     p: pc.CodeParams, sign: pc.SignKey | None = None) -> None:
    """Conjugate the Paulis of the touched blocks through one logical gate.

    The one rule table for verifier keys and attack frames.  With `sign`
    the entries are verifier keys, and LX/LZ shift them, because the
    verifier implements logical Paulis purely as key shifts; with
    sign=None they are attack frames, which LX/LZ leave alone, because
    key-shift gates have no physical circuit to pass through.  Only the
    touched entries of `paulis` are replaced, in place.  Every rule
    reduces its int64 exponents mod q itself, so the new Paulis skip the
    checks of the public constructor.
    """
    q, name = p.q, gate.name
    c, cinv = _interp_weights(p)
    new_pauli = pa.SymbolicPauli._trusted
    old = [paulis[b] for b in blocks]
    if name in ("LX", "LZ"):
        if sign is None:
            return
        (a,) = old
        shift = gate.param * np.array(sign.k, dtype=np.int64)
        new = [new_pauli(q, (a.x - shift) % q, a.z) if name == "LX"
               else new_pauli(q, a.x, (a.z - shift * c) % q)]
    elif name == "LSUM":
        a, b = old
        t = gate.param % q
        new = [new_pauli(q, a.x, (a.z - t * b.z) % q),
               new_pauli(q, (b.x + t * a.x) % q, b.z)]
    elif name == "LCPG":
        a, b = old
        t = gate.param % q
        new = [new_pauli(q, a.x, (a.z + t * c * b.x) % q),
               new_pauli(q, b.x, (b.z + t * c * a.x) % q)]
    elif name == "LF":
        (a,) = old
        s = gate.param  # F_{c_i} per wire, or its inverse
        new = [new_pauli(q, (-s * cinv * a.z) % q, (s * c * a.x) % q)]
    elif name == "LM":
        (a,) = old
        r = gate.param % q
        new = [new_pauli(q, (r * a.x) % q, (qc.inv_mod(r, q) * a.z) % q)]
    else:
        raise ValueError(f"no key rule for gate {name!r}")
    for b, pauli in zip(blocks, new):
        paulis[b] = pauli


# ------------------------------------------------------------ transcript


class TranscriptEntry(NamedTuple):
    """One message: sequence number, direction ("verifier->prover" or
    "prover->verifier"), kind ("quantum-block", "classical-string" or
    "verdict") and classical payload."""

    round: int
    direction: str
    kind: str
    payload: tuple[int, ...] | str

    def to_line(self) -> str:
        body = (self.payload if isinstance(self.payload, str)
                else ",".join(map(str, self.payload)))
        return f"{self.round}\t{self.direction}\t{self.kind}\t{body}"


class Transcript(list):
    """Message log; an entry's sequence number is its position.

    Export format is one tab-separated line per entry: sequence number,
    direction, kind, then the payload digits joined by commas (or the
    verdict word).  Quantum messages log only block descriptors; key
    material never appears.
    """

    def add(self, direction: str, kind: str,
            payload: tuple[int, ...] | str) -> None:
        # skips the named tuple's Python-level __new__
        self.append(tuple.__new__(TranscriptEntry,
                                  (len(self), direction, kind, payload)))

    def to_lines(self) -> list[str]:
        return [e.to_line() for e in self]


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
    """What a dense-engine policy sees beside the register's amplitudes.

    An engine hands a policy the register at most once a round.  `rng`
    is the trial's generator: a randomised prover (random-unitary) draws
    from it, so its draws follow the trial seed and no prover holds state.
    """

    round_index: int
    dims: tuple[int, ...]
    block_wires: tuple[tuple[int, ...], ...]
    env_wires: tuple[int, ...]
    rng: np.random.Generator


@dataclass(frozen=True)
class ProverImpl:
    """A prover: an optional Pauli plan, an optional dense policy.

    Every engine and the confidence audit read `pauli_plan`, which maps a
    round to (block, Pauli) pairs; the dense engines run `policy`, which
    maps (amplitudes, PolicyContext) to amplitudes after the plan's round,
    at the rounds in `policy_rounds` (None: every round), and read
    `env_dims`; only the Clifford engine reads `misreport_round`.
    An engine that cannot honour a field refuses the prover at entry.
    Policies never see verifier keys, and a prover holds no state between
    calls, so one value serves every trial of an experiment.
    """

    name: str
    policy: Callable[[np.ndarray, PolicyContext], np.ndarray] | None = None
    pauli_plan: Mapping[int, tuple[tuple[int, pa.SymbolicPauli], ...]] | \
        None = None
    env_dims: tuple[int, ...] = ()
    misreport_round: int | None = None
    policy_rounds: frozenset[int] | None = None


def honest_prover() -> ProverImpl:
    return ProverImpl(name="honest")


def fixed_pauli_prover(plan: Mapping[int, Sequence[tuple[int,
                                                         pa.SymbolicPauli]]],
                       name: str = "fixed-pauli") -> ProverImpl:
    """Apply fixed Paulis to chosen blocks at chosen protocol rounds."""
    frozen = {int(r): tuple((int(b), op) for b, op in steps)
              for r, steps in plan.items()}
    return ProverImpl(name=name, pauli_plan=frozen)


def scripted_prover(steps: Sequence[tuple[int, qc.UnitaryMatrix,
                                          tuple[int, ...]]],
                    misreport_round: int | None = None,
                    name: str = "scripted") -> ProverImpl:
    """Apply listed unitaries at a round on absolute register wires."""
    table: dict[int, list[tuple[np.ndarray, tuple[int, ...]]]] = {}
    for rnd, u, wires in steps:
        wires = tuple(map(int, wires))
        if not len(set(wires)) == len(wires) == u.shape.num_wires:
            raise ValueError("unitary dimension does not match listed wires")
        table.setdefault(int(rnd), []).append((u.entries, wires))

    def policy(amps: np.ndarray, ctx: PolicyContext) -> np.ndarray:
        for u, wires in table.get(ctx.round_index, ()):
            amps = qc._apply_raw(amps, ctx.dims, u, wires)
        return amps

    return ProverImpl(name=name, policy=policy,
                      misreport_round=misreport_round,
                      policy_rounds=frozenset(table))


def random_unitary_prover(env_dims: tuple[int, ...],
                          name: str = "random-unitary") -> ProverImpl:
    """Haar-random unitary over all held block wires plus the environment,
    drawn afresh at every exchange from the trial's generator."""

    def policy(amps: np.ndarray, ctx: PolicyContext) -> np.ndarray:
        wires = tuple(w for ws in ctx.block_wires for w in ws) + \
            ctx.env_wires
        mat = qc.haar_unitary(math.prod(ctx.dims[w] for w in wires),
                              ctx.rng)
        return qc._apply_raw(amps, ctx.dims, mat, wires)

    return ProverImpl(name=name, policy=policy, env_dims=tuple(env_dims))


def _rotation_axes(num_qubits: int) -> list[np.ndarray]:
    """The 4^n - 1 hermitian Pauli axes; qubit k reads digit k, base 4."""
    axes = []
    for digits in product(range(4), repeat=num_qubits):
        mat = np.eye(1, dtype=np.complex128)
        for x, z in ((d // 2, d % 2) for d in reversed(digits)):
            mat = np.kron(mat, pa.pauli_matrix_1(2, x, z) * (-1j) ** (x * z))
        axes.append(mat)
    return axes[1:]


def zeno_prover(e: int = 2, n_per: int = 40, phi: float = 0.45,
                name: str = "zeno-demo") -> ProverImpl:
    """Accumulated-rotation attack on the 1 + e qubits of block 0.

    Each exchange rotates by phi / n_per about the next hermitian Pauli
    axis, round-robin, so every axis gathers a total angle of phi over
    n_per rounds.
    """
    b = 1 + e
    theta = phi / n_per
    eye = np.eye(2 ** b, dtype=np.complex128)
    rots = [math.cos(theta) * eye + 1j * math.sin(theta) * axis
            for axis in _rotation_axes(b)]

    def policy(amps: np.ndarray, ctx: PolicyContext) -> np.ndarray:
        rot = rots[(ctx.round_index - 1) % len(rots)]
        return qc._apply_raw(amps, ctx.dims, rot, ctx.block_wires[0])

    return ProverImpl(name=name, policy=policy)


def _check_pauli_plan(prover: ProverImpl, rounds: range, blocks: int,
                      q: int, m: int) -> None:
    """Refuse a plan, policy or misreport round the engine never runs, or
    a plan that would hit another block (negative ids index from the end)
    or fail."""
    plan = prover.pauli_plan or {}
    misreport = () if prover.misreport_round is None else \
        (prover.misreport_round,)
    for r in chain(plan, prover.policy_rounds or (), misreport):
        if r not in rounds:
            raise ValueError(f"prover round {r} is never run: this run "
                             f"has rounds {rounds.start}..{rounds.stop - 1}")
    for steps in plan.values():
        for b, op in steps:
            if not 0 <= b < blocks:
                raise ValueError(f"Pauli plan block {b} is not one of the "
                                 f"run's {blocks} blocks")
            if (op.q, op.num_wires) != (q, m):
                raise ValueError(f"Pauli plan operator's (q, m) is not {q, m}")


def _check_dense_prover(prover: ProverImpl, rounds: range, blocks: int,
                        q: int, m: int) -> None:
    """A dense engine's entry checks on the prover and the register size."""
    _check_pauli_plan(prover, rounds, blocks, q, m)
    if q ** (blocks * m) * math.prod(prover.env_dims) > _DENSE_AMPLITUDE_CAP:
        raise ValueError("register too large for the dense engine")


def _run_policy(prover: ProverImpl, amps: np.ndarray, dims: tuple[int, ...],
                round_index: int, block_wires: tuple[tuple[int, ...], ...],
                env_wires: tuple[int, ...],
                rng: np.random.Generator) -> np.ndarray:
    """The dense engines' one prover turn at `round_index`.

    The Pauli plan's round comes first, one single-wire product per
    non-identity wire of each listed block; then the policy, if any.  The
    policy is untrusted code, so what it returns must be an array of the
    register's shape and dtype before the engine takes it.
    """
    if prover.pauli_plan:
        for b, op in prover.pauli_plan.get(round_index, ()):
            for w, x, z in zip(block_wires[b], op.x.tolist(), op.z.tolist()):
                if x or z:
                    amps = qc._apply_raw(amps, dims,
                                         pa.pauli_matrix_1(op.q, x, z), (w,))
    if prover.policy is None:
        return amps
    out = prover.policy(amps, PolicyContext(round_index, dims, block_wires,
                                            env_wires, rng))
    if not (isinstance(out, np.ndarray) and out.shape == amps.shape
            and out.dtype == amps.dtype):
        raise ValueError(f"prover {prover.name!r} returned a state that "
                         f"does not match the register {dims}")
    return out


def _dense_register(n: int, m: int, q: int, env_dims: tuple[int, ...]
                    ) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...],
                               tuple[int, ...]]:
    """A dense engine's register: n blocks of m wires, then the prover's
    environment; returns dims and the blocks' and environment's wires."""
    dims = (q,) * (n * m) + env_dims
    block_wires = tuple(tuple(range(b * m, (b + 1) * m)) for b in range(n))
    return dims, block_wires, tuple(range(n * m, len(dims)))


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

    The register is held plain, each block from |bit 0^e>, since K and
    K^dag cancel where the prover does nothing.  In a round where it acts
    (its Pauli plan's or policy's rounds) every plain block is first sealed
    under its current key, and each touched sealed block gets K^dag after
    the prover's turn.  So a drawn key's matrix is built only if used.

    Each run of keys is one `pcalg.sample_cliffords` call at its first
    key; a run ends before a round where the policy runs and before the
    misreport round (broken_variant draws only the initial run).
    Validation happens once, at entry; the rounds run on the flat
    amplitudes through the raw qcore kernels.
    """
    if circuit.mode != "clifford":
        raise ValueError("this engine runs qubit circuits")
    if len(input_bits) != circuit.n:
        raise ValueError("input length mismatch")
    if not 0 <= output_wire < circuit.n:
        raise ValueError(f"output wire {output_wire} out of range")
    n, m_b = circuit.n, ca.CliffordQasParams(l=1, e=e).m
    _check_dense_prover(prover, range(1, len(circuit.gates) + 2), n, 2, m_b)
    dims, block_wires, env_wires = _dense_register(n, m_b, 2, prover.env_dims)
    digits = [0] * len(dims)
    digits[:n * m_b:m_b] = map(int, input_bits)
    amps = qc.basis_state(qc.RegisterShape(dims), digits).amplitudes
    aux_wires = tuple(ws[1:] for ws in block_wires)
    sealed = [False] * n
    acting = None if prover.policy and prover.policy_rounds is None else \
        set(prover.pauli_plan or ()) | set(prover.policy_rounds or ())
    runs, start = {0: n}, 0  # first round of a run: its keys
    for i, g in enumerate(circuit.gates, 1):
        if i == prover.misreport_round or broken_variant:
            break
        if prover.policy and (acting is None or i in acting):
            runs[start := i] = 0
        runs[start] += len(g.wires)
    fresh = iter(pa.sample_cliffords(m_b, runs[0], rng))
    keys = [next(fresh) for _ in range(n)]

    transcript = Transcript()
    add = transcript.add
    add("verifier->prover", "quantum-block", tuple(range(n)))

    memo = circuit._qubit_rounds
    if m_b not in memo:
        memo[m_b] = tuple((g.wires, tuple(b * m_b for b in g.wires),
                           _plain_logical_matrix(g.op, 2).entries
                           if isinstance(g.op, pa.GateTag) else g.op.entries)
                          for g in circuit.gates)
    # the final round is the loop's last pass: it touches the output
    # block, applies no gate and always checks the auxiliaries
    rounds = chain(memo[m_b], [((output_wire,), (), None)])
    for i, (touched, data, op) in enumerate(rounds, start=1):
        if prover.misreport_round == i:
            add("prover->verifier", "verdict", "abort")
            return VerdictRecord("abort", None, transcript, i)
        if acting is None or i in acting:
            for b in range(n):
                if not sealed[b]:
                    amps = qc._apply_raw(amps, dims, keys[b].matrix.entries,
                                         block_wires[b])
                    sealed[b] = True
            amps = _run_policy(prover, amps, dims, i, block_wires, env_wires,
                               rng)
        add("prover->verifier", "quantum-block", touched)
        for b in touched:
            if sealed[b]:
                amps = qc._apply_raw(amps, dims, keys[b].dagger_matrix(),
                                     block_wires[b])
                sealed[b] = False
        if broken_variant or op is None:
            for b in touched:
                outcome, amps = qc._measure_raw(amps, dims, aux_wires[b], rng)
                if any(outcome):
                    add("verifier->prover", "verdict", "reject")
                    return VerdictRecord("reject", None, transcript, i)
        if op is None:
            break
        amps = qc._apply_raw(amps, dims, op, data)
        if not broken_variant:
            if i in runs:
                fresh = iter(pa.sample_cliffords(m_b, runs[i], rng))
            for b in touched:
                keys[b] = next(fresh)
        add("verifier->prover", "quantum-block", touched)

    bit, _ = qc._measure_raw(amps, dims, (block_wires[output_wire][0],), rng)
    add("verifier->prover", "verdict", "accept")
    return VerdictRecord("accept", (int(bit[0]),), transcript, i)


# ------------------------------------------------- qudit protocol engine


def _sample_codeword_string(value: int, k: pc.SignKey,
                            pkey: pa.SymbolicPauli,
                            frame: pa.SymbolicPauli, p: pc.CodeParams,
                            rng: np.random.Generator) -> tuple[int, ...]:
    """Digits a standard-basis readout of an authenticated block produces."""
    lmap, _ = pc._dk_maps(k.k, p)
    vec = np.zeros(p.m, dtype=np.int64)
    vec[0] = value % p.q
    vec[1:p.d + 1] = rng.integers(0, p.q, size=p.d)
    w = lmap @ vec % p.q
    raw = (w + pkey.x + frame.x) % p.q
    return tuple(raw.tolist())


def _decode_strings(strings: list[tuple[int, ...]], blocks: Sequence[int],
                    keys: list[pa.SymbolicPauli], sign: pc.SignKey,
                    p: pc.CodeParams, round_no: int,
                    invalid_rounds: list[int]) -> list[int]:
    """Decode each block's string; an invalid one marks its round."""
    decoded = [pc.decode_measurement(raw, sign, keys[b], p)
               for raw, b in zip(strings, blocks)]
    invalid_rounds.extend(round_no for d in decoded if not d.valid)
    return [d.value for d in decoded]


def _poly_close_out(transcript: Transcript, strings: list[tuple[int, ...]],
                    blocks: Sequence[int], keys: list[pa.SymbolicPauli],
                    sign: pc.SignKey, p: pc.CodeParams, final_round: int,
                    invalid_rounds: list[int]) -> VerdictRecord:
    """Both poly engines' final round: one string per output block, then
    the verdict; an invalid decode in any round aborts the run."""
    for raw in strings:
        transcript.add("prover->verifier", "classical-string", raw)
    outputs = _decode_strings(strings, blocks, keys, sign, p, final_round,
                              invalid_rounds)
    verdict = "abort" if invalid_rounds else "accept"
    transcript.add("verifier->prover", "verdict", verdict)
    return VerdictRecord(verdict, tuple(outputs), transcript,
                         final_round + 1, tuple(invalid_rounds))


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
    if prover.misreport_round is not None:
        raise ValueError("the qudit protocol has no misreport step")
    if len(input_digits) != circuit.n:
        raise ValueError("input length mismatch")
    if any(not 0 <= w < circuit.n for w in output_wires):
        raise ValueError("output wire out of range")
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
    # Validated once, here and in run_poly_qpip; the gates, the prover's
    # turns at rounds 0 and 1 and the measurements run on flat amplitudes.
    if schedule.toffoli_count > 0:
        raise ValueError("the dense engine runs Toffoli-free circuits; use "
                         "the logical-frame engine for gadget rounds")
    q, m, n = p.q, p.m, circuit.n
    _check_dense_prover(prover, range(2), n, q, m)

    from . import polyauth as pya

    sign = pc.random_sign_key(m, rng)
    keys = [pc.random_pauli_key(p, rng) for _ in range(n)]
    shape1 = qc.RegisterShape((q,))
    dims, block_wires, env_wires = _dense_register(n, m, q, prover.env_dims)
    # the environment's wires in |0>
    amps = np.zeros(math.prod(dims), dtype=np.complex128)
    amps[::math.prod(prover.env_dims)] = reduce(np.kron, [pya.pqas_encode(
        qc.basis_state(shape1, (int(digit),)), pya.PolyQasKey(sign, keys[b]),
        p).amplitudes for b, digit in enumerate(input_digits)])

    transcript = Transcript()
    transcript.add("verifier->prover", "quantum-block", tuple(range(n)))
    amps = _run_policy(prover, amps, dims, 0, block_wires, env_wires, rng)

    for gate in circuit.gates:
        tag = gate.op
        if tag.name not in ("LX", "LZ"):  # logical Paulis are key shifts
            wires_of = [block_wires[b] for b in gate.wires]
            for u, wires in pc._logical_ops(tag, wires_of, sign, p):
                amps = qc._apply_raw(amps, dims, u.entries, wires)
        pauli_key_update(keys, tag, gate.wires, p, sign)

    final_round = 1
    amps = _run_policy(prover, amps, dims, final_round, block_wires,
                       env_wires, rng)
    strings = []
    for w in output_wires:
        raw, amps = qc._measure_raw(amps, dims, block_wires[w], rng)
        strings.append(raw)
    return _poly_close_out(transcript, strings, output_wires, keys, sign, p,
                           final_round, [])


def _poly_frames(circuit: CircuitIR, schedule: LogicalSchedule,
                 input_digits: Sequence[int], p: pc.CodeParams,
                 prover: ProverImpl, rng: np.random.Generator,
                 output_wires: tuple[int, ...]) -> VerdictRecord:
    # Validated once, here and in run_poly_qpip; the register below is a
    # flat amplitude array over q^len(live), moved by the raw qcore kernels.
    if prover.policy is not None:
        raise ValueError("the logical-frame engine accepts honest provers "
                         "or Pauli plans only")
    q, m = p.q, p.m
    blocks = schedule.block_count
    L = schedule.toffoli_count
    _check_pauli_plan(prover, range(L + 2), blocks, q, m)
    # The register holds only live blocks: the n wires' current blocks, plus
    # one magic triple while its gadget runs, so q^(n+3) at any gadget count.
    if q ** (circuit.n + 3 * (L > 0)) > _DENSE_AMPLITUDE_CAP:
        raise ValueError("logical register too large")

    sign = pc.random_sign_key(m, rng)
    keys = [pc.random_pauli_key(p, rng) for _ in range(blocks)]
    frames = [pa.SymbolicPauli.identity(q, m) for _ in range(blocks)]

    amps = qc.basis_state(qc.RegisterShape((q,) * circuit.n),
                          tuple(map(int, input_digits))).amplitudes
    live = list(range(circuit.n))  # block id held at each register wire

    invalid_rounds: list[int] = []
    transcript = Transcript()
    transcript.add("verifier->prover", "quantum-block", tuple(range(blocks)))

    def inject(round_index: int) -> None:
        for b, op in (prover.pauli_plan or {}).get(round_index, ()):
            frames[b] = frames[b].compose(op)

    def run_round_ops(ops) -> None:
        nonlocal amps
        dims = (q,) * len(live)
        for tag, bs in ops:
            # SUM, X and multiply gates only move amplitudes: one exact gather.
            # F, Z and CPG carry phases, so they keep BLAS's rounding
            wires = tuple(live.index(b) for b in bs)
            perm = _gather_map(tag, q)
            if perm is None:
                amps = qc._apply_raw(
                    amps, dims, _plain_logical_matrix(tag, q).entries, wires)
            else:
                amps = qc._gather_raw(amps, dims, perm, wires)
            pauli_key_update(keys, tag, bs, p, sign)
            pauli_key_update(frames, tag, bs, p)

    inject(0)
    for i in range(L + 1):
        if i < L:
            amps = np.kron(amps, magic_state(q).amplitudes)
            live.extend(schedule.gadgets[i].magic_blocks)
        run_round_ops(schedule.rounds[i])
        if i == L:
            break
        gadget = schedule.gadgets[i]
        round_no = i + 1
        inject(round_no)
        dims = (q,) * len(live)
        wires = tuple(live.index(b) for b in gadget.target_blocks)
        values, amps = qc._measure_raw(amps, dims, wires, rng)
        # the measured blocks are basis states now: slice their axes out
        amps = np.moveaxis(amps.reshape(dims), wires,
                           (0, 1, 2))[values].reshape(-1)
        for b in gadget.target_blocks:
            live.remove(b)
        strings = [_sample_codeword_string(int(val), sign, keys[b],
                                           frames[b], p, rng)
                   for b, val in zip(gadget.target_blocks, values)]
        betas = _decode_strings(strings, gadget.target_blocks, keys, sign,
                                p, round_no, invalid_rounds)
        transcript.add("prover->verifier", "classical-string",
                       tuple(v for raw in strings for v in raw))
        transcript.add("verifier->prover", "classical-string", tuple(betas))
        correction = toffoli_correction_tags(*betas, q)
        mapped = [(tag, tuple(gadget.magic_blocks[b] for b in bs))
                  for tag, bs in correction]
        run_round_ops(mapped)

    final_round = L + 1
    inject(final_round)
    out_blocks = [schedule.final_map[w] for w in output_wires]
    strings = []
    for b in out_blocks:
        val, amps = qc._measure_raw(amps, (q,) * len(live), (live.index(b),),
                                    rng)
        strings.append(_sample_codeword_string(int(val[0]), sign, keys[b],
                                               frames[b], p, rng))
    return _poly_close_out(transcript, strings, out_blocks, keys, sign, p,
                           final_round, invalid_rounds)


# ----------------------------------------------------- universal circuit


def _universal_library(n: int) -> list[tuple[str, tuple[int, ...]]]:
    return [("F", (w,)) for w in range(n)] + \
        [("SUM", (i, j)) for i in range(n) for j in range(n) if i != j]


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
        digits.extend(int(j == idx) for j in range(len(lib)))
    return tuple(digits) + (0,) * (len(lib) * (max_gates - len(desc)))
