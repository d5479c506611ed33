"""Example circuits, statistical protocol audits, and the lemma suite.

This module turns the security statements into executable experiments:
completeness and soundness estimation over the interactive engines,
blindness audits of the prover's view, post-acceptance confidence audits,
and a regression suite that replays every algebraic identity the security
argument rests on at desk scale.  The experiments take their provers as
`qpip.ProverImpl` values built by qpip's factories.

Every audit of the lab, here and in cliffauth and polyauth, returns one
`AuditRecord` built by `gate`: the claim, the scheme's epsilon, the
measured value with its interval, and the verdict.  Statistical results
are evidence, not proof, and their intervals say so.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import cliffauth as ca
from . import pcalg as pa
from . import polyauth as pq
from . import polycode as pc
from . import qcore as qc
from . import qpip

_VIEW_DIM_CAP = 4096
_BETA_FLOOR = 0.05  # confidence audits: below it epsilon / beta is vacuous


# ------------------------------------------------------ the audit record


@dataclass(frozen=True)
class AuditRecord:
    """The outcome of one audit: a claim, its epsilon, a measured value.

    `interval` has zero width when the value is exact; a sampled value
    carries its Wilson or +-3/sqrt(trials) interval.  `detail` holds the
    audit's own JSON values; `to_dict` lifts them to the top level beside
    the six common fields.
    """

    claim: str
    epsilon: float
    estimate: float
    interval: tuple[float, float]
    verdict: str
    reason: str
    detail: dict

    def to_dict(self) -> dict:
        return {"claim": self.claim, "epsilon": self.epsilon,
                "estimate": self.estimate, "interval": list(self.interval),
                "verdict": self.verdict, "reason": self.reason,
                **self.detail}


def gate(claim: str, epsilon: float, estimate: float,
         interval: tuple[float, float], detail: dict, *,
         limit: float | None = None, strict: bool = False) -> AuditRecord:
    """The lab's one verdict rule: does the interval reach below the limit?

    The claim passes when the low end of its interval is at most `limit`:
    epsilon itself unless the audit scales it (gamma + epsilon,
    (1 - alpha) epsilon, epsilon / beta) or adds a numerical tolerance.
    `strict` asks for the low end to stay below the limit, for claims of
    exact equality checked to a tolerance.  A NaN value fails.
    """
    limit = epsilon if limit is None else limit
    low = interval[0]
    holds = low < limit if strict else low <= limit
    sign = ("<" if strict else "<=") if holds else (">=" if strict else ">")
    what = "value" if interval[1] == low else "interval low end"
    # rounded as payloads round their floats, so a last-bit move in a
    # residual near 1e-16 leaves the canonical payload unchanged
    return AuditRecord(claim, epsilon, estimate, interval,
                       "pass" if holds else "fail",
                       f"{what} {round(low, 12):.6g} {sign} limit {limit:.6g}",
                       detail)


# --------------------------------------------------------- prover names


class AdversaryPolicy:
    # the benchmark (perfbench/workloads.py) builds its provers by these names
    honest = staticmethod(qpip.honest_prover)
    fixed_pauli = staticmethod(qpip.fixed_pauli_prover)
    random_unitary = staticmethod(qpip.random_unitary_prover)
    scripted = staticmethod(qpip.scripted_prover)
    zeno_demo = staticmethod(qpip.zeno_prover)


# ------------------------------------------------------- example circuits


def zeno_demo_circuit(e: int, n_per: int = 40) -> qpip.CircuitIR:
    """Identity circuit long enough for the accumulated-rotation attack.

    One gate round per rotation step: every hermitian Pauli axis on the
    1 + e block qubits gets n_per small steps, interleaved round-robin.
    """
    rounds = (4 ** (1 + e) - 1) * n_per
    ident = qc.UnitaryMatrix(qc.RegisterShape((2,)), np.eye(2),
                             check_unitary=False)
    gates = tuple(qpip.CircuitGate(ident, (0,)) for _ in range(rounds - 1))
    return qpip.CircuitIR(1, 2, gates)


def clifford_demo_circuit() -> qpip.CircuitIR:
    """Ten-gate two-qubit circuit, net identity, touching every gate tag."""
    g = qpip.CircuitGate
    h, k, cnot = pa.GateTag("H"), pa.GateTag("K"), pa.GateTag("CNOT")
    gates = (g(cnot, (0, 1)), g(h, (1,)), g(h, (1,)), g(cnot, (0, 1)),
             g(k, (0,)), g(k, (0,)), g(k, (0,)), g(k, (0,)),
             g(cnot, (0, 1)), g(cnot, (0, 1)))
    return qpip.CircuitIR(2, 2, gates)


def poly_demo_circuit(q: int = 5) -> qpip.CircuitIR:
    """One-wire qudit circuit: shift by two, then negate via double Fourier."""
    lg = pc.LogicalGateTag
    g = qpip.CircuitGate
    return qpip.CircuitIR(1, q, (g(lg("LX", 2), (0,)), g(lg("LF", 1), (0,)),
                                 g(lg("LF", 1), (0,))))


def toffoli_demo_circuit(q: int = 5) -> qpip.CircuitIR:
    """Three-wire qudit circuit consisting of a single Toffoli."""
    return qpip.CircuitIR(3, q, (qpip.CircuitGate(pa.GateTag("T"),
                                                  (0, 1, 2)),))


# --------------------------------------------------- protocol experiments


@dataclass(frozen=True)
class ProtocolConfig:
    """One fully specified delegation instance: circuit, input, engine."""

    mode: str
    circuit: qpip.CircuitIR
    inputs: tuple[int, ...]
    e: int = 1
    code: pc.CodeParams = field(default_factory=pc.CodeParams)
    engine: str = "dense"
    output_wires: tuple[int, ...] = (0,)
    broken_variant: bool = False
    target: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.mode not in ("clifford", "poly"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode != self.circuit.mode:
            raise ValueError("config mode and circuit mode disagree")

    @property
    def epsilon(self) -> float:
        if self.mode == "clifford":
            return ca.CliffordQasParams(l=1, e=self.e).epsilon
        return self.code.epsilon

    @property
    def bound(self) -> float:
        return self.circuit.gamma + self.epsilon

    def reference(self) -> tuple[int, ...] | None:
        """Deterministic output digits, or None for biased circuits.

        Computed on the first call and kept on the instance: the config
        is frozen, so every later call returns the same digits.
        """
        return self._reference

    @cached_property
    def _reference(self) -> tuple[int, ...] | None:
        if self.target is not None:
            return self.target
        shape = qc.RegisterShape((self.circuit.wire_dim,) * self.circuit.n)
        state = qpip.apply_circuit_plain(self.circuit,
                                         qc.basis_state(shape, self.inputs))
        out = []
        for w in self.output_wires:
            probs = qc.measurement_probabilities(state, (w,))
            top = int(np.argmax(probs))
            if probs[top] < 1 - 1e-9:
                return None
            out.append(top)
        return tuple(out)

    def run_once(self, prover: qpip.ProverImpl,
                 rng: np.random.Generator) -> qpip.VerdictRecord:
        if self.mode == "clifford":
            return qpip.run_clifford_qpip(
                self.circuit, self.inputs, self.e, prover, rng,
                broken_variant=self.broken_variant,
                output_wire=self.output_wires[0])
        return qpip.run_poly_qpip(self.circuit, self.inputs, self.code,
                                  prover, rng, engine=self.engine,
                                  output_wires=self.output_wires)


def wilson_interval(successes: int, trials: int,
                    z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial rate."""
    if trials == 0:
        return (0.0, 1.0)
    ph = successes / trials
    denom = 1 + z * z / trials
    centre = (ph + z * z / (2 * trials)) / denom
    half = z * math.sqrt(ph * (1 - ph) / trials
                         + z * z / (4 * trials * trials)) / denom
    return (max(0.0, centre - half), min(1.0, centre + half))


def _trial_records(config: ProtocolConfig, prover: qpip.ProverImpl,
                   trials: int, master_seed: int
                   ) -> Iterator[qpip.VerdictRecord]:
    """Trial j's record, drawn from the j-th child stream of the master seed.

    Trial j runs on `SeedSequence(master_seed, spawn_key=(j,))`, numpy's
    own spawn rule, so its record depends only on (master seed, j): the
    first N records of a longer run are those of an N-trial run.
    """
    for j in range(trials):
        yield config.run_once(prover, np.random.default_rng(
            np.random.SeedSequence(master_seed, spawn_key=(j,))))


def estimate_completeness(config: ProtocolConfig, trials: int,
                          rng: np.random.Generator) -> AuditRecord:
    """Honest-prover acceptance rate against the 1 - gamma promise."""
    return estimate_soundness(config, qpip.honest_prover(), trials, rng)


def estimate_soundness(config: ProtocolConfig, prover: qpip.ProverImpl,
                       trials: int,
                       rng: np.random.Generator) -> AuditRecord:
    """Wrong-accept rate of one prover against gamma + epsilon.

    Each prover gets its own estimate and gate: a pool could hide a
    prover that breaks the gate.  The master seed is drawn from `rng` and
    kept in `seeds`; trial j draws only from the j-th child stream of
    that seed (`_trial_records`).  Wrong accepts are counted only against
    a deterministic reference output, so circuit noise never enters the
    adversary's budget; use gamma = 0 instances for sharp tests.
    """
    reference = config.reference()
    master = int(rng.integers(0, 2 ** 63 - 1))
    counts = {"trials": trials, "accept": 0, "wrong_accept": 0, "abort": 0}
    for rec in _trial_records(config, prover, trials, master):
        if rec.verdict != "accept":
            counts["abort"] += 1
        elif reference is None or rec.output == reference:
            counts["accept"] += 1
        else:
            counts["wrong_accept"] += 1
    ok, wrong = counts["accept"], counts["wrong_accept"]
    return gate("wrong-accept rate <= gamma + epsilon", config.epsilon,
                wrong / trials, wilson_interval(wrong, trials),
                {"trials": trials, "accept_rate": ok / trials,
                 "abort_rate": counts["abort"] / trials,
                 "wilson_accept": list(wilson_interval(ok, trials)),
                 "bound": config.bound, "per_policy": {prover.name: counts},
                 "seeds": [master]}, limit=config.bound)


# ------------------------------------------------------- blindness audit


def _blockwise_embed(state: qc.StateVector, e: int) -> qc.StateVector:
    """Append e fresh |0> qubit auxiliaries behind every wire."""
    n = state.shape.num_wires
    dims = state.shape.dims
    full = np.zeros(tuple(d for w in range(n)
                          for d in (dims[w],) + (2,) * e),
                    dtype=np.complex128)
    slicer = tuple(s for _ in range(n) for s in (slice(None),) + (0,) * e)
    full[slicer] = state.amplitudes.reshape(dims)
    shape = qc.RegisterShape(full.shape)
    return qc.StateVector(shape, full.reshape(-1), check_norm=False)


def _round_states(circuit: qpip.CircuitIR, inputs: Sequence[int], e: int
                  ) -> tuple[list[qc.StateVector], list[tuple[int, ...]]]:
    """The plain state before every round, each wire followed by e |0>
    auxiliaries, and the wires of each such block."""
    state = qc.basis_state(qc.RegisterShape((2,) * circuit.n), inputs)
    states = [_blockwise_embed(state, e)]
    for gate in circuit.gates:
        mat = gate.op if isinstance(gate.op, qc.UnitaryMatrix) else \
            pa.gate_matrix(gate.op, 2)
        state = qc.apply_on_wires(state, mat, gate.wires)
        states.append(_blockwise_embed(state, e))
    return states, [tuple(range(b * (1 + e), (b + 1) * (1 + e)))
                    for b in range(circuit.n)]


def _clifford_round_views(circuit: qpip.CircuitIR, inputs: Sequence[int],
                          e: int) -> list[qc.DensityMatrix]:
    """Exact per-round prover views: fresh-key average over every block."""
    if 2 ** (circuit.n * (1 + e)) > _VIEW_DIM_CAP:
        raise ValueError("prover view exceeds the exact-averaging cap")
    states, blocks = _round_states(circuit, inputs, e)
    views = []
    for st in states:
        rho = st.to_density()
        for wires in blocks:
            rho = pa.group_conjugate_average(rho, wires)
        views.append(rho)
    return views


def _pad_average(rho: np.ndarray, q: int, m: int) -> np.ndarray:
    """Exact average over all q^(2m) Pauli pads of a q^m-dim density.

    Both halves are computed numerically: the phase half through the
    explicit character kernel, the shift half by summing the q^m shifted
    conjugates.  Each shift is gathered, entry (a, b) reading entry
    (a - s, b - s), and the shifts are added in index order.
    """
    dim, dims = q ** m, (q,) * m
    grid = pc._digit_grid(q, m)
    phases = np.exp(2j * np.pi / q * (grid.T @ grid))
    kernel = (phases @ phases.conj().T) / dim
    dephased = rho * kernel
    out = np.zeros_like(dephased)
    for shift in range(dim):
        sdig = np.array(np.unravel_index(shift, dims))
        back = np.ravel_multi_index(tuple((grid - sdig[:, None]) % q), dims)
        out += dephased.take(back, axis=0).take(back, axis=1)
    return out / dim


def _poly_block_view(digit: int, p: pc.CodeParams) -> np.ndarray:
    """Exact one-block prover view: full sign-key and Pauli-pad average.

    The pad twirl is linear, so the sign-key average is twirled once.
    """
    base = qc.basis_state(qc.RegisterShape((p.q,)), (digit,))
    keys = pc.all_sign_keys(p.m)
    encs = (pc.encode_Ek(base, sign, p).amplitudes for sign in keys)
    acc = sum(np.outer(v, v.conj()) for v in encs)
    return _pad_average(acc / len(keys), p.q, p.m)


def _dm(entries: np.ndarray, shape: qc.RegisterShape) -> qc.DensityMatrix:
    return qc.DensityMatrix(shape, entries, check_psd=False)


def blindness_audit(mode: str,
                    pairs: Sequence[tuple[tuple[qpip.CircuitIR,
                                                Sequence[int]],
                                          tuple[qpip.CircuitIR,
                                                Sequence[int]]]],
                    e: int = 1,
                    code: pc.CodeParams | None = None) -> AuditRecord:
    """Compare the prover's view across instance pairs under exact key
    averaging.

    Clifford mode reports per-round view distances, one view per protocol
    round, each the fresh-key average over every block of the enumerated
    group, plus the distance of each view to the maximally mixed state.
    Polynomial mode averages the delivered block over all sign keys and
    all Pauli pads and compares the differing input blocks; the
    classical messages of the qudit protocol, the Toffoli corrections,
    are uniform and keyless by the teleportation-outcome-uniformity
    lemma.  The claim is perfect blindness (epsilon 0): the largest
    distance must stay below 1e-8.
    """
    if mode not in ("clifford", "poly"):
        raise ValueError(f"unknown mode {mode!r}")
    p = code if code is not None else pc.CodeParams()
    if mode == "poly" and p.q ** p.m > _VIEW_DIM_CAP:
        raise ValueError("prover view exceeds the exact-averaging cap")
    distances: dict[str, tuple[float, ...]] = {}

    for i, ((circ_a, in_a), (circ_b, in_b)) in enumerate(pairs):
        if mode == "clifford":
            va = _clifford_round_views(circ_a, tuple(in_a), e)
            vb = _clifford_round_views(circ_b, tuple(in_b), e)
            mixed_keys = ("-mixed-a", "-mixed-b")
        else:
            diff = [w for w, (da, db) in enumerate(zip(in_a, in_b))
                    if da != db] or [0]
            shape = qc.RegisterShape((p.q,) * p.m)
            va, vb = ([_dm(_poly_block_view(int(digits[w]), p), shape)
                       for w in diff] for digits in (in_a, in_b))
            mixed_keys = ("-mixed",)
        shape = va[0].shape
        mixed = _dm(np.eye(shape.dim) / shape.dim, shape)
        distances[f"pair{i}"] = tuple(
            qc.trace_distance(a, b) for a, b in zip(va, vb))
        for suffix, views in zip(mixed_keys, (va, vb)):
            distances[f"pair{i}{suffix}"] = tuple(
                qc.trace_distance(v, mixed) for v in views)

    max_distance = max((max(v) for v in distances.values() if v),
                       default=0.0)
    # key_average and trials keep their exact-mode values, so reports
    # written when a sampled mode existed still replay
    return gate("the prover's views of paired instances are "
                "indistinguishable", 0.0, max_distance,
                (max_distance, max_distance),
                {"mode": mode, "key_average": "exact",
                 "distances": {k: list(v) for k, v in distances.items()},
                 "tolerance": 1e-8, "trials": None},
                limit=1e-8, strict=True)


def universal_blindness_pair(desc_a, desc_b, n: int, max_gates: int,
                             data_digits: Sequence[int]
                             ) -> tuple[tuple[qpip.CircuitIR, tuple],
                                        tuple[qpip.CircuitIR, tuple]]:
    """One circuit, two gate programs: the pair for a blindness audit.

    The fixed universal circuit is shared; the programs enter only
    through the one-hot control digits, so hiding the input hides the
    computation.
    """
    circ = qpip.build_universal_circuit(desc_a, n, max_gates)
    in_a = tuple(data_digits) + qpip.universal_description_digits(
        desc_a, n, max_gates)
    in_b = tuple(data_digits) + qpip.universal_description_digits(
        desc_b, n, max_gates)
    return (circ, in_a), (circ, in_b)


# ------------------------------------------------------ confidence audit


def _policy_block_pauli(prover: qpip.ProverImpl, q: int,
                        m: int) -> pa.SymbolicPauli:
    """Collapse a fixed-Pauli plan into one block operator for block 0."""
    if prover.policy is not None:
        raise ValueError("confidence audits need honest or fixed-Pauli "
                         "provers: their acceptance set is analytic")
    op = pa.SymbolicPauli.identity(q, m)
    for _, steps in sorted((prover.pauli_plan or {}).items()):
        for b, p_op in steps:
            if b != 0:
                raise ValueError("the confidence audit is single-block")
            op = p_op.compose(op)
    return op


@lru_cache(maxsize=4)
def _c2_tableau(m: int) -> np.ndarray:
    """The tableau keys of C_m stacked: (elements, 2m, 2) integers.

    Row g of element u is the image u P_g u^dag = i^phase B_j of the
    generator P_g (X_0, Z_0, X_1, ...) as (j, phase).
    """
    tab = np.array([el.key for el in pa.enumerate_clifford(m)],
                   dtype=np.int64)
    tab.setflags(write=False)  # cached: shared by every caller
    return tab


def _clifford_confidence(prover: qpip.ProverImpl, e: int,
                         input_bit: int) -> tuple[float, float]:
    """(beta, distance) of the exact key-group average."""
    if e != 1:
        raise ValueError("exact enumeration supports e = 1")
    m = 1 + e
    attack = _policy_block_pauli(prover, 2, m)
    p_mat = pa.pauli_matrix(attack).entries
    stack = pa.clifford_stack(m)
    psi0 = np.zeros(2 ** m, dtype=np.complex128)
    psi0[qc.RegisterShape((2,) * m).digits_to_index(
        (input_bit,) + (0,) * e)] = 1.0
    conj = np.matmul(stack.conj().transpose(0, 2, 1),
                     np.matmul(p_mat, stack))
    vecs = conj @ psi0
    branches = vecs.reshape(-1, 2, 2 ** e)[:, :, 0]
    weights = np.sum(np.abs(branches) ** 2, axis=1)
    beta = float(np.mean(weights))
    if beta < _BETA_FLOOR:
        raise ValueError(f"acceptance rate {beta:.4f} is below the "
                         f"floor {_BETA_FLOOR}; the bound is vacuous")
    rho = np.einsum("ka,kb->ab", branches, branches.conj()) / len(stack)
    rho /= beta
    correct = np.zeros((2, 2), dtype=np.complex128)
    correct[input_bit, input_bit] = 1.0
    qubit = qc.RegisterShape((2,))
    dist = qc.trace_distance(_dm(rho, qubit), _dm(correct, qubit))
    return beta, dist


def _poly_confidence(prover: qpip.ProverImpl, p: pc.CodeParams,
                     input_digit: int) -> tuple[float, float]:
    """(beta, distance) of the exact sign-key average."""
    q, m = p.q, p.m
    attack = _policy_block_pauli(prover, q, m)
    p_mat = pa.pauli_matrix(attack).entries
    shape = qc.RegisterShape((q,) * m)
    pkey = pa.SymbolicPauli.identity(q, m)
    accept_mass = 0.0
    cond = np.zeros(q, dtype=np.float64)
    keys = pc.all_sign_keys(m)
    for k in keys:
        enc = pc.encode_Ek(qc.basis_state(qc.RegisterShape((q,)),
                                          (input_digit,)), k, p)
        amps = p_mat @ enc.amplitudes
        probs = np.abs(amps) ** 2
        for idx in np.nonzero(probs > 1e-15)[0]:
            raw = shape.index_to_digits(int(idx))
            decoded = pc.decode_measurement(raw, k, pkey, p)
            if decoded.valid:
                accept_mass += probs[idx]
                cond[decoded.value] += probs[idx]
    beta = accept_mass / len(keys)
    if beta < _BETA_FLOOR:
        raise ValueError(f"acceptance rate {beta:.4f} is below the "
                         f"floor {_BETA_FLOOR}; the bound is vacuous")
    cond = cond / accept_mass
    correct = np.zeros(q)
    correct[input_digit % q] = 1.0
    dist = float(0.5 * np.sum(np.abs(cond - correct)))
    return beta, dist


def confidence_audit(mode: str, prover: qpip.ProverImpl, *,
                     e: int = 1, code: pc.CodeParams | None = None,
                     input_digit: int = 0) -> AuditRecord:
    """Exact conditional post-acceptance state quality for Pauli provers.

    Clifford mode averages the whole key group and compares the
    accept-conditioned message state to the correct one against epsilon /
    beta.  Polynomial mode audits standard-basis-output instances: the
    accept-conditioned measured value distribution against 2 epsilon /
    beta.  Everything is computed by exact enumeration; the gate allows
    1e-6 of numerical slack.
    """
    if mode == "clifford":
        beta, dist = _clifford_confidence(prover, e, input_digit)
        eps = ca.CliffordQasParams(l=1, e=e).epsilon
        bound, scale = eps / beta, "epsilon"
    elif mode == "poly":
        p = code if code is not None else pc.CodeParams()
        beta, dist = _poly_confidence(prover, p, input_digit)
        eps = p.epsilon
        bound, scale = 2 * eps / beta, "2 epsilon"
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return gate(f"accept-conditioned distance <= {scale} / beta", eps,
                dist, (dist, dist),
                {"mode": mode, "policy": prover.name, "beta": beta,
                 "bound": bound, "slack": bound - dist,
                 "floor": _BETA_FLOOR}, limit=bound + 1e-6)


# ----------------------------------------------------------- lemma suite


_LEMMA_TOL = 1e-8


def _codespace_matrix(k: pc.SignKey, p: pc.CodeParams) -> np.ndarray:
    """Columns: the encoded basis states of one signed-code block."""
    return np.column_stack([pc.codeword_state(a, k, p).amplitudes
                            for a in range(p.q)])


def _code_supports(k: pc.SignKey, p: pc.CodeParams
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The codewords of one key and the strings each is spread over.

    Returns the `_codespace_matrix` and the (q, q^d) flat indices of the
    nonzero amplitudes of each |S_a^k>, in index order.
    """
    words = _codespace_matrix(k, p)
    support = [np.flatnonzero(words[:, a]) for a in range(p.q)]
    if any(len(s) != p.q ** p.d for s in support):
        raise ValueError("a codeword is not spread over q^d strings")
    return words, np.array(support)


def _pauli_on_strings(x: np.ndarray, z: np.ndarray, support: np.ndarray,
                      q: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Index map and phase exponents of Paulis on basis strings.

    Z^z X^x takes |v> to w^(z.(v + x)) |v + x>.  For Paulis stacked as
    rows of x and z (n, m) and flat string indices `support` (any
    shape), returns the flat index of v + x and the exponent z.(v + x)
    mod q, each of shape (n,) + support.shape.
    """
    digits = pc._digit_grid(q, m)[:, support]
    moved = (digits[None] + x.reshape(x.shape + (1,) * support.ndim)) % q
    place = q ** np.arange(m - 1, -1, -1)
    index = np.tensordot(place, moved, axes=(0, 1))
    phase = np.einsum("nm,nm...->n...", z, moved) % q
    return index, phase


def _logical_failures(x, z, logical_x, logical_z, words, support, q, m
                      ) -> int:
    """How many (Pauli, message) pairs break P |S_a> = w^(za) |S_(a+x)>.

    Row n of x and z must act on every codeword as the logical Pauli
    Z^logical_z[n] X^logical_x[n]: each string of |S_a> lands, with its
    amplitude unchanged, on a string of |S_(a + logical_x)>, and all of
    them pick up the one phase exponent logical_z * a.  The shift is a
    bijection and both codewords cover q^d strings, so this is the
    identity itself, checked by integer index maps and exponents.
    """
    index, phase = _pauli_on_strings(x, z, support, q, m)
    msg = np.arange(q)
    target = (msg[None, :] + logical_x[:, None]) % q
    amps = words[support, msg[:, None]]
    landed = words[index, target[:, :, None]] == amps[None]
    phased = phase == (logical_z[:, None] * msg[None, :] % q)[:, :, None]
    return int(np.count_nonzero(~np.all(landed & phased, axis=2)))


def _code_overlap_counts(x: np.ndarray, z: np.ndarray, support: np.ndarray,
                         q: int, m: int) -> np.ndarray:
    """Overlaps of Paulis with the code as integer counts, (n, q, q, q).

    Entry [n, a, b, r] counts the strings of |S_a> that Pauli n moves
    into |S_b> with phase exponent r.  A codeword is the flat
    superposition over its q^d strings, so |<S_b| P |S_a>| is
    q^-d |sum_r N_r w^r|: exactly 1 when one N_r holds all q^d strings
    and, for prime q, exactly 0 when every N_r is equal.
    """
    index, phase = _pauli_on_strings(x, z, support, q, m)
    label = np.full(q ** m, q, dtype=np.int64)  # q: outside the code
    label[support] = np.arange(q)[:, None]
    n = len(x)
    cell = ((np.arange(n)[:, None, None] * q + np.arange(q)[:, None])
            * (q + 1) + label[index]) * q + phase
    counts = np.bincount(cell.ravel(), minlength=n * q * (q + 1) * q)
    return counts.reshape(n, q, q + 1, q)[:, :, :q]


def _footprint_check(part: str, every_polynomial: bool) -> Callable:
    """Signed-evaluation Paulis act on every codeword as logical Paulis.

    For f of degree <= d, X^(k_i f(alpha_i)) on wire i is logical
    X^f(0), and Z^(c_i k_i f(alpha_i)) is logical Z^f(0); `part` picks X
    or Z.  The logical checks take f = 1 only, the correlated checks
    every f.  The residual counts the (key, f, message) triples where the
    identity fails (`_logical_failures`).
    """
    def check(rng, cvec, p) -> float:
        q, m = p.q, p.m
        idx = np.arange(q ** (p.d + 1)) if every_polynomial else \
            np.array([1])
        coeffs = idx[:, None] // q ** np.arange(p.d + 1) % q
        powers = np.array([[pow(al, t, q) for t in range(p.d + 1)]
                           for al in p.alphas], dtype=np.int64)
        evals = coeffs @ powers.T % q
        zero = np.zeros_like(evals)
        none = np.zeros(len(idx), dtype=np.int64)
        bad = 0
        for k in pc.all_sign_keys(m):
            words, support = _code_supports(k, p)
            signed = evals * k.residues(q) % q
            if part == "x":
                bad += _logical_failures(signed, zero, coeffs[:, 0], none,
                                         words, support, q, m)
            else:
                z = signed * np.array(p.interp_c) % q
                bad += _logical_failures(zero, z, none, coeffs[:, 0],
                                         words, support, q, m)
        return float(bad)
    return check


def _check_logical_sum(rng, cvec, p) -> float:
    """Transversal SUM takes |S_a^k>|S_b^k> to |S_a^k>|S_{a+b}^k>.

    SUM's matrix must be a 0/1 permutation matrix; its index map is then
    exact.  Each string of |S_a^k>|S_{a+b}^k> must read, through that
    map, a string of |S_a^k>|S_b^k> of the same amplitude: the map is a
    bijection and both states cover q^(2d) strings, so this is the whole
    identity.  The residual is the larger of the matrix error and the
    count of failing (key, a, b).
    """
    q, m = p.q, p.m
    sum1 = pc._sum_power(1, q).entries
    pair_src = np.argmax(sum1, axis=1)
    res = float(np.max(np.abs(sum1 - np.eye(q * q)[pair_src])))
    if not np.array_equal(np.sort(pair_src), np.arange(q * q)):
        res = max(res, 1.0)
    grid = pc._digit_grid(q, m)
    place = q ** np.arange(m - 1, -1, -1)
    msg = np.arange(q)
    total = (msg[:, None] + msg[None, :]) % q  # [a, b] -> a + b
    bad = 0
    for k in pc.all_sign_keys(m):
        words, support = _code_supports(k, p)
        # per wire, the pair digits of every output string, axes
        # (wire, a, b, control string, target string)
        ctrl = grid[:, support][:, :, None, :, None]
        targ = grid[:, support[total]][:, :, :, None, :]
        src = pair_src[ctrl * q + targ]
        have = (words[np.tensordot(place, src // q, axes=1),
                      msg[:, None, None, None]]
                * words[np.tensordot(place, src % q, axes=1),
                        msg[None, :, None, None]])
        amps = words[support, msg[:, None]]
        want = amps[:, None, :, None] * amps[total][:, :, None, :]
        bad += int(np.count_nonzero(~np.all(have == want, axis=(2, 3))))
    return max(res, float(bad))


def _check_interpolation_weights(rng, cvec, p) -> float:
    q = p.q
    c = cvec if cvec is not None else p.interp_c
    res = 0.0
    for t in range(2 * p.d + 1):
        total = sum(ci * pow(al, t, q) for ci, al in zip(c, p.alphas)) % q
        want = 1 if t == 0 else 0
        res = max(res, float((total - want) % q))
    return res


def _check_logical_fourier(rng, cvec, p) -> float:
    q = p.q
    c = cvec if cvec is not None else p.interp_c
    omega = np.exp(2j * np.pi / q)
    res = 0.0
    for k in pc.all_sign_keys(p.m):
        for a in range(q):
            state = pc.codeword_state(a, k, p)
            for i in range(p.m):
                f = pa.gate_matrix(pa.GateTag("F_r", int(c[i]) % q), q)
                state = qc.apply_on_wires(state, f, (i,))
            want = sum(omega ** (a * b)
                       * pc.codeword_state(b, k, p).amplitudes
                       for b in range(q)) / np.sqrt(q)
            res = max(res, float(np.max(np.abs(state.amplitudes - want))))
    return res


def _check_decode_diagonalization(rng, cvec, p) -> float:
    q = p.q
    res = 0.0
    target_shape = qc.RegisterShape((q,) * p.m)
    zero_pad = pa.SymbolicPauli.identity(p.q, p.m)
    for k in pc.all_sign_keys(p.m):
        kk = k.residues(q)
        for a in range(q):
            dec = pc.decode_Ek(pc.codeword_state(a, k, p), k, p)
            want = qc.basis_state(target_shape, (a,) + (0,) * (p.m - 1))
            res = max(res, float(np.max(np.abs(dec.amplitudes
                                               - want.amplitudes))))
            for u in range(q):
                raw = tuple(int(kk[i] * (a + u * al) % q)
                            for i, al in enumerate(p.alphas))
                d = pc.decode_measurement(raw, k, zero_pad, p)
                if not (d.valid and d.value == a):
                    res = max(res, 1.0)
            off = (raw[0] + 1) % q, *raw[1:]
            if pc.decode_measurement(off, k, zero_pad, p).valid:
                res = max(res, 1.0)
    return res


def _check_clifford_decoherence(rng, cvec, p) -> float:
    """The Clifford twirl kills the cross term of two distinct Paulis.

    (1/|C_2|) sum_C (C^dag P C) rho (C^dag P' C)^dag vanishes for every
    rho exactly when, for each pair of images (B_j, B_j') of P = X (x) I
    and P' = Z (x) Z, the phases i^(phase - phase') sum to zero.  The
    images are read from the tableau keys (a sum over C is one over
    C^dag), so the residual is the largest such signed count over
    |C_2|, an integer sum that is 0 exactly.
    """
    tab = _c2_tableau(2)
    img = tab[:, 0]  # X_0, the generator X (x) I
    img2 = pa._pauli_product(tab[:, 1], tab[:, 3])  # Z (x) Z
    phase = (img[:, 1] - img2[:, 1]) & 3
    counts = np.bincount((img[:, 0] * 16 + img2[:, 0]) * 4 + phase,
                         minlength=16 * 16 * 4).reshape(16, 16, 4)
    signed = (counts[..., 0] - counts[..., 2]) \
        + 1j * (counts[..., 1] - counts[..., 3])
    return float(np.max(np.abs(signed))) / len(tab)


def _check_pauli_decompose(rng, cvec, p) -> float:
    env = 2
    u = qc.haar_unitary(4 * env, rng)
    w = pa.pauli_decompose(u, 2, 2, env)
    rebuilt = np.zeros_like(u)
    total = 0.0
    shape = qc.RegisterShape((2, 2))
    for xi in range(4):
        for zi in range(4):
            xd = shape.index_to_digits(xi)
            zd = shape.index_to_digits(zi)
            op = pa.SymbolicPauli(2, np.array(xd), np.array(zd))
            rebuilt += np.kron(pa.pauli_matrix(op).entries, w[xi, zi])
            total += float(np.trace(w[xi, zi].conj().T
                                    @ w[xi, zi]).real)
    res = float(np.max(np.abs(rebuilt - u)))
    return max(res, abs(total - env))


def _check_pauli_partitioning(rng, cvec, p) -> float:
    """Conjugating X (x) I by C_2 hits every non-identity Pauli equally.

    The images are read from the tableau keys: each of the 15
    non-identity Paulis must be hit |C_2| / 15 = 768 times, and the
    identity never.  The residual is the largest count error.
    """
    tab = _c2_tableau(2)
    counts = np.bincount(tab[:, 0, 0], minlength=16)
    expected = len(tab) // 15
    return float(max(counts[0], np.max(np.abs(counts[1:] - expected))))


def _check_pauli_twirl(rng, cvec, p) -> float:
    basis = pa.qubit_pauli_basis(2)
    pm = basis[5]
    pm2 = basis[10]
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    rho = np.outer(v, v.conj())
    a = np.matmul(basis.conj().transpose(0, 2, 1), np.matmul(pm, basis))
    b = np.matmul(basis.conj().transpose(0, 2, 1), np.matmul(pm2, basis))
    same = np.einsum("kab,bc,kdc->ad", a, rho, a.conj()) / len(basis)
    cross = np.einsum("kab,bc,kdc->ad", a, rho, b.conj()) / len(basis)
    want = pm @ rho @ pm.conj().T
    res = float(np.max(np.abs(same - want)))
    return max(res, float(np.max(np.abs(cross))))


def _check_clifford_twirl(rng, cvec, p) -> float:
    """Clifford-twirled unitary attacks collapse to a two-term channel.

    The identity weight stays on rho; everything else mixes uniformly
    over the non-identity Paulis, leaving w rho + (1 - w) (d I - rho) /
    (d^2 - 1) with w the identity component of the attack.  With
    `pauli-decoherence`, which splits an attack on the block and an
    environment into its Pauli components, this licenses qas-clifford's
    reduction of every attack to one twirled non-identity Pauli.
    """
    stack = pa.clifford_stack(2)
    d = 4
    u = qc.haar_unitary(d, rng)
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    v /= np.linalg.norm(v)
    rho = np.outer(v, v.conj())
    a = np.matmul(stack.conj().transpose(0, 2, 1), np.matmul(u, stack))
    lhs = np.einsum("kab,bc,kdc->ad", a, rho, a.conj()) / len(stack)
    w_ident = float(np.abs(np.trace(u) / d) ** 2)
    rhs = w_ident * rho + (1 - w_ident) * (d * np.eye(d) - rho) / (d * d - 1)
    return float(np.max(np.abs(lhs - rhs)))


def _check_completeness(rng, cvec, p) -> float:
    params = ca.CliffordQasParams(l=1, e=1)
    res = 0.0
    for _ in range(40):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        psi = qc.StateVector(qc.RegisterShape((2,)), v)
        key = ca.random_clifford_key(params, rng)
        verdict, dec = ca.cqas_decode(ca.cqas_encode(psi, key), key, 1, rng)
        if verdict != "valid" or dec is None:
            res = max(res, 1.0)
            continue
        res = max(res, 1.0 - qc.state_fidelity(dec, psi))
    zero_pad = pa.SymbolicPauli.identity(p.q, p.m)
    for k in pc.all_sign_keys(p.m):
        for a in range(p.q):
            enc = pc.encode_Ek(qc.basis_state(qc.RegisterShape((p.q,)),
                                              (a,)), k, p)
            probs = np.abs(enc.amplitudes) ** 2
            mass = 0.0
            for idx in np.nonzero(probs > 1e-15)[0]:
                raw = enc.shape.index_to_digits(int(idx))
                d = pc.decode_measurement(raw, k, zero_pad, p)
                if d.valid and d.value == a:
                    mass += probs[idx]
            res = max(res, abs(mass - 1.0))
    return res


def _check_clifford_mixing(rng, cvec, p) -> float:
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    rho = qc.StateVector(qc.RegisterShape((2, 2)), v).to_density()
    avg = pa.group_conjugate_average(rho, (0, 1))
    return float(np.max(np.abs(avg.entries - np.eye(4) / 4)))


def _check_pauli_mixing(rng, cvec, p) -> float:
    dim = p.q ** p.m
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    avg = _pad_average(np.outer(v, v.conj()), p.q, p.m)
    return float(np.max(np.abs(avg - np.eye(dim) / dim)))


def _check_unitary_commutation(rng, cvec, p) -> float:
    u = qc.UnitaryMatrix(qc.RegisterShape((2, 2)), qc.haar_unitary(4, rng),
                         check_unitary=False)
    a = qc.UnitaryMatrix(qc.RegisterShape((2,)), qc.haar_unitary(2, rng),
                         check_unitary=False)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    v /= np.linalg.norm(v)
    psi = qc.StateVector(qc.RegisterShape((2, 2, 2)), v)
    one = qc.apply_on_wires(qc.apply_on_wires(psi, u, (0, 1)), a, (2,))
    two = qc.apply_on_wires(qc.apply_on_wires(psi, a, (2,)), u, (0, 1))
    return float(np.max(np.abs(one.amplitudes - two.amplitudes)))


def _check_pauli_decoherence(rng, cvec, p) -> float:
    """Pad averaging kills every cross term between distinct Paulis.

    The coefficient of P rho P'^dag after the pad twirl is the mean of a
    nontrivial character over all pad keys; evaluated numerically it
    must vanish, and the diagonal P = P' coefficient must stay 1.
    """
    q, m = p.q, p.m
    grid = np.indices((q,) * m).reshape(m, -1).T
    omega = np.exp(2j * np.pi / q)
    res = 0.0
    for _ in range(8):
        dx = rng.integers(0, q, size=m)
        dz = rng.integers(0, q, size=m)
        if not dx.any() and not dz.any():
            continue
        coeff = np.mean(omega ** (grid @ dx % q)) \
            * np.mean(omega ** (-grid @ dz % q))
        res = max(res, float(np.abs(coeff)))
    diag = np.mean(omega ** (grid @ np.zeros(m, dtype=np.int64) % q))
    return max(res, float(np.abs(diag - 1.0)))


def _check_sign_key_security(rng, cvec, p) -> float:
    """Exhaustive sign-key scan against its measured security ceiling.

    The worst averaged acceptance mass over all non-identity Paulis is
    0.5 at the canonical parameters (attained by 4-key-correlated
    operators), and the correlated-key counts must cover every Pauli.
    """
    masses, counts = pq.sign_key_masses(p)
    res = abs(float(masses.max()) - 0.5)
    # one row per Pauli; row 0 is the identity
    if len(counts) != p.q ** (2 * p.m) or counts[1:].max() != 4 \
            or counts[1:].min() != 0:
        res = max(res, 1.0)
    return res


def _check_pauli_criterion(rng, cvec, p) -> float:
    """A Pauli maps the code to itself iff it is k-correlated.

    Per key, 60 drawn Paulis: each must either act as a logical operator
    (some overlap exactly 1) or move the code to its orthogonal
    complement (every overlap exactly 0), and `is_k_correlated` must
    say which.  The residual counts the mismatches.
    """
    q, m = p.q, p.m
    mismatches = 0
    pair_total = 0
    sample = 0
    for k in pc.all_sign_keys(m):
        _, support = _code_supports(k, p)
        xset, zset = pc._correlated_patterns(k.k, p)
        pair_total += len(xset) * len(zset) - 1
        xs, zs, predicted = [], [], []
        for _ in range(60):
            x = rng.integers(0, q, size=m)
            z = rng.integers(0, q, size=m)
            if not x.any() and not z.any():
                continue
            xs.append(x)
            zs.append(z)
            predicted.append(pc.is_k_correlated(
                pa.SymbolicPauli._trusted(q, x, z), k, p))
        if xs:
            counts = _code_overlap_counts(np.array(xs), np.array(zs),
                                          support, q, m)
            logical = np.any(counts.max(axis=3) == q ** p.d, axis=(1, 2))
            orthogonal = np.all(counts.min(axis=3) == counts.max(axis=3),
                                axis=(1, 2))
            mismatches += int(np.count_nonzero(logical != predicted))
            mismatches += int(np.count_nonzero(~(logical | orthogonal)))
        sample += len(xs)
    if pair_total != len(pc.all_sign_keys(m)) * (q ** (2 * (p.d + 1)) - 1):
        mismatches += 1
    if sample == 0:
        mismatches += 1
    return float(mismatches)


def _check_correlated_decomposition(rng, cvec, p) -> float:
    """A non-correlated Pauli splits into a correlated part and a leftover
    the decoder notices.

    Per key, 25 drawn non-correlated Paulis go through
    `decompose_correlated`.  The residual counts the broken rules: the
    parts must recompose the Pauli, the correlated part must be the
    identity or k-correlated, and the leftover must be no identity and
    act only where the interpolation does not reach (X off the first
    d + 1 wires, Z off wire 0 and the last d wires).
    """
    q, m, d = p.q, p.m, p.d
    bad = 0
    for k in pc.all_sign_keys(m):
        ops, parts = [], []
        while len(ops) < 25:
            x = rng.integers(0, q, size=m)
            z = rng.integers(0, q, size=m)
            if not x.any() and not z.any():
                continue
            op = pa.SymbolicPauli._trusted(q, x, z)
            if pc.is_k_correlated(op, k, p):
                continue
            ops.append(op)
            parts.append(pc.decompose_correlated(op, k, p))
        bad += sum(not c.is_identity() and not pc.is_k_correlated(c, k, p)
                   for c, _ in parts)
        # exponents stacked as (Pauli, x or z, wire)
        whole = np.array([(op.x, op.z) for op in ops])
        corr = np.array([(c.x, c.z) for c, _ in parts])
        left = np.array([(lo.x, lo.z) for _, lo in parts]) % q
        bad += int(np.count_nonzero(np.any((corr + left - whole) % q,
                                           axis=(1, 2))))
        bad += int(np.count_nonzero(~np.any(left, axis=(1, 2))))
        seen = np.concatenate([left[:, 0, :d + 1], left[:, 1, :1],
                               left[:, 1, d + 1:]], axis=1)
        bad += int(np.count_nonzero(np.any(seen, axis=1)))
    return float(bad)


def _check_uncorrelated_action(rng, cvec, p) -> float:
    """Non-correlated Paulis move the code to its orthogonal complement.

    Per key, 25 drawn non-correlated Paulis; the residual is their
    largest overlap with any codeword, exactly 0 when every count of
    `_code_overlap_counts` is balanced.
    """
    q, m = p.q, p.m
    omega = np.exp(2j * np.pi / q) ** np.arange(q)
    res = 0.0
    for k in pc.all_sign_keys(m):
        _, support = _code_supports(k, p)
        xs, zs = [], []
        while len(xs) < 25:
            x = rng.integers(0, q, size=m)
            z = rng.integers(0, q, size=m)
            if not x.any() and not z.any():
                continue
            if pc.is_k_correlated(pa.SymbolicPauli._trusted(q, x, z), k, p):
                continue
            xs.append(x)
            zs.append(z)
        counts = _code_overlap_counts(np.array(xs), np.array(zs), support,
                                      q, m)
        bad = counts.min(axis=3) != counts.max(axis=3)
        if bad.any():
            res = max(res, float(np.max(np.abs(counts[bad] @ omega)))
                      / q ** p.d)
    return res


def _check_teleportation_uniformity(rng, cvec, p) -> float:
    """The Toffoli gadget on a random state |psi> of the three data wires:
    every measurement outcome has probability 1/q^3, so the corrections
    the verifier sends carry no key, and after its corrections each branch
    is T|psi> up to a global phase.  A superposed input, unlike a basis
    one, also sees a wrong phase (Z) correction."""
    q = p.q
    shape3 = qc.RegisterShape((q,) * 3)
    v = rng.normal(size=q ** 3) + 1j * rng.normal(size=q ** 3)
    psi = qc.StateVector(shape3, v / np.linalg.norm(v))
    state = qc.tensor(psi, qpip.magic_state(q))
    for tag, blocks in qpip._entangling_layer((0, 1, 2), (3, 4, 5), q):
        state = qc.apply_on_wires(state, qpip._plain_logical_matrix(tag, q),
                                  blocks)
    probs = qc.measurement_probabilities(state, (0, 1, 2))
    res = float(np.max(np.abs(probs - 1.0 / q ** 3)))
    want = qc.apply_on_wires(psi, pa.gate_matrix(pa.GateTag("T"), q),
                             (0, 1, 2))
    for beta_idx in range(q ** 3):
        beta = shape3.index_to_digits(beta_idx)
        _, branch = qc.project_wires(state, (0, 1, 2), beta)
        out = qc.StateVector(shape3, branch.amplitudes.reshape(
            q ** 3, q ** 3)[beta_idx], check_norm=False)
        for tag, blocks in qpip.toffoli_correction_tags(*beta, q):
            out = qc.apply_on_wires(
                out, qpip._plain_logical_matrix(tag, q), blocks)
        vec = out.amplitudes / np.linalg.norm(out.amplitudes)
        res = max(res, float(abs(abs(np.vdot(want.amplitudes, vec)) - 1)))
    return res


# name -> check(rng, c_vector, code) returning a residual; the order is
# the suite's, and a check's index in it seeds its generator
LEMMA_COVERAGE: dict[str, Callable] = {
    "logical-x": _footprint_check("x", every_polynomial=False),
    "logical-sum": _check_logical_sum,
    "interpolation-weights": _check_interpolation_weights,
    "logical-fourier": _check_logical_fourier,
    "logical-z": _footprint_check("z", every_polynomial=False),
    "decode-diagonalization": _check_decode_diagonalization,
    "clifford-decoherence": _check_clifford_decoherence,
    "pauli-decompose": _check_pauli_decompose,
    "pauli-partitioning-by-cliffords": _check_pauli_partitioning,
    "pauli-twirl": _check_pauli_twirl,
    "clifford-twirl": _check_clifford_twirl,
    "completeness": _check_completeness,
    "clifford-mixing": _check_clifford_mixing,
    "pauli-mixing": _check_pauli_mixing,
    "unitary-commutation": _check_unitary_commutation,
    "pauli-decoherence": _check_pauli_decoherence,
    "sign-key-pauli-security": _check_sign_key_security,
    "correlated-x": _footprint_check("x", every_polynomial=True),
    "correlated-z": _footprint_check("z", every_polynomial=True),
    "pauli-criterion": _check_pauli_criterion,
    "correlated-decomposition": _check_correlated_decomposition,
    "uncorrelated-action": _check_uncorrelated_action,
    "teleportation-outcome-uniformity": _check_teleportation_uniformity,
}


def lemma_suite(scope: str | Sequence[str] = "all",
                c_vector: Sequence[int] | None = None,
                seed: int = 0) -> AuditRecord:
    """Execute the named algebraic identities and record their residuals.

    The names are the keys of `LEMMA_COVERAGE`, in its order.  c_vector
    deliberately corrupts the interpolation ingredient fed to the two
    checks that validate it (the weight identity and the transversal
    Fourier), leaving the remaining checks on the canonical parameters;
    this is the suite's own fault injection.  Each check draws from its
    own generator, seeded from the suite seed and its index in
    `LEMMA_COVERAGE`, so the recorded residuals depend only on the seed
    and the scope.  The claim is that every identity holds: each
    residual must stay below 1e-8, and a check that raises records an
    infinite residual.

    Identities over F_q or the Pauli group are checked exactly, so their
    residual is 0 when they hold and a count (or an exact overlap) when
    they fail:

    - by index maps and phase exponents mod q, on each codeword's q^d
      strings: logical-x, logical-z, correlated-x, correlated-z,
      logical-sum, pauli-criterion and uncorrelated-action (a Pauli or
      SUM sends a basis string to one basis string times a power of w);
    - by tableau keys: clifford-decoherence and
      pauli-partitioning-by-cliffords (a Clifford sends a Pauli to a
      signed Pauli, which the enumerated keys hold);
    - in integers mod q: interpolation-weights and
      correlated-decomposition.

    The rest stay in complex floats, because their claim is analytic:
    the Fourier layer's amplitudes are irrational (logical-fourier,
    decode-diagonalization, teleportation-outcome-uniformity), or the
    claim is about Haar-random unitaries or random states and densities
    (pauli-decompose, clifford-twirl, unitary-commutation, completeness,
    pauli-twirl and the mixing and decoherence checks), or about the
    scan's float masses (sign-key-pauli-security).  `tests/oracles.py`
    keeps the float form of every exact check.
    """
    names = list(LEMMA_COVERAGE)
    if scope == "all":
        selected = names
    elif isinstance(scope, str):
        selected = [s.strip() for s in scope.split(",") if s.strip()]
    else:
        selected = list(scope)
    unknown = [s for s in selected if s not in LEMMA_COVERAGE]
    if unknown:
        raise ValueError(f"unknown lemma names: {unknown}")
    p = pc.CodeParams()
    cvec = tuple(int(v) for v in c_vector) if c_vector is not None else None

    def run_one(name: str) -> dict:
        rng = qc.make_rng(seed * 1009 + names.index(name))
        try:
            residual = float(LEMMA_COVERAGE[name](rng, cvec, p))
        except Exception as exc:  # record the failure, never hide it
            return {"name": name, "residual": math.inf,
                    "note": f"raised {type(exc).__name__}: {exc}"}
        return {"name": name, "residual": residual, "note": ""}

    results = [run_one(n) for n in selected]
    # np.max keeps a NaN residual, which then fails the gate
    worst = float(np.max([r["residual"] for r in results], initial=0.0))
    return gate("every listed algebraic identity holds", 0.0, worst,
                (worst, worst), {"seed": seed, "results": results},
                limit=_LEMMA_TOL, strict=True)
