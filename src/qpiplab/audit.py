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
from collections.abc import Callable, Sequence
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
    return AuditRecord(claim, epsilon, estimate, interval,
                       "pass" if holds else "fail",
                       f"{what} {low:.6g} {sign} limit {limit:.6g}", detail)


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


def biased_clifford_circuit(gamma: float) -> qpip.CircuitIR:
    """One-qubit circuit whose output reads 1 with probability 1 - gamma."""
    theta = math.asin(math.sqrt(1.0 - gamma))
    rot = qc.UnitaryMatrix(qc.RegisterShape((2,)),
                           np.array([[math.cos(theta), -math.sin(theta)],
                                     [math.sin(theta), math.cos(theta)]]),
                           check_unitary=False)
    return qpip.CircuitIR(1, 2, (qpip.CircuitGate(rot, (0,)),), gamma=gamma)


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


def _run_chunk(config: ProtocolConfig, prover: qpip.ProverImpl,
               trials: int, seed: int,
               reference: tuple[int, ...] | None) -> dict[str, int]:
    rng = qc.make_rng(seed)
    counts = {"trials": trials, "accept": 0, "wrong_accept": 0, "abort": 0}
    for _ in range(trials):
        rec = config.run_once(prover, rng)
        if rec.verdict != "accept":
            counts["abort"] += 1
        elif reference is None or rec.output == reference:
            counts["accept"] += 1
        else:
            counts["wrong_accept"] += 1
    return counts


def _merge(parts: Sequence[dict[str, int]]) -> dict[str, int]:
    out = {"trials": 0, "accept": 0, "wrong_accept": 0, "abort": 0}
    for p in parts:
        for k in out:
            out[k] += p[k]
    return out


def _run_policy_trials(config: ProtocolConfig, prover: qpip.ProverImpl,
                       trials: int, master_seed: int) -> dict[str, int]:
    """Chunked trial runner over a fixed split of at most 16 chunks.

    Each chunk draws its trials from its own generator, seeded from the
    master seed, so the counts depend only on the master seed.
    """
    reference = config.reference()
    n_chunks = min(trials, 16)
    sizes = [trials // n_chunks + (1 if i < trials % n_chunks else 0)
             for i in range(n_chunks)]
    seeds = np.random.SeedSequence(master_seed).generate_state(n_chunks)
    return _merge([_run_chunk(config, prover, sz, int(sd), reference)
                   for sz, sd in zip(sizes, seeds) if sz > 0])


def estimate_completeness(config: ProtocolConfig, trials: int,
                          rng: np.random.Generator) -> AuditRecord:
    """Honest-prover acceptance rate against the 1 - gamma promise."""
    return estimate_soundness(config, qpip.honest_prover(), trials, rng)


def estimate_soundness(config: ProtocolConfig,
                       prover: qpip.ProverImpl | Sequence[qpip.ProverImpl],
                       trials: int,
                       rng: np.random.Generator) -> AuditRecord:
    """Wrong-accept rate of adversarial provers against gamma + epsilon.

    Wrong accepts are counted only against a deterministic reference
    output, so circuit noise never enters the adversary's budget; use
    gamma = 0 instances for sharp tests.  The gate reads the Wilson
    interval of the pooled wrong-accept rate; `per_policy` keeps each
    prover's counts.
    """
    provers = tuple(prover) if isinstance(prover, (list, tuple)) \
        else (prover,)
    per_policy: dict[str, dict[str, int]] = {}
    seeds = []
    for pr in provers:
        master = int(rng.integers(0, 2 ** 63 - 1))
        seeds.append(master)
        per_policy[pr.name] = _run_policy_trials(config, pr, trials, master)
    total = _merge(list(per_policy.values()))
    n = total["trials"]
    wrong = total["wrong_accept"]
    return gate("wrong-accept rate <= gamma + epsilon", config.epsilon,
                wrong / n, wilson_interval(wrong, n),
                {"trials": n, "accept_rate": total["accept"] / n,
                 "abort_rate": total["abort"] / n,
                 "wilson_accept": list(wilson_interval(total["accept"], n)),
                 "bound": config.bound, "per_policy": per_policy,
                 "seeds": seeds}, limit=config.bound)


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


def _clifford_round_views(circuit: qpip.CircuitIR, inputs: Sequence[int],
                          e: int) -> list[qc.DensityMatrix]:
    """Exact per-round prover views: fresh-key average over every block."""
    n = circuit.n
    if 2 ** (n * (1 + e)) > _VIEW_DIM_CAP:
        raise ValueError("prover view exceeds the exact-averaging cap")
    shape = qc.RegisterShape((2,) * n)
    state = qc.basis_state(shape, inputs)
    plain_states = [state]
    for gate in circuit.gates:
        mat = gate.op if isinstance(gate.op, qc.UnitaryMatrix) else \
            pa.gate_matrix(gate.op, 2)
        state = qc.apply_on_wires(state, mat, gate.wires)
        plain_states.append(state)
    views = []
    for st in plain_states:
        rho = _blockwise_embed(st, e).to_density()
        for b in range(n):
            wires = tuple(range(b * (1 + e), (b + 1) * (1 + e)))
            rho = pa.group_conjugate_average(rho, "clifford", wires)
        views.append(rho)
    return views


def _pad_average(rho: np.ndarray, q: int, m: int) -> np.ndarray:
    """Exact average over all q^(2m) Pauli pads of a q^m-dim density.

    Both halves are computed numerically: the phase half through the
    explicit character kernel, the shift half by summing the q^m shifted
    conjugates.
    """
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


def _poly_block_view(digit: int, p: pc.CodeParams) -> np.ndarray:
    """Exact one-block prover view: full sign-key and Pauli-pad average."""
    base = qc.basis_state(qc.RegisterShape((p.q,)), (digit,))
    keys = pc.all_sign_keys(p.m)
    dim = p.q ** p.m
    acc = np.zeros((dim, dim), dtype=np.complex128)
    for sign in keys:
        enc = pc.encode_Ek(base, sign, p)
        acc += _pad_average(np.outer(enc.amplitudes, enc.amplitudes.conj()),
                            p.q, p.m)
    return acc / len(keys)


def _dm(entries: np.ndarray, shape: qc.RegisterShape) -> qc.DensityMatrix:
    return qc.DensityMatrix(shape, entries, check_psd=False)


def _classical_view_histograms(circuit: qpip.CircuitIR,
                               inputs: Sequence[int], p: pc.CodeParams,
                               trials: int, rng: np.random.Generator
                               ) -> dict[tuple[int, int, int], np.ndarray]:
    """Per-digit outcome counts of the prover's acquired classical view.

    Runs the logical-frame engine with fresh sampled keys each trial and
    bins every classical digit the verifier sends to the prover (the
    teleportation corrections), keyed by round, entry position within
    the round, and digit position.  The prover's quantum view is the
    exact clause's job; these messages are the only classical
    information the protocol hands it.
    """
    prover = qpip.honest_prover()
    hists: dict[tuple[int, int, int], np.ndarray] = {}
    for _ in range(trials):
        rec = qpip.run_poly_qpip(circuit, inputs, p, prover, rng,
                                 engine="logical-frame",
                                 output_wires=tuple(range(circuit.n)))
        pos_in_round: dict[int, int] = {}
        for entry in rec.transcript.entries:
            if entry.kind != "classical-string" or \
                    entry.direction != "verifier->prover":
                continue
            pos = pos_in_round.get(entry.round, 0)
            pos_in_round[entry.round] = pos + 1
            for j, digit in enumerate(entry.payload):
                key = (entry.round, pos, j)
                if key not in hists:
                    hists[key] = np.zeros(p.q)
                hists[key][int(digit) % p.q] += 1
    return hists


def _sampled_clifford_views(circuit: qpip.CircuitIR, inputs: Sequence[int],
                            e: int, trials: int,
                            rng: np.random.Generator
                            ) -> list[np.ndarray]:
    n = circuit.n
    params = ca.CliffordQasParams(l=1, e=e)
    shape = qc.RegisterShape((2,) * n)
    state = qc.basis_state(shape, inputs)
    plain_states = [state]
    for gate in circuit.gates:
        mat = gate.op if isinstance(gate.op, qc.UnitaryMatrix) else \
            pa.gate_matrix(gate.op, 2)
        state = qc.apply_on_wires(state, mat, gate.wires)
        plain_states.append(state)
    embedded = [_blockwise_embed(st, e) for st in plain_states]
    dim = embedded[0].shape.dim
    views = [np.zeros((dim, dim), dtype=np.complex128) for _ in plain_states]
    block_shape = qc.RegisterShape((2,) * (1 + e))
    for _ in range(trials):
        keys = [ca.random_clifford_key(params, rng) for _ in range(n)]
        for r, st in enumerate(embedded):
            for b in range(n):
                wires = tuple(range(b * (1 + e), (b + 1) * (1 + e)))
                u = qc.UnitaryMatrix(block_shape,
                                     keys[b].element.matrix.entries,
                                     check_unitary=False)
                st = qc.apply_on_wires(st, u, wires)
            views[r] += np.outer(st.amplitudes, st.amplitudes.conj())
    return [v / trials for v in views]


def blindness_audit(mode: str,
                    pairs: Sequence[tuple[tuple[qpip.CircuitIR,
                                                Sequence[int]],
                                          tuple[qpip.CircuitIR,
                                                Sequence[int]]]],
                    key_average: str = "exact",
                    rng: np.random.Generator | None = None,
                    trials: int = 10_000, e: int = 1,
                    code: pc.CodeParams | None = None) -> AuditRecord:
    """Compare the prover's view across instance pairs under key averaging.

    Clifford mode reports per-round view distances: one view per
    protocol round, each the fresh-key average over every block (exact
    enumeration, or sampled keys), plus the distance of each exact view
    to the maximally mixed state.  Polynomial exact mode averages the
    delivered block over all sign keys and all Pauli pads and compares
    the differing input blocks.  Polynomial sampled mode runs the
    logical-frame protocol itself at sampled keys and compares the
    per-round, per-digit distributions of the prover's classical view
    (single-wire quantum marginals carry no key dependence at all, so
    the classical messages are where sampling has content).  The claim
    is perfect blindness (epsilon 0): the largest distance must stay
    below 1e-8 for exact averages and below 0.02 for sampled ones.
    """
    if key_average not in ("exact", "sampled"):
        raise ValueError(f"unknown key_average {key_average!r}")
    rng = rng if rng is not None else qc.make_rng(0)
    p = code if code is not None else pc.CodeParams()
    tol = 1e-8 if key_average == "exact" else 0.02
    distances: dict[str, tuple[float, ...]] = {}

    for i, ((circ_a, in_a), (circ_b, in_b)) in enumerate(pairs):
        if mode == "clifford":
            if key_average == "exact":
                va = _clifford_round_views(circ_a, tuple(in_a), e)
                vb = _clifford_round_views(circ_b, tuple(in_b), e)
                shape = va[0].shape
                mixed = _dm(np.eye(shape.dim) / shape.dim, shape)
                distances[f"pair{i}"] = tuple(
                    qc.trace_distance(a, b) for a, b in zip(va, vb))
                distances[f"pair{i}-mixed-a"] = tuple(
                    qc.trace_distance(a, mixed) for a in va)
                distances[f"pair{i}-mixed-b"] = tuple(
                    qc.trace_distance(b, mixed) for b in vb)
            else:
                va = _sampled_clifford_views(circ_a, tuple(in_a), e,
                                             trials, rng)
                vb = _sampled_clifford_views(circ_b, tuple(in_b), e,
                                             trials, rng)
                shape = qc.RegisterShape((2,) * (circ_a.n * (1 + e)))
                distances[f"pair{i}"] = tuple(
                    qc.trace_distance(_dm(a, shape), _dm(b, shape))
                    for a, b in zip(va, vb))
        else:
            if key_average == "exact":
                if p.q ** p.m > _VIEW_DIM_CAP:
                    raise ValueError("prover view exceeds the "
                                     "exact-averaging cap")
                diff = [w for w, (da, db) in enumerate(zip(in_a, in_b))
                        if da != db] or [0]
                shape = qc.RegisterShape((p.q,) * p.m)
                per_block = []
                mixed_block = []
                mixed = _dm(np.eye(shape.dim) / shape.dim, shape)
                for w in diff:
                    va = _dm(_poly_block_view(int(in_a[w]), p), shape)
                    vb = _dm(_poly_block_view(int(in_b[w]), p), shape)
                    per_block.append(qc.trace_distance(va, vb))
                    mixed_block.append(qc.trace_distance(va, mixed))
                distances[f"pair{i}"] = tuple(per_block)
                distances[f"pair{i}-mixed"] = tuple(mixed_block)
            else:
                ha = _classical_view_histograms(circ_a, tuple(in_a), p,
                                                trials, rng)
                hb = _classical_view_histograms(circ_b, tuple(in_b), p,
                                                trials, rng)
                rounds = sorted({k[0] for k in ha} | {k[0] for k in hb})
                for rnd in rounds:
                    per_digit = []
                    keys = sorted(k for k in set(ha) | set(hb)
                                  if k[0] == rnd)
                    for k in keys:
                        if k not in ha or k not in hb:
                            per_digit.append(1.0)
                            continue
                        pa_hist = ha[k] / ha[k].sum()
                        pb_hist = hb[k] / hb[k].sum()
                        per_digit.append(
                            0.5 * float(np.sum(np.abs(pa_hist - pb_hist))))
                    distances[f"pair{i}-round{rnd}"] = tuple(per_digit)

    max_distance = max((max(v) for v in distances.values() if v),
                       default=0.0)
    return gate("the prover's views of paired instances are "
                "indistinguishable", 0.0, max_distance,
                (max_distance, max_distance),
                {"mode": mode, "key_average": key_average,
                 "distances": {k: list(v) for k, v in distances.items()},
                 "tolerance": tol,
                 "trials": trials if key_average == "sampled" else None},
                limit=tol, strict=True)


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
    op = pa.SymbolicPauli.identity(q, m)
    if prover.pauli_plan is None and prover.policy is None:
        return op  # honest
    if prover.pauli_plan is None:
        raise ValueError("confidence audits need honest or fixed-Pauli "
                         "provers: their acceptance set is analytic")
    for _, steps in sorted(prover.pauli_plan.items()):
        for b, p_op in steps:
            if b != 0:
                raise ValueError("the confidence audit is single-block")
            op = p_op.compose(op)
    return op


@lru_cache(maxsize=4)
def _c2_stack(m: int) -> np.ndarray:
    els = pa.enumerate_clifford(m)
    return np.stack([el.matrix.entries for el in els])


def _clifford_confidence(prover: qpip.ProverImpl, e: int, input_bit: int,
                         beta_floor: float) -> tuple[float, float]:
    """(beta, distance) of the exact key-group average."""
    if e != 1:
        raise ValueError("exact enumeration supports e = 1")
    m = 1 + e
    attack = _policy_block_pauli(prover, 2, m)
    p_mat = pa.pauli_matrix(attack).entries
    stack = _c2_stack(m)
    psi0 = np.zeros(2 ** m, dtype=np.complex128)
    psi0[qc.RegisterShape((2,) * m).digits_to_index(
        (input_bit,) + (0,) * e)] = 1.0
    conj = np.matmul(stack.conj().transpose(0, 2, 1),
                     np.matmul(p_mat, stack))
    vecs = conj @ psi0
    branches = vecs.reshape(-1, 2, 2 ** e)[:, :, 0]
    weights = np.sum(np.abs(branches) ** 2, axis=1)
    beta = float(np.mean(weights))
    if beta < beta_floor:
        raise ValueError(f"acceptance rate {beta:.4f} is below the "
                         f"floor {beta_floor}; the bound is vacuous")
    rho = np.einsum("ka,kb->ab", branches, branches.conj()) / len(stack)
    rho /= beta
    correct = np.zeros((2, 2), dtype=np.complex128)
    correct[input_bit, input_bit] = 1.0
    qubit = qc.RegisterShape((2,))
    dist = qc.trace_distance(_dm(rho, qubit), _dm(correct, qubit))
    return beta, dist


def _poly_confidence(prover: qpip.ProverImpl, p: pc.CodeParams,
                     input_digit: int,
                     beta_floor: float) -> tuple[float, float]:
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
    if beta < beta_floor:
        raise ValueError(f"acceptance rate {beta:.4f} is below the "
                         f"floor {beta_floor}; the bound is vacuous")
    cond = cond / accept_mass
    correct = np.zeros(q)
    correct[input_digit % q] = 1.0
    dist = float(0.5 * np.sum(np.abs(cond - correct)))
    return beta, dist


def confidence_audit(mode: str, prover: qpip.ProverImpl, *,
                     e: int = 1, code: pc.CodeParams | None = None,
                     input_digit: int = 0,
                     beta_floor: float = 0.05) -> AuditRecord:
    """Exact conditional post-acceptance state quality for Pauli provers.

    Clifford mode averages the whole key group and compares the
    accept-conditioned message state to the correct one against epsilon /
    beta.  Polynomial mode audits standard-basis-output instances: the
    accept-conditioned measured value distribution against 2 epsilon /
    beta.  Everything is computed by exact enumeration; the gate allows
    1e-6 of numerical slack.
    """
    if mode == "clifford":
        beta, dist = _clifford_confidence(prover, e, input_digit, beta_floor)
        eps = ca.CliffordQasParams(l=1, e=e).epsilon
        bound, scale = eps / beta, "epsilon"
    elif mode == "poly":
        p = code if code is not None else pc.CodeParams()
        beta, dist = _poly_confidence(prover, p, input_digit, beta_floor)
        eps = p.epsilon
        bound, scale = 2 * eps / beta, "2 epsilon"
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return gate(f"accept-conditioned distance <= {scale} / beta", eps,
                dist, (dist, dist),
                {"mode": mode, "policy": prover.name, "beta": beta,
                 "bound": bound, "slack": bound - dist,
                 "floor": beta_floor}, limit=bound + 1e-6)


# ----------------------------------------------------------- lemma suite


LEMMA_COVERAGE: tuple[str, ...] = (
    "logical-x",
    "logical-sum",
    "interpolation-weights",
    "logical-fourier",
    "logical-z",
    "decode-diagonalization",
    "clifford-decoherence",
    "pauli-decompose",
    "pauli-partitioning-by-cliffords",
    "pauli-twirl",
    "clifford-twirl",
    "completeness",
    "clifford-mixing",
    "pauli-mixing",
    "unitary-commutation",
    "pauli-decoherence",
    "sign-key-pauli-security",
    "correlated-x",
    "correlated-z",
    "pauli-criterion",
    "correlated-decomposition",
    "uncorrelated-action",
    "teleportation-outcome-uniformity",
)

_LEMMA_TOL = 1e-8


def _codespace_matrix(k: pc.SignKey, p: pc.CodeParams) -> np.ndarray:
    """Columns: the encoded basis states of one signed-code block."""
    return np.column_stack([pc.codeword_state(a, k, p).amplitudes
                            for a in range(p.q)])


def _apply_symbolic(vec: np.ndarray, op: pa.SymbolicPauli,
                    q: int, m: int) -> np.ndarray:
    """Apply a block Pauli to a dense q^m vector without building matrices."""
    grid = np.indices((q,) * m).reshape(m, -1)
    src = np.ravel_multi_index(tuple((grid - op.x[:, None]) % q), (q,) * m)
    phases = np.exp(2j * np.pi / q * (op.z @ ((grid - op.x[:, None]) % q)))
    return phases * vec[src]


def _check_logical_x(rng, cvec, p) -> float:
    res = 0.0
    for k in pc.all_sign_keys(p.m):
        for a in range(p.q):
            fp = pc.logical_x_footprint(1, k, p)
            got = _apply_symbolic(pc.codeword_state(a, k, p).amplitudes,
                                  fp, p.q, p.m)
            want = pc.codeword_state((a + 1) % p.q, k, p).amplitudes
            res = max(res, float(np.max(np.abs(got - want))))
    return res


def _check_logical_sum(rng, cvec, p) -> float:
    q = p.q
    sum1 = pc._sum_power(1, q)
    res = 0.0
    for k in pc.all_sign_keys(p.m):
        for a in range(q):
            for b in range(q):
                state = qc.tensor(pc.codeword_state(a, k, p),
                                  pc.codeword_state(b, k, p))
                for i in range(p.m):
                    state = qc.apply_on_wires(state, sum1, (i, p.m + i))
                want = qc.tensor(pc.codeword_state(a, k, p),
                                 pc.codeword_state((a + b) % q, k, p))
                res = max(res, float(np.max(np.abs(state.amplitudes
                                                   - want.amplitudes))))
    return res


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


def _check_logical_z(rng, cvec, p) -> float:
    q = p.q
    omega = np.exp(2j * np.pi / q)
    res = 0.0
    for k in pc.all_sign_keys(p.m):
        for a in range(q):
            fp = pc.logical_z_footprint(1, k, p)
            got = _apply_symbolic(pc.codeword_state(a, k, p).amplitudes,
                                  fp, q, p.m)
            want = omega ** a * pc.codeword_state(a, k, p).amplitudes
            res = max(res, float(np.max(np.abs(got - want))))
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
    stack = _c2_stack(2)
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


def _check_pauli_decompose(rng, cvec, p) -> float:
    from scipy.stats import unitary_group
    env = 2
    u = unitary_group.rvs(4 * env, random_state=rng)
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
    stack = _c2_stack(2)
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
    (d^2 - 1) with w the identity component of the attack.
    """
    from scipy.stats import unitary_group
    stack = _c2_stack(2)
    d = 4
    u = unitary_group.rvs(d, random_state=rng)
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
    avg = pa.group_conjugate_average(rho, "clifford", (0, 1))
    return float(np.max(np.abs(avg.entries - np.eye(4) / 4)))


def _check_pauli_mixing(rng, cvec, p) -> float:
    dim = p.q ** p.m
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    avg = _pad_average(np.outer(v, v.conj()), p.q, p.m)
    return float(np.max(np.abs(avg - np.eye(dim) / dim)))


def _check_unitary_commutation(rng, cvec, p) -> float:
    from scipy.stats import unitary_group
    u = qc.UnitaryMatrix(qc.RegisterShape((2, 2)),
                         unitary_group.rvs(4, random_state=rng),
                         check_unitary=False)
    a = qc.UnitaryMatrix(qc.RegisterShape((2,)),
                         unitary_group.rvs(2, random_state=rng),
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


def _check_correlated_x(rng, cvec, p) -> float:
    q = p.q
    res = 0.0
    for k in pc.all_sign_keys(p.m):
        kk = k.residues(q)
        for idx in range(q ** (p.d + 1)):
            coeffs = [(idx // q ** t) % q for t in range(p.d + 1)]
            fp = pa.SymbolicPauli(
                q, np.array([kk[i] * pc.poly_eval(coeffs, al, q) % q
                             for i, al in enumerate(p.alphas)]),
                np.zeros(p.m, dtype=np.int64))
            for a in range(q):
                got = _apply_symbolic(pc.codeword_state(a, k, p).amplitudes,
                                      fp, q, p.m)
                want = pc.codeword_state((a + coeffs[0]) % q, k,
                                         p).amplitudes
                res = max(res, float(np.max(np.abs(got - want))))
    return res


def _check_correlated_z(rng, cvec, p) -> float:
    q = p.q
    omega = np.exp(2j * np.pi / q)
    res = 0.0
    for k in pc.all_sign_keys(p.m):
        kk = k.residues(q)
        for idx in range(q ** (p.d + 1)):
            coeffs = [(idx // q ** t) % q for t in range(p.d + 1)]
            fp = pa.SymbolicPauli(
                q, np.zeros(p.m, dtype=np.int64),
                np.array([p.interp_c[i] * kk[i]
                          * pc.poly_eval(coeffs, al, q) % q
                          for i, al in enumerate(p.alphas)]))
            for a in range(q):
                got = _apply_symbolic(pc.codeword_state(a, k, p).amplitudes,
                                      fp, q, p.m)
                want = omega ** (coeffs[0] * a) \
                    * pc.codeword_state(a, k, p).amplitudes
                res = max(res, float(np.max(np.abs(got - want))))
    return res


def _check_pauli_criterion(rng, cvec, p) -> float:
    q, m = p.q, p.m
    mismatches = 0
    pair_total = 0
    sample = 0
    for k in pc.all_sign_keys(m):
        w = _codespace_matrix(k, p)
        xset, zset = pc._correlated_patterns(k.k, p)
        pair_total += len(xset) * len(zset) - 1
        for _ in range(60):
            x = rng.integers(0, q, size=m)
            z = rng.integers(0, q, size=m)
            if not x.any() and not z.any():
                continue
            op = pa.SymbolicPauli(q, x, z)
            predicted = pc.is_k_correlated(op, k, p)
            cols = np.column_stack([
                _apply_symbolic(w[:, a], op, q, m) for a in range(q)])
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


def _check_correlated_decomposition(rng, cvec, p) -> float:
    q, m = p.q, p.m
    bad = 0
    for k in pc.all_sign_keys(m):
        done = 0
        while done < 25:
            x = rng.integers(0, q, size=m)
            z = rng.integers(0, q, size=m)
            if not x.any() and not z.any():
                continue
            op = pa.SymbolicPauli(q, x, z)
            if pc.is_k_correlated(op, k, p):
                continue
            corr, left = pc.decompose_correlated(op, k, p)
            recomposed = left.compose(corr)
            if not (np.array_equal(recomposed.x % q, op.x % q)
                    and np.array_equal(recomposed.z % q, op.z % q)):
                bad += 1
            if not corr.is_identity() and not pc.is_k_correlated(corr, k, p):
                bad += 1
            if left.is_identity():
                bad += 1
            if any(left.x[:p.d + 1] % q) or left.z[0] % q or \
                    any(left.z[p.d + 1:] % q):
                bad += 1
            done += 1
    return float(bad)


def _check_uncorrelated_action(rng, cvec, p) -> float:
    q, m = p.q, p.m
    res = 0.0
    for k in pc.all_sign_keys(m):
        w = _codespace_matrix(k, p)
        done = 0
        while done < 25:
            x = rng.integers(0, q, size=m)
            z = rng.integers(0, q, size=m)
            if not x.any() and not z.any():
                continue
            op = pa.SymbolicPauli(q, x, z)
            if pc.is_k_correlated(op, k, p):
                continue
            cols = np.column_stack([
                _apply_symbolic(w[:, a], op, q, m) for a in range(q)])
            res = max(res, float(np.max(np.abs(w.conj().T @ cols))))
            done += 1
    return res


def _check_teleportation_uniformity(rng, cvec, p) -> float:
    q = p.q
    shape3 = qc.RegisterShape((q,) * 3)
    inp = (2, 3, 0)
    state = qc.tensor(qc.basis_state(shape3, inp), qpip.magic_state(q))
    for tag, blocks in qpip._entangling_layer((0, 1, 2), (3, 4, 5), q):
        state = qc.apply_on_wires(state, qpip._plain_logical_matrix(tag, q),
                                  blocks)
    probs = qc.measurement_probabilities(state, (0, 1, 2))
    res = float(np.max(np.abs(probs - 1.0 / q ** 3)))
    want = qc.apply_on_wires(qc.basis_state(shape3, inp),
                             pa.gate_matrix(pa.GateTag("T"), q), (0, 1, 2))
    for beta_idx in range(q ** 3):
        beta = shape3.index_to_digits(beta_idx)
        _, branch = qc.project_wires(state, (0, 1, 2), beta)
        for tag, blocks in qpip.toffoli_correction_tags(*beta, q):
            branch = qc.apply_on_wires(
                branch, qpip._plain_logical_matrix(tag, q),
                tuple(3 + b for b in blocks))
        vec = branch.amplitudes.reshape(q ** 3, q ** 3)[
            shape3.digits_to_index(beta)]
        vec = vec / np.linalg.norm(vec)
        res = max(res, float(abs(abs(np.vdot(want.amplitudes, vec)) - 1)))
    return res


_LEMMA_CHECKS: dict[str, Callable] = {
    "logical-x": _check_logical_x,
    "logical-sum": _check_logical_sum,
    "interpolation-weights": _check_interpolation_weights,
    "logical-fourier": _check_logical_fourier,
    "logical-z": _check_logical_z,
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
    "correlated-x": _check_correlated_x,
    "correlated-z": _check_correlated_z,
    "pauli-criterion": _check_pauli_criterion,
    "correlated-decomposition": _check_correlated_decomposition,
    "uncorrelated-action": _check_uncorrelated_action,
    "teleportation-outcome-uniformity": _check_teleportation_uniformity,
}


def lemma_suite(scope: str | Sequence[str] = "all",
                c_vector: Sequence[int] | None = None,
                seed: int = 0) -> AuditRecord:
    """Execute the named algebraic identities and record their residuals.

    The coverage list is static: every listed name must resolve to an
    implemented check, so a silently dropped identity fails the suite
    rather than disappearing.  c_vector deliberately corrupts the
    interpolation ingredient fed to the two checks that validate it (the
    weight identity and the transversal Fourier), leaving the remaining
    checks on the canonical parameters; this is the suite's own fault
    injection.  Each check draws from its own generator, seeded from the
    suite seed and its coverage index, so the recorded residuals depend
    only on the seed and the scope.  The claim is that every
    identity holds: each residual must stay below 1e-8, and a check that
    raises or is missing records an infinite residual.
    """
    if scope == "all":
        selected = LEMMA_COVERAGE
    elif isinstance(scope, str):
        selected = tuple(s.strip() for s in scope.split(",") if s.strip())
    else:
        selected = tuple(scope)
    unknown = [s for s in selected if s not in LEMMA_COVERAGE]
    if unknown:
        raise ValueError(f"unknown lemma names: {unknown}")
    extra = set(_LEMMA_CHECKS) - set(LEMMA_COVERAGE)
    if extra:
        raise RuntimeError(f"checks not in the coverage list: {extra}")
    p = pc.CodeParams()
    cvec = tuple(int(v) for v in c_vector) if c_vector is not None else None

    def run_one(name: str) -> dict:
        fn = _LEMMA_CHECKS.get(name)
        if fn is None:
            return {"name": name, "residual": math.inf,
                    "note": "listed but not implemented"}
        rng = qc.make_rng(seed * 1009 + LEMMA_COVERAGE.index(name))
        try:
            residual = float(fn(rng, cvec, p))
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
