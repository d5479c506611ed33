"""The four workloads, driven through qpiplab's public entry points.

Protocol workloads build an `audit.ProtocolConfig` and run batches through
`audit.estimate_completeness` / `audit.estimate_soundness`, one protocol
trial per operation.  The audit workload runs CLI subcommands through
`qpipcli.run_config` and replays each envelope, one subcommand run per
operation.  Inputs derive from the workload seed only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import checks
from qpiplab import audit, pcalg, polycode, qcore, qpip, qpipcli


@dataclass
class Outcome:
    """What one batch (or the end-of-run checks) found."""

    ops: int = 0
    failed: int = 0
    mismatches: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Outcome") -> None:
        self.ops += other.ops
        self.failed += other.failed
        self.mismatches += other.mismatches
        self.problems.extend(other.problems)


class ProtocolWorkload:
    """Alternating honest and adversarial trial batches on one instance."""

    def __init__(self, config: audit.ProtocolConfig, provers, seed: int):
        self.config = config
        self.provers = provers  # (role, policy, trials per batch)
        self.rng = qcore.make_rng(seed)
        self.totals: dict[str, list[int]] = {}
        engine = "run_clifford_qpip" if config.mode == "clifford" \
            else "run_poly_qpip"
        self.op_targets = [(qpip, engine)]

    @property
    def batch_ops(self) -> int:
        return sum(trials for _, _, trials in self.provers)

    def tables(self) -> None:
        """Nothing to precompute: e=2 keys use the transvection sampler."""

    def warmup(self) -> Outcome:
        out = self.batch()
        out.add(self.finish())
        return out

    def batch_count(self, seconds: float) -> None:
        """Trials cost about the same, so batches run until time is up."""

    def batch(self) -> Outcome:
        out = Outcome()
        for role, policy, trials in self.provers:
            if role == checks.HONEST:
                rep = audit.estimate_completeness(self.config, trials,
                                                  self.rng)
            else:
                rep = audit.estimate_soundness(self.config, policy, trials,
                                               self.rng)
            report = rep.to_dict()
            failed, problems = checks.protocol_batch(role, report)
            out.add(Outcome(ops=trials, failed=failed, problems=problems))
            (name, counts), = report["per_policy"].items()
            total = self.totals.setdefault(name, [role, 0, 0])
            total[1] += counts["trials"]
            total[2] += counts["wrong_accept"]
        return out

    def finish(self) -> Outcome:
        """Soundness gates, judged on every trial of the run together."""
        out = Outcome()
        for name, (role, trials, wrong) in self.totals.items():
            if role == checks.GATED:
                problems = checks.soundness_gate(name, trials, wrong,
                                                 self.config.bound)
                if problems:
                    out.add(Outcome(failed=trials, problems=problems))
        self.totals.clear()
        return out


AUDIT_RUNS = (
    ("lemmas", {"scope": "all"}),
    ("blindness", {"mode": "clifford", "key_average": "exact"}),
    ("blindness", {"mode": "poly", "key_average": "exact"}),
    ("confidence", {"mode": "clifford"}),
    ("confidence", {"mode": "poly"}),
    ("scan-signkey", {}),
)


class AuditWorkload:
    """Lemma suite, blindness, confidence and the sign-key scan, replayed.

    A pass runs the lemma suite at two seeds and every other subcommand
    once, each followed by its replay: 14 operations whose costs span
    300x.  The pass count is fixed by the run length, not by the clock,
    so every run times the same mix and its percentiles stay comparable;
    with two lemma seeds the median falls inside the clifford-blindness
    runs and the tail inside the poly-blindness runs.  Two passes at
    least give the 21 operations the tail needs.
    """

    PASS_SECONDS = 10  # a pass takes 7-8 s on a 2-core machine

    def __init__(self, seed: int):
        self.seeds = np.random.SeedSequence(seed)
        self.op_targets = [(qpipcli, "run_config")]
        self.batch_ops = 2 * (len(AUDIT_RUNS) + 1)

    def tables(self) -> None:
        pcalg.enumerate_clifford(1)
        pcalg.enumerate_clifford(2)

    def warmup(self) -> Outcome:
        """One run of each subcommand fills the lazy group stacks."""
        out = Outcome()
        for sub, kwargs in AUDIT_RUNS:
            cfg = qpipcli.ExperimentConfig(subcommand=sub, **kwargs)
            envelope, code, _ = qpipcli.run_config(cfg, self._next_seed())
            problems = checks.audit_result(sub, code, envelope.payload)
            out.add(Outcome(ops=1, failed=int(bool(problems)),
                            problems=problems))
        return out

    def _next_seed(self) -> int:
        return int(self.seeds.spawn(1)[0].generate_state(1)[0])

    def batch_count(self, seconds: float) -> int:
        return max(2, round(seconds / self.PASS_SECONDS))

    def batch(self) -> Outcome:
        out = Outcome()
        for i, (sub, kwargs) in enumerate(AUDIT_RUNS):
            for _ in range(2 if i == 0 else 1):
                out.add(self._run_and_replay(sub, kwargs,
                                             self._next_seed()))
        return out

    @staticmethod
    def _run_and_replay(sub: str, kwargs: dict, seed: int) -> Outcome:
        cfg = qpipcli.ExperimentConfig(subcommand=sub, **kwargs)
        envelope, code, _ = qpipcli.run_config(cfg, seed)
        problems = checks.audit_result(sub, code, envelope.payload)
        stored = qpipcli.ReportEnvelope.from_json(envelope.to_json())
        fresh, _, _ = qpipcli.run_config(
            qpipcli.ExperimentConfig.from_dict(stored.config), stored.seed)
        mismatch, replay_problems = checks.replay(
            sub, stored.canonical_payload(), fresh.canonical_payload())
        return Outcome(ops=2, failed=bool(problems) + bool(replay_problems),
                       mismatches=int(mismatch),
                       problems=problems + replay_problems)

    def finish(self) -> Outcome:
        return Outcome()


def _clifford_e2(seed: int) -> ProtocolWorkload:
    config = audit.ProtocolConfig(mode="clifford",
                                  circuit=audit.clifford_demo_circuit(),
                                  inputs=(1, 0), e=2)
    x_on_data = pcalg.SymbolicPauli(2, (1, 0, 0), (0, 0, 0))
    pauli = audit.AdversaryPolicy.fixed_pauli({3: [(0, x_on_data)]})
    return ProtocolWorkload(config, [
        (checks.HONEST, audit.AdversaryPolicy.honest(), 8),
        (checks.GATED, pauli, 8)], seed)


def _zeno_e2(seed: int) -> ProtocolWorkload:
    # The zeno-demo subcommand's instance: reused keys, per-round checks.
    config = audit.ProtocolConfig(mode="clifford",
                                  circuit=audit.zeno_demo_circuit(2, 40),
                                  inputs=(1,), e=2, broken_variant=True)
    zeno = audit.AdversaryPolicy.zeno_demo(e=2, n_per=40, phi=0.45)
    return ProtocolWorkload(config, [
        (checks.HONEST, audit.AdversaryPolicy.honest(), 1),
        (checks.NEGATIVE_CONTROL, zeno, 1)], seed)


def _frames_toffoli2(seed: int) -> ProtocolWorkload:
    toffoli = qpip.CircuitGate(pcalg.GateTag("T"), (0, 1, 2))
    config = audit.ProtocolConfig(
        mode="poly", circuit=qpip.CircuitIR(3, 5, (toffoli, toffoli)),
        inputs=(2, 3, 0), code=polycode.CodeParams(q=5, d=1),
        engine="logical-frame", output_wires=(2,))
    x_coord0 = pcalg.SymbolicPauli(5, (1, 0, 0), (0, 0, 0))
    pauli = audit.AdversaryPolicy.fixed_pauli({1: [(0, x_coord0)]})
    return ProtocolWorkload(config, [
        (checks.HONEST, audit.AdversaryPolicy.honest(), 1),
        (checks.ALWAYS_ABORT, pauli, 1)], seed)


FACTORIES = {
    "clifford-e2": _clifford_e2,
    "zeno-e2": _zeno_e2,
    "frames-toffoli2": _frames_toffoli2,
    "audit-suite": AuditWorkload,
}


def amount_functions() -> dict:
    """Per-call amounts the tracer sums: amplitudes, rounds, elements."""

    def register_dim(args, kwargs, result):
        state = args[0] if args else kwargs["state"]
        return state.shape.dim

    def rounds(args, kwargs, result):
        return result.rounds

    return {
        "qcore.apply_on_wires": register_dim,
        "qcore.measure_wires": register_dim,
        "qcore.tensor": lambda args, kwargs, result: result.shape.dim,
        "qpip.run_clifford_qpip": rounds,
        "qpip.run_poly_qpip": rounds,
        "pcalg.enumerate_clifford": lambda args, kwargs, result: len(result),
    }
