"""Command-line laboratory: every experiment as a reproducible subcommand.

One experiment = one config + one seed.  Each run emits a schema-versioned
report envelope whose payload depends only on those two inputs, so any
report can be replayed bit-for-bit from its own echo.  Human-readable
summaries go to standard output; the machine-readable JSON goes to the
report file.

Every subcommand builds the inputs of one audit, and every audit returns
one `audit.AuditRecord` (claim, epsilon, estimate, interval, verdict,
reason and the audit's own numbers) judged by the one gate `audit.gate`;
in schema 3 that record is the payload.  `run_config` formats the summary
from the record and sets the exit code: 0 on "pass", 1 on "fail".  The
reused-key Zeno negative control, expected to fail, exits 0 on either
verdict: at small sizes its violation need not show.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import audit
from . import cliffauth as ca
from . import pcalg as pa
from . import polyauth as pq
from . import polycode as pc
from . import qcore as qc
from . import qpip

ARTIFACT_VERSION = "qpiplab-report"
SCHEMA_VERSION = 3
SEED_ENV_VAR = "QPIPLAB_SEED"
DEFAULT_REPORT_PATH = "qpiplab-report.json"

SUBCOMMANDS = ("lemmas", "qas-clifford", "qas-poly", "scan-signkey",
               "qpip-clifford", "qpip-poly", "blindness", "confidence",
               "zeno-demo")

_LOGICAL_NAMES = ("LX", "LZ", "LSUM", "LCPG", "LF", "LM")


# --------------------------------------------------------- circuit codec


def circuit_from_obj(obj: dict) -> qpip.CircuitIR:
    gates = []
    for g in obj["gates"]:
        name, param = g["tag"], int(g.get("param", 0))
        if name in _LOGICAL_NAMES:
            op = pc.LogicalGateTag(name, param)
        else:
            op = pa.GateTag(name, param)
        gates.append(qpip.CircuitGate(op, tuple(int(w) for w in g["wires"])))
    return qpip.CircuitIR(int(obj["n"]), int(obj["wire_dim"]),
                          tuple(gates), gamma=float(obj.get("gamma", 0.0)))


_BUILTIN_CIRCUITS = {
    "clifford-demo": lambda cfg: (audit.clifford_demo_circuit(), (1, 0)),
    "clifford-cnot": lambda cfg: (qpip.CircuitIR(
        2, 2, (qpip.CircuitGate(pa.GateTag("CNOT"), (0, 1)),)), (1, 1)),
    "poly-demo": lambda cfg: (audit.poly_demo_circuit(cfg.q), (3,)),
    "poly-toffoli": lambda cfg: (audit.toffoli_demo_circuit(cfg.q),
                                 (2, 3, 0)),
    "zeno": lambda cfg: (audit.zeno_demo_circuit(cfg.e, cfg.n_per), (1,)),
}


# ------------------------------------------------------------ the config


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines a run, minus the seed and I/O paths."""

    subcommand: str
    e: int = 1
    q: int = 5
    d: int = 1
    alphas: tuple[int, ...] = (1, 2, 3)
    circuit_name: str | None = None
    circuit_json: str | None = None
    inputs: tuple[int, ...] | None = None
    adversary: str = "honest"
    trials: int = 10_000
    engine: str = "dense"
    broken_variant: bool = False
    key_average: str = "exact"
    mode: str | None = None
    input_digit: int = 0
    scope: str = "all"
    c_vector: tuple[int, ...] | None = None
    n_per: int = 40
    phi: float = 0.45

    def __post_init__(self):
        if self.subcommand not in SUBCOMMANDS:
            raise ValueError(f"unknown subcommand {self.subcommand!r}")
        if self.e < 1 or self.q < 2 or self.d < 1:
            raise ValueError("e, q, d must be positive protocol parameters")
        if self.trials < 1 or self.n_per < 1:
            raise ValueError("trials and n_per must be positive")
        if self.engine not in ("dense", "logical-frame"):
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.key_average not in ("exact", "sampled"):
            raise ValueError(f"unknown key average {self.key_average!r}")
        if self.mode not in (None, "clifford", "poly"):
            raise ValueError(f"unknown protocol mode {self.mode!r}")
        if self.circuit_name is not None and \
                self.circuit_name not in _BUILTIN_CIRCUITS:
            raise ValueError(f"unknown circuit name {self.circuit_name!r}")
        if self.circuit_json is not None:
            circuit_from_obj(json.loads(self.circuit_json))

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        for key in ("alphas", "inputs", "c_vector"):
            if out[key] is not None:
                out[key] = list(out[key])
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = sorted(set(data) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        if "subcommand" not in data:
            raise ValueError("config has no subcommand")
        kwargs = dict(data)
        for key in ("alphas", "inputs", "c_vector"):
            if kwargs.get(key) is not None:
                kwargs[key] = tuple(int(v) for v in kwargs[key])
        return cls(**kwargs)

    def code(self) -> pc.CodeParams:
        return pc.CodeParams(q=self.q, d=self.d, alphas=self.alphas)

    def resolve_circuit(self) -> tuple[qpip.CircuitIR, tuple[int, ...]]:
        """The circuit and input this config delegates."""
        if self.circuit_json is not None:
            circ = circuit_from_obj(json.loads(self.circuit_json))
            if self.inputs is None:
                raise ValueError("inline circuits need explicit inputs")
            return circ, self.inputs
        name = self.circuit_name
        if name is None:
            raise ValueError("no circuit specified")
        circ, default_inputs = _BUILTIN_CIRCUITS[name](self)
        return circ, self.inputs if self.inputs is not None \
            else default_inputs


def _wire_dim(cfg: ExperimentConfig) -> int:
    """Wire dimension the adversary acts on: the delegated circuit's for
    the protocol subcommands, else the audit mode's."""
    if cfg.subcommand in ("qpip-clifford", "qpip-poly"):
        return cfg.resolve_circuit()[0].wire_dim
    return cfg.q if cfg.mode == "poly" else 2


def build_policy(cfg: ExperimentConfig) -> qpip.ProverImpl:
    """Translate an adversary spec string into a prover."""
    spec = cfg.adversary
    if spec == "honest":
        return qpip.honest_prover()
    if spec == "zeno":
        return qpip.zeno_prover(e=cfg.e, n_per=cfg.n_per, phi=cfg.phi)
    if spec == "random-unitary":
        return qpip.random_unitary_prover((_wire_dim(cfg),))
    if spec.startswith("misreport:"):
        return qpip.scripted_prover(
            [], misreport_round=int(spec.split(":", 1)[1]))
    if spec.startswith("pauli:"):
        wire_dim = _wire_dim(cfg)
        raw = json.loads(spec.split(":", 1)[1])
        plan = {}
        for rnd, steps in raw.items():
            plan[int(rnd)] = [
                (int(block), pa.SymbolicPauli(wire_dim, xs, zs))
                for block, xs, zs in steps]
        return qpip.fixed_pauli_prover(plan)
    raise ValueError(f"unknown adversary spec {spec!r}")


# ---------------------------------------------------------- the envelope


@dataclass(frozen=True)
class ReportEnvelope:
    """Versioned wrapper every subcommand emits.

    The canonical payload (config echo, seed, result) is a pure function
    of config and seed; wall time and per-phase timings ride outside it.
    """

    artifact_version: str
    schema_version: int
    config: dict
    seed: int
    wall_time: float
    payload_kind: str
    payload: dict
    timings: dict = dataclasses.field(default_factory=dict)

    def canonical_payload(self) -> str:
        body = {"config": self.config, "seed": self.seed,
                "payload_kind": self.payload_kind, "payload": self.payload}
        return json.dumps(body, sort_keys=True, separators=(",", ":"))

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True,
                          indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ReportEnvelope":
        data = json.loads(text)
        if data.get("artifact_version") != ARTIFACT_VERSION:
            raise ValueError(
                f"artifact version mismatch: {data.get('artifact_version')!r}"
                f" is not {ARTIFACT_VERSION!r}")
        if data.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(
                f"schema version mismatch: {data.get('schema_version')!r}"
                f" is not {SCHEMA_VERSION}")
        try:
            return cls(**data)
        except TypeError as exc:  # a missing or an unknown field
            raise ValueError(f"malformed report envelope: {exc}") from None


def _round_floats(obj, places: int = 12):
    """Stabilize payload floats so replays compare bit-for-bit."""
    if isinstance(obj, float):
        return round(obj, places)
    if isinstance(obj, dict):
        return {k: _round_floats(v, places) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, places) for v in obj]
    return obj


# ------------------------------------------------------------ subcommands


def _random_state(dim: int, rng: np.random.Generator) -> qc.StateVector:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    return qc.StateVector(qc.RegisterShape((dim,)), v)


def _random_unitary_on(dims: tuple[int, ...],
                       rng: np.random.Generator) -> qc.UnitaryMatrix:
    from scipy.stats import unitary_group
    dim = int(np.prod(dims))
    return qc.UnitaryMatrix(qc.RegisterShape(dims),
                            unitary_group.rvs(dim, random_state=rng),
                            check_unitary=False)


# The attacks of the qas subcommands also act on one environment qubit.
_ENV_QUBIT = qc.basis_state(qc.RegisterShape((2,)), (0,))


def _run_qas_clifford(cfg: ExperimentConfig,
                      seed: int) -> audit.AuditRecord:
    rng = qc.make_rng(seed)
    psi = _random_state(2, rng)
    attack = _random_unitary_on((2,) * (1 + cfg.e) + (2,), rng)
    return ca.cqas_security_experiment(
        ca.CliffordQasParams(l=1, e=cfg.e), psi, attack, _ENV_QUBIT,
        mode=cfg.key_average, rng=rng, trials=cfg.trials)


def _run_qas_poly(cfg: ExperimentConfig, seed: int) -> audit.AuditRecord:
    rng = qc.make_rng(seed)
    p = cfg.code()
    psi = _random_state(p.q, rng)
    attack = _random_unitary_on((p.q,) * p.m + (2,), rng)
    return pq.pqas_security_experiment(p, psi, attack, _ENV_QUBIT,
                                       mode=cfg.key_average, rng=rng,
                                       trials=cfg.trials)


def _run_qpip(cfg: ExperimentConfig, seed: int) -> audit.AuditRecord:
    circ, inputs = cfg.resolve_circuit()
    protocol = audit.ProtocolConfig(
        mode="poly" if cfg.subcommand == "qpip-poly" else "clifford",
        circuit=circ, inputs=inputs, e=cfg.e, code=cfg.code(),
        engine=cfg.engine, broken_variant=cfg.broken_variant)
    return audit.estimate_soundness(protocol, build_policy(cfg), cfg.trials,
                                    qc.make_rng(seed))


def _run_blindness(cfg: ExperimentConfig, seed: int) -> audit.AuditRecord:
    mode = cfg.mode or "clifford"
    if mode == "clifford":
        circ_a, circ_b = (qpip.CircuitIR(1, 2, (qpip.CircuitGate(
            pa.GateTag(tag), (0,)),)) for tag in ("H", "K"))
        pairs = [((circ_a, (0,)), (circ_b, (1,)))]
    elif cfg.key_average == "exact":
        pairs = [((None, (0,)), (None, (3,)))]
    else:
        tof = audit.toffoli_demo_circuit(cfg.q)
        pairs = [((tof, (2, 3, 0)), (tof, (1, 4, 2)))]
    return audit.blindness_audit(mode, pairs, key_average=cfg.key_average,
                                 rng=qc.make_rng(seed), trials=cfg.trials,
                                 e=cfg.e, code=cfg.code())


_RUNNERS = {
    "lemmas": lambda cfg, seed: audit.lemma_suite(
        scope=cfg.scope, c_vector=cfg.c_vector, seed=seed),
    "qas-clifford": _run_qas_clifford,
    "qas-poly": _run_qas_poly,
    "scan-signkey": lambda cfg, seed: pq.sign_key_security_scan(cfg.code()),
    "qpip-clifford": _run_qpip,
    "qpip-poly": _run_qpip,
    "blindness": _run_blindness,
    "confidence": lambda cfg, seed: audit.confidence_audit(
        cfg.mode or "clifford", build_policy(cfg), e=cfg.e, code=cfg.code(),
        input_digit=cfg.input_digit),
    "zeno-demo": lambda cfg, seed: _run_qpip(dataclasses.replace(
        cfg, adversary="zeno", broken_variant=True, circuit_name="zeno",
        circuit_json=None), seed),
}


def _summary_and_code(cfg: ExperimentConfig,
                      rec: audit.AuditRecord) -> tuple[list[str], int]:
    """The human-readable summary of a record and the run's exit code."""
    lo, hi = rec.interval
    summary = [f"claim: {rec.claim}",
               f"estimate {rec.estimate:.6g}, interval {lo:.6g}..{hi:.6g}, "
               f"epsilon {rec.epsilon:.6g}",
               ", ".join(f"{k} {v:.6g}" for k, v in rec.detail.items()
                         if type(v) in (int, float)),
               f"verdict: {rec.verdict} ({rec.reason})"]
    control = cfg.subcommand == "zeno-demo" or \
        (cfg.broken_variant and cfg.adversary == "zeno")
    if control:
        summary.append("negative control: the reused-key variant is "
                       "expected to fail; the run exits 0 either way")
    return summary, 0 if control or rec.verdict == "pass" else 1


def run_config(cfg: ExperimentConfig,
               seed: int) -> tuple[ReportEnvelope, int, list[str]]:
    """Execute one config and wrap its audit record in an envelope."""
    start = time.monotonic()
    rec = _RUNNERS[cfg.subcommand](cfg, seed)
    audit_s = time.monotonic() - start
    envelope = ReportEnvelope(
        artifact_version=ARTIFACT_VERSION, schema_version=SCHEMA_VERSION,
        config=cfg.to_dict(), seed=seed,
        wall_time=time.monotonic() - start, payload_kind="audit-record",
        payload=_round_floats(rec.to_dict()), timings={"audit_s": audit_s})
    summary, code = _summary_and_code(cfg, rec)
    return envelope, code, summary


# -------------------------------------------------------------- the CLI


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--seed", type=int, default=None,
                    help=f"run seed (default: ${SEED_ENV_VAR} or 0)")
    sp.add_argument("--output", default=None,
                    help=f"report path (default {DEFAULT_REPORT_PATH})")
    sp.add_argument("--trials", type=int, default=10_000)


def _int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip() != "")


def _add_code(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--q", type=int, default=5)
    sp.add_argument("--d", type=int, default=1)
    sp.add_argument("--alphas", type=_int_tuple, default=(1, 2, 3))


def _add_key_average(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--key-average", choices=("exact", "sampled"),
                    default="exact")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpiplab",
        description="Interactive-proof laboratory for authenticated "
                    "delegated quantum computation.")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sp = subs.add_parser("lemmas", help="run the algebraic identity suite")
    _add_common(sp)
    sp.add_argument("--scope", default="all")
    sp.add_argument("--c-vector", type=_int_tuple, default=None,
                    help="deliberately corrupted interpolation weights")

    sp = subs.add_parser("qas-clifford",
                         help="Clifford authentication security experiment")
    _add_common(sp)
    sp.add_argument("--e", type=int, default=1)
    _add_key_average(sp)

    sp = subs.add_parser("qas-poly",
                         help="signed-code authentication security "
                              "experiment")
    _add_common(sp)
    _add_code(sp)
    _add_key_average(sp)

    sp = subs.add_parser("scan-signkey",
                         help="exhaustive sign-key security scan")
    _add_common(sp)
    _add_code(sp)

    for name in ("qpip-clifford", "qpip-poly"):
        sp = subs.add_parser(name, help=f"run the {name} protocol")
        _add_common(sp)
        sp.add_argument("--circuit", default=None, dest="circuit_name",
                        choices=sorted(_BUILTIN_CIRCUITS))
        sp.add_argument("--circuit-json", default=None,
                        help="inline circuit description")
        sp.add_argument("--circuit-file", default=None,
                        help="path to a circuit description file")
        sp.add_argument("--inputs", type=_int_tuple, default=None)
        sp.add_argument("--adversary", default="honest")
        if name == "qpip-clifford":
            sp.add_argument("--e", type=int, default=1)
            sp.add_argument("--broken-variant", action="store_true")
            sp.add_argument("--n-per", type=int, default=40)
            sp.add_argument("--phi", type=float, default=0.45)
        else:
            _add_code(sp)
            sp.add_argument("--engine",
                            choices=("dense", "logical-frame"),
                            default="dense")

    sp = subs.add_parser("blindness", help="prover-view blindness audit")
    _add_common(sp)
    sp.add_argument("--mode", choices=("clifford", "poly"),
                    default="clifford")
    _add_key_average(sp)
    sp.add_argument("--e", type=int, default=1)
    _add_code(sp)

    sp = subs.add_parser("confidence",
                         help="post-acceptance conditional state audit")
    _add_common(sp)
    sp.add_argument("--mode", choices=("clifford", "poly"),
                    default="clifford")
    sp.add_argument("--adversary", default="honest")
    sp.add_argument("--input-digit", type=int, default=0)
    sp.add_argument("--e", type=int, default=1)
    _add_code(sp)

    sp = subs.add_parser("zeno-demo",
                         help="accumulated-rotation negative control "
                              "against the reused-key protocol variant")
    _add_common(sp)
    sp.set_defaults(trials=200)
    sp.add_argument("--e", type=int, default=2)
    sp.add_argument("--n-per", type=int, default=40)
    sp.add_argument("--phi", type=float, default=0.45)

    sp = subs.add_parser("replay",
                         help="re-run a report and compare its numerics")
    sp.add_argument("report", help="path to a report envelope")

    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    kwargs = {}
    for key, value in vars(args).items():
        if key in fields and value is not None:
            kwargs[key] = value
    circuit_file = getattr(args, "circuit_file", None)
    if circuit_file is not None:
        with open(circuit_file, encoding="utf-8") as fh:
            obj = json.load(fh)
        kwargs["circuit_json"] = json.dumps(obj, sort_keys=True,
                                            separators=(",", ":"))
    if kwargs.get("circuit_name") is None and \
            kwargs.get("circuit_json") is None:
        if args.subcommand == "qpip-clifford":
            kwargs["circuit_name"] = "zeno" \
                if getattr(args, "adversary", "") == "zeno" \
                else "clifford-demo"
        elif args.subcommand == "qpip-poly":
            kwargs["circuit_name"] = "poly-toffoli" \
                if getattr(args, "engine", "dense") == "logical-frame" \
                else "poly-demo"
    return ExperimentConfig(**kwargs)


def resolve_seed(explicit: int | None) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get(SEED_ENV_VAR)
    return int(env) if env else 0


def _replay(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        envelope = ReportEnvelope.from_json(fh.read())
    cfg = ExperimentConfig.from_dict(envelope.config)
    fresh, _, _ = run_config(cfg, envelope.seed)
    if fresh.canonical_payload() == envelope.canonical_payload():
        print("replay matches: identical numerics")
        return 0
    print("replay MISMATCH: numerics differ from the stored report")
    return 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.subcommand == "replay":
            return _replay(args.report)
        cfg = config_from_args(args)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    seed = resolve_seed(args.seed)
    envelope, code, summary = run_config(cfg, seed)
    out_path = args.output or DEFAULT_REPORT_PATH
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(envelope.to_json())
        fh.write("\n")
    print(f"[{cfg.subcommand}] seed {seed}")
    for line in summary:
        print("  " + line)
    print(f"report written to {out_path}")
    return code


if __name__ == "__main__":
    sys.exit(main())
