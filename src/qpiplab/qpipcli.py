"""Command-line laboratory: every experiment as a reproducible subcommand.

One experiment = one config + one seed.  Each run emits a schema-versioned
report envelope whose payload depends only on those two inputs, so any
report can be replayed bit-for-bit from its own echo.  Human-readable
summaries go to standard output; the machine-readable JSON goes to the
report file.

Every subcommand is one row of `_SUBCOMMANDS`: its runner, its help line,
its flags (named by `ExperimentConfig` field) and the few defaults in
which it differs from the fields' generic defaults.  The parser is built
from that table and declares no default of its own: a flag left off is
None, and `ExperimentConfig` fills every None field from the row, else
from the generic default declared beside the field.  A config built in
Python and one parsed from the command line are therefore the same.

Every runner builds the inputs of one audit, and every audit returns
one `audit.AuditRecord` (claim, epsilon, estimate, interval, verdict,
reason and the audit's own numbers) judged by the one gate `audit.gate`;
in schema 3 that record is the payload.  `run_config` formats the summary
from the record and sets the exit code: 0 on "pass", 1 on "fail".  The
reused-key Zeno negative control, expected to fail, exits 0 on either
verdict: at small sizes its violation need not show.  A run the library
refuses with a ValueError (say, a size no engine supports) exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

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

ENGINES = ("dense", "logical-frame")
MODES = ("clifford", "poly")

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


def _default(value):
    """A config field whose None means its subcommand's default, else this."""
    return dataclasses.field(default=None, metadata={"default": value})


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines a run, minus the seed and I/O paths.

    A field left at None takes its subcommand's default from the row in
    `_SUBCOMMANDS`, else the generic default declared beside it; so does
    the delegated circuit of the protocol subcommands, which depends on
    the adversary (qpip-clifford) or the engine (qpip-poly).  A field the
    subcommand has no flag for, or that its mode never reads, must keep
    that default: the run would ignore any other value, so such a config
    is refused.  No subcommand has a flag for `key_average`: it stays in
    the echo at "exact", so reports of the removed sampled modes are
    refused, not replayed.
    """

    subcommand: str
    e: int = _default(1)
    q: int = _default(5)
    d: int = _default(1)
    alphas: tuple[int, ...] = _default((1, 2, 3))
    circuit_name: str | None = None
    circuit_json: str | None = None
    inputs: tuple[int, ...] | None = None
    adversary: str = _default("honest")
    trials: int = _default(10_000)
    engine: str = _default("dense")
    broken_variant: bool = _default(False)
    key_average: str = _default("exact")
    mode: str | None = None
    input_digit: int = _default(0)
    scope: str = _default("all")
    c_vector: tuple[int, ...] | None = None
    n_per: int = _default(40)
    phi: float = _default(0.45)

    def __post_init__(self):
        if self.subcommand not in _SUBCOMMANDS:
            raise ValueError(f"unknown subcommand {self.subcommand!r}")
        row = _SUBCOMMANDS[self.subcommand]
        mode = row.defaults.get("mode") if self.mode is None else self.mode
        unread = row.unread.get(mode, ())
        taken = {"subcommand", *_COMMON, *row.flags} - set(unread)
        for f in dataclasses.fields(self):
            default = row.defaults.get(f.name, f.metadata.get("default"))
            value = getattr(self, f.name)
            if value is None:
                object.__setattr__(self, f.name, default)
            elif f.name not in taken and value != default:
                where = f" in {mode} mode" if f.name in unread else ""
                raise ValueError(f"{self.subcommand}{where} takes no "
                                 f"{f.name}; it keeps its default "
                                 f"{default!r}")
        if callable(self.circuit_name):  # a protocol's default circuit
            object.__setattr__(self, "circuit_name", None if
                               self.circuit_json is not None
                               else self.circuit_name(self))
        if self.e < 1 or self.q < 2 or self.d < 1:
            raise ValueError("e, q, d must be positive protocol parameters")
        if self.trials < 1 or self.n_per < 1:
            raise ValueError("trials and n_per must be positive")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.mode not in (None, *MODES):
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
        for key, want in (("artifact_version", ARTIFACT_VERSION),
                          ("schema_version", SCHEMA_VERSION)):
            if data.get(key) != want:
                raise ValueError(f"{key.replace('_', ' ')} mismatch: "
                                 f"{data.get(key)!r} is not {want!r}")
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


_ENV_QUBIT = qc.basis_state(qc.RegisterShape((2,)), (0,))


def _run_qas(cfg: ExperimentConfig, seed: int) -> audit.AuditRecord:
    """A scheme's security experiment on a random one-wire input and a
    random attack on its block plus one environment qubit.  qas-clifford
    gates the worst attack and reports the drawn one beside it; qas-poly
    gates the drawn one.  A block whose attack exceeds the Haar cap is
    refused before anything is drawn."""
    clifford = cfg.subcommand == "qas-clifford"
    params = ca.CliffordQasParams(l=1, e=cfg.e) if clifford else cfg.code()
    dims = params.shape().dims
    dim = 2 * int(np.prod(dims))
    if dim > qc._HAAR_DIM_CAP:
        raise ValueError(f"an attack on the block and one environment "
                         f"qubit has dimension {dim}, above the Haar cap "
                         f"{qc._HAAR_DIM_CAP}")
    rng = qc.make_rng(seed)
    v = rng.normal(size=dims[0]) + 1j * rng.normal(size=dims[0])
    psi = qc.StateVector(qc.RegisterShape(dims[:1]), v / np.linalg.norm(v))
    attack = qc.UnitaryMatrix(qc.RegisterShape(dims + (2,)),
                              qc.haar_unitary(dim, rng), check_unitary=False)
    run = ca.cqas_security_experiment if clifford else \
        pq.pqas_security_experiment
    return run(params, psi, attack, _ENV_QUBIT)


def _run_qpip(cfg: ExperimentConfig, seed: int) -> audit.AuditRecord:
    circ, inputs = cfg.resolve_circuit()
    protocol = audit.ProtocolConfig(
        mode="poly" if cfg.subcommand == "qpip-poly" else "clifford",
        circuit=circ, inputs=inputs, e=cfg.e, code=cfg.code(),
        engine=cfg.engine, broken_variant=cfg.broken_variant)
    return audit.estimate_soundness(protocol, build_policy(cfg), cfg.trials,
                                    qc.make_rng(seed))


def _run_blindness(cfg: ExperimentConfig, seed: int) -> audit.AuditRecord:
    if cfg.mode == "clifford":
        circ_a, circ_b = (qpip.CircuitIR(1, 2, (qpip.CircuitGate(
            pa.GateTag(tag), (0,)),)) for tag in ("H", "K"))
        pairs = [((circ_a, (0,)), (circ_b, (1,)))]
    else:
        pairs = [((None, (0,)), (None, (3,)))]
    return audit.blindness_audit(cfg.mode, pairs, e=cfg.e, code=cfg.code())


def _int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip() != "")


# flag name -> argparse keywords; the option string is the name with
# dashes unless `option` says otherwise, and the destination is the name
_FLAGS = {
    **dict.fromkeys(("trials", "e", "q", "d", "n_per", "input_digit"),
                    {"type": int}),
    **dict.fromkeys(("alphas", "inputs"), {"type": _int_tuple}),
    "phi": {"type": float},
    "seed": {"type": int,
             "help": f"run seed (default: ${SEED_ENV_VAR} or 0)"},
    "output": {"help": f"report path (default {DEFAULT_REPORT_PATH})"},
    "c_vector": {"type": _int_tuple,
                 "help": "deliberately corrupted interpolation weights"},
    "circuit_name": {"option": "--circuit",
                     "choices": sorted(_BUILTIN_CIRCUITS)},
    "circuit_json": {"help": "inline circuit description"},
    "circuit_file": {"help": "path to a circuit description file"},
    "broken_variant": {"action": "store_const", "const": True},
    "engine": {"choices": ENGINES},
    "mode": {"choices": MODES},
}

_COMMON = ("seed", "output")
_CODE = ("q", "d", "alphas")
_CIRCUIT = ("circuit_name", "circuit_json", "circuit_file", "inputs",
            "adversary")


class _Subcommand(NamedTuple):
    run: Callable[[ExperimentConfig, int], audit.AuditRecord]
    help: str
    flags: tuple[str, ...]
    defaults: dict = {}
    unread: dict = {}  # mode -> the flags a run in that mode never reads


# the Clifford audits read no code, the qudit ones no auxiliary count
_UNREAD_BY_MODE = {"clifford": _CODE, "poly": ("e",)}


_SUBCOMMANDS = {
    "lemmas": _Subcommand(
        lambda cfg, seed: audit.lemma_suite(
            scope=cfg.scope, c_vector=cfg.c_vector, seed=seed),
        "run the algebraic identity suite", ("scope", "c_vector")),
    "qas-clifford": _Subcommand(
        _run_qas, "Clifford authentication security experiment", ("e",)),
    "qas-poly": _Subcommand(
        _run_qas, "signed-code authentication security experiment", _CODE),
    "scan-signkey": _Subcommand(
        lambda cfg, seed: pq.sign_key_security_scan(cfg.code()),
        "exhaustive sign-key security scan", _CODE),
    "qpip-clifford": _Subcommand(
        _run_qpip, "run the qpip-clifford protocol",
        ("trials",) + _CIRCUIT + ("e", "broken_variant", "n_per", "phi"),
        {"circuit_name": lambda cfg: "zeno" if cfg.adversary == "zeno"
         else "clifford-demo"}),
    "qpip-poly": _Subcommand(
        _run_qpip, "run the qpip-poly protocol",
        ("trials",) + _CIRCUIT + _CODE + ("engine",),
        {"circuit_name": lambda cfg: "poly-toffoli"
         if cfg.engine == "logical-frame" else "poly-demo"}),
    "blindness": _Subcommand(
        _run_blindness, "prover-view blindness audit",
        ("mode", "e") + _CODE, {"mode": "clifford"}, _UNREAD_BY_MODE),
    "confidence": _Subcommand(
        lambda cfg, seed: audit.confidence_audit(
            cfg.mode, build_policy(cfg), e=cfg.e, code=cfg.code(),
            input_digit=cfg.input_digit),
        "post-acceptance conditional state audit",
        ("mode", "adversary", "input_digit", "e") + _CODE,
        {"mode": "clifford"}, _UNREAD_BY_MODE),
    "zeno-demo": _Subcommand(
        lambda cfg, seed: _run_qpip(ExperimentConfig(
            "qpip-clifford", e=cfg.e, trials=cfg.trials, adversary="zeno",
            broken_variant=True, n_per=cfg.n_per, phi=cfg.phi), seed),
        "accumulated-rotation negative control against the reused-key "
        "protocol variant", ("trials", "e", "n_per", "phi"),
        {"e": 2, "trials": 200}),
}

SUBCOMMANDS = tuple(_SUBCOMMANDS)


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
    rec = _SUBCOMMANDS[cfg.subcommand].run(cfg, seed)
    audit_s = time.monotonic() - start
    envelope = ReportEnvelope(
        artifact_version=ARTIFACT_VERSION, schema_version=SCHEMA_VERSION,
        config=cfg.to_dict(), seed=seed,
        wall_time=time.monotonic() - start, payload_kind="audit-record",
        payload=_round_floats(rec.to_dict()), timings={"audit_s": audit_s})
    summary, code = _summary_and_code(cfg, rec)
    return envelope, code, summary


# -------------------------------------------------------------- the CLI


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpiplab",
        description="Interactive-proof laboratory for authenticated "
                    "delegated quantum computation.")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, row in _SUBCOMMANDS.items():
        sp = subs.add_parser(name, help=row.help)
        for flag in _COMMON + row.flags:
            kwargs = dict(_FLAGS.get(flag, {}))
            option = kwargs.pop("option", "--" + flag.replace("_", "-"))
            sp.add_argument(option, dest=flag, **kwargs)
    sp = subs.add_parser("replay",
                         help="re-run a report and compare its numerics")
    sp.add_argument("report", help="path to a report envelope")
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    kwargs = {k: v for k, v in vars(args).items() if k in fields}
    if getattr(args, "circuit_file", None) is not None:
        with open(args.circuit_file, encoding="utf-8") as fh:
            kwargs["circuit_json"] = json.dumps(
                json.load(fh), sort_keys=True, separators=(",", ":"))
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
        seed = resolve_seed(args.seed)
        envelope, code, summary = run_config(cfg, seed)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
