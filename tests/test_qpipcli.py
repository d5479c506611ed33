"""CLI runs: subcommands at their defaults or small sizes, replayed exactly."""

import json

import numpy as np
import pytest

from qpiplab import polyauth as pq
from qpiplab import qcore as qc
from qpiplab import qpip
from qpiplab import qpipcli as cli


def run_and_replay(subcommand: str, seed: int = 3, **kwargs):
    """Run a config, rebuild its envelope from JSON, and re-run it."""
    cfg = cli.ExperimentConfig(subcommand=subcommand, **kwargs)
    envelope, code, _ = cli.run_config(cfg, seed)
    stored = cli.ReportEnvelope.from_json(envelope.to_json())
    fresh, _, _ = cli.run_config(cli.ExperimentConfig.from_dict(stored.config),
                                 stored.seed)
    assert fresh.canonical_payload() == stored.canonical_payload()
    return stored, code


@pytest.mark.parametrize("subcommand", ["qas-clifford", "qas-poly"])
@pytest.mark.parametrize("kwargs", [{}, {"key_average": "sampled",
                                         "trials": 40}])
def test_qas_subcommands_run_and_replay(subcommand, kwargs):
    envelope, code = run_and_replay(subcommand, **kwargs)
    assert code == 0
    assert envelope.payload["verdict"] == "pass"


def test_lemmas_replay_exactly():
    envelope, code = run_and_replay("lemmas")
    assert code == 0
    assert "elapsed" not in envelope.payload
    assert envelope.timings["audit_s"] > 0


PAULI_ON_CODE_BLOCK = 'pauli:{"1": [[0, [1, 0, 0], [0, 0, 0]]]}'


def test_qpip_poly_pauli_adversary_acts_on_code_wires():
    cfg = cli.ExperimentConfig(subcommand="qpip-poly",
                               circuit_name="poly-demo",
                               adversary=PAULI_ON_CODE_BLOCK)
    prover = cli.build_policy(cfg)
    ((_, op),) = prover.pauli_plan[1]
    assert op.q == cfg.q
    envelope, code = run_and_replay("qpip-poly", circuit_name="poly-demo",
                                    adversary=PAULI_ON_CODE_BLOCK, trials=20)
    assert code == 0
    assert envelope.payload["trials"] == 20


def test_qpip_poly_random_unitary_environment_matches_wires():
    cfg = cli.ExperimentConfig(subcommand="qpip-poly",
                               circuit_name="poly-demo",
                               adversary="random-unitary")
    assert cli.build_policy(cfg).env_dims == (cfg.q,)


def _first_draw(prover: qpip.ProverImpl, seed: int) -> np.ndarray:
    state = qc.basis_state(qc.RegisterShape((2, 2)), (0, 0))
    ctx = qpip.PolicyContext(phase="gate", round_index=1,
                             block_wires=((0,),), env_wires=(1,),
                             rng=qc.make_rng(seed))
    return prover.policy(state, ctx).amplitudes


def test_random_unitary_draws_follow_the_trial_generator():
    prover = qpip.random_unitary_prover((2,))
    a, b = (int(s) for s in np.random.SeedSequence(1).generate_state(2))
    draw_a = _first_draw(prover, a)
    assert not np.allclose(draw_a, _first_draw(prover, b))
    assert np.array_equal(draw_a, _first_draw(prover, a))
    assert np.array_equal(draw_a,
                          _first_draw(qpip.random_unitary_prover((2,)), a))


def test_qpip_poly_random_unitary_replays_exactly():
    envelope, code = run_and_replay("qpip-poly", circuit_name="poly-demo",
                                    adversary="random-unitary", trials=2)
    assert code == 0
    assert envelope.payload["per_policy"]["random-unitary"]["trials"] == 2


def test_envelope_without_timings_still_loads():
    envelope, _ = run_and_replay("qas-poly")
    data = json.loads(envelope.to_json())
    del data["timings"]
    old = cli.ReportEnvelope.from_json(json.dumps(data))
    assert old.canonical_payload() == envelope.canonical_payload()


def test_qpip_clifford_replays_exactly():
    envelope, code = run_and_replay("qpip-clifford",
                                    circuit_name="clifford-demo", trials=20)
    assert code == 0
    assert envelope.payload["trials"] == 20
    assert envelope.payload["verdict"] == "pass"


def test_scan_signkey_keeps_wall_clock_out_of_the_payload():
    envelope, code = run_and_replay("scan-signkey")
    assert code == 1  # the pinned finding: the mass exceeds the bound
    assert envelope.payload["max_mass"] == 0.5
    assert envelope.payload["verdict"] == "fail"
    assert "elapsed" not in envelope.payload
    assert envelope.timings["audit_s"] > 0


def test_blindness_replays_exactly():
    envelope, code = run_and_replay("blindness")
    assert code == 0
    assert envelope.payload["verdict"] == "pass"


def test_confidence_replays_exactly():
    envelope, code = run_and_replay("confidence")
    assert code == 0
    assert envelope.payload["estimate"] <= envelope.payload["bound"] + 1e-6


def test_zeno_demo_replays_exactly():
    envelope, code = run_and_replay("zeno-demo", e=2, n_per=5, trials=4)
    assert code == 0
    assert envelope.payload["trials"] == 4


def test_qpip_poly_logical_frame_runs_its_default_circuit():
    args = cli.build_parser().parse_args(
        ["qpip-poly", "--engine", "logical-frame"])
    assert cli.config_from_args(args).circuit_name == "poly-toffoli"
    envelope, code = run_and_replay("qpip-poly", circuit_name="poly-toffoli",
                                    engine="logical-frame", trials=20)
    assert code == 0
    assert envelope.payload["accept_rate"] == 1.0


# (subcommand, config, exit code, verdict) at small sizes; the exit codes
# and verdicts were recorded before the subcommands shared one audit
# record.  The negative control exits 0 on either verdict, and at this
# size its violation does not show.
SUBCOMMAND_OUTCOMES = [
    ("lemmas", {"scope": "logical-x"}, 0, "pass"),
    ("lemmas", {"scope": "interpolation-weights,logical-fourier",
                "c_vector": (4, 0, 2)}, 1, "fail"),
    ("qas-clifford", {"key_average": "sampled", "trials": 40}, 0, "pass"),
    ("qas-poly", {}, 0, "pass"),
    ("qas-poly", {"key_average": "sampled", "trials": 40}, 0, "pass"),
    ("scan-signkey", {}, 1, "fail"),
    ("qpip-clifford", {"circuit_name": "clifford-demo", "trials": 20},
     0, "pass"),
    ("qpip-poly", {"circuit_name": "poly-demo", "trials": 20}, 0, "pass"),
    ("blindness", {}, 0, "pass"),
    ("confidence", {}, 0, "pass"),
    ("zeno-demo", {"e": 2, "n_per": 5, "trials": 4}, 0, "pass"),
]


def test_outcome_table_covers_every_subcommand():
    assert {sub for sub, *_ in SUBCOMMAND_OUTCOMES} == set(cli.SUBCOMMANDS)


@pytest.mark.parametrize("subcommand, kwargs, code, verdict",
                         SUBCOMMAND_OUTCOMES)
def test_subcommand_exit_codes_and_verdicts(subcommand, kwargs, code,
                                            verdict):
    envelope, got = run_and_replay(subcommand, **kwargs)
    assert (got, envelope.payload["verdict"]) == (code, verdict)
    assert envelope.payload_kind == "audit-record"


def test_pinned_findings_fail_their_gates():
    # the round-1 Pauli x=(0,1,2) on block 0 beats the poly gate
    # 1/2^(m-1) = 0.25: wrong-accept 0.53, Wilson 0.461..0.598
    cfg = cli.ExperimentConfig(
        subcommand="qpip-poly", circuit_name="poly-demo", trials=200,
        adversary='pauli:{"1": [[0, [0, 1, 2], [0, 0, 0]]]}')
    envelope, code, _ = cli.run_config(cfg, 7)
    assert (code, envelope.payload["verdict"]) == (1, "fail")
    assert envelope.payload["estimate"] == 0.53
    assert envelope.payload["interval"][0] > envelope.payload["epsilon"]
    # measure-resend without the pad breaks the scheme
    p = cfg.code()
    unkeyed = pq.measure_resend_experiment(
        p, qc.basis_state(qc.RegisterShape((p.q,)), (0,)), keyed=False)
    assert unkeyed.verdict == "fail"
    # the reused-key negative control loses at the CLI defaults of
    # zeno-demo and still exits 0
    cfg = cli.ExperimentConfig(subcommand="zeno-demo", e=2, trials=200)
    envelope, code, summary = cli.run_config(cfg, 0)
    assert (code, envelope.payload["verdict"]) == (0, "fail")
    assert any("negative control" in line for line in summary)


# ----- golden payloads and the replay boundary

# Payloads of the protocol and confidence runs, recorded when provers were
# rebuilt per trial chunk; the config echo is left out (it then held jobs).
# The honest qpip-clifford payload was recorded when honest runs went
# through their own estimator.  Schema 3 renamed the gated value to
# `estimate` and its interval to `interval`; every number is as recorded.
_WRONG_ACCEPT = {"claim": "wrong-accept rate <= gamma + epsilon",
                 "epsilon": 0.5, "bound": 0.5, "verdict": "pass",
                 "seeds": [5765488047046174020], "trials": 40}
GOLDEN_CLI_PAYLOADS = {
    "qpip-clifford-honest": (
        {"subcommand": "qpip-clifford", "circuit_name": "clifford-demo",
         "trials": 40},
        {**_WRONG_ACCEPT, "abort_rate": 0.0, "accept_rate": 1.0,
         "per_policy": {"honest": {"abort": 0, "accept": 40,
                                   "trials": 40, "wrong_accept": 0}},
         "wilson_accept": [0.91237546075, 1.0],
         "interval": [0.0, 0.08762453925], "estimate": 0.0,
         "reason": "interval low end 0 <= limit 0.5"}),
    "qpip-clifford": (
        {"circuit_name": "clifford-demo", "trials": 40,
         "adversary": 'pauli:{"3": [[0, [1, 0], [0, 0]]]}'},
        {**_WRONG_ACCEPT, "abort_rate": 0.575, "accept_rate": 0.275,
         "per_policy": {"fixed-pauli": {"abort": 23, "accept": 11,
                                        "trials": 40, "wrong_accept": 6}},
         "wilson_accept": [0.161078534331, 0.428352508331],
         "interval": [0.070610917085, 0.29072626039], "estimate": 0.15,
         "reason": "interval low end 0.0706109 <= limit 0.5"}),
    "confidence": (
        {"adversary": 'pauli:{"0": [[0, [0, 1], [0, 0]]]}'},
        {"claim": "accept-conditioned distance <= epsilon / beta",
         "beta": 0.466666666667, "bound": 1.071428571429,
         "estimate": 0.571428571429,
         "interval": [0.571428571429, 0.571428571429], "epsilon": 0.5,
         "floor": 0.05, "mode": "clifford", "policy": "fixed-pauli",
         "slack": 0.5, "verdict": "pass",
         "reason": "value 0.571429 <= limit 1.07143"}),
}


@pytest.mark.parametrize("subcommand", sorted(GOLDEN_CLI_PAYLOADS))
def test_cli_payloads_match_golden_records(subcommand):
    kwargs, payload = GOLDEN_CLI_PAYLOADS[subcommand]
    kwargs = {"subcommand": subcommand, **kwargs}
    envelope, code, _ = cli.run_config(cli.ExperimentConfig(**kwargs), 7)
    assert code == 0
    assert envelope.payload == payload


def test_console_lemmas_run_and_replay(tmp_path):
    path = str(tmp_path / "lemmas.json")
    assert cli.main(["lemmas", "--scope", "logical-x",
                     "--output", path]) == 0
    assert cli.main(["replay", path]) == 0


def _stored_lemmas(tmp_path) -> tuple[str, dict]:
    path = tmp_path / "lemmas.json"
    assert cli.main(["lemmas", "--scope", "logical-x",
                     "--output", str(path)]) == 0
    return str(path), json.loads(path.read_text())


def test_replay_refuses_schema_1_envelopes(tmp_path, capsys):
    path, stored = _stored_lemmas(tmp_path)
    schema_1 = {**stored, "schema_version": 1,
                "config": {**stored["config"], "jobs": 1}}
    schema_2 = {**stored, "schema_version": 2}
    for data in (schema_1, schema_2):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        assert cli.main(["replay", path]) == 2
        assert "schema version mismatch" in capsys.readouterr().err


def test_replay_names_unknown_config_keys(tmp_path, capsys):
    path, data = _stored_lemmas(tmp_path)
    data["config"]["workers"] = 2
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    assert cli.main(["replay", path]) == 2
    assert "unknown config keys: ['workers']" in capsys.readouterr().err


@pytest.mark.parametrize("corrupt, message", [
    (lambda d: d.update(extra=1), "unexpected keyword argument 'extra'"),
    (lambda d: d.pop("seed"), "missing 1 required positional argument"),
    (lambda d: d["config"].pop("subcommand"), "config has no subcommand"),
])
def test_replay_rejects_malformed_envelopes(tmp_path, capsys, corrupt,
                                           message):
    path, data = _stored_lemmas(tmp_path)
    corrupt(data)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    assert cli.main(["replay", path]) == 2
    assert message in capsys.readouterr().err


def test_jobs_option_is_gone():
    with pytest.raises(SystemExit) as exc:
        cli.main(["lemmas", "--jobs", "2"])
    assert exc.value.code == 2
