"""CLI runs: subcommands at their defaults or small sizes, replayed exactly."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

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


# each scheme at its defaults, then at a second size: five Clifford
# qubits (no key group enumerated) and the q = 7 code
@pytest.mark.parametrize("subcommand", ["qas-clifford", "qas-poly"])
@pytest.mark.parametrize("kwargs", [{}, {"qas-clifford": {"e": 4},
                                         "qas-poly": {"q": 7}}])
def test_qas_subcommands_run_and_replay(subcommand, kwargs):
    envelope, code = run_and_replay(subcommand, **kwargs.get(subcommand, {}))
    assert code == 0
    assert envelope.payload["verdict"] == "pass"


def test_lemmas_replay_exactly():
    envelope, code = run_and_replay("lemmas")
    assert code == 0
    assert "elapsed" not in envelope.payload
    assert envelope.timings["audit_s"] > 0


_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
from qpiplab import qpipcli
out = sys.argv[1]
for argv in (["lemmas"], ["qas-clifford"], ["qas-poly"]):
    assert qpipcli.main(argv + ["--output", out]) == 0, argv
    assert qpipcli.main(["replay", out]) == 0, argv
"""


def test_haar_draws_need_no_scipy(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path / "r.json")],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


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
    amps = qc.basis_state(qc.RegisterShape((2, 2)), (0, 0)).amplitudes
    ctx = qpip.PolicyContext(round_index=1, dims=(2, 2),
                             block_wires=((0,),), env_wires=(1,),
                             rng=qc.make_rng(seed))
    return prover.policy(amps, ctx)


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
    ("qas-clifford", {"e": 2}, 0, "pass"),
    ("qas-poly", {}, 0, "pass"),
    ("qas-poly", {"q": 7}, 0, "pass"),
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
    # 1/2^(m-1) = 0.25: wrong-accept 0.45, Wilson 0.383..0.519; the
    # estimate was re-recorded when trial j moved to the j-th child
    # stream of the master seed (0.53 under the 16-chunk split)
    cfg = cli.ExperimentConfig(
        subcommand="qpip-poly", circuit_name="poly-demo", trials=200,
        adversary='pauli:{"1": [[0, [0, 1, 2], [0, 0, 0]]]}')
    envelope, code, _ = cli.run_config(cfg, 7)
    assert (code, envelope.payload["verdict"]) == (1, "fail")
    assert envelope.payload["estimate"] == 0.45
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


# ----- one table for the flags and defaults

# The option strings of every subcommand after -h, --help, --seed and
# --output, recorded when each subparser was built by hand; --trials is
# kept only where a run reads it (qas-clifford draws no keys), and
# blindness lost --key-average.
_CODE = ["--q", "--d", "--alphas"]
_CIRCUIT = ["--circuit", "--circuit-json", "--circuit-file", "--inputs",
            "--adversary"]
SUBCOMMAND_OPTIONS = {
    "lemmas": ["--scope", "--c-vector"],
    "qas-clifford": ["--e"],
    "qas-poly": _CODE,
    "scan-signkey": _CODE,
    "qpip-clifford": ["--trials"] + _CIRCUIT + ["--e", "--broken-variant",
                                                "--n-per", "--phi"],
    "qpip-poly": ["--trials"] + _CIRCUIT + _CODE + ["--engine"],
    "blindness": ["--mode", "--e"] + _CODE,
    "confidence": ["--mode", "--adversary", "--input-digit", "--e"] + _CODE,
    "zeno-demo": ["--trials", "--e", "--n-per", "--phi"],
}


def test_subcommand_option_strings_are_kept():
    (subs,) = [a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)]
    got = {name: [s for a in sp._actions for s in a.option_strings]
           for name, sp in subs.choices.items()}
    common = ["-h", "--help", "--seed", "--output"]
    assert got == {**{name: common + extra
                      for name, extra in SUBCOMMAND_OPTIONS.items()},
                   "replay": ["-h", "--help"]}


# The config echo of every subcommand at its CLI defaults, recorded when
# the defaults were declared in the parser: the generic values, and where
# a subcommand differs from them.
_GENERIC_ECHO = {
    "e": 1, "q": 5, "d": 1, "alphas": [1, 2, 3], "circuit_name": None,
    "circuit_json": None, "inputs": None, "adversary": "honest",
    "trials": 10000, "engine": "dense", "broken_variant": False,
    "key_average": "exact", "mode": None, "input_digit": 0, "scope": "all",
    "c_vector": None, "n_per": 40, "phi": 0.45}
_ECHO_DIFFERENCES = {
    "qpip-clifford": {"circuit_name": "clifford-demo"},
    "qpip-poly": {"circuit_name": "poly-demo"},
    "blindness": {"mode": "clifford"},
    "confidence": {"mode": "clifford"},
    "zeno-demo": {"e": 2, "trials": 200},
}


@pytest.mark.parametrize("subcommand", cli.SUBCOMMANDS)
def test_python_and_cli_configs_agree_at_defaults(subcommand):
    parsed = cli.config_from_args(cli.build_parser().parse_args([subcommand]))
    assert parsed.to_dict() == {"subcommand": subcommand, **_GENERIC_ECHO,
                                **_ECHO_DIFFERENCES.get(subcommand, {})}
    assert cli.ExperimentConfig(subcommand=subcommand).to_dict() == \
        parsed.to_dict()


@pytest.mark.parametrize("argv, circuit", [
    (["qpip-clifford", "--adversary", "zeno"], "zeno"),
    (["qpip-clifford", "--circuit-json", '{"n": 1, "wire_dim": 2, '
      '"gates": []}', "--inputs", "0"], None),
    (["qpip-poly", "--circuit", "poly-demo", "--engine", "logical-frame"],
     "poly-demo"),
])
def test_protocol_default_circuit_follows_the_other_flags(argv, circuit):
    args = cli.build_parser().parse_args(argv)
    assert cli.config_from_args(args).circuit_name == circuit


# ----- golden payloads and the replay boundary

# Payloads of the protocol and confidence runs, recorded when provers were
# rebuilt per trial chunk; the config echo is left out (it then held jobs).
# The honest qpip-clifford payload was recorded when honest runs went
# through their own estimator.  Schema 3 renamed the gated value to
# `estimate` and its interval to `interval`; every number is as recorded.
# Pins counts, verdicts and seeds, not rounding.
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
        # re-recorded when trial j moved to the j-th child stream of the
        # master seed (was 11/6/23, estimate 0.15, under the 16-chunk split)
        {**_WRONG_ACCEPT, "abort_rate": 0.5, "accept_rate": 0.225,
         "per_policy": {"fixed-pauli": {"abort": 20, "accept": 9,
                                        "trials": 40, "wrong_accept": 11}},
         "wilson_accept": [0.123159532547, 0.375033964041],
         "interval": [0.161078534331, 0.428352508331], "estimate": 0.275,
         "reason": "interval low end 0.161079 <= limit 0.5"}),
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


def test_fields_a_subcommand_has_no_flag_for_keep_their_defaults(tmp_path,
                                                                 capsys):
    """A value the run would ignore is refused, so a report of a removed
    mode (sampled qas-poly keys) is not replayed as a mismatch."""
    with pytest.raises(ValueError, match="qas-poly takes no key_average"):
        cli.ExperimentConfig(subcommand="qas-poly", key_average="sampled")
    with pytest.raises(ValueError, match="zeno-demo takes no adversary"):
        cli.ExperimentConfig(subcommand="zeno-demo", adversary="zeno")
    with pytest.raises(ValueError, match="lemmas takes no trials"):
        cli.ExperimentConfig(subcommand="lemmas", trials=5)
    with pytest.raises(ValueError, match="qas-clifford takes no trials"):
        cli.ExperimentConfig(subcommand="qas-clifford", trials=5)
    # a mode never reads these: the Clifford audits no code, the qudit
    # ones no auxiliary count
    for sub, kwargs, message in (
            ("blindness", {"q": 7}, "blindness in clifford mode takes no q"),
            ("blindness", {"mode": "poly", "e": 2},
             "blindness in poly mode takes no e"),
            ("confidence", {"q": 7},
             "confidence in clifford mode takes no q"),
            ("confidence", {"mode": "poly", "e": 2},
             "confidence in poly mode takes no e")):
        with pytest.raises(ValueError, match=message):
            cli.ExperimentConfig(subcommand=sub, **kwargs)
    assert cli.ExperimentConfig(subcommand="qas-poly", key_average="exact") \
        == cli.ExperimentConfig(subcommand="qas-poly")
    path = tmp_path / "qas.json"
    assert cli.main(["qas-poly", "--output", str(path)]) == 0
    data = json.loads(path.read_text())
    data["config"]["key_average"] = "sampled"
    path.write_text(json.dumps(data))
    assert cli.main(["replay", str(path)]) == 2
    assert "qas-poly takes no key_average" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv", [
    ["blindness", "--e", "2"],
    ["confidence", "--e", "2"],
    ["blindness", "--q", "7"],
    ["qpip-clifford", "--e", "3"],
    ["scan-signkey", "--q", "7", "--d", "2", "--alphas", "1,2,3,4,5"],
    # the qudit engines cannot honour a misreporting prover
    ["qpip-poly", "--adversary", "misreport:1", "--trials", "2"],
    # a Pauli plan naming a block the run does not hold (a negative id
    # included), a round it never runs, or another block size
    *(["qpip-poly", "--engine", "logical-frame", "--trials", "20",
       "--adversary", "pauli:" + plan]
      for plan in ('{"1": [[99, [1, 0, 0], [0, 0, 0]]]}',
                   '{"9": [[0, [1, 0, 0], [0, 0, 0]]]}',
                   '{"1": [[-1, [1, 0, 0], [0, 0, 0]]]}',
                   '{"1": [[0, [1, 0], [0, 0]]]}')),
    ["qpip-poly", "--trials", "2",
     "--adversary", 'pauli:{"1": [[1, [1, 0, 0], [0, 0, 0]]]}'],
    ["qpip-clifford", "--trials", "2",
     "--adversary", 'pauli:{"12": [[0, [1, 0], [0, 0]]]}'],
    # a misreport in a round the run never reaches would never fire
    ["qpip-clifford", "--adversary", "misreport:99", "--trials", "20"],
    ["qpip-clifford", "--adversary", "misreport:0", "--trials", "20"],
    # blocks whose attack draw alone would take gigabytes
    ["qas-poly", "--q", "7", "--d", "2", "--alphas", "1,2,3,4,5"],
    ["qas-clifford", "--e", "12"],
])
def test_refused_runs_exit_2_without_a_traceback(tmp_path, capsys,
                                                 monkeypatch, argv):
    """A size the library refuses is a run error, not a failing verdict,
    and a QAS block is refused before its attack is drawn."""
    def no_draw(*args):
        raise AssertionError("drew an attack for a refused run")

    monkeypatch.setattr(qc, "haar_unitary", no_draw)
    path = tmp_path / "r.json"
    assert cli.main(argv + ["--output", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not path.exists()


@pytest.mark.parametrize("argv", [
    ["lemmas", "--jobs", "2"],
    ["blindness", "--key-average", "sampled"],
    ["lemmas", "--trials", "5"],
    ["qas-clifford", "--trials", "5"],
])
def test_removed_options_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


def test_qas_clifford_runs_and_replays_at_three_auxiliaries(tmp_path):
    """The worst attack needs no key group, so e = 3 runs and passes."""
    path = str(tmp_path / "q3.json")
    assert cli.main(["qas-clifford", "--e", "3", "--output", path]) == 0
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)["payload"]
    assert payload["verdict"] == "pass"
    assert payload["estimate"] == round(16 / 255, 12)
    assert cli.main(["replay", path]) == 0


def test_a_sampled_blindness_report_is_refused(tmp_path, capsys):
    """The sampled poly blindness mode is gone: its report does not replay
    as a mismatch but is refused."""
    path = tmp_path / "blind.json"
    assert cli.main(["blindness", "--mode", "poly",
                     "--output", str(path)]) == 0
    data = json.loads(path.read_text())
    data["config"]["key_average"] = "sampled"
    path.write_text(json.dumps(data))
    assert cli.main(["replay", str(path)]) == 2
    assert "blindness takes no key_average" in capsys.readouterr().err
