"""Tests for provers, protocol audits, and the lemma suite."""

import dataclasses
import json
import math

import numpy as np
import pytest

import qpiplab.audit as audit
import qpiplab.pcalg as pa
import qpiplab.polycode as pc
import qpiplab.qcore as qc
import qpiplab.qpip as qpip


def one_qubit_circuit(tag_name: str) -> qpip.CircuitIR:
    return qpip.CircuitIR(1, 2, (qpip.CircuitGate(pa.GateTag(tag_name),
                                                  (0,)),))


# ----- provers


def test_prover_factories_build_named_provers():
    x_data = pa.SymbolicPauli(2, [1, 0], [0, 0])
    provers = {
        "honest": qpip.honest_prover(),
        "fixed-pauli": qpip.fixed_pauli_prover({0: [(0, x_data)]}),
        "px": qpip.fixed_pauli_prover({0: [(0, x_data)]}, name="px"),
        "random-unitary": qpip.random_unitary_prover((2,)),
        "scripted": qpip.scripted_prover([], misreport_round=2),
        "zeno-demo": qpip.zeno_prover(e=1, n_per=10),
    }
    for name, prover in provers.items():
        assert isinstance(prover, qpip.ProverImpl)
        assert prover.name == name
    assert provers["random-unitary"].env_dims == (2,)
    assert provers["scripted"].misreport_round == 2
    # the benchmark's names reach the same factories
    assert audit.AdversaryPolicy.honest is qpip.honest_prover
    assert audit.AdversaryPolicy.fixed_pauli is qpip.fixed_pauli_prover
    assert audit.AdversaryPolicy.random_unitary is qpip.random_unitary_prover
    assert audit.AdversaryPolicy.scripted is qpip.scripted_prover
    assert audit.AdversaryPolicy.zeno_demo is qpip.zeno_prover


def test_policy_context_exposes_no_verifier_secrets():
    fields = {f.name for f in dataclasses.fields(qpip.PolicyContext)}
    assert fields == {"phase", "round_index", "block_wires", "env_wires",
                      "rng"}


def test_zeno_circuit_shape():
    circ = audit.zeno_demo_circuit(1, n_per=4)
    assert circ.n == 1 and circ.wire_dim == 2
    assert len(circ.gates) == 15 * 4 - 1
    for gate in circ.gates:
        assert isinstance(gate.op, qc.UnitaryMatrix)
        assert np.allclose(gate.op.entries, np.eye(2))


def test_zeno_policy_applies_small_rotations():
    prover = qpip.zeno_prover(e=1, n_per=10, phi=0.3)
    shape = qc.RegisterShape((2, 2))
    state = qc.basis_state(shape, (0, 0))
    ctx = qpip.PolicyContext(phase="send", round_index=1,
                             block_wires=((0, 1),), env_wires=(),
                             rng=qc.make_rng(0))
    out = prover.policy(state, ctx)
    overlap = abs(np.vdot(state.amplitudes, out.amplitudes))
    assert math.cos(0.03) - 1e-12 <= overlap <= 1.0


# ----- protocol configs and reports


def test_protocol_config_validation():
    circ = audit.clifford_demo_circuit()
    with pytest.raises(ValueError, match="mode"):
        audit.ProtocolConfig(mode="teleport", circuit=circ, inputs=(0, 0))
    with pytest.raises(ValueError, match="disagree"):
        audit.ProtocolConfig(mode="poly", circuit=circ, inputs=(0, 0))


def test_protocol_config_reference_and_bounds():
    cfg = audit.ProtocolConfig(mode="clifford",
                               circuit=audit.clifford_demo_circuit(),
                               inputs=(1, 0))
    assert cfg.reference() == (1,)
    assert cfg.epsilon == 0.5 and cfg.bound == 0.5
    biased = audit.ProtocolConfig(mode="clifford",
                                  circuit=audit.biased_clifford_circuit(0.3),
                                  inputs=(0,))
    assert biased.reference() is None
    assert biased.bound == pytest.approx(0.8)
    poly = audit.ProtocolConfig(mode="poly",
                                circuit=audit.poly_demo_circuit(),
                                inputs=(3,))
    assert poly.reference() == (0,)
    assert poly.epsilon == 0.25


def test_wilson_interval_basics():
    lo, hi = audit.wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert audit.wilson_interval(0, 0) == (0.0, 1.0)
    lo0, hi0 = audit.wilson_interval(0, 40)
    assert lo0 == 0.0 and hi0 < 0.15


def test_gate_compares_the_interval_low_end_with_the_limit():
    rec = audit.gate("rate <= epsilon", 0.25, 0.3, (0.2, 0.4), {"n": 7})
    assert rec.verdict == "pass"
    assert rec.reason == "interval low end 0.2 <= limit 0.25"
    assert rec.to_dict() == {"claim": "rate <= epsilon", "epsilon": 0.25,
                             "estimate": 0.3, "interval": [0.2, 0.4],
                             "verdict": "pass", "reason": rec.reason,
                             "n": 7}
    assert audit.gate("c", 0.25, 0.3, (0.3, 0.3), {}).verdict == "fail"
    at_limit = audit.gate("c", 0.0, 0.5, (0.5, 0.5), {}, limit=0.5)
    assert at_limit.verdict == "pass"
    strict = audit.gate("c", 0.0, 0.5, (0.5, 0.5), {}, limit=0.5,
                        strict=True)
    assert strict.verdict == "fail"
    assert strict.reason == "value 0.5 >= limit 0.5"
    assert audit.gate("c", 0.5, math.nan, (math.nan, math.nan),
                      {}).verdict == "fail"


def test_report_dict_is_json_ready():
    cfg = audit.ProtocolConfig(mode="clifford",
                               circuit=one_qubit_circuit("H"), inputs=(0,))
    rep = audit.estimate_completeness(cfg, 30, qc.make_rng(2))
    blob = json.dumps(rep.to_dict())
    assert "wilson_accept" in blob


# ----- completeness estimation


def test_completeness_deterministic_circuit_is_exact():
    cfg = audit.ProtocolConfig(mode="clifford",
                               circuit=audit.clifford_demo_circuit(),
                               inputs=(1, 0))
    rep = audit.estimate_completeness(cfg, 120, qc.make_rng(5))
    assert rep.detail["accept_rate"] == 1.0
    assert rep.estimate == 0.0
    assert rep.detail["abort_rate"] == 0.0
    assert rep.verdict == "pass"


def test_completeness_tracks_circuit_bias():
    cfg = audit.ProtocolConfig(mode="clifford",
                               circuit=audit.biased_clifford_circuit(0.2),
                               inputs=(0,), target=(1,))
    rep = audit.estimate_completeness(cfg, 2500, qc.make_rng(7))
    sigma = math.sqrt(0.2 * 0.8 / 2500)
    assert abs(rep.detail["accept_rate"] - 0.8) < 3 * sigma + 1e-9
    assert rep.detail["wilson_accept"][0] < 0.8 < \
        rep.detail["wilson_accept"][1]


def test_completeness_poly_engine_is_exact():
    cfg = audit.ProtocolConfig(mode="poly",
                               circuit=audit.poly_demo_circuit(),
                               inputs=(3,))
    rep = audit.estimate_completeness(cfg, 80, qc.make_rng(3))
    assert rep.detail["accept_rate"] == 1.0
    assert rep.detail["abort_rate"] == 0.0


# ----- soundness estimation


def test_soundness_fixed_pauli_matches_exact_rates():
    circ = qpip.CircuitIR(2, 2, (qpip.CircuitGate(pa.GateTag("CNOT"),
                                                  (0, 1)),))
    cfg = audit.ProtocolConfig(mode="clifford", circuit=circ,
                               inputs=(1, 1))
    attack = qpip.fixed_pauli_prover(
        {2: [(0, pa.SymbolicPauli(2, [1, 0], [0, 0]))]}, name="x-data")
    rep = audit.estimate_soundness(cfg, attack, 900, qc.make_rng(21))
    sigma_w = math.sqrt((4 / 15) * (11 / 15) / 900)
    sigma_a = math.sqrt((8 / 15) * (7 / 15) / 900)
    assert abs(rep.estimate - 4 / 15) < 4 * sigma_w
    assert abs(rep.detail["abort_rate"] - 8 / 15) < 4 * sigma_a
    assert rep.epsilon == rep.detail["bound"] == 0.5
    assert rep.interval == audit.wilson_interval(
        rep.detail["per_policy"]["x-data"]["wrong_accept"], 900)


def test_soundness_breaks_down_per_policy():
    cfg = audit.ProtocolConfig(mode="clifford",
                               circuit=one_qubit_circuit("H"), inputs=(0,))
    pols = [qpip.honest_prover(), qpip.random_unitary_prover((2,))]
    rep = audit.estimate_soundness(cfg, pols, 60, qc.make_rng(4))
    assert set(rep.detail["per_policy"]) == {"honest", "random-unitary"}
    assert rep.detail["trials"] == 120
    assert rep.detail["per_policy"]["honest"]["abort"] == 0
    assert len(rep.detail["seeds"]) == 2


def test_zeno_policy_runs_against_broken_variant():
    circ = audit.zeno_demo_circuit(1, n_per=6)
    cfg = audit.ProtocolConfig(mode="clifford", circuit=circ, inputs=(1,),
                               e=1, broken_variant=True)
    pol = qpip.zeno_prover(e=1, n_per=6, phi=0.45)
    rep = audit.estimate_soundness(cfg, pol, 40, qc.make_rng(17))
    counts = rep.detail["per_policy"]["zeno-demo"]
    assert counts["trials"] == 40
    assert counts["accept"] + counts["wrong_accept"] + counts["abort"] == 40


# ----- golden trial records

X_DATA = pa.SymbolicPauli(2, [1, 0], [0, 0])
CLIFFORD_DEMO = audit.ProtocolConfig(mode="clifford",
                                     circuit=audit.clifford_demo_circuit(),
                                     inputs=(1, 0), e=1)
ZENO_BROKEN = audit.ProtocolConfig(mode="clifford",
                                   circuit=audit.zeno_demo_circuit(1, n_per=6),
                                   inputs=(1,), e=1, broken_variant=True)

# Counts and master seeds of the trial runner at fixed seeds, recorded
# when each prover was rebuilt per trial chunk: (config, prover or None
# for completeness, trials, rng seed, per-policy counts, seeds).  The
# stateless provers must reproduce them.
GOLDEN_TRIAL_RECORDS = {
    "honest-poly-dense": (
        lambda: audit.ProtocolConfig(mode="poly",
                                     circuit=audit.poly_demo_circuit(),
                                     inputs=(3,)),
        None, 40, 101,
        {"honest": {"trials": 40, "accept": 40, "wrong_accept": 0,
                    "abort": 0}},
        (8702551328111905720,)),
    "fixed-pauli-clifford": (
        lambda: CLIFFORD_DEMO,
        lambda: qpip.fixed_pauli_prover({3: [(0, X_DATA)]}), 48, 102,
        {"fixed-pauli": {"trials": 48, "accept": 10, "wrong_accept": 11,
                         "abort": 27}},
        (1475657852977072745,)),
    "scripted-misreport": (
        lambda: CLIFFORD_DEMO,
        lambda: qpip.scripted_prover([], misreport_round=2), 40, 103,
        {"scripted": {"trials": 40, "accept": 0, "wrong_accept": 0,
                      "abort": 40}},
        (2883993785090188392,)),
    "zeno-broken-variant": (
        lambda: ZENO_BROKEN,
        lambda: qpip.zeno_prover(e=1, n_per=6), 40, 104,
        {"zeno-demo": {"trials": 40, "accept": 20, "wrong_accept": 13,
                       "abort": 7}},
        (7734395241499546637,)),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TRIAL_RECORDS))
def test_trial_runner_reproduces_golden_records(name):
    config, prover, trials, seed, per_policy, seeds = \
        GOLDEN_TRIAL_RECORDS[name]
    rng = qc.make_rng(seed)
    if prover is None:
        rep = audit.estimate_completeness(config(), trials, rng)
    else:
        rep = audit.estimate_soundness(config(), prover(), trials, rng)
    assert rep.detail["per_policy"] == per_policy
    assert tuple(rep.detail["seeds"]) == seeds


# ----- blindness audits


def test_blindness_clifford_exact_is_flat():
    pair = ((one_qubit_circuit("H"), (0,)), (one_qubit_circuit("K"), (1,)))
    rep = audit.blindness_audit("clifford", [pair], key_average="exact")
    assert rep.estimate < 1e-8
    assert rep.verdict == "pass"
    assert len(rep.detail["distances"]["pair0"]) == 2
    assert max(rep.detail["distances"]["pair0-mixed-a"]) < 1e-8


def test_blindness_poly_exact_hides_the_input():
    rep = audit.blindness_audit("poly", [((None, (0,)), (None, (3,)))],
                                key_average="exact")
    assert rep.estimate < 1e-8
    assert max(rep.detail["distances"]["pair0-mixed"]) < 1e-8


def test_blindness_clifford_sampled_converges():
    pair = ((one_qubit_circuit("H"), (0,)), (one_qubit_circuit("K"), (1,)))
    rep = audit.blindness_audit("clifford", [pair], key_average="sampled",
                                rng=qc.make_rng(3), trials=10_000)
    assert rep.estimate < 0.02
    assert rep.detail["trials"] == 10_000


def test_blindness_sampled_shrinks_with_trials():
    pair = ((one_qubit_circuit("H"), (0,)), (one_qubit_circuit("K"), (1,)))
    small = audit.blindness_audit("clifford", [pair],
                                  key_average="sampled",
                                  rng=qc.make_rng(6), trials=2000)
    large = audit.blindness_audit("clifford", [pair],
                                  key_average="sampled",
                                  rng=qc.make_rng(6), trials=8000)
    d_small = np.mean(small.detail["distances"]["pair0"])
    d_large = np.mean(large.detail["distances"]["pair0"])
    ratio = d_small / d_large
    assert 1.3 < ratio < 3.2


def test_blindness_poly_sampled_reports_correction_rounds():
    tof = audit.toffoli_demo_circuit()
    rep = audit.blindness_audit("poly",
                                [((tof, (2, 3, 0)), (tof, (1, 4, 2)))],
                                key_average="sampled",
                                rng=qc.make_rng(3), trials=800)
    (key,) = rep.detail["distances"].keys()
    assert key.startswith("pair0-round")
    assert len(rep.detail["distances"][key]) == 3
    assert rep.estimate < 0.12


def test_blindness_rejects_unknown_average_and_big_views():
    pair = ((one_qubit_circuit("H"), (0,)), (one_qubit_circuit("K"), (1,)))
    with pytest.raises(ValueError, match="key_average"):
        audit.blindness_audit("clifford", [pair], key_average="guess")
    wide = qpip.CircuitIR(7, 2, ())
    with pytest.raises(ValueError, match="cap"):
        audit.blindness_audit("clifford", [((wide, (0,) * 7),
                                            (wide, (1,) + (0,) * 6))],
                              key_average="exact")


def test_universal_pair_shares_the_circuit_and_hides_programs():
    desc_a = [("F", (0,)), ("SUM", (0, 1))]
    desc_b = [("SUM", (1, 0)), ("F", (1,))]
    (circ_a, in_a), (circ_b, in_b) = audit.universal_blindness_pair(
        desc_a, desc_b, 2, 3, (2, 4))
    assert circ_a is circ_b
    assert len(in_a) == len(in_b) == circ_a.n
    assert in_a != in_b
    rep = audit.blindness_audit("poly", [((circ_a, in_a), (circ_b, in_b))],
                                key_average="exact")
    assert rep.estimate < 1e-8


# ----- confidence audits


def test_confidence_honest_prover_is_perfect():
    rep = audit.confidence_audit("clifford", qpip.honest_prover(),
                                 input_digit=0)
    assert rep.detail["beta"] == pytest.approx(1.0, abs=1e-9)
    assert rep.estimate < 1e-9
    assert rep.detail["bound"] == pytest.approx(0.5, abs=1e-9)
    assert rep.verdict == "pass"


def test_confidence_aux_flip_exact_values():
    flip = qpip.fixed_pauli_prover(
        {0: [(0, pa.SymbolicPauli(2, [0, 1], [0, 0]))]}, name="aux-flip")
    rep = audit.confidence_audit("clifford", flip, input_digit=0)
    assert rep.detail["beta"] == pytest.approx(7 / 15, abs=1e-9)
    assert rep.estimate == pytest.approx(4 / 7, abs=1e-9)
    assert rep.detail["bound"] == pytest.approx(15 / 14, abs=1e-9)
    assert rep.estimate <= rep.detail["bound"] + 1e-9
    assert rep.detail["slack"] > 0
    assert rep.verdict == "pass"


def test_confidence_poly_phase_attack_is_invisible():
    phase = qpip.fixed_pauli_prover(
        {0: [(0, pa.SymbolicPauli(5, [0, 0, 0], [1, 2, 3]))]},
        name="phase-only")
    rep = audit.confidence_audit("poly", phase, input_digit=2)
    assert rep.detail["beta"] == pytest.approx(1.0, abs=1e-9)
    assert rep.estimate < 1e-9


def test_confidence_poly_footprint_attack_exact_values():
    foot = qpip.fixed_pauli_prover(
        {0: [(0, pa.SymbolicPauli(5, [1, 1, 1], [0, 0, 0]))]},
        name="uniform-x")
    rep = audit.confidence_audit("poly", foot, input_digit=0)
    assert rep.detail["beta"] == pytest.approx(0.25, abs=1e-9)
    assert rep.estimate == pytest.approx(1.0, abs=1e-9)
    assert rep.detail["bound"] == pytest.approx(2.0, abs=1e-9)
    assert rep.epsilon == 0.25
    assert rep.verdict == "pass"


def test_confidence_refuses_vacuous_bounds():
    lone = qpip.fixed_pauli_prover(
        {0: [(0, pa.SymbolicPauli(5, [1, 0, 0], [0, 0, 0]))]},
        name="single-x")
    with pytest.raises(ValueError, match="floor"):
        audit.confidence_audit("poly", lone, input_digit=0)


def test_confidence_rejects_non_analytic_policies():
    with pytest.raises(ValueError, match="Pauli"):
        audit.confidence_audit(
            "clifford", qpip.random_unitary_prover((2,)))
    with pytest.raises(ValueError, match="Pauli"):
        audit.confidence_audit(
            "clifford", qpip.scripted_prover([], misreport_round=1))
    multi = qpip.fixed_pauli_prover(
        {0: [(1, pa.SymbolicPauli(2, [1, 0], [0, 0]))]}, name="wrong-block")
    with pytest.raises(ValueError, match="single-block"):
        audit.confidence_audit("clifford", multi)
    with pytest.raises(ValueError, match="mode"):
        audit.confidence_audit("teleport", qpip.honest_prover())


def test_confidence_report_serializes():
    rep = audit.confidence_audit("clifford", qpip.honest_prover())
    blob = json.dumps(rep.to_dict())
    assert "slack" in blob


# ----- lemma suite


def test_lemma_suite_all_pass():
    ledger = audit.lemma_suite(seed=0)
    assert ledger.verdict == "pass"
    results = ledger.detail["results"]
    assert tuple(r["name"] for r in results) == audit.LEMMA_COVERAGE
    assert all(r["residual"] < 1e-8 for r in results)
    assert ledger.estimate == max(r["residual"] for r in results)


def test_lemma_suite_is_deterministic():
    first = audit.lemma_suite(seed=11)
    second = audit.lemma_suite(seed=11)
    assert first.detail["results"] == second.detail["results"]


def test_lemma_suite_fault_injection_localizes():
    ledger = audit.lemma_suite(c_vector=(4, 0, 2), seed=0)
    assert ledger.verdict == "fail"
    by_name = {r["name"]: r["residual"] for r in ledger.detail["results"]}
    failed = {name for name, res in by_name.items() if not res < 1e-8}
    assert failed == {"interpolation-weights", "logical-fourier"}
    assert by_name["interpolation-weights"] >= 1.0


def test_lemma_suite_scope_selection():
    ledger = audit.lemma_suite(scope="logical-x,logical-z", seed=0)
    assert [r["name"] for r in ledger.detail["results"]] == \
        ["logical-x", "logical-z"]
    with pytest.raises(ValueError, match="unknown lemma"):
        audit.lemma_suite(scope="great-unified-lemma")


def test_lemma_suite_flags_missing_checks(monkeypatch):
    trimmed = {k: v for k, v in audit._LEMMA_CHECKS.items()
               if k != "pauli-twirl"}
    monkeypatch.setattr(audit, "_LEMMA_CHECKS", trimmed)
    ledger = audit.lemma_suite(scope="pauli-twirl", seed=0)
    assert ledger.verdict == "fail"
    assert ledger.detail["results"][0]["note"] == \
        "listed but not implemented"


def test_lemma_suite_flags_unlisted_checks(monkeypatch):
    padded = dict(audit._LEMMA_CHECKS)
    padded["shadow-check"] = lambda rng, cvec, p: 0.0
    monkeypatch.setattr(audit, "_LEMMA_CHECKS", padded)
    with pytest.raises(RuntimeError, match="coverage"):
        audit.lemma_suite(scope="logical-x", seed=0)


def test_lemma_ledger_serializes():
    ledger = audit.lemma_suite(scope="logical-x", seed=0)
    blob = json.dumps(ledger.to_dict())
    assert "residual" in blob
