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

import oracles


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
    assert fields == {"round_index", "dims", "block_wires", "env_wires",
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
    amps = qc.basis_state(qc.RegisterShape((2, 2)), (0, 0)).amplitudes
    ctx = qpip.PolicyContext(round_index=1, dims=(2, 2),
                             block_wires=((0, 1),), env_wires=(),
                             rng=qc.make_rng(0))
    out = prover.policy(amps, ctx)
    overlap = abs(np.vdot(amps, out))
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
                                  circuit=oracles.biased_clifford_circuit(0.3),
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
                               circuit=oracles.biased_clifford_circuit(0.2),
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
FRAMES_TOFFOLI2 = audit.ProtocolConfig(
    mode="poly",
    circuit=qpip.CircuitIR(3, 5, (qpip.CircuitGate(pa.GateTag("T"),
                                                   (0, 1, 2)),) * 2),
    inputs=(2, 3, 0), code=pc.CodeParams(q=5, d=1), engine="logical-frame",
    output_wires=(2,))

# Counts and master seeds of the trial runner at fixed seeds, recorded
# when each prover was rebuilt per trial chunk: (config, prover or None
# for completeness, trials, rng seed, per-policy counts, seeds).  The
# stateless provers must reproduce them.
# Pins decisions and draws, not rounding (test_golden_rounding.py).
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
        # re-recorded when trial j moved to the j-th child stream of the
        # master seed (was 10/11/27 under the 16-chunk split)
        {"fixed-pauli": {"trials": 48, "accept": 7, "wrong_accept": 12,
                         "abort": 29}},
        (1475657852977072745,)),
    # clifford-e2's instance: three-qubit blocks, so every key comes from
    # the transvection sampler
    "fixed-pauli-clifford-e2": (
        lambda: audit.ProtocolConfig(mode="clifford",
                                     circuit=audit.clifford_demo_circuit(),
                                     inputs=(1, 0), e=2),
        lambda: qpip.fixed_pauli_prover(
            {3: [(0, pa.SymbolicPauli(2, (1, 0, 0), (0, 0, 0)))]}), 48, 105,
        {"fixed-pauli": {"trials": 48, "accept": 6, "wrong_accept": 5,
                         "abort": 37}},
        (5886312993991691654,)),
    # frames-toffoli2's instance on the logical-frame engine: two
    # Toffolis at q = 5, honest and with X on block 0's coordinate 0 in
    # round 1 (always detected)
    "honest-frames-toffoli2": (
        lambda: FRAMES_TOFFOLI2, None, 200, 106,
        {"honest": {"trials": 200, "accept": 200, "wrong_accept": 0,
                    "abort": 0}},
        (9061113142866998810,)),
    "fixed-pauli-frames-toffoli2": (
        lambda: FRAMES_TOFFOLI2,
        lambda: qpip.fixed_pauli_prover(
            {1: [(0, pa.SymbolicPauli(5, (1, 0, 0), (0, 0, 0)))]}), 200, 107,
        {"fixed-pauli": {"trials": 200, "accept": 0, "wrong_accept": 0,
                         "abort": 200}},
        (5981688063892240734,)),
    "scripted-misreport": (
        lambda: CLIFFORD_DEMO,
        lambda: qpip.scripted_prover([], misreport_round=2), 40, 103,
        {"scripted": {"trials": 40, "accept": 0, "wrong_accept": 0,
                      "abort": 40}},
        (2883993785090188392,)),
    "zeno-broken-variant": (
        lambda: ZENO_BROKEN,
        lambda: qpip.zeno_prover(e=1, n_per=6), 40, 104,
        # re-recorded when trial j moved to the j-th child stream of the
        # master seed (was 20/13/7 under the 16-chunk split)
        {"zeno-demo": {"trials": 40, "accept": 15, "wrong_accept": 12,
                       "abort": 13}},
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


def test_trial_records_are_a_prefix_of_longer_runs():
    # trial j draws only from the j-th child stream of the master seed,
    # so a shorter run is the start of a longer one, measurements included
    prover = qpip.fixed_pauli_prover({3: [(0, X_DATA)]})

    def rows(trials):
        return [(r.verdict, r.output, r.transcript.to_lines())
                for r in audit._trial_records(CLIFFORD_DEMO, prover,
                                              trials, 1234)]

    long, short = rows(30), rows(12)
    assert long[:12] == short
    assert len({row[0] for row in long}) > 1


# ----- blindness audits


def test_blindness_clifford_exact_is_flat():
    pair = ((one_qubit_circuit("H"), (0,)), (one_qubit_circuit("K"), (1,)))
    rep = audit.blindness_audit("clifford", [pair])
    assert rep.estimate < 1e-8
    assert rep.verdict == "pass"
    assert len(rep.detail["distances"]["pair0"]) == 2
    assert max(rep.detail["distances"]["pair0-mixed-a"]) < 1e-8


def test_blindness_poly_exact_hides_the_input():
    rep = audit.blindness_audit("poly", [((None, (0,)), (None, (3,)))])
    assert rep.estimate < 1e-8
    assert max(rep.detail["distances"]["pair0-mixed"]) < 1e-8


def _random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
    rho = v @ v.conj().T
    return rho / np.trace(rho)


@pytest.mark.parametrize("q, m", [(3, 3), (5, 3)])
def test_pad_average_gather_equals_the_scatter_oracle(q, m):
    rho = _random_density(q ** m, qc.make_rng(q))
    assert np.array_equal(audit._pad_average(rho, q, m),
                          oracles.pad_average_scatter(rho, q, m))


def test_pad_average_is_the_mean_pauli_conjugate():
    q, m = 3, 2
    rho = _random_density(q ** m, qc.make_rng(7))
    paulis = oracles.all_pauli_matrices(q, m)
    want = np.mean(paulis @ rho @ paulis.conj().transpose(0, 2, 1), axis=0)
    assert np.max(np.abs(audit._pad_average(rho, q, m) - want)) < 1e-12


def test_poly_block_view_twirls_the_key_average_once():
    p = pc.CodeParams()
    for digit in range(p.q):
        got = audit._poly_block_view(digit, p)
        want = oracles.poly_block_view_per_key(digit, p)
        assert np.max(np.abs(got - want)) < 1e-14


def test_cached_arrays_are_read_only():
    p = pc.CodeParams()
    lmap, linv = pc._dk_maps(pc.all_sign_keys(p.m)[3].k, p)
    for arr in (pc._digit_grid(p.q, p.m), lmap, linv, pa.clifford_stack(1)):
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = arr.flat[0]


def test_blindness_rejects_big_views():
    wide = qpip.CircuitIR(7, 2, ())
    with pytest.raises(ValueError, match="cap"):
        audit.blindness_audit("clifford", [((wide, (0,) * 7),
                                            (wide, (1,) + (0,) * 6))])


def test_blindness_rejects_unknown_mode():
    pair = ((None, (0,)), (None, (3,)))
    with pytest.raises(ValueError, match="unknown mode 'foo'"):
        audit.blindness_audit("foo", [pair])


def test_universal_pair_shares_the_circuit_and_hides_programs():
    desc_a = [("F", (0,)), ("SUM", (0, 1))]
    desc_b = [("SUM", (1, 0)), ("F", (1,))]
    (circ_a, in_a), (circ_b, in_b) = audit.universal_blindness_pair(
        desc_a, desc_b, 2, 3, (2, 4))
    assert circ_a is circ_b
    assert len(in_a) == len(in_b) == circ_a.n
    assert in_a != in_b
    rep = audit.blindness_audit("poly", [((circ_a, in_a), (circ_b, in_b))])
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
    assert [r["name"] for r in results] == list(audit.LEMMA_COVERAGE)
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


@pytest.mark.parametrize("phase", [0.0, 0.3])
def test_logical_sum_check_catches_a_wrong_sum(monkeypatch, phase):
    q = pc.CodeParams().q
    # SUM^2, or SUM with a phase on one row: neither is logical SUM
    wrong = np.array(pc._sum_power(1 if phase else 2, q).entries,
                     dtype=np.complex128)
    wrong[q + 1] *= np.exp(1j * phase)
    monkeypatch.setattr(pc, "_sum_power", lambda t, q: qc.UnitaryMatrix(
        qc.RegisterShape((q, q)), wrong, check_unitary=False))
    ledger = audit.lemma_suite(scope="logical-sum", seed=0)
    assert ledger.verdict == "fail" and ledger.estimate > 0.1


# ----- exact lemma checks: fault injection and their float oracles


def _residual(name: str, seed: int = 0) -> float:
    return audit.lemma_suite(scope=name, seed=seed).detail["results"][0][
        "residual"]


def _shift_a_phase(amps: np.ndarray) -> np.ndarray:
    amps[np.flatnonzero(amps)[0]] *= np.exp(0.3j)
    return amps


def _move_a_string(amps: np.ndarray) -> np.ndarray:
    # wire 0 of one string plus 1: no longer a signed evaluation vector
    src = np.flatnonzero(amps)[0]
    amps[(src + amps.size // pc.CodeParams().q) % amps.size] = amps[src]
    amps[src] = 0.0
    return amps


@pytest.mark.parametrize("name, change", [
    ("logical-x", _shift_a_phase), ("correlated-x", _shift_a_phase),
    ("logical-sum", _shift_a_phase),
    # Z footprints are diagonal, so a phase on a codeword string commutes
    # with them; a string moved off the code breaks them
    ("logical-z", _move_a_string), ("correlated-z", _move_a_string)])
def test_exact_codeword_checks_catch_a_corrupted_codeword(monkeypatch, name,
                                                          change):
    real = pc.codeword_state
    key = pc.all_sign_keys(pc.CodeParams().m)[3]

    def corrupted(a, k, p):
        state = real(a, k, p)
        if int(a) % p.q or k != key:
            return state
        return qc.StateVector(state.shape, change(state.amplitudes.copy()),
                              check_norm=False)

    monkeypatch.setattr(pc, "codeword_state", corrupted)
    assert _residual(name) > audit._LEMMA_TOL


@pytest.fixture
def one_wrong_tableau_image(monkeypatch):
    """C_2 with the X_0 image of one element's key moved to another Pauli."""
    real = pa.enumerate_clifford
    els = list(real(2))
    el = els[5]
    (j, phase), rest = el.key[0], el.key[1:]
    els[5] = pa.CliffordElement(2, el.matrix, el.generator_word,
                                ((j % 15 + 1, phase),) + rest)
    monkeypatch.setattr(pa, "enumerate_clifford",
                        lambda n: els if n == 2 else real(n))
    audit._c2_tableau.cache_clear()
    yield
    audit._c2_tableau.cache_clear()


@pytest.mark.parametrize("name", ["clifford-decoherence",
                                  "pauli-partitioning-by-cliffords"])
def test_tableau_checks_catch_one_wrong_image(one_wrong_tableau_image, name):
    assert _residual(name) > audit._LEMMA_TOL


def _x_part_only(op, k, p):
    return tuple(int(v) for v in op.x) in pc._correlated_patterns(k.k, p)[0]


@pytest.mark.parametrize("name, rule", [
    ("pauli-criterion", _x_part_only),
    ("uncorrelated-action", lambda op, k, p: False)])
def test_exact_pauli_checks_catch_a_wrong_correlation_rule(monkeypatch, name,
                                                           rule):
    monkeypatch.setattr(pc, "is_k_correlated", rule)
    assert _residual(name) > audit._LEMMA_TOL


def test_correlated_decomposition_catches_wrong_interpolation_nodes(
        monkeypatch):
    real = pc.interpolate
    monkeypatch.setattr(pc, "interpolate", lambda xs, ys, q: real(
        [x + 1 for x in xs], ys, q))
    assert _residual("correlated-decomposition") > audit._LEMMA_TOL


def test_teleportation_check_catches_a_wrong_phase_correction(monkeypatch):
    """Block 0's Z correction with the sign of y z flipped: a basis input
    sees no phase correction, the check's superposed input does."""
    real = qpip.toffoli_correction_tags

    def flipped(x, y, z, q):
        return [(pc.LogicalGateTag("LZ", -tag.param % q)
                 if tag.name == "LZ" and blocks == (0,) else tag, blocks)
                for tag, blocks in real(x, y, z, q)]

    monkeypatch.setattr(qpip, "toffoli_correction_tags", flipped)
    ledger = audit.lemma_suite(scope="teleportation-outcome-uniformity")
    assert ledger.verdict == "fail" and ledger.estimate > 0.5


@pytest.mark.parametrize("seed", [0, 11])
@pytest.mark.parametrize("name", sorted(oracles.FLOAT_LEMMAS))
def test_float_lemma_oracles_agree_with_the_exact_checks(monkeypatch, name,
                                                         seed):
    assert _residual(name, seed) == 0.0
    # the oracle runs in the suite's slot, so it draws from the same stream
    monkeypatch.setitem(audit.LEMMA_COVERAGE, name, oracles.FLOAT_LEMMAS[name])
    assert _residual(name, seed) < 1e-12


def test_lemma_suite_scope_selection():
    ledger = audit.lemma_suite(scope="logical-x,logical-z", seed=0)
    assert [r["name"] for r in ledger.detail["results"]] == \
        ["logical-x", "logical-z"]
    with pytest.raises(ValueError, match="unknown lemma"):
        audit.lemma_suite(scope="great-unified-lemma")


# (name, residual at seed 0, at seed 11), recorded when the names and
# the checks were two tables; a check's generator is seeded by
# seed * 1009 + its index, so these pin the order as well.  logical-z,
# correlated-z, clifford-decoherence, pauli-partitioning-by-cliffords and
# uncorrelated-action read 0.0 since they are checked exactly (they read
# 7.99e-16, 8.76e-16, 1.28e-17, 7.77e-16 and 3.77e-16 at seed 0 in floats)
# Pins rounding on purpose: each float residual is compared bit for bit.
LEMMA_RESIDUALS = [
    ("logical-x", 0.0, 0.0),
    ("logical-sum", 0.0, 0.0),
    ("interpolation-weights", 0.0, 0.0),
    ("logical-fourier", 3.0531133177191805e-16, 3.0531133177191805e-16),
    ("logical-z", 0.0, 0.0),
    ("decode-diagonalization", 1.1102230246251565e-16, 1.1102230246251565e-16),
    ("clifford-decoherence", 0.0, 0.0),
    ("pauli-decompose", 4.440892098500626e-16, 4.440892098500626e-16),
    ("pauli-partitioning-by-cliffords", 0.0, 0.0),
    ("pauli-twirl", 2.220446049250313e-16, 1.1102230246251565e-16),
    ("clifford-twirl", 9.436898317748282e-16, 1.3322676398767554e-15),
    ("completeness", 4.440892098500626e-16, 2.220446049250313e-16),
    ("clifford-mixing", 1.5626389208270328e-14, 4.9404924712866056e-15),
    ("pauli-mixing", 6.938966325898412e-18, 5.2043006577104125e-18),
    ("unitary-commutation", 7.850462293418876e-17, 8.673617379884035e-17),
    ("pauli-decoherence", 1.3570608863529726e-33, 6.756960903349183e-34),
    ("sign-key-pauli-security", 0.0, 0.0),
    ("correlated-x", 0.0, 0.0),
    ("correlated-z", 0.0, 0.0),
    ("pauli-criterion", 0.0, 0.0),
    ("correlated-decomposition", 0.0, 0.0),
    ("uncorrelated-action", 0.0, 0.0),
    ("teleportation-outcome-uniformity",
     2.220446049250313e-16, 2.220446049250313e-16),
]


@pytest.mark.parametrize("seed, column", [(0, 1), (11, 2)])
def test_lemma_residuals_match_the_recorded_values(seed, column):
    results = audit.lemma_suite(seed=seed).detail["results"]
    assert [(r["name"], r["residual"]) for r in results] == \
        [(row[0], row[column]) for row in LEMMA_RESIDUALS]


def test_lemma_suite_records_a_raising_check(monkeypatch):
    def broken(rng, cvec, p):
        raise ArithmeticError("no residual")
    monkeypatch.setitem(audit.LEMMA_COVERAGE, "pauli-twirl", broken)
    ledger = audit.lemma_suite(scope="logical-x,pauli-twirl", seed=0)
    assert ledger.verdict == "fail" and ledger.estimate == math.inf
    assert ledger.detail["results"][1]["note"] == \
        "raised ArithmeticError: no residual"


def test_lemma_ledger_serializes():
    ledger = audit.lemma_suite(scope="logical-x", seed=0)
    blob = json.dumps(ledger.to_dict())
    assert "residual" in blob
