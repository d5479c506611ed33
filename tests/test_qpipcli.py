"""CLI runs: subcommands at their defaults or small sizes, replayed exactly."""

import json

import numpy as np
import pytest

from qpiplab import audit
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
    assert envelope.payload["bound_ok"] is True


def test_lemmas_replay_exactly():
    envelope, code = run_and_replay("lemmas")
    assert code == 0
    assert "elapsed" not in envelope.payload
    assert envelope.timings["lemma_suite_s"] > 0


PAULI_ON_CODE_BLOCK = 'pauli:{"1": [[0, [1, 0, 0], [0, 0, 0]]]}'


def test_qpip_poly_pauli_adversary_acts_on_code_wires():
    cfg = cli.ExperimentConfig(subcommand="qpip-poly",
                               circuit_name="poly-demo",
                               adversary=PAULI_ON_CODE_BLOCK)
    policy = cli.build_policy(cfg, 0)
    ((_, op),) = policy.plan[1]
    assert op.q == cfg.q
    envelope, code = run_and_replay("qpip-poly", circuit_name="poly-demo",
                                    adversary=PAULI_ON_CODE_BLOCK, trials=20)
    assert code == 0
    assert envelope.payload["trials"] == 20


def test_qpip_poly_random_unitary_environment_matches_wires():
    cfg = cli.ExperimentConfig(subcommand="qpip-poly",
                               circuit_name="poly-demo",
                               adversary="random-unitary")
    assert cli.build_policy(cfg, 0).env_dims == (cfg.q,)


def _first_draw(prover: qpip.ProverImpl) -> np.ndarray:
    state = qc.basis_state(qc.RegisterShape((2, 2)), (0, 0))
    ctx = qpip.PolicyContext(phase="gate", round_index=1,
                             block_wires=((0,),), env_wires=(1,),
                             rng=qc.make_rng(0))
    return prover.policy(state, ctx).amplitudes


def test_random_unitary_chunks_draw_independently():
    policy = audit.AdversaryPolicy.random_unitary((2,), seed=9)
    a, b = (int(s) for s in np.random.SeedSequence(1).generate_state(2))
    chunk_a = _first_draw(policy.build(chunk_seed=a))
    assert not np.allclose(chunk_a, _first_draw(policy.build(chunk_seed=b)))
    assert np.array_equal(chunk_a, _first_draw(policy.build(chunk_seed=a)))
    # the prover's stream is not the chunk's trial stream
    unseeded = audit.AdversaryPolicy.random_unitary((2,))
    trial_stream = _first_draw(qpip.random_unitary_prover((2,), seed=a))
    assert not np.allclose(_first_draw(unseeded.build(chunk_seed=a)),
                           trial_stream)


def test_envelope_without_timings_still_loads():
    envelope, _ = run_and_replay("qas-poly")
    data = json.loads(envelope.to_json())
    del data["timings"]
    old = cli.ReportEnvelope.from_json(json.dumps(data))
    assert old.canonical_payload() == envelope.canonical_payload()
