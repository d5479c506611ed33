"""The golden protocol records pin decisions, not how a kernel rounds.

Under a patch, every dense product (`qcore._apply_raw`) multiplies each
amplitude by a deterministic phase of a few ulp, and every projection
(`qcore._project_raw`) returns its post-state with a norm a few ulp off.
The records hold transcripts, verdicts, output digits and the generator's
next draw.  A measurement compares one uniform with a cumulative Born sum,
so a last-bit change moves an outcome only when the uniform falls within
about 1e-16 of a boundary, and the records below must not move.  A change
that makes a record depend on last bits fails here, by name.  Rounding is
pinned on purpose elsewhere: in the kernel tests and `LEMMA_RESIDUALS`.
"""

from functools import lru_cache

import numpy as np
import pytest

from qpiplab import qcore as qc

import test_audit
import test_qpip

_ULP = 2.0 ** -52


@lru_cache(maxsize=None)
def _phases(size: int) -> np.ndarray:
    """exp(i k ulp) for k = -4..4 by flat index: modulus 1 to 1e-31."""
    return 1 + 1j * _ULP * (np.arange(size) % 9 - 4)


@pytest.fixture
def nudged_kernels(monkeypatch):
    calls = {"apply": 0, "project": 0}
    apply, project = qc._apply_raw, qc._project_raw

    def nudged_apply(amps, dims, u, wires):
        calls["apply"] += 1
        out = apply(amps, dims, u, wires)
        return out * _phases(out.size)

    def nudged_project(amps, row):
        calls["project"] += 1
        prob, branch = project(amps, row)
        return prob, branch * (1 - 4 * _ULP)

    monkeypatch.setattr(qc, "_apply_raw", nudged_apply)
    monkeypatch.setattr(qc, "_project_raw", nudged_project)
    yield calls
    assert calls["apply"] and calls["project"]  # the patch was reached


@pytest.mark.parametrize("name", [
    "demo-honest", "demo-fixed-pauli", "zeno-broken-variant",
    "zeno-e2-zeno-accept", "zeno-e2-zeno-reject"])
def test_clifford_records_ignore_last_bits(nudged_kernels, name):
    test_qpip.test_clifford_reproduces_golden_records(name)


@pytest.mark.parametrize("name", sorted(test_qpip.GOLDEN_FRAME_RECORDS))
def test_frame_records_ignore_last_bits(nudged_kernels, name):
    test_qpip.test_poly_frame_reproduces_golden_records(name)


@pytest.mark.parametrize("name", [
    "honest-poly-dense", "fixed-pauli-clifford-e2",
    "fixed-pauli-frames-toffoli2", "zeno-broken-variant"])
def test_trial_records_ignore_last_bits(nudged_kernels, name):
    test_audit.test_trial_runner_reproduces_golden_records(name)
