"""Correctness checks on the outputs the benchmark gets from qpiplab.

Each check takes plain report dictionaries, so a test can feed it a
corrupted result, and returns a list of problems (empty when correct).
The checks hold for every random draw: they test deterministic facts
(an honest prover always accepts, a detected Pauli always aborts, a pinned
maximum) or a statistical gate with a wide margin, never a sampled value.
"""

from __future__ import annotations

import math

# Roles a prover plays in a protocol workload.
HONEST = "honest"            # deterministic instance: must always accept
GATED = "gated"              # Pauli plan: wrong accepts within the gate
ALWAYS_ABORT = "always-abort"  # Pauli plan the decoder always detects
NEGATIVE_CONTROL = "negative-control"  # expected to beat its gate

# Pinned finding of the sign-key scan at its defaults (q=5, d=1): the
# mass exceeds the claimed bound, so the scan exits with code 1.
SCAN_MAX_MASS = 0.5
EXPECTED_CODE = {"lemmas": 0, "blindness": 0, "confidence": 0,
                 "scan-signkey": 1}
# The lemma payload carries the wall-clock `elapsed`, so its replay differs.
KNOWN_REPLAY_MISMATCH = frozenset({"lemmas"})


def wilson_low(successes: int, trials: int, z: float = 1.96) -> float:
    """Lower end of the Wilson score interval for a binomial rate."""
    if trials == 0:
        return 0.0
    ph = successes / trials
    denom = 1 + z * z / trials
    centre = (ph + z * z / (2 * trials)) / denom
    half = z * math.sqrt(ph * (1 - ph) / trials
                         + z * z / (4 * trials * trials)) / denom
    return max(0.0, centre - half)


def protocol_batch(role: str, report: dict) -> tuple[int, list[str]]:
    """(failed trials, problems) of one ExperimentReport dictionary."""
    counts = report["per_policy"]
    if len(counts) != 1:
        return report["trials"], ["expected one policy per report"]
    (name, c), = counts.items()
    if c["accept"] + c["wrong_accept"] + c["abort"] != c["trials"]:
        return c["trials"], [f"{name}: outcome counts do not add up"]
    if role == HONEST:
        failed = c["trials"] - c["accept"]
        if failed:
            return failed, [f"{name}: {failed} of {c['trials']} honest "
                            "trials did not accept the reference output"]
    elif role == ALWAYS_ABORT:
        failed = c["trials"] - c["abort"]
        if failed:
            return failed, [f"{name}: {failed} of {c['trials']} trials "
                            "escaped an always-detected Pauli"]
    return 0, []


def soundness_gate(name: str, trials: int, wrong_accepts: int,
                   bound: float) -> list[str]:
    """A gated prover's wrong-accept interval must reach below the bound."""
    low = wilson_low(wrong_accepts, trials)
    if low > bound:
        return [f"{name}: wrong-accept rate {wrong_accepts}/{trials} "
                f"(Wilson low {low:.4f}) exceeds the gate {bound:.4f}"]
    return []


def audit_result(subcommand: str, code: int, payload: dict) -> list[str]:
    """Problems in one audit subcommand run, judged by its exit code.

    `qpipcli.run_config` returns 0 when the ledger, the blindness views or
    the confidence bound hold.  scan-signkey returns 1 for its pinned
    finding, which must keep its maximal mass.
    """
    expected = EXPECTED_CODE.get(subcommand)
    if expected is None:
        return [f"no check for subcommand {subcommand!r}"]
    if code != expected:
        return [f"{subcommand}: exit code {code}, expected {expected}"]
    if subcommand == "scan-signkey" and \
            abs(payload["max_mass"] - SCAN_MAX_MASS) > 1e-9:
        return [f"scan-signkey: max_mass {payload['max_mass']} is not "
                f"the pinned {SCAN_MAX_MASS}"]
    return []


def replay(subcommand: str, stored: str, fresh: str) -> tuple[bool, list[str]]:
    """(mismatch, problems) of a replayed envelope's canonical payload.

    A mismatch is always counted; it is a problem unless it is the known
    wall-clock leak of the lemma ledger.
    """
    if stored == fresh:
        return False, []
    if subcommand in KNOWN_REPLAY_MISMATCH:
        return True, []
    return True, [f"{subcommand}: replay does not reproduce the report"]
