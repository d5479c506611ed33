"""Polynomial-code authentication: sign key plus one-time Pauli pad.

Encoding hides a qudit inside a signed polynomial codeword and masks it
with a uniformly random Pauli.  Averaging over the pad reduces any attack
to a mixture of Pauli attacks, and the sign-key average then bounds the
probability of an undetected wrong message.  The exhaustive scan measures
that bound exactly for every Pauli at the shipped instance.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import pcalg as pa
from . import polycode as pc
from . import qcore as qc


@dataclass(frozen=True)
class PolyQasKey:
    sign: pc.SignKey
    pauli: pa.SymbolicPauli


def random_poly_key(p: pc.CodeParams, rng: np.random.Generator) -> PolyQasKey:
    return PolyQasKey(pc.random_sign_key(p.m, rng), pc.random_pauli_key(p, rng))


# --------------------------------------------------------- encode/decode

def _pad_matrix(key: PolyQasKey, p: pc.CodeParams) -> np.ndarray:
    return pa.pauli_matrix(key.pauli).entries


def pqas_encode(psi: qc.StateVector, key: PolyQasKey,
                p: pc.CodeParams) -> qc.StateVector:
    """Z^z X^x E_k (|psi> (x) |0>^{m-1})."""
    enc = pc.encode_Ek(psi, key.sign, p)
    return qc.StateVector(enc.shape, _pad_matrix(key, p) @ enc.amplitudes,
                          check_norm=False)


def pqas_decode(state: qc.StateVector, key: PolyQasKey, p: pc.CodeParams,
                rng: np.random.Generator
                ) -> tuple[str, qc.StateVector | None]:
    """Strip the pad, undo the encoder, measure the m-1 auxiliaries."""
    if state.shape != p.shape():
        raise ValueError("state does not match the code register")
    stripped = qc.StateVector(state.shape,
                              _pad_matrix(key, p).conj().T @ state.amplitudes,
                              check_norm=False)
    plain = pc.decode_Ek(stripped, key.sign, p)
    outcome, post = qc.measure_wires(plain, tuple(range(1, p.m)), rng)
    if any(outcome):
        return "abort", None
    amps = post.amplitudes.reshape(p.q, p.q ** (p.m - 1))[:, 0]
    return "valid", qc.StateVector(qc.RegisterShape((p.q,)), amps)


# ------------------------------------------------------ batched decoding

def _overlap_table(psi: np.ndarray, q: int) -> np.ndarray:
    """ov[a, b] = |<psi| Z^b X^a |psi>|^2."""
    ov = np.empty((q, q))
    phases = np.exp(2j * np.pi * np.arange(q) / q)
    for a in range(q):
        shifted = np.roll(psi, a)
        for b in range(q):
            ov[a, b] = abs(np.vdot(psi, phases ** b * shifted)) ** 2
    return ov


def _all_exponent_grids(p: pc.CodeParams) -> tuple[np.ndarray, np.ndarray]:
    """X and Z exponent rows for every one of the q^{2m} Pauli operators."""
    q, m = p.q, p.m
    grid = np.indices((q,) * (2 * m)).reshape(2 * m, -1).T
    return grid[:, :m].astype(np.int64), grid[:, m:].astype(np.int64)


def _per_key_masses(p: pc.CodeParams, k: pc.SignKey, xs: np.ndarray,
                    zs: np.ndarray, ov: np.ndarray) -> np.ndarray:
    """Undetected-and-wrong probability of each Pauli row under one key.

    Conjugating through the decoder turns Z^z X^x into a Pauli whose X
    exponents on wires 1..m-1 say which auxiliary it flips; rows that
    flip none act on the message as X^{x0} Z^{z0}.
    """
    q, d, m = p.q, p.d, p.m
    lmap, linv = pc._dk_maps(k.k, p)
    xl = xs @ linv.T % q
    zt = zs @ lmap % q
    valid = np.ones(len(xs), dtype=bool)
    if d >= 1:
        valid &= (zt[:, 1:d + 1] == 0).all(axis=1)
    if m - d - 1 >= 1:
        valid &= (xl[:, d + 1:] == 0).all(axis=1)
    mass = np.where(valid, 1.0 - ov[xl[:, 0], zt[:, 0]], 0.0)
    return mass


def sign_key_masses(p: pc.CodeParams, psi: qc.StateVector | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Key-averaged mass and correlated-key count of every Pauli attack.

    One row per Pauli in the order of `_all_exponent_grids` (row 0 is the
    identity, which reads 0 in both): the exact undetected-and-wrong mass
    averaged over all sign keys, and the number of sign keys the operator
    is correlated for.
    """
    if p.m != 3:
        raise ValueError("the exhaustive scan is sized for m = 3")
    q, m = p.q, p.m
    if psi is None:
        psi = qc.basis_state(qc.RegisterShape((q,)), (0,))
    ov = _overlap_table(psi.amplitudes, q)
    xs, zs = _all_exponent_grids(p)
    keys = pc.all_sign_keys(m)

    total = np.zeros(len(xs))
    counts = np.zeros(len(xs), dtype=np.int64)
    for k in keys:
        total += _per_key_masses(p, k, xs, zs, ov)
        xset, zset = pc._correlated_patterns(k.k, p)
        xmask = np.zeros(q ** m, dtype=bool)
        zmask = np.zeros(q ** m, dtype=bool)
        for pat in xset:
            xmask[int(np.ravel_multi_index(pat, (q,) * m))] = True
        for pat in zset:
            zmask[int(np.ravel_multi_index(pat, (q,) * m))] = True
        xidx = np.ravel_multi_index(xs.T, (q,) * m)
        zidx = np.ravel_multi_index(zs.T, (q,) * m)
        counts += xmask[xidx] & zmask[zidx]

    masses = total / len(keys)
    nonident = ~((xs == 0).all(axis=1) & (zs == 0).all(axis=1))
    return np.where(nonident, masses, 0.0), np.where(nonident, counts, 0)


def sign_key_security_scan(p: pc.CodeParams,
                           psi: qc.StateVector | None = None):
    """Worst key-averaged mass of any non-identity Pauli against epsilon.

    The record keeps `max_mass`, the histogram of correlated-key counts
    over the non-identity Paulis and up to 16 maximizers; the per-operator
    arrays come from `sign_key_masses`.
    """
    from . import audit  # audit imports this module
    masses, counts = sign_key_masses(p, psi)
    xs, zs = _all_exponent_grids(p)
    max_mass = float(masses.max())
    values, sizes = np.unique(counts[1:], return_counts=True)  # 0: identity
    maximizers = np.nonzero(masses > max_mass - 1e-12)[0]
    worst = [{
        "x": [int(v) for v in xs[i]], "z": [int(v) for v in zs[i]],
        "mass": float(masses[i]), "keys_correlated": int(counts[i]),
    } for i in maximizers[:16]]
    return audit.gate(
        "every non-identity Pauli's key-averaged undetected-and-wrong "
        "mass <= epsilon", p.epsilon, max_mass, (max_mass, max_mass),
        {"q": p.q, "d": p.d, "max_mass": max_mass,
         "correlation_histogram": {str(c): int(n)
                                   for c, n in zip(values, sizes)},
         "num_maximizers": int(len(maximizers)), "worst": worst},
        limit=p.epsilon + 1e-10)


# ------------------------------------------------------------ experiment

def _attack_weights(attack: qc.UnitaryMatrix, p: pc.CodeParams,
                    env_state: qc.StateVector | None) -> np.ndarray:
    """alpha_P = Tr(U_P rho_E U_P^dag) for each Pauli component of U."""
    q, m = p.q, p.m
    env_dim = 1 if env_state is None else env_state.shape.dim
    if attack.shape.dim != q ** m * env_dim:
        raise ValueError("attack must cover the code block and environment")
    blocks = pa.pauli_decompose(attack.entries, q, m, env_dim)
    if env_state is None:
        rho_e = np.array([[1.0 + 0j]])
    else:
        rho_e = env_state.to_density().entries
    w = np.einsum("xzij,jk,xzik->xz", blocks, rho_e, blocks.conj(),
                  optimize=True).real
    return w


def pqas_security_experiment(p: pc.CodeParams, psi: qc.StateVector,
                             attack: qc.UnitaryMatrix,
                             env_state: qc.StateVector | None = None,
                             mode: str = "exact",
                             rng: np.random.Generator | None = None,
                             trials: int = 4000):
    """Key-averaged undetected-and-wrong probability for one attack.

    Exact mode averages both keys in closed form: the pad average keeps
    only the attack's diagonal Pauli components, and each component's
    sign-key average comes from the same decoded-frame rule the scan
    uses; its gate is (1 - alpha_I) epsilon, alpha_I the attack's
    identity weight.  Sampled mode draws keys and gates on epsilon with a
    +-3/sqrt(trials) interval.
    """
    from . import audit  # audit imports this module
    q, m = p.q, p.m
    keys = pc.all_sign_keys(m)

    if mode == "exact":
        if m != 3:
            raise ValueError("exact key averaging is sized for m = 3")
        weights = _attack_weights(attack, p, env_state)
        ov = _overlap_table(psi.amplitudes, q)
        xs, zs = _all_exponent_grids(p)
        mass = np.zeros(len(xs))
        for k in keys:
            mass += _per_key_masses(p, k, xs, zs, ov)
        mass /= len(keys)
        wflat = weights.reshape(-1)
        # rows of the grid run over (x digits, z digits) in index order
        xidx = np.ravel_multi_index(xs.T, (q,) * m)
        zidx = np.ravel_multi_index(zs.T, (q,) * m)
        wrow = wflat[xidx * q ** m + zidx]
        ident = (xidx == 0) & (zidx == 0)
        alpha_i = float(wrow[ident].sum())
        tr_pi0 = float((wrow * mass)[~ident].sum())
        interval = (tr_pi0, tr_pi0)
        limit = (1.0 - alpha_i) * p.epsilon + 1e-8
        trial_count = None
    elif mode == "sampled":
        if rng is None:
            raise ValueError("sampled mode needs an rng")
        env_dim = 1 if env_state is None else env_state.shape.dim
        if attack.shape.dim != q ** m * env_dim:
            raise ValueError("attack must cover the code block and "
                             "environment")
        proj = np.eye(q) - np.outer(psi.amplitudes, psi.amplitudes.conj())
        acc = 0.0
        for _ in range(trials):
            key = random_poly_key(p, rng)
            enc = pqas_encode(psi, key, p)
            vec = enc.amplitudes if env_state is None else np.kron(
                enc.amplitudes, env_state.amplitudes)
            vec = attack.entries @ vec
            vec = vec.reshape(q ** m, env_dim)
            vec = _pad_matrix(key, p).conj().T @ vec
            decoded = np.stack([
                pc.decode_Ek(qc.StateVector(p.shape(), vec[:, e],
                                            check_norm=False),
                             key.sign, p).amplitudes
                for e in range(env_dim)], axis=1)
            sector = decoded.reshape(q, q ** (m - 1), env_dim)[:, 0, :]
            acc += float(np.einsum("ae,ab,be->", sector.conj(), proj,
                                   sector, optimize=True).real)
        tr_pi0 = acc / trials
        half = 3.0 / math.sqrt(max(trials, 1))
        interval = (tr_pi0 - half, tr_pi0 + half)
        limit = p.epsilon
        alpha_i = float("nan")
        trial_count = trials
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return audit.gate(
        "undetected-and-wrong mass <= (1 - alpha_I) epsilon"
        if mode == "exact" else "undetected-and-wrong mass <= epsilon",
        p.epsilon, tr_pi0, interval,
        {"mode": mode, "alpha_identity": alpha_i, "trials": trial_count},
        limit=limit)


def _dense_encoder(k: pc.SignKey, p: pc.CodeParams) -> np.ndarray:
    q, d, m = p.q, p.d, p.m
    f = pa.gate_matrix(pa.GateTag("F"), q)
    e = np.eye(q ** m, dtype=np.complex128)
    for w in range(1, d + 1):
        e = qc.embed_unitary(f, (w,), p.shape()).entries @ e
    lmap, _ = pc._dk_maps(k.k, p)
    perm = pc._perm_from_linear(lmap, q)
    pm = np.zeros((q ** m, q ** m), dtype=np.complex128)
    pm[perm, np.arange(q ** m)] = 1.0
    return pm @ e


def pqas_average_literal(p: pc.CodeParams, psi: qc.StateVector,
                         attack: qc.UnitaryMatrix) -> float:
    """Reference value of the experiment by summing every key literally.

    Environment-free; exists to pin the closed-form average used by
    pqas_security_experiment.  Batched over the q^m shift patterns with
    one matrix product per phase pattern.
    """
    q, m = p.q, p.m
    db = q ** m
    if attack.shape.dim != db:
        raise ValueError("literal reference is environment-free")
    keys = pc.all_sign_keys(m)
    proj = np.eye(q) - np.outer(psi.amplitudes, psi.amplitudes.conj())
    digits = np.indices((q,) * m).reshape(m, -1)
    omega = np.exp(2j * np.pi / q)
    fwd = np.empty((db, db), dtype=np.int64)
    rev = np.empty((db, db), dtype=np.int64)
    for xi in range(db):
        xd = digits[:, xi][:, None]
        fwd[xi] = np.ravel_multi_index(tuple((digits - xd) % q), (q,) * m)
        rev[xi] = np.ravel_multi_index(tuple((digits + xd) % q), (q,) * m)
    total = 0.0
    for k in keys:
        w0 = pc.encode_Ek(psi, k, p).amplitudes
        shift_rows = w0[fwd]
        edag_t = _dense_encoder(k, p).conj()
        for zi in range(db):
            phase = omega ** (digits[:, zi] @ digits % q)
            branch = phase[None, :] * shift_rows
            out = (branch @ attack.entries.T) * phase.conj()[None, :]
            back = np.take_along_axis(out, rev, axis=1)
            dec = back @ edag_t
            sector = dec.reshape(db, q, q ** (m - 1))[:, :, 0]
            total += float(np.einsum("ra,ab,rb->", sector.conj(), proj,
                                     sector, optimize=True).real)
    return total / (len(keys) * db * db)


# ------------------------------------------------- measure-resend control

def _candidate_keys(v: tuple[int, ...], p: pc.CodeParams) -> list[pc.SignKey]:
    return [k for k in pc.all_sign_keys(p.m)
            if v in pc._correlated_patterns(k.k, p)[0]]


def measure_resend_experiment(p: pc.CodeParams, psi: qc.StateVector,
                              keyed: bool,
                              rng: np.random.Generator | None = None,
                              trials: int = 2000):
    """Intercept, measure, infer the sign key, re-encode a shifted message.

    Without the one-time pad the measured string betrays the sign key up
    to the pattern ambiguity, so the re-encoded wrong message passes the
    auxiliary check; with the pad the string is uniform noise and the
    attack is caught like any other tamper.  The gate compares the
    mass itself with epsilon, also for the sampled padded variant.
    """
    from . import audit  # audit imports this module
    q, m = p.q, p.m
    keys = pc.all_sign_keys(m)
    proj = np.eye(q) - np.outer(psi.amplitudes, psi.amplitudes.conj())

    if not keyed:
        # exact expectation: enumerate keys, Eve's measurement branches and
        # her uniformly chosen candidate key
        total = 0.0
        for k in keys:
            enc = pc.encode_Ek(psi, k, p)
            probs = np.abs(enc.amplitudes) ** 2
            for idx in np.nonzero(probs > 1e-15)[0]:
                v = p.shape().index_to_digits(idx)
                cands = _candidate_keys(v, p) or keys
                for guess in cands:
                    ahat = pc.decode_measurement(
                        v, guess, pa.SymbolicPauli.identity(q, m), p).value
                    resent = pc.codeword_state((ahat + 1) % q, guess, p)
                    dec = pc.decode_Ek(resent, k, p)
                    sector = dec.amplitudes.reshape(q, q ** (m - 1))[:, 0]
                    mass = float(np.real(sector.conj() @ proj @ sector))
                    total += probs[idx] * mass / len(cands)
        tr_pi0 = total / len(keys)
        trial_count = None
    else:
        if rng is None:
            raise ValueError("the padded variant is sampled and needs an rng")
        acc = 0.0
        for _ in range(trials):
            key = random_poly_key(p, rng)
            enc = pqas_encode(psi, key, p)
            v, _ = qc.measure_wires(enc, tuple(range(m)), rng)
            cands = _candidate_keys(v, p) or keys
            guess = cands[int(rng.integers(len(cands)))]
            ahat = pc.decode_measurement(
                v, guess, pa.SymbolicPauli.identity(q, m), p).value
            resent = pc.codeword_state((ahat + 1) % q, guess, p)
            stripped = _pad_matrix(key, p).conj().T @ resent.amplitudes
            dec = pc.decode_Ek(qc.StateVector(p.shape(), stripped,
                                              check_norm=False),
                               key.sign, p)
            sector = dec.amplitudes.reshape(q, q ** (m - 1))[:, 0]
            acc += float(np.real(sector.conj() @ proj @ sector))
        tr_pi0 = acc / trials
        trial_count = trials
    tr_pi0 = float(tr_pi0)
    return audit.gate("measure-resend undetected-and-wrong mass <= epsilon",
                      p.epsilon, tr_pi0, (tr_pi0, tr_pi0),
                      {"keyed": keyed, "trials": trial_count})
