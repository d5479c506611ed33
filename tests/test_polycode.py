"""Signed polynomial code: codewords, circuits, logical gates, correlation."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, assume
from hypothesis import strategies as st

from qpiplab import audit
from qpiplab import pcalg as pa
from qpiplab import polycode as pc
from qpiplab import qcore as qc

import oracles

P = pc.CodeParams()
Q, D, M = P.q, P.d, P.m
KEYS = pc.all_sign_keys(M)
OMEGA = np.exp(2j * np.pi / Q)


def encode_basis(a: int, k: pc.SignKey) -> qc.StateVector:
    return pc.encode_Ek(qc.basis_state(qc.RegisterShape((Q,)), (a,)), k, P)


def phase_free_close(a: np.ndarray, b: np.ndarray, atol=1e-9) -> bool:
    i = np.argmax(np.abs(b))
    if abs(b[i]) < atol:
        return bool(np.allclose(a, 0, atol=atol))
    ph = a[i] / b[i]
    return abs(abs(ph) - 1) < 1e-7 and np.allclose(a, ph * b, atol=atol)


# ------------------------------------------------------------ parameters

def test_interp_coefficients_value():
    assert P.interp_c == (3, 2, 1)


def test_interp_identity_on_monomials():
    for t in range(M):
        total = sum(c * al ** t for c, al in zip(P.interp_c, P.alphas)) % Q
        assert total == (1 if t == 0 else 0)


def test_lagrange_weights_match_params():
    assert tuple(pc.lagrange_weights(P.alphas, 0, Q)) == P.interp_c


def test_bad_params_rejected():
    with pytest.raises(ValueError):
        pc.CodeParams(q=4, d=1, alphas=(1, 2, 3))
    with pytest.raises(ValueError):
        pc.CodeParams(q=3, d=1, alphas=(1, 2, 0))
    with pytest.raises(ValueError):
        pc.CodeParams(q=5, d=1, alphas=(1, 2, 2))
    with pytest.raises(ValueError):
        pc.CodeParams(q=5, d=1, alphas=(1, 0, 3))


# ------------------------------------------------------------- codewords

def test_codeword_plain_key_support():
    """|S_0> for the all-plus key is the uniform sum of |b,2b,3b>."""
    state = pc.codeword_state(0, pc.SignKey((1, 1, 1)), P)
    want = np.zeros(Q ** M, dtype=complex)
    for b in range(Q):
        want[P.shape().digits_to_index((b, 2 * b % Q, 3 * b % Q))] = 1
    want /= np.sqrt(Q)
    assert np.allclose(state.amplitudes, want)


def test_codeword_states_are_memoised_and_read_only():
    k = KEYS[5]
    state = pc.codeword_state(2, k, P)
    with pytest.raises(ValueError, match="read-only"):
        state.amplitudes[0] = 1.0
    assert pc.codeword_state(2 + Q, k, P) is state
    assert pc.codeword_state(2 - Q, k, P) is state
    for k in KEYS:
        for a in range(Q):
            assert np.max(np.abs(pc.codeword_state(a, k, P).amplitudes
                                 - encode_basis(a, k).amplitudes)) < 1e-12


def test_codeword_memo_holds_one_state_per_digit_and_key():
    pc._codeword_state.cache_clear()
    audit.lemma_suite()
    assert pc._codeword_state.cache_info().currsize <= Q * 2 ** M


def test_codewords_orthonormal():
    for k in KEYS:
        vecs = [pc.codeword_state(a, k, P).amplitudes for a in range(Q)]
        gram = np.array([[np.vdot(u, v) for v in vecs] for u in vecs])
        assert np.allclose(gram, np.eye(Q), atol=1e-12)


def test_key_negation_relabels_support():
    k = pc.SignKey((1, 1, 1))
    neg = pc.SignKey((-1, -1, -1))
    for a in range(Q):
        pos = pc.codeword_state(a, k, P).amplitudes
        rev = pc.codeword_state(a, neg, P).amplitudes
        # negating every sign sends each support label v to -v
        perm = np.zeros_like(pos)
        for idx in np.nonzero(np.abs(pos) > 1e-12)[0]:
            digits = P.shape().index_to_digits(idx)
            j = P.shape().digits_to_index(tuple(-v % Q for v in digits))
            perm[j] = pos[idx]
        assert np.allclose(perm, rev)
        assert sorted(np.round(np.abs(pos), 12)) == \
            sorted(np.round(np.abs(rev), 12))
        # equivalently, the all-negative key encodes the negated message
        assert np.allclose(rev, pc.codeword_state(-a % Q, k, P).amplitudes)


# ------------------------------------------------- interpolation circuit

def test_dk_classical_action_exhaustive():
    """D_k fills in the remaining signed evaluations of a degree-1 poly."""
    a2inv = qc.inv_mod(P.alphas[1], Q)
    for k in KEYS:
        kk = k.residues(Q)
        dk = oracles.build_Dk(k, P).entries
        for a, c in itertools.product(range(Q), repeat=2):
            # f(0) = a and f(alpha_2) = c fix f = a + tx
            t = (c - a) * a2inv % Q
            coeffs = [a, t]
            src = P.shape().digits_to_index((a, int(kk[1]) * c % Q, 0))
            dst = P.shape().digits_to_index(tuple(
                int(kk[i]) * pc.poly_eval(coeffs, al, Q) % Q
                for i, al in enumerate(P.alphas)))
            col = dk[:, src]
            assert np.isclose(col[dst], 1.0)


def test_dk_is_permutation():
    for k in KEYS[:3]:
        dk = oracles.build_Dk(k, P).entries
        assert set(np.unique(dk)) <= {0.0, 1.0}
        assert np.allclose(dk.sum(axis=0), 1)
        assert np.allclose(dk.sum(axis=1), 1)


def test_dk_unitary():
    dk = oracles.build_Dk(pc.SignKey((1, -1, 1)), P).entries
    assert np.allclose(dk.conj().T @ dk, np.eye(Q ** M), atol=1e-12)


# --------------------------------------------------------------- encoder

def test_encoder_matches_codeword_oracle():
    for k in KEYS:
        for a in range(Q):
            got = encode_basis(a, k)
            want = pc.codeword_state(a, k, P)
            assert qc.state_fidelity(got, want) > 1 - 1e-9


def test_encoder_linearity():
    k = pc.SignKey((1, -1, -1))
    plus = qc.StateVector(qc.RegisterShape((Q,)),
                          np.array([1, 1, 0, 0, 0]) / np.sqrt(2))
    got = pc.encode_Ek(plus, k, P)
    want = (pc.codeword_state(0, k, P).amplitudes
            + pc.codeword_state(1, k, P).amplitudes) / np.sqrt(2)
    assert np.allclose(got.amplitudes, want)


def test_encode_decode_round_trip():
    rng = qc.make_rng(11)
    k = pc.SignKey((-1, 1, -1))
    amps = rng.normal(size=Q) + 1j * rng.normal(size=Q)
    amps /= np.linalg.norm(amps)
    psi = qc.StateVector(qc.RegisterShape((Q,)), amps)
    back = pc.decode_Ek(pc.encode_Ek(psi, k, P), k, P)
    want = np.zeros(Q ** M, dtype=complex)
    for a in range(Q):
        want[P.shape().digits_to_index((a, 0, 0))] = amps[a]
    assert np.allclose(back.amplitudes, want, atol=1e-12)


def test_encoder_dense_unitary_consistency():
    k = pc.SignKey((1, 1, -1))
    ek = oracles.dense_encoder(k, P)
    assert np.allclose(ek.conj().T @ ek, np.eye(Q ** M), atol=1e-12)
    for a in range(Q):
        full = np.zeros(Q ** M, dtype=complex)
        full[P.shape().digits_to_index((a, 0, 0))] = 1
        assert np.allclose(ek @ full, encode_basis(a, k).amplitudes)


# --------------------------------------------------------- logical gates

def test_logical_x_shifts_message():
    for k in KEYS:
        got = pc.apply_logical(pc.LogicalGateTag("LX", 1),
                               pc.codeword_state(0, k, P),
                               [list(range(M))], k, P)
        assert phase_free_close(got.amplitudes,
                                pc.codeword_state(1, k, P).amplitudes)


def test_logical_x_general_shift():
    k = pc.SignKey((1, -1, 1))
    for a, x in [(0, 2), (3, 4), (4, 1)]:
        got = pc.apply_logical(pc.LogicalGateTag("LX", x),
                               pc.codeword_state(a, k, P),
                               [list(range(M))], k, P)
        want = pc.codeword_state((a + x) % Q, k, P)
        assert phase_free_close(got.amplitudes, want.amplitudes)


def test_logical_z_phase_exact():
    for k in KEYS[:4]:
        for a, z in itertools.product(range(Q), repeat=2):
            base = pc.codeword_state(a, k, P)
            got = pc.apply_logical(pc.LogicalGateTag("LZ", z), base,
                                   [list(range(M))], k, P)
            assert np.allclose(got.amplitudes,
                               OMEGA ** (z * a) * base.amplitudes)


def test_logical_sum():
    k = pc.SignKey((-1, -1, 1))
    for a, b in [(0, 0), (1, 3), (4, 4), (2, 1)]:
        joint = qc.tensor(pc.codeword_state(a, k, P),
                          pc.codeword_state(b, k, P))
        got = pc.apply_logical(pc.LogicalGateTag("LSUM"), joint,
                               [list(range(M)), list(range(M, 2 * M))], k, P)
        want = qc.tensor(pc.codeword_state(a, k, P),
                         pc.codeword_state((a + b) % Q, k, P))
        assert phase_free_close(got.amplitudes, want.amplitudes)


def test_logical_sum_rejects_mixed_keys():
    joint = qc.tensor(pc.codeword_state(0, KEYS[0], P),
                      pc.codeword_state(0, KEYS[1], P))
    with pytest.raises(ValueError):
        pc.apply_logical(pc.LogicalGateTag("LSUM"), joint,
                         [list(range(M)), list(range(M, 2 * M))],
                         [KEYS[0], KEYS[1]], P)


def test_logical_fourier_stays_in_family():
    """F_c transversally maps |S_a> to the Fourier combination of the
    same key's codewords; with m = 2d+1 the code is its own dual."""
    for k in KEYS:
        for a in range(Q):
            got = pc.apply_logical(pc.LogicalGateTag("LF"),
                                   pc.codeword_state(a, k, P),
                                   [list(range(M))], k, P)
            want = sum(OMEGA ** (a * b)
                       * pc.codeword_state(b, k, P).amplitudes
                       for b in range(Q)) / np.sqrt(Q)
            assert np.allclose(got.amplitudes, want, atol=1e-9)


def test_logical_fourier_measurement_statistics():
    """Encoded Fourier then decode-measure reproduces plain Fourier stats."""
    f = pa.gate_matrix(pa.GateTag("F"), Q).entries
    k = pc.SignKey((1, -1, 1))
    zero_key = pa.SymbolicPauli.identity(Q, M)
    for a in range(Q):
        ref = np.abs(f @ np.eye(Q)[a]) ** 2
        got = pc.apply_logical(pc.LogicalGateTag("LF"),
                               pc.codeword_state(a, k, P),
                               [list(range(M))], k, P)
        dist = np.zeros(Q)
        probs = np.abs(got.amplitudes) ** 2
        for idx in np.nonzero(probs > 1e-15)[0]:
            digits = P.shape().index_to_digits(idx)
            res = pc.decode_measurement(digits, k, zero_key, P)
            assert res.valid
            dist[res.value] += probs[idx]
        assert np.allclose(dist, ref, atol=1e-9)


def test_logical_word_homomorphism():
    """Random length-<=4 logical words act like their plain counterparts."""
    rng = qc.make_rng(23)
    f = pa.gate_matrix(pa.GateTag("F"), Q).entries
    summ = pa.gate_matrix(pa.GateTag("SUM"), Q).entries
    for trial in range(12):
        k = pc.random_sign_key(M, rng)
        word = [("LX", int(rng.integers(Q))), ("LZ", int(rng.integers(Q))),
                ("LSUM", None), ("LF", None)]
        rng.shuffle(word)
        word = word[:int(rng.integers(1, 5))]
        ain, bin_ = int(rng.integers(Q)), int(rng.integers(Q))
        enc = qc.tensor(pc.codeword_state(ain, k, P),
                        pc.codeword_state(bin_, k, P))
        plain_vec = np.zeros(Q * Q, dtype=complex)
        plain_vec[ain * Q + bin_] = 1.0
        for name, param in word:
            if name == "LSUM":
                enc = pc.apply_logical(pc.LogicalGateTag("LSUM"), enc,
                                       [list(range(M)),
                                        list(range(M, 2 * M))], k, P)
                plain_vec = summ @ plain_vec
            elif name == "LF":
                enc = pc.apply_logical(pc.LogicalGateTag("LF"), enc,
                                       [list(range(M))], k, P)
                plain_vec = np.kron(f, np.eye(Q)) @ plain_vec
            else:
                enc = pc.apply_logical(pc.LogicalGateTag(name, param), enc,
                                       [list(range(M))], k, P)
                g = pa.pauli_matrix_1(Q, param, 0) if name == "LX" \
                    else pa.pauli_matrix_1(Q, 0, param)
                plain_vec = np.kron(g, np.eye(Q)) @ plain_vec
        want = np.zeros_like(enc.amplitudes)
        for i, j in itertools.product(range(Q), repeat=2):
            if abs(plain_vec[i * Q + j]) > 1e-15:
                want += plain_vec[i * Q + j] * qc.tensor(
                    pc.codeword_state(i, k, P),
                    pc.codeword_state(j, k, P)).amplitudes
        assert phase_free_close(enc.amplitudes, want), (trial, word)


def test_logical_sum_powers():
    k = pc.SignKey((1, -1, -1))
    blocks = [list(range(M)), list(range(M, 2 * M))]
    for t in range(1, Q):
        for a, b in [(0, 2), (3, 1), (4, 4)]:
            joint = qc.tensor(pc.codeword_state(a, k, P),
                              pc.codeword_state(b, k, P))
            got = pc.apply_logical(pc.LogicalGateTag("LSUM", t), joint,
                                   blocks, k, P)
            want = qc.tensor(pc.codeword_state(a, k, P),
                             pc.codeword_state((b + t * a) % Q, k, P))
            assert np.allclose(got.amplitudes, want.amplitudes, atol=1e-9)


def test_logical_sum_inverse_round_trip():
    k = pc.SignKey((-1, 1, 1))
    blocks = [list(range(M)), list(range(M, 2 * M))]
    joint = qc.tensor(pc.codeword_state(2, k, P), pc.codeword_state(4, k, P))
    fwd = pc.apply_logical(pc.LogicalGateTag("LSUM"), joint, blocks, k, P)
    back = pc.apply_logical(pc.LogicalGateTag("LSUM", Q - 1), fwd,
                            blocks, k, P)
    assert np.allclose(back.amplitudes, joint.amplitudes, atol=1e-12)


def test_logical_fourier_inverse_round_trip():
    for k in KEYS[:4]:
        base = pc.codeword_state(3, k, P)
        fwd = pc.apply_logical(pc.LogicalGateTag("LF"), base,
                               [list(range(M))], k, P)
        back = pc.apply_logical(pc.LogicalGateTag("LF", -1), fwd,
                                [list(range(M))], k, P)
        assert np.allclose(back.amplitudes, base.amplitudes, atol=1e-9)


def test_logical_cpg_exact_phase():
    """Transversal CPG^{t c_i} puts exactly w^{tab} on |S_a>|S_b>."""
    blocks = [list(range(M)), list(range(M, 2 * M))]
    for k in KEYS:
        for t in (1, 2, Q - 1):
            for a, b in [(0, 3), (1, 1), (2, 4), (4, 2)]:
                joint = qc.tensor(pc.codeword_state(a, k, P),
                                  pc.codeword_state(b, k, P))
                got = pc.apply_logical(pc.LogicalGateTag("LCPG", t), joint,
                                       blocks, k, P)
                assert np.allclose(got.amplitudes,
                                   OMEGA ** (t * a * b) * joint.amplitudes,
                                   atol=1e-9)


def test_logical_cpg_rejects_mixed_keys():
    joint = qc.tensor(pc.codeword_state(0, KEYS[0], P),
                      pc.codeword_state(0, KEYS[2], P))
    with pytest.raises(ValueError):
        pc.apply_logical(pc.LogicalGateTag("LCPG"), joint,
                         [list(range(M)), list(range(M, 2 * M))],
                         [KEYS[0], KEYS[2]], P)


def test_logical_multiplication_permutes_codewords():
    for k in KEYS[:4]:
        for r in range(1, Q):
            for a in range(Q):
                got = pc.apply_logical(pc.LogicalGateTag("LM", r),
                                       pc.codeword_state(a, k, P),
                                       [list(range(M))], k, P)
                want = pc.codeword_state(r * a % Q, k, P)
                assert np.allclose(got.amplitudes, want.amplitudes, atol=1e-12)


def test_logical_multiplication_rejects_zero():
    with pytest.raises(ValueError):
        pc.apply_logical(pc.LogicalGateTag("LM", Q), pc.codeword_state(0, KEYS[0], P),
                         [list(range(M))], KEYS[0], P)


def test_logical_cpg_matches_plain_on_superpositions():
    """Dense cross-check on F-rotated codeword pairs."""
    cpg = pa.gate_matrix(pa.GateTag("CPG"), Q).entries
    blocks = [list(range(M)), list(range(M, 2 * M))]
    k = pc.SignKey((-1, 1, -1))
    enc = qc.tensor(pc.codeword_state(0, k, P), pc.codeword_state(0, k, P))
    for blk in blocks:
        enc = pc.apply_logical(pc.LogicalGateTag("LF"), enc, [blk], k, P)
    got = pc.apply_logical(pc.LogicalGateTag("LCPG"), enc, blocks, k, P)
    f = pa.gate_matrix(pa.GateTag("F"), Q).entries
    plain = cpg @ np.kron(f @ np.eye(Q)[0], f @ np.eye(Q)[0])
    want = np.zeros_like(got.amplitudes)
    for i, j in itertools.product(range(Q), repeat=2):
        want += plain[i * Q + j] * qc.tensor(
            pc.codeword_state(i, k, P), pc.codeword_state(j, k, P)).amplitudes
    assert np.allclose(got.amplitudes, want, atol=1e-9)


# ---------------------------------------------------------- measurement

def test_decode_untampered_support_exhaustive():
    zero_key = pa.SymbolicPauli.identity(Q, M)
    for k in KEYS:
        for a in range(Q):
            amps = pc.codeword_state(a, k, P).amplitudes
            for idx in np.nonzero(np.abs(amps) > 1e-12)[0]:
                res = pc.decode_measurement(
                    P.shape().index_to_digits(idx), k, zero_key, P)
                assert res.valid and res.value == a


def test_decode_sampled_draws():
    rng = qc.make_rng(5)
    k = pc.SignKey((1, 1, -1))
    zero_key = pa.SymbolicPauli.identity(Q, M)
    state = pc.codeword_state(3, k, P)
    for _ in range(100):
        digits, _ = qc.measure_wires(state, tuple(range(M)), rng)
        res = pc.decode_measurement(digits, k, zero_key, P)
        assert res.valid and res.value == 3


def test_single_coordinate_shift_always_invalid():
    zero_key = pa.SymbolicPauli.identity(Q, M)
    for k in KEYS:
        for j in range(M):
            amps = pc.codeword_state(1, k, P).amplitudes
            for idx in np.nonzero(np.abs(amps) > 1e-12)[0]:
                digits = list(P.shape().index_to_digits(idx))
                digits[j] = (digits[j] + 1) % Q
                res = pc.decode_measurement(digits, k, zero_key, P)
                assert not res.valid


def test_pauli_key_round_trip():
    rng = qc.make_rng(7)
    k = pc.SignKey((-1, 1, 1))
    pkey = pc.random_pauli_key(P, rng)
    amps = pc.codeword_state(2, k, P).amplitudes
    idx = np.nonzero(np.abs(amps) > 1e-12)[0][2]
    raw = P.shape().index_to_digits(idx)
    masked = tuple((v + xv) % Q for v, xv in zip(raw, pkey.x))
    plain = pc.decode_measurement(raw, k, pa.SymbolicPauli.identity(Q, M), P)
    keyed = pc.decode_measurement(masked, k, pkey, P)
    assert plain == keyed


# --------------------------------------------------- correlated operators

def test_logical_x_footprint_correlated():
    for k in KEYS:
        foot = pc.logical_x_footprint(1, k, P)
        assert pc.is_k_correlated(foot, k, P)


def test_single_shift_uncorrelated_everywhere():
    e1 = pa.SymbolicPauli(Q, [1, 0, 0], [0, 0, 0])
    for k in KEYS:
        assert not pc.is_k_correlated(e1, k, P)


def test_identity_correlation_rejected():
    with pytest.raises(ValueError):
        pc.is_k_correlated(pa.SymbolicPauli.identity(Q, M), KEYS[0], P)


def test_correlated_count_per_key():
    """Each key admits exactly q^(d+1) X patterns times q^(d+1) Z patterns."""
    for k in KEYS:
        xs, zs = pc._correlated_patterns(k.k, P)
        assert len(xs) == len(zs) == Q ** (D + 1)
        count = sum(
            1 for x in xs for z in zs if any(x) or any(z))
        assert count == Q ** (2 * D + 2) - 1 == 624


def test_pattern_matches_semantic_correlation():
    """Pattern membership agrees with the dense code-space-preserving test."""
    rng = qc.make_rng(31)
    zero_aux = np.zeros(Q ** (M - 1))
    zero_aux[0] = 1
    sector = np.kron(np.eye(Q), np.outer(zero_aux, zero_aux))
    for k in KEYS[:4]:
        ek = oracles.dense_encoder(k, P)
        for _ in range(20):
            x = rng.integers(Q, size=M)
            z = rng.integers(Q, size=M)
            if not (x.any() or z.any()):
                continue
            op = pa.SymbolicPauli(Q, x, z)
            dec = ek.conj().T @ pa.pauli_matrix(op).entries @ ek
            blk = dec @ sector
            semantic = np.max(np.abs(blk - sector @ blk)) < 1e-9
            assert pc.is_k_correlated(op, k, P) == semantic


def test_correlation_key_multiplicity_histogram():
    """Exhaustive overlap structure of the eight pattern sets.

    Most non-identity Paulis are correlated for 0 or 2 keys, but footprint
    polynomials that vanish at an evaluation point leave that coordinate's
    sign unconstrained, so 144 operators are correlated for 4 keys.
    """
    hist = {}
    per_key = {k.k: pc._correlated_patterns(k.k, P) for k in KEYS}
    for xz in itertools.product(range(Q), repeat=2 * M):
        x, z = xz[:M], xz[M:]
        if not any(xz):
            continue
        c = sum(1 for k in KEYS
                if x in per_key[k.k][0] and z in per_key[k.k][1])
        hist[c] = hist.get(c, 0) + 1
    assert hist == {0: 13272, 2: 2208, 4: 144}
    # pair count matches the per-key pattern count exactly
    assert sum(c * n for c, n in hist.items()) == 8 * 624


def test_four_key_example():
    """g(x) = x+2 vanishes at the third evaluation point, so X^(3,4,0)
    is correlated whenever the first two signs agree."""
    op = pa.SymbolicPauli(Q, [3, 4, 0], [0, 0, 0])
    matched = [k.k for k in KEYS if pc.is_k_correlated(op, k, P)]
    assert sorted(matched) == [(-1, -1, -1), (-1, -1, 1),
                               (1, 1, -1), (1, 1, 1)]


def test_signed_vector_uniqueness():
    """Equal signed evaluation vectors force equal polynomials and equal
    signs at every coordinate where the polynomial is non-zero."""
    polys = list(itertools.product(range(Q), repeat=D + 1))
    vecs = {}
    for k in KEYS:
        kk = k.residues(Q)
        for coeffs in polys:
            evals = tuple(pc.poly_eval(list(coeffs), al, Q)
                          for al in P.alphas)
            if not any(evals):
                continue
            vec = tuple(int(kk[i] * evals[i] % Q) for i in range(M))
            vecs.setdefault(vec, []).append((k.k, evals))
    for vec, owners in vecs.items():
        base_k, base_evals = owners[0]
        for kk2, evals2 in owners[1:]:
            # same vector means same evaluations up to a global sign
            flip = {1 if e2 == e1 else -1
                    for e1, e2 in zip(base_evals, evals2) if e1 or e2}
            assert len(flip) == 1
            s = flip.pop()
            for i in range(M):
                if base_evals[i] % Q:
                    assert kk2[i] == s * base_k[i] % Q or \
                        (kk2[i] - s * base_k[i]) % Q == 0
        # vectors with no zero coordinate admit at most two keys
        if all(vec):
            assert len({o[0] for o in owners}) <= 2


def test_decompose_single_shift():
    e1 = pa.SymbolicPauli(Q, [1, 0, 0], [0, 0, 0])
    for k in KEYS:
        q_corr, q_unc = pc.decompose_correlated(e1, k, P)
        assert pc.is_k_correlated(q_corr, k, P)
        assert any(q_unc.x[D + 1:])
        recomposed = q_unc.compose(q_corr)
        assert np.array_equal(recomposed.x % Q, e1.x % Q)
        assert np.array_equal(recomposed.z % Q, e1.z % Q)


def test_decompose_rejects_correlated_input():
    foot = pc.logical_x_footprint(1, KEYS[0], P)
    with pytest.raises(ValueError):
        pc.decompose_correlated(foot, KEYS[0], P)


def test_leftover_always_flips_an_auxiliary():
    """The uncorrelated factor moves probability out of the valid-aux
    sector entirely: its decoded X part hits a checked wire."""
    rng = qc.make_rng(13)
    zero_aux = np.zeros(Q ** (M - 1))
    zero_aux[0] = 1
    for k in KEYS[:3]:
        ek = oracles.dense_encoder(k, P)
        checked = 0
        while checked < 10:
            x = rng.integers(Q, size=M)
            z = rng.integers(Q, size=M)
            op = pa.SymbolicPauli(Q, x, z)
            if not (x.any() or z.any()) or pc.is_k_correlated(op, k, P):
                continue
            checked += 1
            _, q_unc = pc.decompose_correlated(op, k, P)
            dec = oracles.conjugate_by_encoding(q_unc, k, P, dagger=True)
            assert any(dec.x[1:])
            # dense cross-check of the zero-overlap property
            for a in range(Q):
                vec = np.kron(np.eye(Q)[a], zero_aux)
                out = ek.conj().T @ (
                    pa.pauli_matrix(q_unc).entries @ (ek @ vec))
                overlap = out.reshape(Q, Q ** (M - 1))[:, 0]
                assert np.linalg.norm(overlap) < 1e-10


def test_conjugate_by_encoding_matches_dense():
    rng = qc.make_rng(29)
    for k in KEYS[:3]:
        ek = oracles.dense_encoder(k, P)
        for _ in range(8):
            x = rng.integers(Q, size=M)
            z = rng.integers(Q, size=M)
            op = pa.SymbolicPauli(Q, x, z)
            dense_fwd = ek @ pa.pauli_matrix(op).entries @ ek.conj().T
            sym_fwd = pa.pauli_matrix(
                oracles.conjugate_by_encoding(op, k, P)).entries
            i = np.unravel_index(np.argmax(np.abs(sym_fwd)), sym_fwd.shape)
            ph = dense_fwd[i] / sym_fwd[i]
            assert abs(abs(ph) - 1) < 1e-9
            assert np.allclose(dense_fwd, ph * sym_fwd, atol=1e-9)
            dense_bwd = ek.conj().T @ pa.pauli_matrix(op).entries @ ek
            sym_bwd = pa.pauli_matrix(
                oracles.conjugate_by_encoding(op, k, P, dagger=True)).entries
            i = np.unravel_index(np.argmax(np.abs(sym_bwd)), sym_bwd.shape)
            ph = dense_bwd[i] / sym_bwd[i]
            assert abs(abs(ph) - 1) < 1e-9
            assert np.allclose(dense_bwd, ph * sym_bwd, atol=1e-9)


# ------------------------------------------------------------ properties

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4), st.integers(0, 255), st.integers(0, 7))
def test_any_support_string_decodes(a, draw, key_idx):
    k = KEYS[key_idx]
    amps = pc.codeword_state(a, k, P).amplitudes
    support = np.nonzero(np.abs(amps) > 1e-12)[0]
    digits = P.shape().index_to_digits(support[draw % len(support)])
    res = pc.decode_measurement(digits, k, pa.SymbolicPauli.identity(Q, M), P)
    assert res.valid and res.value == a


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 7), st.integers(0, 624), st.integers(0, 624))
def test_correlated_closed_under_composition(key_idx, i, j):
    k = KEYS[key_idx]
    xs, zs = pc._correlated_patterns(k.k, P)
    xs, zs = sorted(xs), sorted(zs)
    a = pa.SymbolicPauli(Q, xs[i % len(xs)], zs[j % len(zs)])
    b = pa.SymbolicPauli(Q, xs[j % len(xs)], zs[i % len(zs)])
    assume(not a.is_identity() and not b.is_identity())
    c = a.compose(b)
    assume(not c.is_identity())
    assert pc.is_k_correlated(c, k, P)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 7), st.integers(1, 4), st.integers(0, 2))
def test_random_single_tamper_detected(key_idx, shift, wire):
    k = KEYS[key_idx]
    amps = pc.codeword_state(0, k, P).amplitudes
    for idx in np.nonzero(np.abs(amps) > 1e-12)[0]:
        digits = list(P.shape().index_to_digits(idx))
        digits[wire] = (digits[wire] + shift) % Q
        assert not pc.decode_measurement(
            digits, k, pa.SymbolicPauli.identity(Q, M), P).valid


@pytest.mark.parametrize("q, d", [(5, 1), (7, 2)])
def test_vandermonde_inverse_is_cached_and_read_only(q, d):
    p = pc.CodeParams(q=q, d=d, alphas=tuple(range(1, 2 * d + 2)))
    rng = qc.make_rng(q)
    # the node sets decompose_correlated interpolates on
    for nodes in (p.alphas[:d + 1], p.alphas[:1] + p.alphas[d + 1:]):
        vand = np.array([[pow(x, t, q) for t in range(d + 1)]
                         for x in nodes], dtype=np.int64)
        inv = pc.mat_inv_mod(vand, q)
        cached = pc._vandermonde_inverse(nodes, q)
        assert np.array_equal(cached, inv)
        assert pc._vandermonde_inverse(nodes, q) is cached
        with pytest.raises(ValueError, match="read-only"):
            cached[0, 0] = cached[0, 0]
        for _ in range(50):
            ys = rng.integers(0, q, size=d + 1)
            coeffs = pc.interpolate(list(nodes), ys.tolist(), q)
            assert coeffs == [int(v) for v in inv @ ys % q]
            assert [pc.poly_eval(coeffs, x, q) for x in nodes] == ys.tolist()
