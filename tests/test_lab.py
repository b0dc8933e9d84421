"""Side-channel evaluation tests: NICV, monobit CPA, success-rate
curves, per-bit profiling, and trace file I/O."""

import struct
from unittest import mock

import numpy as np
import pytest

from dualrail import lab
from dualrail.lab import (
    ADMISSIBLE_PAIRS,
    DEFAULT_NOISE_SIGMA,
    AttackResult,
    LabError,
    LeakModel,
    TraceSet,
    cpa_monobit,
    load_traces,
    nibble_classifier,
    nicv,
    profile_bits,
    save_traces,
    success_rate,
    synth_traces,
    write_curve_csv,
)
from dualrail.present import (
    LABEL_SBOX,
    SBOX,
    first_round_subkey_nibble,
    loop_iteration_window,
    present_program,
)
from dualrail.asm import WORD_BITS, parse, resolve

from conftest import TEST_KEY


def _ts(traces, plaintexts, key=None):
    return TraceSet(
        traces=np.asarray(traces, dtype=np.float32),
        plaintexts=np.asarray(plaintexts, dtype=np.uint64),
        fixed_key=key,
    )


# -- model / container validation -------------------------------------------


def test_leak_model_validation():
    with pytest.raises(LabError):
        LeakModel(noise_sigma=-1.0)
    with pytest.raises(LabError):
        LeakModel(weights=())
    assert LeakModel().weights == (1.0,) * 8
    assert DEFAULT_NOISE_SIGMA > 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_leak_model_refuses_non_finite_values(bad):
    # an infinite noise level once "attacked" with success rate 1.0
    with pytest.raises(LabError, match="noise_sigma must be finite"):
        LeakModel(noise_sigma=bad)
    with pytest.raises(LabError, match="weights must be finite"):
        LeakModel(weights=(1.0,) * 7 + (bad,))


def test_trace_set_validation():
    with pytest.raises(LabError):
        _ts(np.zeros(4), [0, 1, 2, 3])  # 1-D
    with pytest.raises(LabError):
        _ts(np.zeros((3, 5)), [0, 1])  # row/plaintext mismatch
    ts = _ts(np.zeros((3, 5)), [0, 1, 2])
    assert ts.n_runs == 3 and ts.n_cycles == 5


def test_nibble_classifier():
    cls = nibble_classifier(3)
    assert cls(0xABCD) == 0xA
    assert nibble_classifier(0)(0xABCD) == 0xD


# -- NICV -------------------------------------------------------------------


def test_nicv_hand_computed():
    # two classes with means 0 and 2, no within-class scatter: NICV = 1
    ts = _ts([[0.0], [0.0], [2.0], [2.0]], [0, 0, 1, 1])
    assert nicv(ts, nibble_classifier(0))[0] == pytest.approx(1.0)
    # identical class means: NICV = 0
    ts = _ts([[0.0], [1.0], [0.0], [1.0]], [0, 0, 1, 1])
    assert nicv(ts, nibble_classifier(0))[0] == pytest.approx(0.0)
    # half the signal variance explained by the class
    ts = _ts([[0.0], [2.0], [1.0], [3.0]], [0, 0, 1, 1])
    # class means 1 and 2, grand 1.5: between = 0.25; total var = 1.25
    assert nicv(ts, nibble_classifier(0))[0] == pytest.approx(0.25 / 1.25)


def test_nicv_zero_variance_cycle_reports_zero():
    ts = _ts([[5.0, 0.0], [5.0, 1.0], [5.0, 0.0], [5.0, 3.0]], [0, 0, 1, 1])
    vals = nicv(ts, nibble_classifier(0))
    assert vals[0] == 0.0
    assert (vals >= 0).all() and (vals <= 1).all()


def test_nicv_layout_and_chunks_agree(monkeypatch):
    rng = np.random.default_rng(7)
    n, c = 300, 50
    t = (rng.integers(0, 9, size=(n, c)) + rng.normal(0.0, 0.5, size=(n, c))).astype(np.float32)
    t[:, 3] = 2.0
    pts = rng.integers(0, 1 << 64, size=n, dtype=np.uint64)
    classify = nibble_classifier(0)
    # direct per-class means, centred two-pass variance
    x = t.astype(np.float64)
    labels = pts & np.uint64(0xF)
    grand = x.mean(axis=0)
    between = sum(
        (labels == v).sum() * (x[labels == v].mean(axis=0) - grand) ** 2 for v in np.unique(labels)
    ) / n
    total = x.var(axis=0)
    ref = np.where(total > 0, between / np.where(total > 0, total, 1.0), 0.0)
    got = [nicv(TraceSet(m, pts, None), classify) for m in (t, np.asfortranarray(t))]
    monkeypatch.setattr(lab, "NICV_CHUNK_BYTES", 8 * n * 7)  # 7 cycles per chunk
    got.append(nicv(TraceSet(t, pts, None), classify))
    for g in got:
        np.testing.assert_allclose(g, ref, rtol=1e-12, atol=0)
        assert g[3] == 0.0


def test_nicv_needs_two_classes():
    ts = _ts([[1.0], [2.0]], [7, 7])
    with pytest.raises(LabError):
        nicv(ts, nibble_classifier(0))


# -- trace synthesis --------------------------------------------------------


def test_synth_reproducible_and_seeded(linked_unprotected, sbox_window_u):
    m = LeakModel(noise_sigma=1.0)
    a = synth_traces(linked_unprotected, TEST_KEY, 20, m, seed=3, window=sbox_window_u)
    b = synth_traces(linked_unprotected, TEST_KEY, 20, m, seed=3, window=sbox_window_u)
    c = synth_traces(linked_unprotected, TEST_KEY, 20, m, seed=4, window=sbox_window_u)
    assert np.array_equal(a.traces, b.traces)
    assert np.array_equal(a.plaintexts, b.plaintexts)
    assert not np.array_equal(a.traces, c.traces)
    assert a.fixed_key == TEST_KEY
    assert a.cycle_offset == sbox_window_u[0]
    assert a.n_cycles == sbox_window_u[1] - sbox_window_u[0]


def test_synth_window_is_slice_of_full(linked_unprotected, sbox_window_u):
    m = LeakModel(noise_sigma=0.0)
    lo, hi = sbox_window_u
    # one seed draws the same plaintexts for both
    full = synth_traces(linked_unprotected, TEST_KEY, 40, m, seed=3)
    part = synth_traces(linked_unprotected, TEST_KEY, 40, m, seed=3, window=(lo, hi))
    assert np.array_equal(part.plaintexts, full.plaintexts)
    assert np.array_equal(part.traces, full.traces[:, lo:hi])


# -- monobit CPA ------------------------------------------------------------


def test_cpa_structural_tie_classes(linked_unprotected, sbox_window_u):
    """The linear structure LSB(S(v^9)) = LSB(S(v)) makes guesses g and g^9
    tie bitwise-exactly; complement guesses (negated predictions) do not tie
    under signed ranking and lose to the true positive peak."""
    m = LeakModel(noise_sigma=1.0)
    ts = synth_traces(linked_unprotected, TEST_KEY, 300, m, seed=9, window=sbox_window_u)
    res = cpa_monobit(ts, target=0)
    s = res.scores
    for g in range(16):
        assert s[g] == s[g ^ 9]
    true_nib = first_round_subkey_nibble(TEST_KEY, 0)
    assert s[true_nib] > s[true_nib ^ 1]  # complement anti-correlates
    assert res.traces_used == 300
    # the winning pair is exactly the true nibble's structural pair
    assert res.success
    assert res.best_guess in {true_nib, true_nib ^ 9}


def test_cpa_no_signal_on_flat_traces():
    rng = np.random.default_rng(0)
    ts = _ts(np.ones((64, 10)), rng.integers(0, 1 << 16, 64), key=TEST_KEY)
    res = cpa_monobit(ts)
    assert res.no_signal and not res.success and res.best_guess == -1


def test_cpa_degenerate_plaintexts_raise():
    ts = _ts(np.zeros((8, 4)), [5] * 8)
    with pytest.raises(LabError):
        cpa_monobit(ts)


def test_cpa_window_bounds_checked():
    ts = _ts(np.zeros((8, 4)), list(range(8)))
    with pytest.raises(LabError):
        cpa_monobit(ts, window=(2, 9))


def test_cpa_needs_key_for_success():
    rng = np.random.default_rng(1)
    ts = _ts(rng.normal(size=(64, 6)), rng.integers(0, 1 << 16, 64))
    res = cpa_monobit(ts)  # no fixed_key, no true_key
    assert isinstance(res, AttackResult)
    assert not res.success
    assert 0 <= res.best_guess < 16


def test_cpa_correlations_bounded(linked_unprotected, sbox_window_u):
    ts = synth_traces(
        linked_unprotected, TEST_KEY, 100, LeakModel(noise_sigma=0.5), seed=2,
        window=sbox_window_u,
    )
    res = cpa_monobit(ts)
    assert np.all(np.abs(res.correlations) <= 1.0)
    assert res.correlations.shape == (16, ts.n_cycles)


def _nicv_reference(traces, classifier):
    """nicv as one one-hot matmul per chunk, copied from before NICV and
    CPA shared their class statistics."""
    labels = np.asarray([classifier(int(p)) for p in traces.plaintexts])
    classes, inverse = np.unique(labels, return_inverse=True)
    n, n_cycles = traces.traces.shape
    counts = np.bincount(inverse).astype(np.float64)[:, None]
    onehot = np.zeros((len(classes), n))
    onehot[inverse, np.arange(n)] = 1.0
    out = np.zeros(n_cycles)
    step = max(1, lab.NICV_CHUNK_BYTES // (8 * n))
    for lo in range(0, n_cycles, step):
        t = traces.traces[:, lo : lo + step].astype(np.float64)
        between = ((onehot @ t / counts - t.mean(axis=0)) ** 2 * counts).sum(axis=0) / n
        total = t.var(axis=0)
        nz = total > 0
        out[lo : lo + step][nz] = between[nz] / total[nz]
    return np.clip(out, 0.0, 1.0)


def _cpa_reference(traces, target=0, window=None):
    """Monobit CPA correlations from the (16, n) prediction matrix and the
    centred traces, copied from before CPA read class sums."""
    nib = ((traces.plaintexts >> np.uint64(4 * target)) & np.uint64(0xF)).astype(np.int64)
    lsb = np.array([SBOX[v] & 1 for v in range(16)], dtype=np.uint8)
    pred = lsb[nib[None, :] ^ np.arange(16)[:, None]].astype(np.float64) * 2.0 - 1.0
    t = traces.traces
    if window is not None:
        t = t[:, window[0] : window[1]]
    t = t.astype(np.float64)
    t_c = t - t.mean(axis=0)
    p_c = pred - pred.mean(axis=1, keepdims=True)
    t_ss = np.sqrt((t_c**2).sum(axis=0))
    p_ss = np.sqrt((p_c**2).sum(axis=1))
    cov = p_c @ t_c
    denom = p_ss[:, None] * t_ss[None, :]
    corr = np.zeros_like(cov)
    nz = denom > 0
    corr[nz] = cov[nz] / denom[nz]
    return np.clip(corr, -1.0, 1.0), bool(np.all(t_ss == 0))


@pytest.mark.parametrize("n", [20, 300])
def test_class_statistics_match_direct_formulas(n, monkeypatch):
    """NICV equals its one-hot reference bit for bit and CPA's correlations
    its prediction-matrix reference to 1e-12, across layouts, chunkings and
    windows; n = 20 leaves some nibble classes empty."""
    rng = np.random.default_rng(1)
    c = 40
    t = (rng.integers(0, 9, size=(n, c)) + rng.normal(0.0, 0.5, size=(n, c)) + 50).astype(np.float32)
    t[:, 5] = 2.0
    pts = rng.integers(0, 1 << 64, size=n, dtype=np.uint64)
    if n == 20:
        assert len(np.unique(pts & np.uint64(0xF))) < 16
    for chunk in (lab.NICV_CHUNK_BYTES, 8 * n * 7):  # one chunk, then 7 cycles per chunk
        monkeypatch.setattr(lab, "NICV_CHUNK_BYTES", chunk)
        for m in (t, np.asfortranarray(t)):
            ts = TraceSet(m, pts, TEST_KEY)
            for nibble in (0, 3):
                classify = nibble_classifier(nibble)
                got = nicv(ts, classify)
                assert np.array_equal(got, _nicv_reference(ts, classify))
                assert got[5] == 0.0
            for window in (None, (3, 30)):
                res = cpa_monobit(ts, window=window)
                corr, no_signal = _cpa_reference(ts, window=window)
                np.testing.assert_allclose(res.correlations, corr, rtol=0, atol=1e-12)
                ref_scores = corr.max(axis=1)
                true_nib = first_round_subkey_nibble(TEST_KEY, 0)
                assert res.best_guess == int(ref_scores.argmax())
                assert res.success == bool(ref_scores[true_nib] >= ref_scores.max())
                assert res.no_signal == no_signal
                for g in range(16):
                    assert res.scores[g] == res.scores[g ^ 9]


# -- success-rate curves ----------------------------------------------------


def test_success_rate_grid_shape(linked_unprotected, sbox_window_u):
    m = LeakModel(noise_sigma=2.0)
    curve = success_rate(
        linked_unprotected, TEST_KEY, m, [50, 150], attacks_per_point=5,
        seed=0, window=sbox_window_u,
    )
    assert [n for n, _ in curve] == [50, 150]
    assert all(0.0 <= r <= 1.0 for _, r in curve)
    with pytest.raises(LabError):
        success_rate(linked_unprotected, TEST_KEY, m, [10], attacks_per_point=0)
    with pytest.raises(LabError, match="at least 2 traces"):
        success_rate(linked_unprotected, TEST_KEY, m, [50, 1], attacks_per_point=1)


def test_rail_imbalance_degrades_protection(linked_dpl, canonical_cfg, sbox_window_d):
    """Balanced rails hide the secret only while the device weighs both rail
    bit lines equally: growing the false-rail weight by delta restores the
    attack.  Rates measured at fixed seeds form a staircase."""
    rates = []
    for delta in (0.0, 0.25, 0.6, 1.5):
        m = LeakModel(weights=(1.0 + delta,) + (1.0,) * 7, noise_sigma=2.0)
        curve = success_rate(
            linked_dpl, TEST_KEY, m, [150], attacks_per_point=20, seed=11,
            window=sbox_window_d, cfg=canonical_cfg,
        )
        rates.append(curve[0][1])
    assert rates == sorted(rates), rates
    assert rates[0] <= 0.5  # balanced: near the 1-in-4 tie-class chance level
    assert rates[-1] >= 0.9  # strongly imbalanced: attack recovers the nibble


def test_success_rate_curve_pinned(linked_unprotected, sbox_window_u):
    """The unprotected curve the benchmark's campaign draws with seed 1,
    recorded before CPA read class sums."""
    curve = success_rate(
        linked_unprotected, TEST_KEY, LeakModel(noise_sigma=2.0), [50, 100, 200, 500],
        attacks_per_point=20, seed=[1, 0], window=sbox_window_u,
    )
    assert curve == [(50, 0.85), (100, 0.95), (200, 1.0), (500, 1.0)]


LOOP_XOR = (
    "mov r1 #0\n"
    "top: xor r2 !r1,0 !r1,64\n"
    "mov !r1,456 r2\n"
    "add r1 r1 #1\n"
    "bne r1 #8 top\n"
)


@pytest.mark.parametrize(
    "case, grid, attacks, budget_lanes, lanes",
    [
        # 100 lanes fit the budget: 3 and 2 attacks per batch, a partial
        # last chunk, then attacks over the budget that run one per batch
        ("slot", [30, 50, 150], 7, 100, [90, 90, 30, 100, 100, 100, 50] + [150] * 7),
        ("dpl", [30, 45, 120], 5, 100, [90, 60, 90, 90, 45] + [120] * 5),
        # no window end: one attack per batch whatever the budget
        ("full", [8, 20], 3, 10**6, [8] * 3 + [20] * 3),
    ],
)
def test_success_rate_equals_per_attack_runs(
    case, grid, attacks, budget_lanes, lanes, request, monkeypatch
):
    """Packed campaigns give each attack the traces, scores and hit of
    synth_traces + cpa_monobit under that attack's own seed."""
    if case == "slot":
        program = resolve(parse(present_program(2)))
        window, kw = loop_iteration_window(program, LABEL_SBOX), dict(slot=2)
    elif case == "dpl":
        program, window = request.getfixturevalue("linked_dpl"), request.getfixturevalue("sbox_window_d")
        kw = dict(cfg=request.getfixturevalue("canonical_cfg"))
    else:  # a loop over the first plaintext and key cells, run to its halt
        program, window, kw = resolve(parse(LOOP_XOR)), None, {}
    lo, hi = window or (0, 0)
    monkeypatch.setattr(lab, "BATCH_BYTES", budget_lanes * (program.mem_size + 4 * (hi - lo)))
    calls, attacked = [], []
    run, attack = lab.batch_run, lab.cpa_monobit

    def counted_run(p, n_runs, **opts):
        calls.append(n_runs)
        return run(p, n_runs, **opts)

    def recorded_attack(ts, target):
        attacked.append((ts, attack(ts, target)))
        return attacked[-1][1]

    monkeypatch.setattr(lab, "batch_run", counted_run)
    monkeypatch.setattr(lab, "cpa_monobit", recorded_attack)

    m = LeakModel(noise_sigma=2.0)
    curve = success_rate(program, TEST_KEY, m, grid, attacks, seed=5, window=window, **kw)
    monkeypatch.undo()
    assert calls == lanes
    assert len(attacked) == len(grid) * attacks
    packed = iter(attacked)
    for pi, n in enumerate(grid):
        hits = 0
        for a in range(attacks):
            seed = np.random.SeedSequence(5, spawn_key=(pi, a))
            ts = synth_traces(program, TEST_KEY, n, m, seed=seed, window=window, **kw)
            res = cpa_monobit(ts, 0)
            p_ts, p_res = next(packed)
            np.testing.assert_array_equal(p_ts.traces, ts.traces)
            np.testing.assert_array_equal(p_ts.plaintexts, ts.plaintexts)
            assert p_ts.cycle_offset == ts.cycle_offset
            np.testing.assert_array_equal(p_res.scores, res.scores)
            assert p_res.success == res.success
            hits += res.success
        assert curve[pi] == (n, hits / attacks)


def test_write_curve_csv(tmp_path):
    path = tmp_path / "curve.csv"
    write_curve_csv(path, [(100, 0.25), (200, 1.0)])
    assert path.read_text() == "n_traces,success_rate\n100,0.25\n200,1.0\n"


# -- per-bit profiling ------------------------------------------------------


def test_admissible_pairs():
    assert len(ADMISSIBLE_PAIRS) == 13
    assert all(hi - lo in (1, 2) for lo, hi in ADMISSIBLE_PAIRS)
    assert all(0 <= lo < hi <= 7 for lo, hi in ADMISSIBLE_PAIRS)


def test_profile_uniform_device():
    prof = profile_bits(LeakModel(noise_sigma=2.0), n=256, seed=0)
    assert prof.recommended == (0, 1)
    assert prof.recommended_rails == (1, 0)
    assert prof.scores.shape == (8,)
    assert sorted(prof.ranking) == list(range(8))


def test_profile_outlier_bit_steers_recommendation():
    m = LeakModel(weights=(3.0,) + (1.0,) * 7, noise_sigma=2.0)
    prof = profile_bits(m, n=256, seed=0)
    assert prof.ranking[0] == 0  # the heavy bit line leaks most
    assert prof.recommended == (1, 2)  # and is excluded from the rails
    assert prof.recommended_rails == (2, 1)


def test_profile_falls_back_to_the_closest_pair(monkeypatch):
    # no two admissible scores lie within 3/sqrt(n) = 1.5: the pair with
    # the smallest difference, (2, 3) at 5, wins over the first pair
    scores = iter([0.0, 10.0, 30.0, 35.0, 70.0, 100.0, 150.0, 210.0])
    monkeypatch.setattr(lab, "nicv", lambda ts, classify: np.array([next(scores)]))
    prof = profile_bits(LeakModel(), n=4, seed=0)
    assert prof.recommended == (2, 3)
    assert prof.ranking == (7, 6, 5, 4, 3, 2, 1, 0)


# -- trace file I/O ---------------------------------------------------------


def test_save_load_round_trip(tmp_path, linked_unprotected, sbox_window_u):
    ts = synth_traces(
        linked_unprotected, TEST_KEY, 12, LeakModel(noise_sigma=1.0), seed=5,
        window=sbox_window_u,
    )
    path = tmp_path / "traces.bin"
    save_traces(path, ts)
    back = load_traces(path)
    assert np.array_equal(back.traces, ts.traces)
    assert back.traces.dtype == np.float32
    assert np.array_equal(back.plaintexts, ts.plaintexts)
    assert back.fixed_key is None  # the key is never written to disk
    assert path.read_bytes()[16:20] == struct.pack("<I", WORD_BITS)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"not a trace file")
    with pytest.raises(LabError):
        load_traces(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_load_refuses_non_finite_samples(tmp_path, bad):
    traces = np.zeros((3, 4), dtype=np.float32)
    traces[1, 2] = bad
    path = tmp_path / "t.bin"
    save_traces(path, TraceSet(traces, np.arange(3, dtype=np.uint64), fixed_key=None))
    with pytest.raises(LabError, match="non-finite sample"):
        load_traces(path)


def _save_traces_per_row(path, ts):
    """The trace file as the first writer made it: one struct call per row."""
    with open(path, "wb") as fh:
        fh.write(b"DPLT" + struct.pack("<IIII", 1, ts.n_runs, ts.n_cycles, WORD_BITS))
        for r in range(ts.n_runs):
            fh.write(struct.pack("<Q", int(ts.plaintexts[r])))
            fh.write(ts.traces[r].astype("<f4").tobytes())


@pytest.mark.parametrize("n_runs, n_cycles", [(0, 0), (0, 3), (3, 0), (7, 13)])
def test_trace_file_bytes_unchanged(tmp_path, n_runs, n_cycles):
    rng = np.random.default_rng(n_runs + n_cycles)
    dense = rng.normal(size=(n_runs, n_cycles))
    pts = rng.integers(0, 2**64, n_runs, dtype=np.uint64)
    # a transposed column slice, as the trace sets of one batch view it
    wide = rng.normal(size=(n_cycles, 2 * n_runs)).astype(np.float32)
    for traces in (dense, wide[:, n_runs:].T):
        ts = TraceSet(traces, pts, fixed_key=None)
        old, new = tmp_path / "old.bin", tmp_path / "new.bin"
        _save_traces_per_row(old, ts)
        # the default chunk, then two rows a chunk: 7 rows go out in four
        # writes, the last one partial
        for chunk_bytes in (lab._SAVE_CHUNK_BYTES, 2 * (8 + 4 * n_cycles)):
            with mock.patch.object(lab, "_SAVE_CHUNK_BYTES", chunk_bytes):
                save_traces(new, ts)
            assert new.read_bytes() == old.read_bytes()
        back = load_traces(old)
        assert np.array_equal(back.traces, ts.traces) and back.traces.dtype == np.float32
        assert np.array_equal(back.plaintexts, ts.plaintexts) and back.plaintexts.dtype == np.uint64


def test_load_rejects_unknown_version(tmp_path):
    path = tmp_path / "v2.bin"
    path.write_bytes(b"DPLT" + struct.pack("<IIII", 2, 1, 1, WORD_BITS) + bytes(12))
    with pytest.raises(LabError, match="unsupported trace file version 2"):
        load_traces(path)


def test_load_rejects_other_word_width(tmp_path):
    path = tmp_path / "wide.bin"
    path.write_bytes(b"DPLT" + struct.pack("<IIII", 1, 1, 1, 16) + bytes(12))
    with pytest.raises(LabError, match="trace file of 16-bit words; this machine has 8-bit words"):
        load_traces(path)


def test_load_checks_header_against_file_size(tmp_path):
    path = tmp_path / "huge.bin"
    path.write_bytes(b"DPLT" + struct.pack("<IIII", 1, 10**6, 10**6, 8))
    with pytest.raises(LabError, match="truncated trace file: 1000000 runs x 1000000 cycles"):
        load_traces(path)
    path.write_bytes(b"DPLT" + struct.pack("<III", 1, 0, 0))
    with pytest.raises(LabError, match="truncated trace file: header has 16 of 20"):
        load_traces(path)
