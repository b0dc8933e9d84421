"""Synthetic power-trace laboratory.

Turns simulator leakage into noisy power traces under a configurable
device model (per-bit-line weights + additive Gaussian noise), and
implements the standard evaluation chain on top of them: NICV leakage
detection, monobit correlation power analysis against a first-round
S-box nibble, success-rate curves over repeated attack campaigns, and
per-bit-line profiling that recommends a rail pair for the dual-rail
encoding.  NICV and CPA share one chunked class-statistics pass.

Determinism: every function that draws randomness is seeded; campaign
seeds are derived from the root seed with ``numpy.random.SeedSequence
(root, spawn_key=(point_index, attack_index))``, so results are
reproducible and independent of evaluation order.  A success-rate point
packs its campaigns side by side into as few batch runs as a fixed memory
budget (``BATCH_BYTES``) allows; lanes of a batch never interact, so the
curve does not depend on that packing either.
"""
from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .asm import WORD_BITS, LinkedProgram, parse, resolve
from .present import (
    SBOX,
    LABEL_SBOX,
    corpus_init,
    first_round_subkey_nibble,
    loop_iteration_window,
    present_program,
)
from .vector_machine import batch_run

#: default noise level: calibrated so a monobit CPA on the unprotected
#: corpus succeeds within a few hundred traces while single traces stay
#: visibly noisy
DEFAULT_NOISE_SIGMA = 2.0

#: bytes one packed success-rate batch may hold: each lane carries its
#: memory column and its float32 leakage column over the window.  The
#: engine's recording block comes on top: ``vector_machine.BLOCK_BYTES``
#: up to a few thousand lanes, 28 slots of 13 bytes a lane beyond
BATCH_BYTES = 16 << 20

#: float64 bytes one chunk of cycles of NICV or CPA converts at a time
NICV_CHUNK_BYTES = 16 << 20

TRACE_MAGIC = b"DPLT"
TRACE_VERSION = 1

#: bytes of interleaved file rows save_traces fills and writes at a time
_SAVE_CHUNK_BYTES = 4 << 20


class LabError(ValueError):
    pass


@dataclass(frozen=True)
class LeakModel:
    """Device model: weight of each bit line plus Gaussian noise.

    The leakage of a cycle weighs every event of it: each update's flipped
    bits, and the address and value each memory access moves over the
    buses."""

    weights: tuple = (1.0,) * WORD_BITS
    noise_sigma: float = 0.0

    def __post_init__(self):
        if not 0 <= self.noise_sigma < math.inf:
            raise LabError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if len(self.weights) != WORD_BITS:
            raise LabError(f"need {WORD_BITS} bit-line weights, got {len(self.weights)}")
        if not all(map(math.isfinite, self.weights)):
            raise LabError(f"bit-line weights must be finite, got {self.weights}")


@dataclass
class TraceSet:
    traces: np.ndarray  # (n_runs, n_cycles) float32
    plaintexts: np.ndarray  # (n_runs,) uint64
    fixed_key: int | None
    cycle_offset: int = 0  # absolute cycle of the first trace column

    def __post_init__(self):
        self.traces = np.asarray(self.traces, dtype=np.float32)
        if self.traces.ndim != 2:
            raise LabError("traces must be a (n_runs, n_cycles) matrix")
        if len(self.plaintexts) != self.traces.shape[0]:
            raise LabError("one plaintext per trace row required")

    @property
    def n_runs(self) -> int:
        return self.traces.shape[0]

    @property
    def n_cycles(self) -> int:
        return self.traces.shape[1]


@dataclass
class AttackResult:
    correlations: np.ndarray  # (16, n_window_cycles)
    best_guess: int
    success: bool
    traces_used: int
    no_signal: bool = False
    scores: np.ndarray = field(default=None, repr=False)  # (16,) peak signed corr


def nibble_classifier(nibble: int = 0):
    """Class label = value of one plaintext nibble (16 classes)."""

    def classify(plaintext: int) -> int:
        return (int(plaintext) >> (4 * nibble)) & 0xF

    return classify


# -- trace synthesis --------------------------------------------------------


def synth_traces(
    program: LinkedProgram,
    key: int,
    n: int,
    model: LeakModel,
    seed=0,
    *,
    window: tuple[int, int | None] | None = None,
    cfg=None,
    slot: int = 0,
    init_builder=None,
) -> TraceSet:
    """Simulate `n` runs with uniformly random plaintexts under a fixed key
    and return their noisy leakage traces.

    `window` restricts the trace to absolute cycles [start, stop); execution
    still covers every cycle up to `stop`.  The program must be
    constant-time — divergent control flow across the batch is an error.
    `init_builder(plaintexts, key)` maps inputs to the initial memory
    matrix; the default is the PRESENT corpus layout with the given
    rail configuration `cfg` (or plain bit position `slot`).
    """
    (ts,) = _synth(
        program, key, n, model, [seed], window=window, cfg=cfg, slot=slot,
        init_builder=init_builder,
    )
    return ts


def _synth(
    program, key, n, model, seeds, *, window, cfg=None, slot=0, init_builder=None,
) -> list[TraceSet]:
    """One trace set of `n` runs per seed, all from one batch_run.

    Each seed's generator draws its n plaintexts; the concatenated
    plaintexts run as one batch, each set views its leakage columns, and
    each set's noise comes from its own generator after its plaintexts and
    is added in place.
    Lanes never interact, so every set equals the one a batch of its own
    gives, bit for bit."""
    rngs = [np.random.default_rng(s) for s in seeds]
    pts = [rng.integers(0, 1 << 64, size=n, dtype=np.uint64) for rng in rngs]
    all_pts = np.concatenate(pts)
    if init_builder is None:
        mem = corpus_init(all_pts, int(key), slot=slot, cfg=cfg, mem_size=program.mem_size)
    else:
        mem = init_builder(all_pts, key)
    res = batch_run(
        program,
        len(all_pts),
        init_memory=mem,
        weights=model.weights,
        window=window if window is not None else (0, None),
    )
    offset = res.window_start
    traces = [res.leakage[:, i * n : (i + 1) * n].T for i in range(len(seeds))]
    # the views keep the leakage matrix; drop the rest of the batch before
    # the noise
    del res, mem
    out = []
    for rng, p, t in zip(rngs, pts, traces):
        if model.noise_sigma > 0:
            t += rng.normal(0.0, model.noise_sigma, size=t.shape).astype(np.float32)
        out.append(TraceSet(traces=t, plaintexts=p, fixed_key=int(key), cycle_offset=offset))
    return out


# -- class statistics: NICV and monobit CPA ---------------------------------


def _class_chunks(t: np.ndarray, inverse: np.ndarray, k: int):
    """Per chunk of about NICV_CHUNK_BYTES of float64 cycles of `t`: the
    column slice, the (k, chunk) sums of the runs of each class 0..k-1
    (labels `inverse`), one matmul whatever the layout of `t`, and the
    mean and variance over runs."""
    n, n_cycles = t.shape
    onehot = (inverse == np.arange(k)[:, None]).astype(np.float64)
    step = max(1, NICV_CHUNK_BYTES // (8 * n))
    # one buffer laid out as astype would, refilled: a chunk allocated
    # anew each time fragments the heap with the small arrays in between
    buf = np.empty_like(t[:, :step], dtype=np.float64)
    for lo in range(0, n_cycles, step):
        cols = slice(lo, lo + step)
        x = buf[:, : min(step, n_cycles - lo)]
        np.copyto(x, t[:, cols])
        sums = onehot @ x
        mean = x.mean(axis=0)
        # ndarray.var's own steps, in place on the chunk
        x -= mean
        x *= x
        yield cols, sums, mean, x.sum(axis=0) / n


def nicv(traces: TraceSet, classifier) -> np.ndarray:
    """Normalized inter-class variance per cycle: Var[E[L|V]] / Var[L],
    where V is the class label assigned to each run by `classifier`.
    Cycles with zero total variance report 0 by convention.  Values lie
    in [0, 1]."""
    labels = np.asarray([classifier(int(p)) for p in traces.plaintexts])
    classes, inverse = np.unique(labels, return_inverse=True)
    if len(classes) < 2:
        raise LabError("need at least two populated classes")
    n = len(labels)
    counts = np.bincount(inverse).astype(np.float64)[:, None]
    out = np.zeros(traces.n_cycles)
    for cols, sums, mean, total in _class_chunks(traces.traces, inverse, len(classes)):
        between = ((sums / counts - mean) ** 2 * counts).sum(axis=0) / n
        nz = total > 0
        out[cols][nz] = between[nz] / total[nz]
    return np.clip(out, 0.0, 1.0)


#: monobit prediction by (key guess, plaintext nibble), in +-1 form
_PREDICTION = np.array([[2.0 * (SBOX[v ^ g] & 1) - 1.0 for v in range(16)] for g in range(16)])


def cpa_monobit(
    traces: TraceSet,
    target: int = 0,
    window: tuple[int, int] | None = None,
    true_key: int | None = None,
) -> AttackResult:
    """Correlation attack on one first-round S-box nibble.

    For each of the 16 key guesses g the predicted bit of run r is
    LSB(SBox(plaintext_nibble_r xor g)); the result correlates every
    prediction vector with every trace column in `window` (relative to the
    stored columns; default all).  A guess's score is its highest signed
    correlation over the window, and best_guess maximizes that score.  The
    ranking is signed because the leakage model is positively oriented —
    activity adds power — so the true peak correlates positively; ranking
    by |corr| instead would be degenerate: the S-box LSB satisfies
    LSB(S(v xor 1)) = NOT LSB(S(v)), so complementary guesses produce
    negated predictions and |corr| can never separate g from g^1 or g^8,
    not even with a perfect signal.  If every column has zero variance the
    attack is reported as no-signal (failure).

    Success means the true key nibble ranks first under competition
    ranking: no other guess scores strictly higher.  Ties share rank one
    — LSB(S(v xor 9)) = LSB(S(v)) for all v, so guesses g and g^9 produce
    identical predictions and tie exactly; an attack cannot and need not
    separate them.  A prediction depends on a run only through its
    nibble, so the covariances are a centred +-1 (guess, nibble) table
    times the per-nibble trace sums; g and g^9 share a table row, so
    their tie is bitwise-exact in floating point."""
    pts = traces.plaintexts
    nib = ((pts >> np.uint64(4 * target)) & np.uint64(0xF)).astype(np.int64)
    if np.all(nib == nib[0]):
        raise LabError("degenerate plaintext set: prediction vector has no variance")

    t = traces.traces
    if window is not None:
        lo, hi = window
        if not (0 <= lo < hi <= t.shape[1]):
            raise LabError("window outside trace length")
        t = t[:, lo:hi]
    n = t.shape[0]

    counts = np.bincount(nib, minlength=16).astype(np.float64)
    q = _PREDICTION - (_PREDICTION @ counts / n)[:, None]  # centred, (16, 16)
    p_ss = np.sqrt(q**2 @ counts)  # (16,)
    t_ss, corr = np.zeros(t.shape[1]), np.zeros((16, t.shape[1]))
    for cols, sums, _mean, var in _class_chunks(t, nib, 16):
        t_ss[cols] = np.sqrt(n * var)
        denom = p_ss[:, None] * t_ss[None, cols]
        np.divide(q @ sums, denom, out=corr[:, cols], where=denom > 0)
    np.clip(corr, -1.0, 1.0, out=corr)

    no_signal = bool(np.all(t_ss == 0))
    scores = corr.max(axis=1) if corr.shape[1] else np.zeros(16)
    best = -1 if no_signal else int(scores.argmax())
    key = traces.fixed_key if true_key is None else true_key
    success = False
    if key is not None and not no_signal:
        true_nib = first_round_subkey_nibble(int(key), target)
        success = bool(scores[true_nib] >= scores.max())
    return AttackResult(
        correlations=corr,
        best_guess=best,
        success=success,
        traces_used=n,
        no_signal=no_signal,
        scores=scores,
    )


# -- success-rate curves ----------------------------------------------------


def success_rate(
    program: LinkedProgram,
    key: int,
    model: LeakModel,
    grid,
    attacks_per_point: int = 100,
    seed=0,
    *,
    target: int = 0,
    window: tuple[int, int | None] | None = None,
    cfg=None,
    slot: int = 0,
) -> list[tuple[int, float]]:
    """Success-rate curve: for each n in `grid`, the fraction of
    `attacks_per_point` independent campaigns (fresh plaintexts and noise)
    whose monobit CPA ranks the true key nibble first.  Raw estimates, no
    smoothing.

    The campaigns of a point run side by side in as few batch runs as
    `BATCH_BYTES` allows, a lane holding its memory and its leakage
    window; a campaign is never split, and one over the budget, or any
    campaign without a window end, runs alone.  Each campaign keeps its
    own seed, so the curve does not depend on the packing."""
    if attacks_per_point < 1:
        raise LabError("attacks_per_point must be >= 1")
    grid = [int(n) for n in grid]
    if any(n < 2 for n in grid):
        raise LabError("every grid point needs at least 2 traces")
    start, end = window if window is not None else (0, None)
    lane_bytes = None if end is None else program.mem_size + 4 * max(0, end - start)
    curve = []
    for pi, n in enumerate(grid):
        per_batch = 1 if lane_bytes is None else max(1, BATCH_BYTES // (n * lane_bytes))
        hits = 0
        for a0 in range(0, attacks_per_point, per_batch):
            seeds = [
                np.random.SeedSequence(seed, spawn_key=(pi, a))
                for a in range(a0, min(a0 + per_batch, attacks_per_point))
            ]
            for ts in _synth(program, key, n, model, seeds, window=window, cfg=cfg, slot=slot):
                hits += int(cpa_monobit(ts, target).success)
        curve.append((n, hits / attacks_per_point))
    return curve


def write_curve_csv(path, curve) -> None:
    with open(path, "w") as fh:
        fh.write("n_traces,success_rate\n")
        for n, r in curve:
            fh.write(f"{n},{r}\n")


# -- per-bit profiling ------------------------------------------------------

#: the 13 admissible rail pairs: both bits of the encoding must fit a
#: 4-bit field, so only adjacent pairs and pairs one apart qualify
ADMISSIBLE_PAIRS = tuple(
    [(lo, lo + 1) for lo in range(7)] + [(lo, lo + 2) for lo in range(6)]
)


@dataclass
class BitProfile:
    scores: np.ndarray  # (n_bits,) max-over-cycles NICV per bit line
    ranking: tuple  # bit indices, strongest leak first
    recommended: tuple  # (lo, hi) admissible pair with closest scores

    @property
    def recommended_rails(self) -> tuple:
        """(bit_f, bit_t) orientation matching the default encoding
        convention (false rail above true rail)."""
        lo, hi = self.recommended
        return (hi, lo)


def profile_bits(model: LeakModel, n: int = 256, seed=0) -> BitProfile:
    """Score each bit line by running the corpus variant that keeps the
    cipher state on it (``present_program(slot)``) and taking the maximum
    NICV (class = plaintext nibble 0) over one S-box iteration.
    Recommends the admissible rail pair whose two scores are closest —
    balanced rails need equally-leaking bit lines.  Scores within
    3/sqrt(n), the estimator's statistical noise, count as equal, and the
    lowest such pair wins, so the recommendation is deterministic rather
    than chasing sampling fluctuations."""
    classify = nibble_classifier(0)
    root = np.random.SeedSequence(seed)
    key_rng = np.random.default_rng(root)
    key = int(key_rng.integers(0, 1 << 62)) | (int(key_rng.integers(0, 1 << 62)) << 18)
    scores = np.zeros(WORD_BITS)
    for slot in range(WORD_BITS):
        prog = resolve(parse(present_program(slot)))
        win = loop_iteration_window(prog, LABEL_SBOX)
        ts = synth_traces(
            prog,
            key,
            n,
            model,
            seed=np.random.SeedSequence(seed, spawn_key=(slot,)),
            window=win,
            slot=slot,
        )
        scores[slot] = float(nicv(ts, classify).max())
    ranking = tuple(int(i) for i in np.argsort(-scores, kind="stable"))
    tol = 3.0 / np.sqrt(n)
    diffs = [abs(scores[lo] - scores[hi]) for lo, hi in ADMISSIBLE_PAIRS]
    recommended = None
    for pair, d in zip(ADMISSIBLE_PAIRS, diffs):
        if d <= tol:
            recommended = pair
            break
    if recommended is None:
        recommended = ADMISSIBLE_PAIRS[int(np.argmin(diffs))]
    return BitProfile(scores=scores, ranking=ranking, recommended=recommended)


# -- trace file I/O ---------------------------------------------------------


def _row_dtype(n_cycles: int) -> np.dtype:
    return np.dtype([("pt", "<u8"), ("t", "<f4", (n_cycles,))])


def save_traces(path, traces: TraceSet) -> None:
    """Binary trace file: little-endian header {magic 'DPLT', version u32,
    n_runs u32, n_cycles u32, word_width u32}, then per run the 64-bit
    plaintext (little-endian words) followed by n_cycles float32 samples.
    The word width is always WORD_BITS, the only one this machine has."""
    t = traces.traces
    dtype = _row_dtype(t.shape[1])
    step = max(1, _SAVE_CHUNK_BYTES // dtype.itemsize)
    rows = np.empty(min(step, t.shape[0]), dtype=dtype)  # reused for every chunk
    with open(path, "wb") as fh:
        fh.write(TRACE_MAGIC + struct.pack("<IIII", TRACE_VERSION, *t.shape, WORD_BITS))
        for lo in range(0, t.shape[0], step):
            chunk = rows[: min(step, t.shape[0] - lo)]
            chunk["pt"] = traces.plaintexts[lo : lo + len(chunk)]
            chunk["t"] = t[lo : lo + len(chunk)]
            fh.write(chunk.data)


def load_traces(path) -> TraceSet:
    with open(path, "rb") as fh:
        header = fh.read(20)
        if header[:4] != TRACE_MAGIC:
            raise LabError(f"not a trace file (magic {header[:4]!r})")
        if len(header) != 20:
            raise LabError(f"truncated trace file: header has {len(header)} of 20 bytes")
        version, n_runs, n_cycles, width = struct.unpack("<4xIIII", header)
        if version != TRACE_VERSION:
            raise LabError(f"unsupported trace file version {version}")
        if width != WORD_BITS:
            raise LabError(f"trace file of {width}-bit words; this machine has {WORD_BITS}-bit words")
        need = n_runs * (8 + 4 * n_cycles)
        have = os.fstat(fh.fileno()).st_size - 20
        if have < need:
            raise LabError(
                f"truncated trace file: {n_runs} runs x {n_cycles} cycles need "
                f"{need} bytes after the header, the file has {have}"
            )
        rows = np.fromfile(fh, dtype=_row_dtype(n_cycles), count=n_runs)
    traces = rows["t"]
    # min and max carry a NaN and reach an infinity, without a mask copy
    if traces.size and not np.isfinite([traces.min(), traces.max()]).all():
        raise LabError(f"trace file {path} holds a non-finite sample")
    return TraceSet(
        traces=traces,
        plaintexts=rows["pt"].astype(np.uint64),
        fixed_key=None,
    )
