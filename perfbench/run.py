"""Benchmark of the dualrail transform-prove-attack loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload runs the same round through the public library API:

    harden   parse -> transform -> resolve -> verify (DPL must be balanced)
             -> equivalence.check -> cross_validate
    campaign success_rate on the PRESENT S-box window, unprotected and DPL
    assess   noiseless synth_traces + nicv, unprotected and DPL

A workload is a size profile for that round (see PROFILES): its focus
stage carries most of the work and the other stages run small, so every
metric exists on every workload.  The focus stage runs once per round, one
library call at a time, and one whole unit of each small stage runs before
the first focus step and after every one, so every metric's samples spread
over the whole run.  Rounds repeat on the same seeded inputs until another
would overrun --seconds; each timing is the median of its samples.  The
source program is verified (leaky) once per run, outside the rounds.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced rounds, records spans around each library call, runs one probe
per engine after the rounds, and prints the per-layer metrics.  Metric
names and units come from BENCHMARK.json; PERFBENCH.md maps each per-layer
metric to the end-to-end metric it should move.

Every correctness check counts as one attempted operation; a failed check
or a stage that raises counts as failed and the run goes on.  The last
line of stdout is the JSON result.
"""
from __future__ import annotations

import os
import sys
import time

# One BLAS thread: with the default pool, cpa_monobit on 10^4 x 200 traces
# is bimodal on a 2-core host.  Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "dualrail" / "__init__.py").is_file():
    sys.exit(f"perfbench: no dualrail sources under {ROOT / 'src'}")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import netlist  # noqa: E402
from dualrail import (  # noqa: E402
    DplConfig,
    DplStateMap,
    LeakModel,
    MachineState,
    batch_run,
    check,
    corpus_init,
    cpa_monobit,
    cross_validate,
    cycle_leakage,
    loop_iteration_window,
    nibble_classifier,
    nicv,
    parse,
    present_program,
    resolve,
    run,
    success_rate,
    synth_traces,
    transform,
    verify,
)
from dualrail.present import LABEL_SBOX  # noqa: E402

CFG = DplConfig(lut_base=768)
KEY = 0x133457799BBCDFF1AABB
NOISY = LeakModel(noise_sigma=2.0)
NOISELESS = LeakModel(noise_sigma=0.0)
UNIFORM = (1.0,) * 8
EQUIV_SAMPLES = 100
XVAL_PAIRS = 1
SETUP_REPS = 5
#: per-side tail probability of the DPL success-rate bound
ALPHA = 1e-6
#: DPL leaves only the guessing floor: guesses g and g^9 tie exactly
GUESS_FLOOR = 2 / 16


@dataclass(frozen=True)
class Profile:
    """Sizes of one round.  The focus stage runs once per round, step by
    step; every other stage runs whole before the first focus step and
    after each one."""

    focus: str  # "harden", "campaign" or "assess"
    harden: str | int  # "present" (the corpus) or the gate count of a seeded netlist
    grid: tuple  # unprotected campaign: n per grid point, attacks_u attacks each
    attacks_u: int
    n_dpl: int  # DPL campaign: one point, attacks_d attacks per call
    attacks_d: int
    dpl_calls: int
    assess_traces: int  # per corpus
    assess_whole: bool  # whole program, else the first S-box iteration


# Small ("lite") stages keep every metric defined on every workload while
# the focus stage carries most of the round.  Why each workload was chosen
# is recorded in BENCHMARK.json.
LITE_HARDEN = dict(harden=250)
LITE_CAMPAIGN = dict(grid=(500,), attacks_u=10, n_dpl=500, attacks_d=10, dpl_calls=1)
LITE_ASSESS = dict(assess_traces=1024, assess_whole=False)
PROFILES = {
    "harden-present": Profile(focus="harden", harden="present", **LITE_CAMPAIGN, **LITE_ASSESS),
    "harden-netlist": Profile(focus="harden", harden=4000, **LITE_CAMPAIGN, **LITE_ASSESS),
    "campaign": Profile(
        focus="campaign",
        **LITE_HARDEN,
        grid=(50, 100, 200, 500),
        attacks_u=20,
        n_dpl=10_000,
        attacks_d=5,
        dpl_calls=2,
        **LITE_ASSESS,
    ),
    "assess-full": Profile(
        focus="assess", **LITE_HARDEN, **LITE_CAMPAIGN, assess_traces=100, assess_whole=True
    ),
}


def now() -> float:
    return time.perf_counter()


# -- tracing ----------------------------------------------------------------


class Tracer:
    """In-memory spans around the benchmark's calls into each layer.

    A span is [name, tag, round, parent index, start, end].  When off,
    span() returns a null context and records nothing."""

    def __init__(self):
        self.on = False
        self.round = -1
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str, tag: str | None = None):
        return self._span(name, tag) if self.on else nullcontext()

    @contextmanager
    def _span(self, name, tag):
        parent = self._stack[-1] if self._stack else None
        rec = [name, tag, self.round, parent, now(), None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[5] = now()
            self._stack.pop()

    def durations(self, name, tag=None, rounds=None) -> list[float]:
        return [
            s[5] - s[4]
            for s in self.spans
            if s[0] == name and (tag is None or s[1] == tag) and (rounds is None or s[2] in rounds)
        ]

    def summary(self) -> dict:
        """Per span name: count, total and self time (total minus children)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] is not None:
                child[s[3]] += s[5] - s[4]
        out: dict = {}
        for i, s in enumerate(self.spans):
            key = s[0] if s[1] is None else f"{s[0]}[{s[1]}]"
            row = out.setdefault(key, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += s[5] - s[4]
            row["self_s"] += s[5] - s[4] - child[i]
        return out


# -- bookkeeping ------------------------------------------------------------


class Checks:
    """Every correctness check is one attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def raised(self, name: str, exc: Exception) -> None:
        traceback.print_exc(file=sys.stderr)
        self.expect(False, f"{name} raised {exc!r}")

    @contextmanager
    def stage(self, name: str):
        """A stage that raises counts as one failed operation; the run goes on."""
        try:
            yield
        except Exception as exc:  # noqa: BLE001 - the benchmark must finish and report
            self.raised(name, exc)


def binomial_bounds(n: int, p: float, alpha: float) -> tuple[int, int]:
    """[lo, hi] with P(X < lo) <= alpha and P(X > hi) <= alpha, X ~ Bin(n, p)."""
    pmf = [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
    lo, acc = 0, 0.0
    while lo < n and acc + pmf[lo] <= alpha:
        acc += pmf[lo]
        lo += 1
    hi, acc = n, 0.0
    while hi > 0 and acc + pmf[hi] <= alpha:
        acc += pmf[hi]
        hi -= 1
    return lo, hi


def median(xs):
    return statistics.median(xs) if xs else None


def percentile(xs, q):
    return float(np.percentile(xs, q)) if xs else None


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, if it has one."""
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.argtypes = []
        fn.restype = ctypes.c_int
        return fn()
    return None


def environment() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


# -- inputs -----------------------------------------------------------------


def import_s() -> float:
    """Wall time for a fresh interpreter to start and import numpy and the
    library: the part of set-up every process pays before building inputs."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import numpy, dualrail"
    t0 = now()
    subprocess.run([sys.executable, "-c", code], check=True)
    return now() - t0


@dataclass
class Inputs:
    harden_src: str
    unprotected: object  # LinkedProgram of the PRESENT corpus
    dpl: object  # LinkedProgram of its transform
    win_u: tuple
    win_d: tuple


def setup(profile: Profile, seed: int, tr: Tracer) -> Inputs:
    if profile.harden == "present":
        harden_src = present_program(0)
    else:
        harden_src = netlist.generate(seed, profile.harden)
    prog = parse(present_program(0))
    lu, ld = resolve(prog), resolve(transform(prog, CFG)[0])
    with tr.span("present.loop_iteration_window"):
        win_u = loop_iteration_window(lu, LABEL_SBOX)
        win_d = loop_iteration_window(ld, LABEL_SBOX)
    return Inputs(harden_src, lu, ld, win_u, win_d)


def sensitive_init(lp, cfg, bits):
    """Scalar-machine start state with the declared sensitive cells set."""
    state = MachineState.fresh(lp.n_regs, lp.mem_size)
    for (kind, loc), bit in zip(lp.source.declared_cells("sensitive"), bits):
        val = bit if cfg is None else cfg.encode(bit)
        (state.registers if kind == "reg" else state.memory)[loc] = val
    return state


def sensitive_batch(lp, cfg, rng, lanes):
    """Batch start memory with random sensitive bits (equivalence layout)."""
    cells = lp.source.declared_cells("sensitive")
    bits = rng.integers(0, 2, size=(len(cells), lanes), dtype=np.uint8)
    mem = np.zeros((lp.mem_size, lanes), dtype=np.uint8)
    regs = np.zeros((lp.n_regs, lanes), dtype=np.uint8)
    for (kind, loc), row in zip(cells, bits):
        enc = row if cfg is None else np.where(row, cfg.encode(1), cfg.encode(0)).astype(np.uint8)
        (regs if kind == "reg" else mem)[loc] = enc
    return mem, regs


# -- one round --------------------------------------------------------------


class Round:
    """One pass of the focus stage, with one unit of each other stage before
    the first focus step and after every one.  A stage is a generator that yields between its
    library calls.  `e2e` holds end-to-end samples; `counts` the exact
    values that must repeat in every unit and every round."""

    def __init__(self, rnd, profile, inp, seed, tr, checks):
        self.rnd = rnd
        self.p, self.inp, self.seed, self.tr, self.checks = profile, inp, seed, tr, checks
        self.wall = None
        self.e2e: dict[str, list[float]] = {}
        self.counts: dict[str, object] = {}
        self.traces_bytes = {}
        self.harden_programs = None

    def run(self):
        t0 = now()
        stages = {"harden": self.harden, "campaign": self.campaign, "assess": self.assess}
        focus = stages.pop(self.p.focus)

        def lite():
            for stage in stages.values():
                for _ in self._steps(stage):
                    pass

        lite()
        for _ in self._steps(focus):
            lite()
        self.wall = now() - t0

    def _steps(self, stage):
        """Run `stage` one step at a time, yielding after each step; a step
        that raises counts as one failed operation and ends the stage."""
        steps = stage()
        while True:
            # collect and freeze what earlier steps left alive, so a step
            # pays only for collecting its own allocations
            gc.collect()
            gc.freeze()
            try:
                next(steps)
            except StopIteration:
                return
            except Exception as exc:  # noqa: BLE001 - the benchmark must finish and report
                self.checks.raised(stage.__name__, exc)
                return
            yield

    def _sample(self, key, value):
        self.e2e.setdefault(key, []).append(value)

    def _count(self, key, value):
        if key in self.counts:
            self.checks.expect(
                self.counts[key] == value, f"{key} is {value}, earlier {self.counts[key]} on the same seed"
            )
        self.counts[key] = value

    def harden(self):
        tr, ck = self.tr, self.checks
        t0 = now()
        with tr.span("asm.parse"):
            prog = parse(self.inp.harden_src)
        with tr.span("dpl.transform"):
            dprog, _report = transform(prog, CFG)
        with tr.span("asm.resolve", "dpl"):
            ld = resolve(dprog)
        with tr.span("verifier.verify", "dpl"):
            vd = verify(ld, cfg=CFG)
        self._sample("verdict_s", now() - t0)
        ck.expect(vd.verdict == "balanced", f"DPL verdict {vd.verdict}, expected balanced")
        with tr.span("asm.resolve", "source"):
            ls = resolve(prog)
        if self.rnd == 0:  # for the probes after the rounds; later rounds keep nothing
            self.harden_programs = (ls, ld, vd.cycles_verified)
        yield

        t0 = now()
        with tr.span("equivalence.check"):
            eq = check(ls, ld, DplStateMap(CFG), n_samples=EQUIV_SAMPLES, seed=self.seed)
        self._sample("equiv_s", now() - t0)
        ck.expect(eq.passed, f"equivalence failed on {len(eq.failures)} of {eq.checked} inputs")
        yield

        t0 = now()
        with tr.span("verifier.cross_validate"):
            xv = cross_validate(ld, n_pairs=XVAL_PAIRS, seed=self.seed, cfg=CFG)
        self._sample("xval_s", now() - t0)
        ck.expect(xv.passed, f"cross_validate diverged at cycle {xv.first_diff_cycle}")

        self._count("asm.instructions", len(ls.instructions))
        self._count("dpl.instructions_out", len(ld.instructions))
        self._count("verifier.cycles", vd.cycles_verified)
        self._count("equivalence.samples", eq.checked)

    def _init_builder(self, tag, lp, cfg):
        """Traced rounds time corpus_init on its own; the memory it builds
        is the one synth_traces builds by default."""
        if not self.tr.on:
            return None

        def build(pts, key):
            with self.tr.span("present.corpus_init", tag):
                return corpus_init(pts, int(key), cfg=cfg, mem_size=lp.mem_size)

        return build

    def _attack(self, tag, lp, cfg, grid, attacks, root, window):
        """Hits per grid point and the wall time of the campaign.  Traced:
        success_rate decomposed into synth_traces + cpa_monobit per attack
        with the same seeds."""
        t0 = now()
        if not self.tr.on:
            curve = success_rate(lp, KEY, NOISY, grid, attacks, seed=root, window=window, cfg=cfg)
            hits = tuple(round(rate * attacks) for _n, rate in curve)
            return hits, now() - t0
        build = self._init_builder(tag, lp, cfg)
        hits = []
        nbytes = 0
        for pi, n in enumerate(grid):
            h = 0
            for a in range(attacks):
                sseq = np.random.SeedSequence(root, spawn_key=(pi, a))
                with self.tr.span("lab.synth_traces", tag):
                    ts = synth_traces(
                        lp, KEY, int(n), NOISY, seed=sseq, window=window, cfg=cfg, init_builder=build
                    )
                with self.tr.span("lab.cpa_monobit", tag):
                    h += int(cpa_monobit(ts, 0).success)
                nbytes += ts.traces.nbytes
            hits.append(h)
        self.traces_bytes[tag] += nbytes
        return tuple(hits), now() - t0

    def campaign(self):
        p, inp, ck = self.p, self.inp, self.checks
        self.traces_bytes.update(unprotected=0, dpl=0)  # one unit's worth
        hits_u, dt = self._attack(
            "unprotected", inp.unprotected, None, p.grid, p.attacks_u, [self.seed, 0], inp.win_u
        )
        self._sample("traces_per_s.unprotected", sum(p.grid) * p.attacks_u / dt)
        # the DPL attacks run as dpl_calls success_rate calls, one step each
        hits_d, dt_d = [], 0.0
        for part in range(p.dpl_calls):
            yield
            (h,), dt = self._attack(
                "dpl", inp.dpl, CFG, (p.n_dpl,), p.attacks_d, [self.seed, 1, part], inp.win_d
            )
            hits_d.append(h)
            dt_d += dt
        attacks_d = p.attacks_d * p.dpl_calls
        self._sample("traces_per_s.dpl", p.n_dpl * attacks_d / dt_d)
        self._count("lab.hits.unprotected", hits_u)
        self._count("lab.hits.dpl", tuple(hits_d))
        ck.expect(
            hits_u[-1] >= 0.8 * p.attacks_u,
            f"unprotected success {hits_u[-1]}/{p.attacks_u} at n={p.grid[-1]}, expected >= 0.8",
        )
        lo, hi = binomial_bounds(attacks_d, GUESS_FLOOR, ALPHA)
        ck.expect(
            lo <= sum(hits_d) <= hi,
            f"DPL success {sum(hits_d)}/{attacks_d} outside the guessing-floor bound [{lo}, {hi}]",
        )

    def assess(self):
        p, inp, tr, ck = self.p, self.inp, self.tr, self.checks
        classify = nibble_classifier(0)
        maxima = {}
        nbytes = 0
        dt = 0.0  # synthesis and NICV calls only, not the steps between them
        for i, (tag, lp, cfg, win) in enumerate(
            (("unprotected", inp.unprotected, None, inp.win_u), ("dpl", inp.dpl, CFG, inp.win_d))
        ):
            if i:
                yield
            t0 = now()
            with tr.span("lab.synth_traces", f"assess.{tag}"):
                ts = synth_traces(
                    lp,
                    KEY,
                    p.assess_traces,
                    NOISELESS,
                    seed=np.random.SeedSequence([self.seed, 2, i]),
                    window=None if p.assess_whole else win,
                    cfg=cfg,
                    init_builder=self._init_builder(f"assess.{tag}", lp, cfg),
                )
            dt += now() - t0
            yield
            t0 = now()
            with tr.span("lab.nicv", tag):
                maxima[tag] = float(nicv(ts, classify).max())
            dt += now() - t0
            nbytes += ts.traces.nbytes
            del ts
        self._sample("assess_s", dt)
        self.traces_bytes["assess"] = nbytes
        self._count("lab.nicv_max.unprotected", maxima["unprotected"])
        self._count("lab.nicv_max.dpl", maxima["dpl"])
        ck.expect(maxima["dpl"] == 0.0, f"DPL noiseless NICV max {maxima['dpl']}, expected exactly 0")
        ck.expect(maxima["unprotected"] > 0.5, f"unprotected NICV peak {maxima['unprotected']}, expected > 0.5")


# -- probes (traced runs) ---------------------------------------------------


def probes(profile: Profile, inp: Inputs, rnd: Round, cycles_s: int, seed: int, checks: Checks) -> dict:
    """One machine.run + cycle_leakage probe and two batch_run probes.  Each
    batch probe's cycle count must equal the verifier's, so a run that
    batch_run truncated at max_steps counts as a failure, not a fast run."""
    out = {}
    ls, ld, cycles_d = rnd.harden_programs
    rng = np.random.default_rng([seed, 3])

    with checks.stage("machine probe"):
        bits = rng.integers(0, 2, size=len(ld.source.declared_cells("sensitive")))
        t0 = now()
        res = run(ld, sensitive_init(ld, CFG, bits), max_steps=2_000_000)
        t1 = now()
        cycle_leakage(res.events, UNIFORM, include_bus=True)
        t2 = now()
        checks.expect(res.instruction_count == cycles_d, "machine.run cycles differ from the verifier's")
        out["machine.run_us_per_cycle"] = (t1 - t0) / res.instruction_count * 1e6
        out["machine.cycle_leakage_s"] = t2 - t1

    with checks.stage("batch probe"):
        total_t = total_c = 0
        for lp, cfg, cycles in ((ls, None, cycles_s), (ld, CFG, cycles_d)):
            mem, regs = sensitive_batch(lp, cfg, rng, EQUIV_SAMPLES)
            t0 = now()
            res = batch_run(lp, EQUIV_SAMPLES, init_memory=mem, init_registers=regs)
            total_t += now() - t0
            total_c += res.cycles
            checks.expect(res.cycles == cycles, f"batch_run ran {res.cycles} cycles, verifier {cycles}")
        out["vector_machine.us_per_cycle"] = total_t / total_c * 1e6

    with checks.stage("batch leakage probe"):
        # the round's largest DPL leakage batch: the assess batch when it
        # spans the whole program, otherwise the DPL campaign batch
        if profile.assess_whole:
            lanes, window = profile.assess_traces, (0, None)
            expected = verify(inp.dpl, cfg=CFG).cycles_verified
        else:
            lanes, window = profile.n_dpl, inp.win_d
            expected = inp.win_d[1]
        pts = rng.integers(0, 1 << 64, size=lanes, dtype=np.uint64)
        mem = corpus_init(pts, KEY, cfg=CFG, mem_size=inp.dpl.mem_size)
        t0 = now()
        res = batch_run(inp.dpl, lanes, init_memory=mem, weights=UNIFORM, include_bus=True, window=window)
        dt = now() - t0
        checks.expect(res.cycles == expected, f"batch_run ran {res.cycles} cycles, expected {expected}")
        out["vector_machine.us_per_cycle_leak"] = dt / res.cycles * 1e6
        out["vector_machine.ns_per_lane_cycle_leak"] = dt / (res.cycles * lanes) * 1e9
        out["vector_machine.lanes"] = lanes
        out["vector_machine.cycles_executed"] = res.cycles
        out["vector_machine.window_useful_ratio"] = res.leakage.shape[0] / res.cycles
    return out


def layer_metrics(tr: Tracer, traced_rounds: list[Round], setup_rounds: list[int]) -> dict:
    """Per-call medians over the traced rounds' spans, plus exact counts."""
    ids = {r.rnd for r in traced_rounds}

    def med(name, tag=None):
        return median(tr.durations(name, tag, ids))

    def med_sum(name, *tags):
        """Sum of per-call medians of a call made once per program."""
        parts = [med(name, tag) for tag in tags]
        return None if None in parts else sum(parts)

    c = traced_rounds[-1].counts
    out = {
        "asm.parse_s": med("asm.parse"),
        "asm.resolve_s": med_sum("asm.resolve", "source", "dpl"),
        "dpl.transform_s": med("dpl.transform"),
        "verifier.verify_s": med("verifier.verify", "dpl"),
        "equivalence.check_s": med("equivalence.check"),
        "lab.nicv_s": med_sum("lab.nicv", "unprotected", "dpl"),
        "present.corpus_init_s": med("present.corpus_init", "dpl"),
        "present.loop_iteration_window_s": median(
            [sum(tr.durations("present.loop_iteration_window", rounds={r})) for r in setup_rounds]
        ),
        "lab.traces_mb": sum(traced_rounds[-1].traces_bytes.values()) / 1e6,
    }
    xval = med("verifier.cross_validate")
    out["verifier.xval_s_per_pair"] = None if xval is None else xval / XVAL_PAIRS
    for fn in ("synth_traces", "cpa_monobit"):
        for tag in ("unprotected", "dpl"):
            xs = tr.durations(f"lab.{fn}", tag, ids)
            out[f"lab.{fn}_s.{tag}.p50"] = percentile(xs, 50)
            out[f"lab.{fn}_s.{tag}.p90"] = percentile(xs, 90)
    for key in (
        "asm.instructions",
        "dpl.instructions_out",
        "verifier.cycles",
        "equivalence.samples",
        "lab.nicv_max.unprotected",
        "lab.nicv_max.dpl",
    ):
        out[key] = c.get(key)
    out["lab.hits.unprotected"] = sum(c.get("lab.hits.unprotected", ()))
    out["lab.hits.dpl"] = sum(c.get("lab.hits.dpl", ()))
    if out["dpl.transform_s"] is not None and c.get("asm.instructions"):
        out["dpl.transform_us_per_instr"] = out["dpl.transform_s"] / c["asm.instructions"] * 1e6
    if out["verifier.verify_s"] is not None and c.get("verifier.cycles"):
        out["verifier.verify_us_per_cycle"] = out["verifier.verify_s"] / c["verifier.cycles"] * 1e6
    return out


# -- main -------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(PROFILES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    profile = PROFILES[args.workload]
    checks = Checks()
    tr = Tracer()
    tr.on = bool(args.trace)

    setup_times, setup_rounds = [], []
    inp = None
    for i in range(SETUP_REPS):
        tr.round = -1 - i
        setup_rounds.append(tr.round)
        t_import = import_s()
        t0 = now()
        inp = setup(profile, args.seed, tr)
        setup_times.append(t_import + now() - t0)

    def play(on: bool) -> Round:
        tr.on = on
        tr.round += 1
        rnd = Round(tr.round, profile, inp, args.seed, tr, checks)
        rnd.run()
        return rnd

    tr.round = -1
    untraced: list[Round] = []
    traced: list[Round] = []
    start = now()
    while True:
        t0 = now()
        # traced mode alternates which side of a pair runs first
        order = (False, True) if len(untraced) % 2 == 0 else (True, False)
        for on in order if args.trace else (False,):
            (traced if on else untraced).append(play(on))
        if now() - start + (now() - t0) > args.seconds:
            break

    # once per run, outside the rounds: the source verdict is a check, not a metric
    tr.on = False
    cycles_s = None
    with checks.stage("source verdict"):
        vs = verify(resolve(parse(inp.harden_src)))
        checks.expect(vs.verdict == "leaky", f"source verdict {vs.verdict}, expected leaky")
        cycles_s = vs.cycles_verified

    # exact counts repeat bit for bit in every round, traced or not
    first = untraced[0]
    for rnd in untraced[1:] + traced:
        checks.expect(rnd.counts == first.counts, f"round {rnd.rnd} counts {rnd.counts} differ from {first.counts}")

    values: dict = {}
    if args.trace:
        values.update(layer_metrics(tr, traced, setup_rounds))
        if first.harden_programs is not None and cycles_s is not None:
            values.update(probes(profile, inp, first, cycles_s, args.seed, checks))
        values["trace.overhead_s"] = median([t.wall - u.wall for u, t in zip(untraced, traced)])
    else:
        for key in (
            "verdict_s",
            "equiv_s",
            "xval_s",
            "traces_per_s.unprotected",
            "traces_per_s.dpl",
            "assess_s",
        ):
            values[key] = median([x for r in untraced for x in r.e2e.get(key, ())])
        values["setup_s"] = statistics.median(setup_times)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    metrics = {}
    for m in declared:
        v = values.get(m["name"])
        checks.expect(v is not None, f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(untraced),
        "measure_s": now() - start,
        "round_wall_s": [[round(r.wall, 4) for r in rs] for rs in (untraced, traced)],
        "round_e2e": [{k: [round(x, 4) for x in v] for k, v in r.e2e.items()} for r in untraced],
        "env": environment(),
        "failures": checks.failures,
    }
    if args.trace:
        info["spans"] = tr.summary()
    print(json.dumps(info))
    failed = len(checks.failures)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": checks.attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
