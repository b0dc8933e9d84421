"""End-to-end acceptance suite.

Ten criteria covering the whole toolchain: the golden macro expansion, the
golden tables, the golden four-input trace, verifier verdicts on both cipher
corpora, functional correctness of the transformed cipher, static/dynamic
cost ratios, attack separation between unprotected and balanced code, NICV
sanity, profile-guided rail selection, and constant-time execution.  Each
test prints one pass/fail line, echoed in the terminal summary.
"""

import time

import numpy as np
import pytest

import conftest
from conftest import TEST_KEY
from dualrail.asm import (
    Immediate,
    Instruction,
    MemDirect,
    MemIndirect,
    Register,
    parse,
    resolve,
)
from dualrail.dpl import ZERO_REG, DplConfig, gen_luts, transform
from dualrail.lab import (
    DEFAULT_NOISE_SIGMA,
    LeakModel,
    nibble_classifier,
    nicv,
    profile_bits,
    success_rate,
    synth_traces,
)
from dualrail.machine import MachineState, cycle_leakage, run, step
from dualrail.present import (
    corpus_init,
    loop_iteration_window,
    read_ciphertexts,
    reference_encrypt,
)
from dualrail.vector_machine import batch_run
from dualrail.verifier import symbolic_init, verify

GATE_SRC = ";@sensitive @100-101\n;@output @102\nand @102 @100 @101\n"


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def _gate_build():
    cfg = DplConfig()  # all defaults: rails {1,0}, tables at 0, scratch r20-r22
    out, _ = transform(parse(GATE_SRC), cfg)
    macro = [
        ins
        for i, ins in enumerate(out.instructions)
        if not out.tagged(i, "prologue")
    ]
    return cfg, out, macro


def test_criterion_01_golden_macro():
    t0 = time.perf_counter()
    cfg, _out, macro = _gate_build()
    r1, r2, r3 = (Register(n) for n in cfg.scratch)
    r0 = Register(ZERO_REG)
    a, b, d = MemDirect(100), MemDirect(101), MemDirect(102)
    golden = [
        Instruction("mov", (r1, r0)),
        Instruction("mov", (r1, a)),
        Instruction("and", (r1, r1, Immediate(3))),
        Instruction("lsl", (r1, r1, Immediate(1))),
        Instruction("lsl", (r1, r1, Immediate(1))),
        Instruction("mov", (r2, r0)),
        Instruction("mov", (r2, b)),
        Instruction("and", (r2, r2, Immediate(3))),
        Instruction("orr", (r1, r1, r2)),
        Instruction("mov", (r3, r0)),
        Instruction("mov", (r3, MemIndirect(r1, cfg.table_base("and")))),
        Instruction("mov", (d, r0)),
        Instruction("mov", (d, r3)),
    ]
    elapsed = time.perf_counter() - t0
    exact = len(macro) == 13 and all(g == m for g, m in zip(golden, macro))
    _report(
        1,
        "golden macro",
        exact and elapsed < 1.0,
        f"13-instruction and-macro exact, {elapsed * 1000:.0f} ms",
    )


def test_criterion_02_golden_luts():
    cfg = DplConfig()
    # offset -> encoded result for valid packed indices; poison 0 elsewhere
    golden = {
        "and": {5: 1, 6: 2, 9: 2, 10: 2},
        "orr": {5: 1, 6: 1, 9: 1, 10: 2},
        "xor": {5: 2, 6: 1, 9: 1, 10: 2},
    }
    stores = gen_luts(cfg, ("and", "orr", "xor"))
    written = {s.operands[0].address: s.operands[1].value for s in stores}
    mismatches = []
    for op, want in golden.items():
        for off in range(16):
            expect = want.get(off, 0)
            got = written.get(cfg.table_base(op) + off)
            if got != expect:
                mismatches.append((op, off, got, expect))
    _report(
        2,
        "golden look-up tables",
        len(stores) == 48 and not mismatches,
        f"48/48 entries exact across and/orr/xor{mismatches or ''}",
    )


def test_criterion_03_golden_trace():
    cfg, out, macro = _gate_build()
    linked = resolve(out)
    n_prologue = len(out.instructions) - len(macro)
    # expected (r20, r21, r22, @102) after each macro instruction, per run;
    # runs are the four encoded inputs (a, b) with 2 = encode(0), 1 = encode(1)
    runs = [(2, 2), (2, 1), (1, 2), (1, 1)]
    golden = {
        (2, 2): [(0, 0, 0, 0), (2, 0, 0, 0), (2, 0, 0, 0), (4, 0, 0, 0),
                 (8, 0, 0, 0), (8, 0, 0, 0), (8, 2, 0, 0), (8, 2, 0, 0),
                 (10, 2, 0, 0), (10, 2, 0, 0), (10, 2, 2, 0), (10, 2, 2, 0),
                 (10, 2, 2, 2)],
        (2, 1): [(0, 0, 0, 0), (2, 0, 0, 0), (2, 0, 0, 0), (4, 0, 0, 0),
                 (8, 0, 0, 0), (8, 0, 0, 0), (8, 1, 0, 0), (8, 1, 0, 0),
                 (9, 1, 0, 0), (9, 1, 0, 0), (9, 1, 2, 0), (9, 1, 2, 0),
                 (9, 1, 2, 2)],
        (1, 2): [(0, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0),
                 (4, 0, 0, 0), (4, 0, 0, 0), (4, 2, 0, 0), (4, 2, 0, 0),
                 (6, 2, 0, 0), (6, 2, 0, 0), (6, 2, 2, 0), (6, 2, 2, 0),
                 (6, 2, 2, 2)],
        (1, 1): [(0, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0),
                 (4, 0, 0, 0), (4, 0, 0, 0), (4, 1, 0, 0), (4, 1, 0, 0),
                 (5, 1, 0, 0), (5, 1, 0, 0), (5, 1, 1, 0), (5, 1, 1, 0),
                 (5, 1, 1, 1)],
    }
    evolutions_ok = True
    hd_seqs, full_seqs = [], []
    for ea, eb in runs:
        st = MachineState.fresh(linked.n_regs, linked.mem_size)
        st.memory[100], st.memory[101] = ea, eb
        for _ in range(n_prologue):
            step(st, linked)
        seen = []
        for _ in range(13):
            step(st, linked)
            seen.append(
                (st.registers[20], st.registers[21], st.registers[22],
                 st.memory[102])
            )
        if seen != golden[(ea, eb)]:
            evolutions_ok = False
        # per-cycle activity over the whole run, prologue included
        st2 = MachineState.fresh(linked.n_regs, linked.mem_size)
        st2.memory[100], st2.memory[101] = ea, eb
        res = run(linked, init=st2)
        hd_seqs.append(cycle_leakage(res.events, [1.0] * 8))
        full_seqs.append(cycle_leakage(res.events, [1.0] * 8, include_bus=True))
    hd_ok = all(s == hd_seqs[0] for s in hd_seqs[1:])
    bus_ok = all(s == full_seqs[0] for s in full_seqs[1:])
    _report(
        3,
        "golden trace",
        evolutions_ok and hd_ok and bus_ok,
        "register evolutions exact for all four encoded inputs; "
        "per-cycle hd sequences identical (also with bus weights)",
    )


def test_criterion_04_verifier_verdicts(
    linked_unprotected, linked_dpl, unprotected_src, dpl_build, canonical_cfg
):
    t0 = time.perf_counter()
    rep_u = verify(linked_unprotected, init=symbolic_init(linked_unprotected))
    rep_d = verify(
        linked_dpl, init=symbolic_init(linked_dpl, canonical_cfg), cfg=canonical_cfg
    )
    elapsed = time.perf_counter() - t0
    ok = (
        rep_u.verdict == "leaky"
        and len(rep_u.findings) >= 1
        and rep_d.verdict == "balanced"
        and len(rep_d.findings) == 0
        and elapsed < 10.0
    )
    _report(
        4,
        "balance verdicts",
        ok,
        f"unprotected: {len(rep_u.findings)} findings; transformed: "
        f"{len(rep_d.findings)} findings ({rep_d.verdict}); {elapsed:.1f} s",
    )


def test_criterion_05_correctness(linked_dpl, canonical_cfg):
    rng = np.random.default_rng(2024)
    pts = [0] + [int(rng.integers(0, 1 << 63)) * 2 + int(rng.integers(0, 2))
                 for _ in range(100)]
    keys = [0] + [(int(rng.integers(0, 1 << 63)) << 17) | int(rng.integers(0, 1 << 17))
                  for _ in range(100)]
    mem = corpus_init(pts, keys, cfg=canonical_cfg, mem_size=linked_dpl.mem_size)
    res = batch_run(linked_dpl, len(pts), init_memory=mem, max_steps=5_000_000)
    got = read_ciphertexts(res.memory, cfg=canonical_cfg)
    failures = sum(
        int(g) != reference_encrypt(p, k) for g, p, k in zip(got, pts, keys)
    )
    _report(
        5,
        "transformed cipher correctness",
        failures == 0,
        f"{len(pts)} vectors (100 random + all-zeros), {failures} failures",
    )


def test_criterion_06_cost_ratios(
    dpl_build, linked_unprotected, linked_dpl, canonical_cfg
):
    _, report = dpl_build
    static_ratio = report.code_growth_ratio
    mem_u = corpus_init([0], 0, mem_size=linked_unprotected.mem_size)
    mem_d = corpus_init([0], 0, cfg=canonical_cfg, mem_size=linked_dpl.mem_size)
    exec_u = batch_run(linked_unprotected, 1, init_memory=mem_u,
                       max_steps=5_000_000).cycles
    exec_d = batch_run(linked_dpl, 1, init_memory=mem_d,
                       max_steps=5_000_000).cycles
    exec_ratio = exec_d / exec_u
    ok = 1.5 <= static_ratio <= 2.5 and 2.0 <= exec_ratio <= 4.5
    _report(
        6,
        "cost ratios",
        ok,
        f"code growth x{static_ratio:.2f} (band [1.5, 2.5]); executed "
        f"x{exec_ratio:.2f} = {exec_d}/{exec_u} (band [2.0, 4.5])",
    )


def test_criterion_07_attack_separation(
    linked_unprotected, linked_dpl, canonical_cfg, sbox_window_u, sbox_window_d
):
    t0 = time.perf_counter()
    model = LeakModel(noise_sigma=DEFAULT_NOISE_SIGMA)
    curve_u = success_rate(
        linked_unprotected, TEST_KEY, model, [500], attacks_per_point=100,
        seed=0, window=sbox_window_u,
    )
    curve_d = success_rate(
        linked_dpl, TEST_KEY, model, [10_000], attacks_per_point=100,
        seed=0, window=sbox_window_d, cfg=canonical_cfg,
    )
    elapsed = time.perf_counter() - t0
    rate_u, rate_d = curve_u[0][1], curve_d[0][1]
    ok = rate_u >= 0.8 and rate_d <= 0.2 and elapsed < 600
    _report(
        7,
        "attack separation",
        ok,
        f"sigma={DEFAULT_NOISE_SIGMA}: unprotected {rate_u:.2f} at n=500 "
        f"(>=0.8); balanced {rate_d:.2f} at n=10000 (<=0.2); "
        f"100 attacks/point, {elapsed:.0f} s",
    )


def test_criterion_08_nicv_properties(
    linked_unprotected, linked_dpl, canonical_cfg, sbox_window_u
):
    classify = nibble_classifier(0)
    # [0,1] on randomized inputs: 10^4 random-plaintext noisy traces
    ts = synth_traces(
        linked_unprotected, TEST_KEY, 10_000,
        LeakModel(noise_sigma=DEFAULT_NOISE_SIGMA), seed=8, window=sbox_window_u,
    )
    vals = nicv(ts, classify)
    in_range = bool((vals >= 0.0).all() and (vals <= 1.0).all())
    # noiseless balanced corpus: zero at every cycle of the whole program
    ts_d = synth_traces(
        linked_dpl, TEST_KEY, 64, LeakModel(noise_sigma=0.0), seed=9,
        cfg=canonical_cfg,
    )
    flat = float(nicv(ts_d, classify).max())
    # noiseless unprotected corpus: strong signal in the first round
    ts_u = synth_traces(
        linked_unprotected, TEST_KEY, 256, LeakModel(noise_sigma=0.0), seed=10,
        window=sbox_window_u,
    )
    peak = float(nicv(ts_u, classify).max())
    ok = in_range and flat == 0.0 and peak > 0.5
    _report(
        8,
        "NICV properties",
        ok,
        f"range ok on 10^4 cases; balanced max {flat} over {ts_d.n_cycles} "
        f"cycles (= 0); unprotected first-round peak {peak:.2f} (> 0.5)",
    )


def test_criterion_09_profile_guides_rails(unprotected_src):
    model = LeakModel(weights=(3.0,) + (1.0,) * 7, noise_sigma=2.0)
    prof = profile_bits(model, n=256, seed=0)
    recommended = prof.recommended

    rates = {}
    for label, cfg in [
        ((0, 1), DplConfig(bit_f=1, bit_t=0, lut_base=768)),
        ((1, 2), DplConfig(bit_f=2, bit_t=1, lut_base=768)),
    ]:
        prog, _ = transform(unprotected_src, cfg)
        lp = resolve(prog)
        win = loop_iteration_window(lp, "sbx")
        curve = success_rate(
            lp, TEST_KEY, model, [200], attacks_per_point=100, seed=0,
            window=win, cfg=cfg,
        )
        rates[label] = curve[0][1]
    ok = (
        recommended == (1, 2)
        and rates[(0, 1)] >= 0.8
        and rates[(1, 2)] <= 0.2
    )
    _report(
        9,
        "profile-guided rail choice",
        ok,
        f"bit-0-outlier device: profile recommends pair {recommended}; at "
        f"n=200 rails {{0,1}} succeed {rates[(0, 1)]:.2f} (>=0.8) while "
        f"recommended rails {{1,2}} stay {rates[(1, 2)]:.2f} (<=0.2)",
    )


def test_criterion_10_constant_time(linked_unprotected, linked_dpl, canonical_cfg):
    rng = np.random.default_rng(77)
    pts = [int(x) for x in rng.integers(0, 1 << 63, 100)]
    keys = [(int(x) << 18) | int(y)
            for x, y in zip(rng.integers(0, 1 << 62, 100),
                            rng.integers(0, 1 << 18, 100))]
    counts = {}
    for name, linked, cfg in [
        ("unprotected", linked_unprotected, None),
        ("dpl", linked_dpl, canonical_cfg),
    ]:
        mem = corpus_init(pts, keys, cfg=cfg, mem_size=linked.mem_size)
        # lockstep batch execution raises if any lane diverges in control flow
        res = batch_run(linked, 100, init_memory=mem, max_steps=5_000_000)
        st = MachineState.fresh(linked.n_regs, linked.mem_size)
        st.memory[:] = [int(v) for v in mem[:, 0]]
        scalar = run(linked, init=st, max_steps=5_000_000)
        counts[name] = (res.cycles, scalar.instruction_count)
    ok = all(batch == scalar for batch, scalar in counts.values())
    _report(
        10,
        "constant-time execution",
        ok,
        "100 random input pairs per corpus execute in lockstep; "
        f"counts unprotected={counts['unprotected'][0]}, "
        f"dpl={counts['dpl'][0]}",
    )
