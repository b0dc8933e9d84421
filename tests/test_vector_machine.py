"""Batched interpreter tests: lockstep agreement with the scalar machine,
constant-time enforcement, and windowed leakage extraction."""

import cProfile
import gc
import hashlib
import sys
from collections import Counter

import numpy as np
import pytest

from dualrail import vector_machine
from dualrail.asm import parse, resolve
from dualrail.lab import LeakModel, synth_traces
from dualrail.machine import MachineError, MachineState, StepLimitExceeded, cycle_leakage, run
from dualrail.vector_machine import NonConstantTimeError, batch_run

SRC = (
    "mov r4 @100\n"
    "mov r5 @101\n"
    "xor r6 r4 r5\n"
    "and r7 r4 r5\n"
    "orr r8 r6 r7\n"
    "not r9 r8\n"
    "lsl r10 r9 #1\n"
    "lsr r11 r10 #2\n"
    "add r12 r11 r4\n"
    "mul r13 r12 #3\n"
    "mov @102 r13\n"
    "mov !r4,200 r6\n"
    "mov r14 !r5,100\n"
)


def _random_mem(n, seed):
    rng = np.random.default_rng(seed)
    mem = np.zeros((1024, n), dtype=np.uint8)
    mem[100] = rng.integers(0, 4, n)
    mem[101] = rng.integers(0, 4, n)
    return mem


def test_matches_scalar_machine():
    lp = resolve(parse(SRC))
    n = 16
    mem = _random_mem(n, seed=2)
    res = batch_run(lp, n, init_memory=mem, weights=(1.0,) * 8)
    for j in range(n):
        st = MachineState.fresh(32, 1024)
        st.memory[100] = int(mem[100, j])
        st.memory[101] = int(mem[101, j])
        scalar = run(lp, init=st)
        assert list(res.registers[:, j]) == list(scalar.final_state.registers)
        assert list(res.memory[:, j]) == list(scalar.final_state.memory)
        lk = cycle_leakage(scalar.events, [1.0] * 8, include_bus=True, n_cycles=res.leakage.shape[0])
        assert np.allclose(res.leakage[:, j], lk)


def test_leakage_includes_bus_when_asked():
    lp = resolve(parse("mov r3 !r1,100\n"))
    with pytest.raises(ValueError, match=r"cycle_leakage\(\.\.\., include_bus=False\)"):
        batch_run(lp, 1, weights=(1.0,) * 8, include_bus=False)
    # a noiseless trace weighs the address, the value on the data bus and
    # the register's flips: 3 + 3 + 3 bits
    st = MachineState.fresh(32, 1024)
    st.memory[100] = 7
    lk = cycle_leakage(run(lp, init=st).events, (1.0,) * 8, include_bus=True)
    assert lk == [9.0]

    def init(pts, key):
        mem = np.zeros((1024, len(pts)), dtype=np.uint8)
        mem[100] = 7
        return mem

    ts = synth_traces(lp, 0, 2, LeakModel(), init_builder=init)
    assert ts.traces.tobytes() == np.array([lk, lk], dtype=np.float32).tobytes()


def test_uniform_branches_allowed():
    src = "top: add r1 r1 #1\nbne r1 #3 top\nmov @100 r1\n"
    lp = resolve(parse(src))
    res = batch_run(lp, 8, weights=(1.0,) * 8)
    assert (res.memory[100] == 3).all()


def test_divergent_branch_rejected():
    src = "beq @100 #1 skip\nmov r2 #1\nskip: nop\n"
    lp = resolve(parse(src))
    mem = np.zeros((1024, 2), dtype=np.uint8)
    mem[100] = [0, 1]
    with pytest.raises(NonConstantTimeError):
        batch_run(lp, 2, init_memory=mem)


def test_window_trims_cycles():
    lp = resolve(parse(SRC))
    mem = _random_mem(4, seed=0)
    full = batch_run(lp, 4, init_memory=mem, weights=(1.0,) * 8)
    part = batch_run(lp, 4, init_memory=mem, weights=(1.0,) * 8, window=(3, 7))
    assert part.window_start == 3
    assert part.leakage.shape[0] == 4
    assert np.allclose(part.leakage, full.leakage[3:7])


#: two nested counted loops: 4820 cycles
LONG_LOOP = (
    "mov r4 @100\n"
    "mov r1 #0\n"
    "outer: mov r2 #0\n"
    "inner: add r2 r2 #1\n"
    "xor r3 r3 r4\n"
    "mov @102 r3\n"
    "bne r2 #200 inner\n"
    "add r1 r1 #1\n"
    "bne r1 #6 outer\n"
)


def test_open_window_matches_fixed_window():
    lp = resolve(parse(LONG_LOOP))
    mem = _random_mem(5, seed=3)
    kw = dict(init_memory=mem, weights=(1.0, 2.0, 0.5, 1.0, 1.0, 3.0, 1.0, 1.0))
    full = batch_run(lp, 5, **kw)
    assert full.cycles == 4820
    assert full.leakage.shape == (4820, 5)
    # recording until halt must give what a window known up front gives
    for start in (0, 10, 4000):
        open_end = batch_run(lp, 5, window=(start, None), **kw)
        fixed = batch_run(lp, 5, window=(start, full.cycles), **kw)
        assert open_end.leakage.dtype == np.float32
        np.testing.assert_array_equal(open_end.leakage, fixed.leakage)
        np.testing.assert_array_equal(open_end.leakage, full.leakage[start:])


def test_open_window_leakage_empty():
    assert batch_run(resolve(parse("")), 3, weights=(1.0,) * 8).leakage.shape == (0, 3)
    lp = resolve(parse("mov r1 #1\nmov r2 #2\n"))
    res = batch_run(lp, 3, weights=(1.0,) * 8, window=(5, None))
    assert res.cycles == 2
    assert res.leakage.shape == (0, 3)


def test_register_init_matrix():
    lp = resolve(parse("add r5 r4 #1\nmov @100 r5\n"))
    regs = np.zeros((32, 3), dtype=np.uint8)
    regs[4] = [1, 2, 3]
    res = batch_run(lp, 3, init_registers=regs)
    assert list(res.memory[100]) == [2, 3, 4]


def test_indirect_store_per_lane_addresses():
    src = "mov !r4,200 #9\n"
    lp = resolve(parse(src))
    regs = np.zeros((32, 3), dtype=np.uint8)
    regs[4] = [0, 1, 2]
    res = batch_run(lp, 3, init_registers=regs)
    assert res.memory[200, 0] == 9 and res.memory[201, 1] == 9 and res.memory[202, 2] == 9
    assert res.memory[200, 1] == 0


def test_step_limit_raises():
    lp = resolve(parse("top: jmp top\n"))
    with pytest.raises(StepLimitExceeded):
        batch_run(lp, 2, max_steps=100)
    with pytest.raises(StepLimitExceeded):
        batch_run(lp, 2, weights=(1.0,) * 8, window=(0, 200), max_steps=100)


def test_window_end_stops_without_raising():
    lp = resolve(parse("top: jmp top\n"))
    res = batch_run(lp, 2, weights=(1.0,) * 8, window=(10, 50), max_steps=100)
    assert res.cycles == 50
    assert res.leakage.shape == (40, 2)


def test_zero_runs_rejected():
    # a branch used to index the empty lane vector and raise IndexError
    for src in ("mov r1 #1\n", "top: add r1 r1 #1\nbne r1 #3 top\n"):
        with pytest.raises(ValueError, match="at least one run"):
            batch_run(resolve(parse(src)), 0, weights=(1.0,) * 8)


@pytest.mark.parametrize(
    "src",
    [
        "mov r1 #200\nmov r2 !r1,900\n",
        "mov r1 #200\nmov !r1,900 r2\n",
    ],
)
def test_address_beyond_memory_is_machine_error(src):
    lp = resolve(parse(src))
    with pytest.raises(MachineError):
        batch_run(lp, 2)
    with pytest.raises(MachineError):
        run(lp)


#: batch_run without weights, which records nothing, and with weights,
#: which records every event; the ids are the (weights, bus) ones these
#: cases had beside a bus-less recording mode, which is gone
RECORDING = [pytest.param(None, id="None-False"), pytest.param((1.0,) * 8, id="weights2-True")]


@pytest.mark.parametrize("src", ["mov r2 !r1,900\n", "mov !r1,900 r2\n"])
@pytest.mark.parametrize("weights", RECORDING)
def test_uniform_base_beyond_memory_message(src, weights):
    # r1 the same in both lanes reads or writes one row; per lane it goes
    # through flat cell indices: both stop with the same error
    lp = resolve(parse(src))
    regs = np.zeros((32, 2), dtype=np.uint8)
    messages = []
    for r1 in ([200, 200], [200, 201]):
        regs[1] = r1
        with pytest.raises(MachineError) as err:
            batch_run(lp, 2, init_registers=regs, weights=weights)
        messages.append(str(err.value))
    assert messages == ["indexed address beyond memory (r1 + 900)"] * 2


#: r2 goes lane-uniform (an immediate), varying (a load from data) and
#: uniform again, indexing memory and counting a loop on each leg
UNIFORM_TURNS = (
    "mov r2 #3\n"
    "mov !r2,400 r2\n"
    "xor r4 r2 !r2,100\n"
    "mov r2 @101\n"
    "mov !r2,400 r4\n"
    "xor r4 r4 !r2,100\n"
    "add r3 r2 r4\n"
    "mov r2 #0\n"
    "top: xor r4 r4 !r2,100\n"
    "mov !r2,410 r4\n"
    "add r2 r2 #1\n"
    "bne r2 #3 top\n"
    "mov @102 r2\n"
)


@pytest.mark.parametrize("weights", RECORDING)
def test_uniform_register_turns_match_scalar(weights):
    lp = resolve(parse(UNIFORM_TURNS))
    mem = np.random.default_rng(6).integers(0, 256, size=(1024, 4), dtype=np.uint8)
    mem[101] = [0, 5, 9, 5]
    if weights is not None:
        # each bit weighs its place value: a cycle's leakage is the sum of
        # its event bytes (addresses add 1.0 per bit above the word), exact
        # in float32 and float64 alike
        weights = tuple(float(1 << i) for i in range(8))
    res = batch_run(lp, 4, init_memory=mem, weights=weights)
    for j in range(4):
        scalar = run(lp, init=MachineState([0] * 32, [int(v) for v in mem[:, j]]))
        assert res.cycles == scalar.instruction_count == 21
        assert list(res.registers[:, j]) == scalar.final_state.registers
        assert list(res.memory[:, j]) == scalar.final_state.memory
        if weights is not None:
            lk = cycle_leakage(scalar.events, weights, include_bus=True, n_cycles=res.cycles)
            assert res.leakage[:, j].tobytes() == np.asarray(lk, dtype=np.float32).tobytes()


#: a counted loop whose counter turns varying (adds data) at r2 = 3
COUNTER_TURNS_VARYING = (
    "mov r2 #0\n"
    "top: add r2 r2 #1\n"
    "bne r2 #3 next\n"
    "add r2 r2 @100\n"
    "next: bne r2 #6 top\n"
)


@pytest.mark.parametrize("weights", [None, (1.0,) * 8])
def test_counter_turning_varying_is_divergent(weights):
    lp = resolve(parse(COUNTER_TURNS_VARYING))
    mem = np.zeros((1024, 2), dtype=np.uint8)
    # the same data in both lanes: the counter is a row, but of one value
    res = batch_run(lp, 2, init_memory=mem, weights=weights)
    assert res.cycles == 20 and (res.registers[2] == 6).all()
    # each lane halts on its own, but r2 = [3, 4] turns [5, 6] two passes on
    mem[100] = [0, 1]
    for j in (0, 1):
        run(lp, init=MachineState([0] * 32, [int(v) for v in mem[:, j]]))
    with pytest.raises(NonConstantTimeError, match="instruction 4: divergent branch"):
        batch_run(lp, 2, init_memory=mem, weights=weights)


#: a counted loop with indexed and direct loads and stores: 1001 cycles
#: that fill 2,401 event slots with the bus on
INDEXED_LOOP = (
    "mov r2 #0\n"
    "top: add r2 r2 #1\n"
    "xor r3 r3 !r2,100\n"
    "mov !r2,400 r3\n"
    "mov @102 @101\n"
    "bne r2 #200 top\n"
)


def test_open_window_across_block_flushes(monkeypatch):
    lp = resolve(parse(INDEXED_LOOP))
    mem = np.random.default_rng(4).integers(0, 256, size=(1024, 5), dtype=np.uint8)
    kw = dict(init_memory=mem, weights=PIN_WEIGHTS)
    one_block = batch_run(lp, 5, **kw)
    assert one_block.cycles == 1001
    # the smallest block holds 28 slots: the run flushes it about 110 times;
    # an open end first allocating 1 byte also grows its matrix about 36 times
    monkeypatch.setattr(vector_machine, "BLOCK_BYTES", 1)
    for piece_bytes in (vector_machine.PIECE_BYTES, 1):
        monkeypatch.setattr(vector_machine, "PIECE_BYTES", piece_bytes)
        for start in (0, 7):
            open_end = batch_run(lp, 5, window=(start, None), **kw)
            fixed = batch_run(lp, 5, window=(start, one_block.cycles), **kw)
            np.testing.assert_array_equal(open_end.leakage, fixed.leakage)
            np.testing.assert_array_equal(open_end.leakage, one_block.leakage[start:])
    np.testing.assert_array_equal(open_end.memory, one_block.memory)
    for j in range(5):
        st = MachineState(registers=[0] * 32, memory=[int(v) for v in mem[:, j]])
        lk = cycle_leakage(run(lp, init=st).events, PIN_WEIGHTS, include_bus=True, n_cycles=1001)
        np.testing.assert_allclose(one_block.leakage[:, j], lk, rtol=1e-6)


#: a branch-free body on every operand kind: direct, immediate-based and
#: indexed loads and stores, indexed on a lane-uniform base (r2 = 3) and
#: on a varying one (r2 from @101), with r2 going uniform -> varying ->
#: uniform; ints meet rows and ints meet ints, and a uniform register
#: turns another uniform value
BODY = (
    "mov r2 #3\n"
    "xor r4 r2 !r2,100\n"
    "mov !r2,400 r4\n"
    "mov r2 @101\n"
    "mov !r2,400 r4\n"
    "xor r4 r4 !r2,100\n"
    "add r3 r2 r4\n"
    "mov r2 #0\n"
    "mov r6 @102\n"
    "and r7 r6 #3\n"
    "orr r7 r7 r2\n"
    "mov @103 r7\n"
    "mov @104 #5\n"
    "mov @105 r2\n"
    "mov r8 !#200,5\n"
    "mov !#210,5 r8\n"
    "not r10 r6\n"
    "lsl r11 r9 #1\n"
    "mov r12 r11\n"
    "mov !r2,420 r12\n"
    "mov r13 !r2,420\n"
    "mov r14 #6\n"
    "xor r14 r14 #3\n"
)
#: the body run once, and three times in a counted loop
STRAIGHT = BODY
LOOPED = "mov r9 #0\ntop: " + BODY + "add r9 r9 #1\nbne r9 #3 top\n"


@pytest.mark.parametrize("src,cycles", [(STRAIGHT, 23), (LOOPED, 76)])
@pytest.mark.parametrize("weights", RECORDING)
def test_first_visit_and_compiled_match_scalar(src, cycles, weights):
    # every pc of the body runs once through the generic step; in the loop
    # it is compiled on the second pass and runs compiled on the third
    lp = resolve(parse(src))
    mem = np.random.default_rng(8).integers(0, 256, size=(1024, 4), dtype=np.uint8)
    mem[101] = [0, 5, 9, 5]
    if weights is not None:
        weights = tuple(float(1 << i) for i in range(8))  # place values: exact sums
    res = batch_run(lp, 4, init_memory=mem, weights=weights)
    for j in range(4):
        scalar = run(lp, init=MachineState([0] * 32, [int(v) for v in mem[:, j]]))
        assert res.cycles == scalar.instruction_count == cycles
        assert list(res.registers[:, j]) == scalar.final_state.registers
        assert list(res.memory[:, j]) == scalar.final_state.memory
        if weights is not None:
            lk = cycle_leakage(scalar.events, weights, include_bus=True, n_cycles=res.cycles)
            assert res.leakage[:, j].tobytes() == np.asarray(lk, dtype=np.float32).tobytes()


def _compiles(call):
    """pc -> how often `call` compiled it: calls of the compiler's `make`,
    counted by a profile hook."""
    make = next(c for c in vector_machine._compiler.__code__.co_consts if getattr(c, "co_name", "") == "make")
    counts = Counter()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is make:
            counts[frame.f_locals["pc"]] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return counts


@pytest.mark.parametrize("weights", RECORDING)
def test_straight_line_compiles_nothing(weights):
    # 2,000 distinct instructions over every operand kind, each run once
    forms = ("mov r{r} @{a}", "xor r{r} r{s} !r1,{a}", "mov @{b} r{r}", "and r{r} r{s} #{c}",
             "mov !r1,{b} r{s}", "orr @{b} @{a} r{s}", "mov r{r} !#{a},1", "not @{b} r{s}")
    lines = [forms[i % 8].format(r=2 + i % 7, s=2 + i % 5, a=i // 4, b=500 + i // 4, c=i // 8)
             for i in range(2000)]
    lp = resolve(parse("\n".join(lines) + "\n"))
    assert len(set(lp.instructions)) == 2000
    mem = np.random.default_rng(2).integers(0, 256, size=(1024, 3), dtype=np.uint8)
    regs = np.zeros((32, 3), dtype=np.uint8)
    regs[1] = [0, 3, 7]  # a varying base
    kw = dict(init_memory=mem, init_registers=regs, weights=weights)
    assert _compiles(lambda: batch_run(lp, 3, **kw)) == Counter()


@pytest.mark.parametrize(
    "weights", [pytest.param(None, id="None-False"), pytest.param((1.0,) * 8, id="weights1-True")]
)
def test_loop_compiles_each_pc_once(weights):
    lp = resolve(parse(INDEXED_LOOP))  # pc 0 runs once, pcs 1-5 200 times
    res = []
    counts = _compiles(lambda: res.append(batch_run(lp, 2, weights=weights)))
    assert res[0].cycles == 1001
    assert counts == Counter(range(1, 6))


@pytest.mark.parametrize("access", ["mov r2 !r1,1000", "mov !r1,1000 r2"])
@pytest.mark.parametrize("weights", RECORDING)
def test_compiled_indexed_access_beyond_memory(access, weights):
    # r1 steps by 20, so the third pass, the first through the compiled
    # closure, reaches @1040 and beyond
    lp = resolve(parse(f"top: {access}\nadd r1 r1 #20\nadd r3 r3 #1\nbne r3 #5 top\n"))
    with pytest.raises(MachineError):
        run(lp)
    regs = np.zeros((32, 2), dtype=np.uint8)
    for r1 in ([0, 0], [0, 1]):  # a lane-uniform base, then a varying one
        regs[1] = r1

        def call():
            with pytest.raises(MachineError, match=r"indexed address beyond memory \(r1 \+ 1000\)"):
                batch_run(lp, 2, init_registers=regs, weights=weights)

        assert _compiles(call)[0] == 1


@pytest.mark.parametrize("weights", RECORDING)
def test_nop_in_a_loop_matches_scalar(weights):
    lp = resolve(parse("mov r2 @100\ntop: nop\nxor @101 @101 r2\nnop\nadd r1 r1 #1\nbne r1 #3 top\n"))
    mem = np.zeros((1024, 2), dtype=np.uint8)
    mem[100] = [5, 6]
    res = []
    assert _compiles(lambda: res.append(batch_run(lp, 2, init_memory=mem, weights=weights))) \
        == Counter(range(1, 6))
    for j in range(2):
        scalar = run(lp, init=MachineState([0] * 32, [int(v) for v in mem[:, j]]))
        assert res[0].cycles == scalar.instruction_count == 16
        assert list(res[0].memory[:, j]) == scalar.final_state.memory
        if weights is not None:
            lk = cycle_leakage(scalar.events, weights, include_bus=True, n_cycles=res[0].cycles)
            assert res[0].leakage[:, j].tobytes() == np.asarray(lk, dtype=np.float32).tobytes()


def test_run_leaves_no_reference_cycle():
    # a compiler's steps refer to the compiler: batch_run breaks that cycle,
    # so the block and rows go when it returns, not when the collector runs
    lp = resolve(parse(INDEXED_LOOP))
    for window in ((0, None), (300, 400)):
        gc.collect()
        gc.disable()
        try:
            batch_run(lp, 2, weights=(1.0,) * 8, window=window)
            assert gc.collect() == 0
        finally:
            gc.enable()


def test_open_window_leakage_under_profiler(monkeypatch):
    # a profiler's c_call event holds a bound method of the leakage matrix,
    # so growing and cutting it must not depend on its reference count
    lp = resolve(parse(INDEXED_LOOP))
    mem = np.random.default_rng(4).integers(0, 256, size=(1024, 5), dtype=np.uint8)
    kw = dict(init_memory=mem, weights=PIN_WEIGHTS, window=(7, None))
    for piece_bytes in (vector_machine.PIECE_BYTES, 1):
        monkeypatch.setattr(vector_machine, "PIECE_BYTES", piece_bytes)
        plain = batch_run(lp, 5, **kw)
        profiled = cProfile.Profile().runcall(batch_run, lp, 5, **kw)
        assert profiled.leakage.shape == plain.leakage.shape == (994, 5)
        assert profiled.leakage.tobytes() == plain.leakage.tobytes()


def test_window_ends_after_halt():
    lp = resolve(parse(SRC))
    mem = _random_mem(3, seed=5)
    kw = dict(init_memory=mem, weights=PIN_WEIGHTS)
    whole = batch_run(lp, 3, **kw)
    assert whole.cycles == 13
    past = batch_run(lp, 3, window=(4, 40), **kw)
    assert past.cycles == 13 and past.leakage.shape == (36, 3)
    np.testing.assert_array_equal(past.leakage[:9], whole.leakage[4:])
    assert not past.leakage[9:].any()
    late = batch_run(lp, 3, window=(20, 30), **kw)
    assert late.cycles == 13 and late.leakage.shape == (10, 3) and not late.leakage.any()
    # a window reaching back before cycle 0 keeps its rows for those cycles
    early = batch_run(lp, 3, window=(-3, 5), **kw)
    assert early.cycles == 5 and early.leakage.shape == (8, 3)
    assert not early.leakage[:3].any()
    np.testing.assert_array_equal(early.leakage[3:], whole.leakage[:5])
    # with an open end too: row i is cycle start + i
    open_early = batch_run(lp, 3, window=(-3, None), **kw)
    assert open_early.window_start == -3
    np.testing.assert_array_equal(open_early.leakage, batch_run(lp, 3, window=(-3, 13), **kw).leakage)


def test_reversed_window_rejected():
    lp = resolve(parse(SRC))
    for weights in (None, (1.0,) * 8):
        with pytest.raises(ValueError, match="window end 50 is before its start 100"):
            batch_run(lp, 2, weights=weights, window=(100, 50))


# -- golden leakage pins ------------------------------------------------------

#: non-uniform bit-line weights, so a reordered float32 sum would show
PIN_WEIGHTS = (1.3, 0.7, 1, 1.1, 0.9, 1, 1.2, 0.8)


def _pin_leakage(linked, cfg, window, lanes=4):
    from conftest import TEST_KEY
    from dualrail.present import corpus_init

    pts = np.random.default_rng(11).integers(0, 1 << 64, size=lanes, dtype=np.uint64)
    mem = corpus_init(pts, TEST_KEY, cfg=cfg, mem_size=linked.mem_size)
    res = batch_run(linked, lanes, init_memory=mem, weights=PIN_WEIGHTS, window=window)
    assert res.leakage.dtype == np.float32 and res.leakage.flags.c_contiguous
    return hashlib.sha256(res.leakage.tobytes()).hexdigest()


#: sha256 of batch_run(...).leakage.tobytes(), recorded before the engine
#: weighted recorded event bytes per block instead of per event; the ids
#: end in -True, the bus flag the pins were recorded with
LEAKAGE_PINS = {
    ('unprotected', 'whole'): 'cb2a3809521751873f6eaf2e3a7026192d973ed10c527288e9d8784b4809e5c3',
    ('unprotected', 'sbox'): 'b259071146f7ee91794ac9f05615dabbc8421d53202370f55251497821f0ef44',
    ('unprotected', 'fixed'): '78c3071b0bea7eccf7aec95c944b28ddd37aaf49dd43212afef9cf10bfd191fb',
    ('dpl', 'whole'): 'a498ac3eb3532eeb31a643fb44ea88f837c72bdfe772e38ff7002942ade0493c',
    ('dpl', 'sbox'): '4aa98d0542b158e1d97fc23f09926e7787d89721e10e1a10e7eefe3e0d08dd09',
    ('dpl', 'fixed'): '932fe315d718283a2aa9e1746100d4e331542c0d7d5527c498e495a294b761da',
}


@pytest.mark.parametrize(
    "corpus,window", sorted(LEAKAGE_PINS), ids=[f"{c}-{w}-True" for c, w in sorted(LEAKAGE_PINS)]
)
def test_leakage_golden(corpus, window, request, canonical_cfg):
    linked = request.getfixturevalue(f"linked_{corpus}")
    cfg = canonical_cfg if corpus == "dpl" else None
    win = {"whole": (0, None), "fixed": (5, 300)}.get(window)
    if win is None:
        win = request.getfixturevalue(f"sbox_window_{corpus[0]}")
    assert _pin_leakage(linked, cfg, win) == LEAKAGE_PINS[corpus, window]
