"""Concrete interpreter tests: instruction semantics, the transition event
log, and per-cycle leakage aggregation."""

import hashlib

import numpy as np
import pytest

from dualrail.asm import MAX_CELLS, LinkError, parse, resolve
from dualrail.machine import (
    DATA_BUS,
    MEM_UPDATE,
    REG_UPDATE,
    MachineError,
    MachineState,
    StepLimitExceeded,
    cycle_leakage,
    run,
    write_events_csv,
)


def _run_src(src, init=None, **kw):
    return run(resolve(parse(src)), init=init, **kw)


def _init(regs=(), mem=()):
    st = MachineState.fresh(32, 1024)
    for i, v in regs:
        st.registers[i] = v
    for a, v in mem:
        st.memory[a] = v
    return st


# -- semantics --------------------------------------------------------------


@pytest.mark.parametrize(
    "src,regs,expect",
    [
        ("mov r1 #7\n", (), 7),
        ("not r1 r2\n", ((2, 0b1010,),), 0b11110101),
        ("and r1 r2 r3\n", ((2, 12), (3, 10)), 8),
        ("orr r1 r2 r3\n", ((2, 12), (3, 10)), 14),
        ("xor r1 r2 r3\n", ((2, 12), (3, 10)), 6),
        ("lsl r1 r2 #1\n", ((2, 0x81),), 0x02),  # wraps at word width
        ("lsr r1 r2 #2\n", ((2, 12),), 3),
        ("add r1 r2 #250\n", ((2, 10),), 4),  # modulo 256
        ("mul r1 r2 #3\n", ((2, 100),), 44),  # modulo 256
    ],
)
def test_alu_semantics(src, regs, expect):
    res = _run_src(src, init=_init(regs=regs))
    assert res.final_state.registers[1] == expect


def test_branch_taken_and_not():
    res = _run_src("beq r1 r2 end\nmov r3 #1\nend: nop\n")
    assert res.final_state.registers[3] == 0  # r1 == r2 == 0: branch taken
    res = _run_src("bne r1 r2 end\nmov r3 #1\nend: nop\n")
    assert res.final_state.registers[3] == 1


def test_loop_halts():
    src = "top: add r1 r1 #1\nbne r1 #5 top\n"
    res = _run_src(src)
    assert res.final_state.registers[1] == 5
    assert res.instruction_count == 10


def test_step_limit():
    with pytest.raises(StepLimitExceeded):
        _run_src("top: jmp top\n", max_steps=50)


def test_memory_indirect_load_store():
    init = _init(regs=((1, 10),), mem=((26, 2),))
    res = _run_src("mov r3 !r1,16\nmov !r1,32 r3\n", init=init)
    assert res.final_state.registers[3] == 2
    assert res.final_state.memory[42] == 2


def test_out_of_range_indirect_access():
    # static offsets are rejected at resolve time; dynamic overflow at runtime
    with pytest.raises(LinkError):
        _run_src("mov r3 !r1,2000\n")
    with pytest.raises(MachineError):
        _run_src("mov r3 !r1,1000\n", init=_init(regs=((1, 100),)))


def test_largest_machine_accesses_its_last_cell():
    # every address a linked program can reach has a Hamming weight: the
    # last cell of the largest memory runs, and an indexed address past it
    # is a MachineError
    lp = resolve(parse("mov @65535 #1\nmov r1 #255\nmov r2 !r1,65280\n"), mem_size=MAX_CELLS)
    res = run(lp)
    assert res.final_state.memory[65535] == res.final_state.registers[2] == 1
    assert [e.hw for e in res.events if e.kind == "addr_bus"] == [16, 16]
    lp = resolve(parse("mov r1 #255\nmov r2 !r1,65535\n"), n_regs=MAX_CELLS, mem_size=MAX_CELLS)
    with pytest.raises(MachineError, match="load address 65790 out of range"):
        run(lp)


# -- events -----------------------------------------------------------------


def test_orr_event_example():
    # r1=8 (1000b) | r2=2 (0010b) -> r1=10 (1010b), one flipped bit
    res = _run_src("orr r1 r1 r2\n", init=_init(regs=((1, 8), (2, 2))))
    ups = [e for e in res.events if e.kind == REG_UPDATE]
    assert len(ups) == 1
    assert ups[0].location == "r1" and ups[0].hd == 1 and ups[0].hw == 2


def test_zero_precharge_of_zero():
    res = _run_src("mov r1 r0\n")
    ups = [e for e in res.events if e.kind == REG_UPDATE]
    assert ups[0].hd == 0 and ups[0].hw == 0


def test_indexed_load_bus_events():
    # mov r3 !r1,16 with r1=10 loads mem[26]; HW(26)=3
    init = _init(regs=((1, 10), (3, 5)), mem=((26, 2),))
    res = _run_src("mov r3 !r1,16\n", init=init)
    kinds = {e.kind: e for e in res.events}
    assert kinds["addr_bus"].hw == 3
    assert kinds[DATA_BUS].hw == 1
    assert kinds[REG_UPDATE].hd == bin(5 ^ 2).count("1")


def test_store_emits_mem_update():
    res = _run_src("mov @9 #255\n")
    ups = [e for e in res.events if e.kind == MEM_UPDATE]
    assert ups[0].location == "@9" and ups[0].hd == 8 and ups[0].hw == 8


def test_no_events_for_control_flow():
    res = _run_src("nop\njmp end\nend: nop\n")
    assert [e for e in res.events if e.kind in (REG_UPDATE, MEM_UPDATE)] == []


def test_events_ordered_by_cycle():
    res = _run_src("mov r1 #1\nmov r2 #2\nmov @3 r1\n")
    cycles = [e.cycle for e in res.events]
    assert cycles == sorted(cycles)


def test_empty_program():
    res = run(resolve(parse("\n")))
    assert res.events == [] and res.instruction_count == 0


def test_determinism():
    src = "mov r1 #9\nxor r2 r1 #3\nmov @5 r2\n"
    a, b = _run_src(src), _run_src(src)
    assert list(a.final_state.registers) == list(b.final_state.registers)
    assert [(e.cycle, e.kind, e.hd) for e in a.events] == [
        (e.cycle, e.kind, e.hd) for e in b.events
    ]


# -- cycle leakage ----------------------------------------------------------


def test_cycle_leakage_uniform_is_hd_sum():
    res = _run_src("mov r1 #3\nmov r2 #15\n")
    lk = cycle_leakage(res.events, [1.0] * 8)
    assert lk == [2.0, 4.0]


def test_cycle_leakage_weighted():
    # one event flipping bits {1,2}: weight of bit 0 is irrelevant
    res = _run_src("mov r1 #6\n")
    assert cycle_leakage(res.events, [1.0] * 8) == [2.0]
    assert cycle_leakage(res.events, [3.0] + [1.0] * 7) == [2.0]


def test_cycle_leakage_assigns_per_bit_weights():
    res = _run_src("mov r1 #1\n")  # flips bit 0 only
    assert cycle_leakage(res.events, [3.0] + [1.0] * 7) == [3.0]
    for weights in ([3.0], [1.0] * 9):  # one weight per bit line of the word
        with pytest.raises(ValueError, match="need 8 per-bit weights"):
            cycle_leakage(res.events, weights)


#: sha256 of cycle_leakage(...) as float64 bytes on one unprotected corpus
#: run, recorded before cycle_leakage and batch_run shared weight_tables;
#: with the bus, addresses above 255 weigh their bit 8 at 1.0
CYCLE_LEAKAGE_PINS = {
    False: "d8d857d8be57e350c1f81388db735879b17e5adfa753daa366dba12de340b80a",
    True: "260c75f86a0e22d4bc406a6ead7364bb7692742c920096bc09c0c99437075e52",
}


def test_cycle_leakage_golden(linked_unprotected):
    from conftest import TEST_KEY
    from dualrail.present import corpus_init

    weights = (1.3, 0.7, 1, 1.1, 0.9, 1, 1.2, 0.8)
    pt = np.random.default_rng(11).integers(0, 1 << 64, size=1, dtype=np.uint64)
    mem = corpus_init(pt, TEST_KEY, mem_size=linked_unprotected.mem_size)
    init = MachineState([0] * linked_unprotected.n_regs, [int(v) for v in mem[:, 0]])
    events = run(linked_unprotected, init).events
    for bus, pin in CYCLE_LEAKAGE_PINS.items():
        lk = cycle_leakage(events, weights, include_bus=bus)
        assert len(lk) == 49450
        assert hashlib.sha256(np.asarray(lk, dtype=np.float64).tobytes()).hexdigest() == pin


def test_events_csv(tmp_path):
    res = _run_src("mov r1 #3\n")
    path = tmp_path / "ev.csv"
    write_events_csv(res.events, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "cycle,kind,location,hd,hw"
    assert len(lines) == 1 + len(res.events)
