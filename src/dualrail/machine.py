"""Concrete reference interpreter with a Hamming-model leakage event log.

Opcode semantics, the word and the Hamming weights come from ``asm``, as
for the batch engine and the verifier.  This one-run-at-a-time machine is
the oracle the others are tested against, and it alone records named
events (the ``-s`` event log) and steps a single run
(``present.loop_iteration_window``).

Every destination write emits a reg_update/mem_update event carrying the
Hamming distance of the update and the Hamming weight of the new value;
every memory access additionally emits one addr_bus and one data_bus event.
Buses are precharged to zero, so a bus event's hd equals its hw.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .asm import HW, MAX_STEPS, OPS, WORD_BITS, WORD_MASK, Immediate, LinkedProgram, MemDirect, Register

REG_UPDATE = "reg_update"
MEM_UPDATE = "mem_update"
ADDR_BUS = "addr_bus"
DATA_BUS = "data_bus"


class MachineError(RuntimeError):
    pass


class StepLimitExceeded(MachineError):
    pass


@dataclass(frozen=True)
class LeakageEvent:
    """One observable update.

    ``flips`` is the xor of old and new value for update events, and the
    transferred value itself for (precharged) bus events; cycle_leakage uses
    it for per-bit weighting.  hd == popcount(flips) always.
    """

    cycle: int
    kind: str
    location: str
    hd: int
    hw: int
    flips: int


@dataclass
class MachineState:
    registers: list[int]
    memory: list[int]
    pc: int = 0
    cycle: int = 0

    @classmethod
    def fresh(cls, n_regs: int, mem_size: int) -> "MachineState":
        return cls([0] * n_regs, [0] * mem_size)

    def copy(self) -> "MachineState":
        return MachineState(list(self.registers), list(self.memory), self.pc, self.cycle)


@dataclass
class RunResult:
    final_state: MachineState
    events: list[LeakageEvent]
    instruction_count: int


def _load(state: MachineState, op, events: list[LeakageEvent], mem_size: int):
    if isinstance(op, Register):
        return state.registers[op.index]
    if isinstance(op, Immediate):
        return op.value
    if isinstance(op, MemDirect):
        addr = op.address
    else:  # MemIndirect
        addr = state.registers[op.base.index] + op.offset
    if not 0 <= addr < mem_size:
        raise MachineError(f"load address {addr} out of range at cycle {state.cycle}")
    value = state.memory[addr]
    events.append(LeakageEvent(state.cycle, ADDR_BUS, "abus", HW[addr], HW[addr], addr))
    events.append(LeakageEvent(state.cycle, DATA_BUS, "dbus", HW[value], HW[value], value))
    return value


def _store(state: MachineState, op, value: int, events: list[LeakageEvent], mem_size: int):
    if isinstance(op, Register):
        old = state.registers[op.index]
        state.registers[op.index] = value
        flips = old ^ value
        events.append(
            LeakageEvent(state.cycle, REG_UPDATE, f"r{op.index}", HW[flips], HW[value], flips)
        )
        return
    if isinstance(op, MemDirect):
        addr = op.address
    else:  # MemIndirect
        addr = state.registers[op.base.index] + op.offset
    if not 0 <= addr < mem_size:
        raise MachineError(f"store address {addr} out of range at cycle {state.cycle}")
    old = state.memory[addr]
    state.memory[addr] = value
    flips = old ^ value
    events.append(LeakageEvent(state.cycle, ADDR_BUS, "abus", HW[addr], HW[addr], addr))
    events.append(LeakageEvent(state.cycle, DATA_BUS, "dbus", HW[value], HW[value], value))
    events.append(LeakageEvent(state.cycle, MEM_UPDATE, f"@{addr}", HW[flips], HW[value], flips))


def step(state: MachineState, program: LinkedProgram) -> list[LeakageEvent]:
    """Execute one instruction in place; returns the cycle's events."""
    if state.pc >= len(program.instructions):
        raise MachineError("machine is halted")
    inst = program.instructions[state.pc]
    mem_size = program.mem_size
    events: list[LeakageEvent] = []
    spec = OPS[inst.opcode]
    kind = spec.kind
    next_pc = state.pc + 1

    if kind == "unary":
        dest, src = inst.operands
        v = spec.fn(_load(state, src, events, mem_size), WORD_MASK)
        _store(state, dest, v, events, mem_size)
    elif kind == "binary":
        dest, sa, sb = inst.operands
        a = _load(state, sa, events, mem_size)
        b = _load(state, sb, events, mem_size)
        _store(state, dest, spec.fn(a, b, WORD_MASK), events, mem_size)
    elif kind == "branch":
        a = _load(state, inst.operands[0], events, mem_size)
        b = _load(state, inst.operands[1], events, mem_size)
        if spec.fn(a, b, WORD_MASK):
            next_pc = inst.operands[2].index
    elif kind == "jump":
        next_pc = inst.operands[0].index

    state.pc = next_pc
    state.cycle += 1
    return events


def run(
    program: LinkedProgram,
    init: MachineState | None = None,
    max_steps: int = MAX_STEPS,
) -> RunResult:
    """Run to halt (pc past the last instruction) or max_steps.

    Raises StepLimitExceeded if the program does not halt in time.
    """
    state = init.copy() if init is not None else MachineState.fresh(program.n_regs, program.mem_size)
    all_events: list[LeakageEvent] = []
    count = 0
    n = len(program.instructions)
    while state.pc < n:
        if count >= max_steps:
            raise StepLimitExceeded(f"no halt within {max_steps} steps")
        all_events.extend(step(state, program))
        count += 1
    return RunResult(state, all_events, count)


def weight_tables(weights, n_addr: int = 0):
    """Per-value weights from the WORD_BITS per-bit ones, as float64 arrays:
    one for every word value and one for every address below n_addr, whose
    bits above the word weigh 1.0 each.  A value's bit weights add in bit
    order from 0.0, and an address adds its high-bit count last."""
    if np.shape(weights) != (WORD_BITS,):
        raise ValueError(f"need {WORD_BITS} per-bit weights")
    vals = np.arange(max(WORD_MASK + 1, n_addr))
    tab = np.zeros(len(vals))
    for i, w in enumerate(weights):
        tab += (vals >> i & 1) * float(w)
    high_bits = np.array(HW[: WORD_MASK + 1])[vals[:n_addr] >> WORD_BITS]
    return tab[: WORD_MASK + 1], tab[:n_addr] + high_bits


def cycle_leakage(
    events: list[LeakageEvent],
    weights,
    include_bus: bool = False,
    n_cycles: int | None = None,
) -> list[float]:
    """Per-cycle weighted bit-flip counts, from weight_tables.

    Uniform weights reduce to summed Hamming distances.  Cycles with no
    events contribute 0.0.
    """
    if n_cycles is None:
        n_cycles = (max(e.cycle for e in events) + 1) if events else 0
    n_addr = 1 + max((e.flips for e in events if e.kind == ADDR_BUS), default=0) if include_bus else 0
    data, addr = (t.tolist() for t in weight_tables(list(weights), n_addr))
    out = [0.0] * n_cycles
    for e in events:
        if e.cycle < n_cycles and (include_bus or e.kind not in (ADDR_BUS, DATA_BUS)):
            out[e.cycle] += (addr if e.kind == ADDR_BUS else data)[e.flips]
    return out


def write_events_csv(events: list[LeakageEvent], path) -> None:
    """Event log export: one row per event, columns cycle,kind,location,hd,hw."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["cycle", "kind", "location", "hd", "hw"])
        for e in events:
            w.writerow([e.cycle, e.kind, e.location, e.hd, e.hw])
