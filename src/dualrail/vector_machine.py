"""Batch interpreter: many runs of one program in lockstep, vectorized
across runs with numpy.

This is the production engine: trace synthesis, equivalence checking and
the verifier's cross-validation all run on it.  Opcode semantics come from
``asm.OPS``, applied to whole uint8 lanes; event accounting mirrors
machine.step exactly (dual-route tested against that reference).  Control
flow must agree across all runs in the batch, which holds for the
constant-time programs this package produces.

Leakage is recorded, not summed, while the program runs.  Each event of a
cycle in the window writes its raw byte into the next slot of a
preallocated (slot x lanes) block: an update its flip mask (old xor new),
a data-bus event the value moved, an indexed address-bus event the flat
cell index.  A direct address is the same in every lane, so its slot holds
nothing at run time.  Control flow is the same in every lane, so which
slots an instruction fills, and of which kind, is fixed by its operand
kinds.  When the block fills, or the window ends, it is weighted at
once: one table gather turns every byte into its float32 weight, and each
cycle's weights are then added one by one in event order, starting from
0.0, the order in which adding each event's weight as it happens would
sum them.  float32 addition is not associative, and numpy's reductions
may pair terms, so the adds are explicit: that keeps the sums
bit-identical (sha256 pins in tests/test_vector_machine.py).

Control flow being the same in every lane, loop counters and the
addresses they index usually hold one value in every lane.  The engine
keeps a lane-uniform shadow of the registers: per register the int that
every lane holds, or None when the lanes differ.  A register read returns
that int when it is set, so an instruction whose operands are all uniform
runs its ``asm.OPS`` function on Python ints, an indexed operand with a
uniform base reads or writes one memory row, and a branch on uniform
operands decides without numpy.  An int that meets a row in arithmetic,
or is stored to memory, goes as a cached constant row: numpy is about
twice as slow on a row and a Python int.  Every register store still
writes the register's row (an int fills it), so the rows stay the ground
truth: each compiler builds the shadow from them, and results are read
from them.

A pc's first visit runs through one generic step that dispatches on
operand type and is not cached.  Only a pc that runs again is compiled,
into closures specialised on operand kind and on whether leakage is
recorded; recorded leakage always holds every event, the bus ones
included.  Straight-line code, which runs each instruction once, thus
compiles nothing, and a loop compiles each pc of its body once.  Both
paths take an instruction's slot codes from one function, ``_layout``,
so they fill the same slots.  A run without leakage pays for no
recording, and the run-up to a trace window compiles only what it
executes twice.
"""
from __future__ import annotations

import gc
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .asm import MAX_STEPS, OPS, WORD_MASK, Immediate, LinkedProgram, MemDirect, MemIndirect, Register
from .machine import MachineError, StepLimitExceeded, weight_tables

#: bytes of one recording block: per slot and lane a data byte, a flat
#: cell index and a float32 weight
BLOCK_BYTES = 2 << 20
_SLOT_LANE_BYTES = 1 + np.dtype(np.intp).itemsize + 4
#: slots a block holds at most: with few lanes, more would only cost
#: setting up their row views
_BLOCK_SLOTS = 4096
#: bytes an open window end first allocates for its leakage matrix: above
#: the largest mmap threshold of glibc's malloc (32 MiB), so its pages stay
#: untouched until written.  Whole-program runs of both corpora at up to
#: 100 lanes (67 MB for DPL PRESENT) fit, so only longer runs grow it
PIECE_BYTES = 256 << 20
#: slots one instruction fills at most: two loads of an address and a
#: data slot each, and a store of address, data and flips
_MAX_SLOTS = 7

#: slot codes of the event layout: a data byte, an indexed address; a
#: code >= 0 is a direct address and is its own value
_DATA, _ADDR = -1, -2


class NonConstantTimeError(RuntimeError):
    """Branch outcome differed between runs of the same batch."""


@dataclass
class BatchResult:
    registers: np.ndarray        # (n_regs, n_runs)
    memory: np.ndarray           # (mem_size, n_runs)
    leakage: np.ndarray | None   # (n_cycles, n_runs) float32, or None
    cycles: int
    window_start: int = 0


class _Block:
    """The recording block of a run with leakage, and its weighting."""

    def __init__(self, lanes: int, wtab, atab):
        fit = BLOCK_BYTES // (_SLOT_LANE_BYTES * lanes)
        self.slots = min(_BLOCK_SLOTS, max(4 * _MAX_SLOTS, fit))
        self.data = np.zeros((self.slots, lanes), dtype=np.uint8)
        self.cells = np.zeros((self.slots, lanes), dtype=np.intp)
        self.weights = np.empty((self.slots, lanes), dtype=np.float32)
        self.lanes, self.wtab, self.atab = lanes, wtab, atab

    def run(self, code, pc: int, cycle: int, stop: int, start: int, end: int | None):
        """Run the compiler output `code` from pc at `cycle` until halt or
        `stop`, recording every cycle from `start` on; returns (pc, cycle,
        leakage), row i of the leakage being cycle start + i.  A fixed
        window end allocates its end - start rows.  An open end allocates
        at least PIECE_BYTES, grows the matrix in place by one block's rows
        whenever it runs out, and cuts it to the rows used at halt."""
        steps, count, layout = code
        n, full = len(steps), self.slots - _MAX_SLOTS
        row = max(0, cycle - start)  # a negative start keeps zero rows before cycle 0
        rows = max(row, PIECE_BYTES // (4 * self.lanes)) if end is None else end - start
        leak = np.zeros((rows, self.lanes), dtype=np.float32)
        while pc < n and cycle < stop:
            trace, k = [], 0
            last = min(stop, cycle + self.slots)
            while pc < n and cycle < last and k <= full:
                trace.append(pc)
                nxt = steps[pc](pc, k)
                k += count[pc]  # known once the pc has run
                pc = nxt
                cycle += 1
            if row + len(trace) > len(leak):  # only an open end runs out
                # no view of leak is alive here; realloc remaps the pages
                # rather than copying them.  A profiler's call event holds
                # a bound method of leak, so numpy's reference check is off
                leak.resize((len(leak) + self.slots, self.lanes), refcheck=False)
            self.weigh(trace, count, layout, k, leak[row : row + len(trace)])
            row += len(trace)
        if end is None:
            leak.resize((row, self.lanes), refcheck=False)
        return pc, cycle, leak

    def weigh(self, trace, count, layout, k: int, out) -> None:
        """Write into out[c] the weighted leakage of the c-th cycle of
        `trace` (the pcs run), whose events filled the first k slots;
        count[pc] and layout[pc] are an instruction's slots."""
        count = np.fromiter(map(count.__getitem__, trace), np.intp, len(trace))
        starts = np.cumsum(count) - count
        w = self.weights[:k]
        codes = np.fromiter(chain.from_iterable(map(layout.__getitem__, trace)), np.intp, k)
        at, ct = np.flatnonzero(codes == _ADDR), np.flatnonzero(codes >= 0)
        addr_w = self.atab.take(self.cells[at] // self.lanes)
        # the gather reads intp indices; widening the bytes into the cell
        # rows, read by now, spares numpy a temporary of that size per block
        idx = self.cells[:k]
        idx[...] = self.data[:k]
        self.wtab.take(idx, out=w, mode="clip")
        w[at] = addr_w
        w[ct] = self.atab[codes[ct], None]
        # cycles with the same slot count add their slots in order at once;
        # a cycle without events keeps the zero row of `out`
        for m in np.flatnonzero(np.bincount(count)[1:]) + 1:
            c = np.flatnonzero(count == m)
            s = starts[c]
            acc = w[s]
            for j in range(1, m):
                acc += w[s + j]
            out[c] = acc


def _beyond(op) -> MachineError:
    return MachineError(f"indexed address beyond memory (r{op.base.index} + {op.offset})")


def _layout(srcs, dest) -> tuple:
    """Slot codes of an instruction's events in a recorded cycle: each
    memory operand's address and data-bus slots, in operand order (sources,
    then the destination); then the destination's flips slot.  A load's
    data-bus slot and a store's flips slot are thus each its last."""
    codes = []
    for op in (*srcs, dest):
        cls = type(op)
        if cls is MemDirect:
            codes += op.address, _DATA
        elif cls is MemIndirect:
            codes += _ADDR, _DATA
    if dest is not None:
        codes.append(_DATA)
    return tuple(codes)


#: the layout of an instruction that records no bus event: its flips slot
_FLIPS = _layout((), Register(0))


def _compiler(program: LinkedProgram, regs, mem, block: _Block | None):
    """(steps, count, layout) of a run on regs and mem.  steps[pc](pc, k)
    runs instruction pc, recording its events from slot k of the block on,
    and returns the next pc; without a block it records nothing and ignores
    k.  With a block, count[pc] and layout[pc] are the slot count and slot
    codes (``_layout``) of an instruction that has run.

    A pc's first visit goes through one generic step, built once and
    shared by every pc; its second visit compiles the pc into closures
    specialised on operand kind and on what is recorded, which every later
    visit calls.  Code that runs once, as straight-line netlists do, thus
    builds no closure, and a loop compiles each pc once.  Results of the
    OPS functions are stored as they come: on uint8 rows and small
    immediates they stay uint8, and on lane-uniform ints they are ints."""
    instructions, lanes = program.instructions, regs.shape[1]
    flat, rows = mem.reshape(-1), list(regs)
    scratch = np.empty(lanes, dtype=np.intp)
    # the lane-uniform shadow of regs: per register the int every lane
    # holds, or None; stores write through, so regs stays the ground truth
    lo, hi = regs.min(axis=1).tolist(), regs.max(axis=1).tolist()
    uni = [a if a == b else None for a, b in zip(lo, hi)]
    rec = block is not None
    if rec:
        data, cells = list(block.data), list(block.cells)
    bases: dict = {}
    # a numpy call on a row and a Python int costs about twice one on two
    # rows (row & 3: 0.87 against 0.50 us at 100 lanes), so an int that
    # meets a row, or goes to memory, goes as a constant row.  The rows
    # are cut from one uninitialised table, so that only the rows used are
    # ever written: at 10^4 lanes, rows made one by one mid-run raised the
    # peak RSS of a DPL campaign by 1.7 MB, and a zeroed table by 6 MB
    const_rows = [None] * (WORD_MASK + 1)
    table = np.empty((WORD_MASK + 1, lanes), dtype=np.uint8)

    def as_row(v):
        row = const_rows[v]
        if row is None:
            row = const_rows[v] = table[v]
            row.fill(v)
        return row

    mask_row = as_row(WORD_MASK)

    def cell_index(op):
        """Fills a flat index row (address * lanes + lane) for an indexed
        operand; indexing `flat` with it raises IndexError exactly when an
        address lies beyond memory."""
        rb, off = rows[op.base.index], op.offset
        base = bases.get(off)
        if base is None:
            base = bases[off] = np.arange(lanes) + off * lanes

        def index(out):
            out[...] = rb
            out *= lanes
            out += base
            return out

        return index

    def load(op, j):
        """Closure producing a source operand's value; its events start at
        slot j of the instruction."""
        if isinstance(op, Immediate):
            v = op.value
            return lambda k: v
        if isinstance(op, Register):
            i, cell = op.index, rows[op.index]

            def load_reg(k):
                u = uni[i]
                return cell if u is None else u

            return load_reg
        if isinstance(op, MemDirect) and not rec:
            cell = mem[op.address]
            return lambda k: cell
        if isinstance(op, MemDirect):
            m = mem[op.address]

            def load_direct(k):
                data[k + j + 1][...] = m
                return m

            return load_direct
        # a lane-uniform base reads one row; an address beyond memory
        # raises IndexError on either path
        index, bi, off = cell_index(op), op.base.index, op.offset
        if not rec:

            def load_indexed(k):
                u = uni[bi]
                try:
                    return flat[index(scratch)] if u is None else mem[u + off]
                except IndexError:
                    raise _beyond(op) from None

            return load_indexed

        def load_indexed_rec(k):
            u, at = uni[bi], cells[k + j]
            try:
                if u is None:
                    v = flat[index(at)]
                else:
                    v = mem[u + off]
                    at.fill((u + off) * lanes)
            except IndexError:
                raise _beyond(op) from None
            data[k + j + 1][...] = v
            return v

        return load_indexed_rec

    def store(op, j):
        """Closure storing a value vector/scalar into the destination and
        recording its events from slot j of the instruction on."""
        if isinstance(op, Register):
            i, cell = op.index, rows[op.index]

            def store_reg(v, k):
                if type(v) is int:
                    uni[i] = v
                    cell.fill(v)
                else:
                    uni[i] = None
                    cell[...] = v

            if block is None:
                return store_reg

            # store_reg inlined: this runs once per register write
            def store_reg_flips(v, k):
                if type(v) is int:
                    u = uni[i]
                    if u is None:
                        np.bitwise_xor(cell, as_row(v), out=data[k + j])
                    else:
                        data[k + j].fill(u ^ v)
                    uni[i] = v
                    cell.fill(v)
                else:
                    np.bitwise_xor(cell, v, out=data[k + j])
                    uni[i] = None
                    cell[...] = v

            return store_reg_flips
        if isinstance(op, MemDirect):
            cell = mem[op.address]
            if block is None:

                def store_cell(v, k):
                    cell[...] = as_row(v) if type(v) is int else v

                return store_cell
            def store_cell_rec(v, k):
                if type(v) is int:
                    v = as_row(v)
                data[k + j + 1][...] = v
                np.bitwise_xor(cell, v, out=data[k + j + 2])
                cell[...] = v

            return store_cell_rec
        index, bi, off = cell_index(op), op.base.index, op.offset
        if block is None:

            def store_indexed(v, k):
                u = uni[bi]
                if type(v) is int:
                    v = as_row(v)
                try:
                    if u is None:
                        flat[index(scratch)] = v
                    else:
                        mem[u + off] = v
                except IndexError:
                    raise _beyond(op) from None

            return store_indexed
        def store_indexed_rec(v, k):
            # a lane-uniform base writes the row mem[at], else flat[at];
            # the address, data-bus and flips slots follow one another
            u = uni[bi]
            if type(v) is int:
                v = as_row(v)
            if u is None:
                target, at = flat, index(cells[k + j])
            else:
                target, at = mem, u + off
                cells[k + j].fill(at * lanes)
            try:
                np.bitwise_xor(target[at], v, out=data[k + j + 2])
            except IndexError:
                raise _beyond(op) from None
            data[k + j + 1][...] = v
            target[at] = v

        return store_indexed_rec

    def make(pc):
        """The closure specialised for instruction pc."""
        spec, ops = OPS[instructions[pc].opcode], instructions[pc].operands
        kind, fn, nxt = spec.kind, spec.fn, pc + 1
        # closures take their constants as defaults: no cells to create
        if kind == "nop":
            return lambda pc, k, nxt=nxt: nxt
        if kind == "jump":
            return lambda pc, k, t=ops[0].index: t
        srcs = ops[:2] if kind == "branch" else ops[1:]
        # each operand's events start where _layout puts them
        loads = [load(op, len(_layout(srcs[:i], None))) for i, op in enumerate(srcs)]
        a, b = loads[0], loads[-1]
        if kind == "branch":

            def f_br(pc, k, la=a, lb=b, fn=fn, t=ops[2].index, nxt=nxt):
                cond = fn(la(k), lb(k), WORD_MASK)
                if isinstance(cond, np.ndarray):
                    # a bool row is one byte per lane: count the lanes taken
                    cond = cond.tobytes().count(1)
                    if 0 < cond < lanes:
                        raise NonConstantTimeError(f"instruction {pc}: divergent branch")
                return t if cond else nxt

            return f_br
        st = store(ops[0], len(_layout(srcs, None)))
        if kind == "unary":

            def f_unary(pc, k, ld=a, st=st, fn=fn, nxt=nxt):
                st(fn(ld(k), WORD_MASK), k)
                return nxt

            return f_unary

        def f_binary(pc, k, la=a, lb=b, st=st, fn=fn, nxt=nxt):
            x, y = la(k), lb(k)
            if type(x) is int:
                if type(y) is int:
                    st(fn(x, y, WORD_MASK), k)
                    return nxt
                x = as_row(x)
            elif type(y) is int:
                y = as_row(y)
            st(fn(x, y, mask_row), k)
            return nxt

        return f_binary

    def again(pc, k):
        """A pc's second visit: compile it, then run its closure."""
        f = steps[pc] = make(pc)
        return f(pc, k)

    def first(pc, k):
        """A pc's first visit: the generic step.  It dispatches on operand
        type, keeps the shadow and fills the slots as the closures do; a
        branch goes to `again` at once."""
        steps[pc] = again
        inst = instructions[pc]
        spec, ops = OPS[inst.opcode], inst.operands
        kind, fn = spec.kind, spec.fn
        if kind == "nop":
            return pc + 1
        if kind == "jump":
            return ops[0].index
        if kind == "branch":
            if rec:
                slots = layout[pc] = _layout(ops[:2], None)
                count[pc] = len(slots)
            return again(pc, k)
        dest, srcs = ops[0], ops[1:]
        x = y = None
        touched = False  # a memory access: more slots than _FLIPS
        for op in srcs:
            cls = type(op)
            if cls is Immediate:
                v = op.value
            elif cls is Register:
                v = uni[op.index]
                if v is None:
                    v = rows[op.index]
            else:
                touched = True
                if cls is MemDirect:
                    v = mem[op.address]
                else:
                    target, at = indexed(op, k)
                    try:
                        v = target[at]
                    except IndexError:
                        raise _beyond(op) from None
                if rec:
                    data[k + 1][...] = v
                    k += 2
            x, y = y, v
        if kind == "unary":
            v = fn(y, WORD_MASK)
        elif type(x) is int and type(y) is int:
            v = fn(x, y, WORD_MASK)
        else:
            v = fn(as_row(x) if type(x) is int else x, as_row(y) if type(y) is int else y, mask_row)
        cls = type(dest)
        if rec:
            slots = layout[pc] = _layout(srcs, dest) if touched or cls is not Register else _FLIPS
            count[pc] = len(slots)
        if cls is Register:
            i = dest.index
            cell, u = rows[i], uni[i]
            if type(v) is int:
                if rec:
                    if u is None:
                        np.bitwise_xor(cell, as_row(v), out=data[k])
                    else:
                        data[k].fill(u ^ v)
                uni[i] = v
                cell.fill(v)
            else:
                if rec:
                    np.bitwise_xor(cell, v, out=data[k])
                uni[i] = None
                cell[...] = v
            return pc + 1
        if type(v) is int:
            v = as_row(v)
        if cls is MemDirect:
            target, at = mem, dest.address
        else:
            target, at = indexed(dest, k)
        try:
            if rec:
                data[k + 1][...] = v
                np.bitwise_xor(target[at], v, out=data[k + 2])
            target[at] = v
        except IndexError:
            raise _beyond(dest) from None
        return pc + 1

    def indexed(op, k):
        """(target, at) of an indexed operand on its first visit: its cell
        is the row mem[u + offset] for a lane-uniform base u, else flat[at],
        `at` a row of cell indices.  With a block, slot k gets the address."""
        u = uni[op.base.index]
        if u is None:
            return flat, cell_index(op)(cells[k] if rec else scratch)
        at = u + op.offset
        if rec:
            cells[k].fill(at * lanes)
        return mem, at

    n = len(instructions)
    steps, count, layout = [first] * n, [0] * n, [()] * n
    return steps, count, layout


def batch_run(
    program: LinkedProgram,
    n_runs: int,
    init_memory: np.ndarray | None = None,
    init_registers: np.ndarray | None = None,
    weights=None,
    include_bus: bool = True,
    window: tuple[int, int | None] = (0, None),
    max_steps: int = MAX_STEPS,
) -> BatchResult:
    """Run n_runs instances of the program in lockstep.

    With weights, returns per-cycle weighted leakage for cycles in
    [window[0], window[1]); execution stops at halt or at the window end,
    whichever comes first.  A cycle's leakage sums every event of it, the
    address- and data-bus events included.  Raises StepLimitExceeded when
    max_steps stops a run before either, MachineError for an address
    beyond memory, and ValueError for fewer than one run, a reversed
    window or `include_bus` False.

    `include_bus` is accepted only as True: the traced probe of
    ``perfbench/run.py`` still passes it, and it goes with the next change
    to that harness.  ``machine.cycle_leakage(..., include_bus=False)`` is
    the bus-less reference.
    """
    if not include_bus:
        raise ValueError(
            "batch_run always records the bus events; machine.cycle_leakage("
            "..., include_bus=False) gives leakage without them"
        )
    if n_runs < 1:
        raise ValueError(f"need at least one run, got {n_runs}")
    dtype = np.uint8
    mem = (
        np.zeros((program.mem_size, n_runs), dtype=dtype)
        if init_memory is None
        else init_memory.astype(dtype, copy=True)
    )
    regs = (
        np.zeros((program.n_regs, n_runs), dtype=dtype)
        if init_registers is None
        else init_registers.astype(dtype, copy=True)
    )
    if mem.shape != (program.mem_size, n_runs) or regs.shape != (program.n_regs, n_runs):
        raise ValueError("bad init array shape")

    start, end = window
    if end is not None and end < start:
        raise ValueError(f"window end {end} is before its start {start}")
    stop = max_steps if end is None else min(max_steps, end)
    n = len(program.instructions)
    block = leak = None
    if weights is not None:
        # float32 weights of every byte and of every address
        wtab, atab = weight_tables(weights, program.mem_size)
        block = _Block(n_runs, wtab.astype(np.float32), atab.astype(np.float32))
    run_up = stop if block is None else min(start, stop)
    pc = cycle = 0
    # compiling makes many small objects; with the collector on, a long
    # program would set off full collections over every live object.  The
    # steps refer to the compiler that refers to them, so clearing them
    # frees a compiler's closures, rows and block views at once
    collecting = gc.isenabled()
    gc.disable()
    steps = []
    try:
        steps = _compiler(program, regs, mem, None)[0]
        while pc < n and cycle < run_up:
            pc = steps[pc](pc, 0)
            cycle += 1
        if block is not None:
            steps.clear()  # the run-up's closures and constant rows go first
            code = _compiler(program, regs, mem, block)
            steps = code[0]
            pc, cycle, leak = block.run(code, pc, cycle, stop, start, end)
    finally:
        steps.clear()
        if collecting:
            gc.enable()
    if pc < n and (end is None or cycle < end):
        raise StepLimitExceeded(f"no halt within {max_steps} steps")
    return BatchResult(regs, mem, leak, cycle, start)
