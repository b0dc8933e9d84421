"""Batch interpreter: many runs of one program in lockstep, vectorized
across runs with numpy.

This is the production engine: trace synthesis, equivalence checking and
the verifier's cross-validation all run on it.  Opcode semantics come from
``asm.OPS``, applied to whole uint8 lanes; event accounting mirrors
machine.step exactly (dual-route tested against that reference).  Control
flow must agree across all runs in the batch, which holds for the
constant-time programs this package produces.  Optionally accumulates
per-cycle weighted leakage over a cycle window, which is how trace
synthesis stays fast enough for large attack campaigns.
"""
from __future__ import annotations

import gc
from dataclasses import dataclass

import numpy as np

from .asm import OPS, Immediate, LinkedProgram, MemDirect, MemIndirect, Register
from .machine import MachineError, StepLimitExceeded


class NonConstantTimeError(RuntimeError):
    """Branch outcome differed between runs of the same batch."""


@dataclass
class BatchResult:
    registers: np.ndarray        # (n_regs, n_runs)
    memory: np.ndarray           # (mem_size, n_runs)
    leakage: np.ndarray | None   # (n_cycles, n_runs) float32, or None
    cycles: int
    window_start: int = 0


def _weight_tables(weights, width: int, mem_size: int, include_bus: bool):
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (width,):
        raise ValueError(f"need {width} per-bit weights")
    vals = np.arange(1 << width)
    bits = (vals[:, None] >> np.arange(width)) & 1
    wtab = (bits * w).sum(axis=1).astype(np.float32)
    atab = None
    if include_bus:
        addrs = np.arange(mem_size)
        abits = (addrs[:, None] >> np.arange(width)) & 1
        atab = (abits * w).sum(axis=1)
        hi = addrs >> width
        # address bits beyond the data word weigh 1.0
        while hi.any():
            atab += hi & 1
            hi = hi >> 1
        atab = atab.astype(np.float32)
    return wtab, atab


class _Ctx:
    """Shared mutable execution context for the compiled closures."""

    __slots__ = ("regs", "mem", "ar", "mask", "row", "wtab", "atab", "bus")

    def __init__(self, regs, mem, mask, wtab, atab, bus):
        self.regs = regs
        self.mem = mem
        self.ar = np.arange(regs.shape[1])
        self.mask = mask
        self.row = None
        self.wtab = wtab
        self.atab = atab
        self.bus = bus

    def emit_flips(self, flips):
        if self.row is not None:
            self.row += self.wtab[flips]

    def emit_abus(self, addr):
        if self.row is not None and self.bus:
            self.row += self.atab[addr]

    def emit_dbus(self, value):
        if self.row is not None and self.bus:
            self.row += self.wtab[value]


def _fixed(op, mem_size: int):
    """An immediate-based indirect operand is a direct one; its address is
    checked here because resolve() bounds only the offset."""
    if isinstance(op, MemIndirect) and isinstance(op.base, Immediate):
        a = op.base.value + op.offset
        if not 0 <= a < mem_size:
            raise MachineError(f"address {a} out of range")
        return MemDirect(a)
    return op


def _indexed(regs, b: int, off: int, mem_size: int):
    addr = regs[b].astype(np.intp) + off
    if addr.max(initial=0) >= mem_size:
        raise MachineError(f"indexed address beyond memory (r{b} + {off})")
    return addr


def _value_loader(op, ctx: _Ctx, mem_size: int):
    """Returns a nullary closure producing the operand's value vector (or a
    scalar for immediates), emitting bus activity for memory operands."""
    op = _fixed(op, mem_size)
    if isinstance(op, Register):
        i = op.index
        regs = ctx.regs
        return lambda: regs[i]
    if isinstance(op, Immediate):
        v = op.value
        return lambda: v
    mem, ar = ctx.mem, ctx.ar
    if isinstance(op, MemDirect):
        a = op.address

        def load_direct():
            v = mem[a]
            ctx.emit_abus(a)
            ctx.emit_dbus(v)
            return v

        return load_direct
    b, off = op.base.index, op.offset
    regs = ctx.regs

    def load_indexed():
        addr = _indexed(regs, b, off, mem_size)
        v = mem[addr, ar]
        ctx.emit_abus(addr)
        ctx.emit_dbus(v)
        return v

    return load_indexed


def _storer(op, ctx: _Ctx, mem_size: int):
    """Returns a closure storing a value vector/scalar into the operand,
    emitting the same events as the scalar machine."""
    op = _fixed(op, mem_size)
    if isinstance(op, Register):
        i = op.index
        regs = ctx.regs

        def store_reg(v):
            if ctx.row is not None:
                ctx.emit_flips(regs[i] ^ v)
            regs[i] = v

        return store_reg
    mem, ar = ctx.mem, ctx.ar
    if isinstance(op, MemDirect):
        a = op.address

        def store_direct(v):
            if ctx.row is not None:
                ctx.emit_abus(a)
                ctx.emit_dbus(v)
                ctx.emit_flips(mem[a] ^ v)
            mem[a] = v

        return store_direct
    b, off = op.base.index, op.offset
    regs = ctx.regs

    def store_indexed(v):
        addr = _indexed(regs, b, off, mem_size)
        if ctx.row is not None:
            ctx.emit_abus(addr)
            ctx.emit_dbus(v)
            ctx.emit_flips(mem[addr, ar] ^ v)
        mem[addr, ar] = v

    return store_indexed


def _compile(program: LinkedProgram, ctx: _Ctx):
    """One closure per instruction; each returns the next pc.  Results of
    the OPS functions are stored as they come: on uint8 rows and small
    immediates they stay uint8."""
    mem_size = program.mem_size
    mask = ctx.mask
    # one loader and one storer per distinct operand: long straight-line
    # programs reuse few registers and each cell a few times
    loaders: dict = {}
    storers: dict = {}

    def loader(op):
        f = loaders.get(op)
        if f is None:
            f = loaders[op] = _value_loader(op, ctx, mem_size)
        return f

    def storer(op):
        f = storers.get(op)
        if f is None:
            f = storers[op] = _storer(op, ctx, mem_size)
        return f

    fns = []
    for pc, inst in enumerate(program.instructions):
        spec = OPS[inst.opcode]
        fn = spec.fn
        nxt = pc + 1
        if spec.kind == "nop":
            fns.append(lambda nxt=nxt: nxt)
        elif spec.kind == "jump":
            t = inst.operands[0].index
            fns.append(lambda t=t: t)
        elif spec.kind == "branch":
            la = loader(inst.operands[0])
            lb = loader(inst.operands[1])
            t = inst.operands[2].index

            def f_br(la=la, lb=lb, fn=fn, t=t, nxt=nxt, pc=pc):
                cond = fn(la(), lb(), mask)
                if isinstance(cond, np.ndarray):
                    first = bool(cond[0])
                    if not (cond == first).all():
                        raise NonConstantTimeError(f"instruction {pc}: divergent branch")
                    cond = first
                return t if cond else nxt

            fns.append(f_br)
        elif spec.kind == "unary":
            load = loader(inst.operands[1])
            store = storer(inst.operands[0])

            def f_unary(load=load, store=store, fn=fn, nxt=nxt):
                store(fn(load(), mask))
                return nxt

            fns.append(f_unary)
        else:
            la = loader(inst.operands[1])
            lb = loader(inst.operands[2])
            store = storer(inst.operands[0])

            def f_binary(la=la, lb=lb, store=store, fn=fn, nxt=nxt):
                store(fn(la(), lb(), mask))
                return nxt

            fns.append(f_binary)
    return fns


def batch_run(
    program: LinkedProgram,
    n_runs: int,
    init_memory: np.ndarray | None = None,
    init_registers: np.ndarray | None = None,
    weights=None,
    include_bus: bool = False,
    window: tuple[int, int | None] = (0, None),
    max_steps: int = 50_000_000,
) -> BatchResult:
    """Run n_runs instances of the program in lockstep.

    With weights, returns per-cycle weighted leakage for cycles in
    [window[0], window[1]); execution stops at halt or at the window end,
    whichever comes first.  Raises StepLimitExceeded when max_steps stops
    a run before either, MachineError for an address beyond memory, and
    ValueError for fewer than one run.
    """
    if program.word_width > 8:
        raise ValueError("batch engine supports word widths up to 8")
    if n_runs < 1:
        raise ValueError(f"need at least one run, got {n_runs}")
    mask = (1 << program.word_width) - 1
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
    wtab = atab = None
    leak = None
    grow: list[np.ndarray] | None = None
    if weights is not None:
        wtab, atab = _weight_tables(weights, program.word_width, program.mem_size, include_bus)
        if end is not None:
            leak = np.zeros((end - start, n_runs), dtype=np.float32)
        else:
            grow = []

    ctx = _Ctx(regs, mem, mask, wtab, atab, include_bus)
    # compiling allocates a few closures per instruction and no reference
    # cycles; with the collector on, a long straight-line program would set
    # off full collections over every live object
    collecting = gc.isenabled()
    gc.disable()
    try:
        fns = _compile(program, ctx)
    finally:
        if collecting:
            gc.enable()
    n = len(fns)
    pc = 0
    cycle = 0
    stop = max_steps if end is None else min(max_steps, end)
    while pc < n and cycle < stop:
        if weights is not None and cycle >= start:
            if leak is not None:
                ctx.row = leak[cycle - start]
            else:
                row = np.zeros(n_runs, dtype=np.float32)
                grow.append(row)
                ctx.row = row
        else:
            ctx.row = None
        pc = fns[pc]()
        cycle += 1
    if pc < n and (end is None or cycle < end):
        raise StepLimitExceeded(f"no halt within {max_steps} steps")
    if grow is not None:
        leak = np.vstack(grow) if grow else np.zeros((0, n_runs), dtype=np.float32)
    return BatchResult(regs, mem, leak, cycle, start)
