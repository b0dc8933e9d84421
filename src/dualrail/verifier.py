"""Static balance verification by set-valued symbolic execution.

Each register and memory cell holds the set of values it may take over all
assignments of the declared sensitive inputs.  Control flow must stay
concrete.  An update whose possible Hamming distances (or weights) are not
a single value is a leak finding; a program with no findings has constant
leakage activity under the Hamming model.  No tag exempts an instruction:
every executed instruction is checked.

Opcode semantics come from ``asm.OPS``, applied to every combination of
operand values; two reads of one operand give one value.  Three caches,
all exact, serve different traffic:

- The block memo serves loop passes.  A basic block runs from an entry pc
  through its first branch or jump, and is cut before any instruction
  that indexes through a register the block already wrote, so the sets
  the block reads before writing them fix all it does: ``verify``
  memoises it on its entry pc and those sets.  A pass that reads the sets
  of an earlier one writes the final set of every location the block
  wrote and moves to its exit, from one lookup, and adds no finding the
  earlier pass has not already merged.  On DPL PRESENT 15,965 block hits
  replay 163,185 of the 168,251 steps.
- The pc memo serves the blocks the block memo misses.  A step depends
  only on its pc and the sets it reads, so it is memoised the same way,
  with the same key reader over a range of one; a block that misses steps
  through it.  On DPL PRESENT it replays 1,495 more steps, and 3,571 are
  stepped.
- The set-algebra cache serves the steps both memos miss, which on
  straight-line code is every step: each pc runs once, but a gate's macro
  sees the same few rail-encoded sets as every other gate's.  The image of
  an opcode over its operand sets (with its (old, new) pairs), the
  Hamming weights of a set and the Hamming distances of an update are
  cached for one ``verify``.  Each image is interned, so equal sets meet
  as one object and the next step hits too.  The findings are still made
  by every step, from the cached sets.

None subsumes another: the memos skip whole steps, findings included, but
only at a pc they have seen with the same sets; the set cache works across
pcs, but still steps.  Witnesses are the first pairs in a set's iteration
order, and equal sets of ints can iterate differently (``{1, 9}`` built in
two orders), so images are interned and cached on their elements in
iteration order, never on equality alone.  ``BalanceReport`` counts the
steps each memo replayed and the steps stepped.
cross_validate confirms a verdict dynamically, with all its input pairs
as the lanes of one vector_machine.batch_run.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from operator import itemgetter

import numpy as np

from .asm import HW, MAX_STEPS, OPS, WORD_BITS, WORD_MASK, Immediate, LinkedProgram, MemDirect, MemIndirect, Register
from .dpl import DplConfig
from .equivalence import _init_arrays, _random_bits
from .vector_machine import batch_run

BALANCED = "balanced"
LEAKY = "leaky"
INCONCLUSIVE = "inconclusive"


class VerifierError(RuntimeError):
    pass


class SensitiveBranchError(VerifierError):
    """A branch condition depends on sensitive data."""


class _CapExceeded(Exception):
    pass


@dataclass
class SymbolicState:
    registers: list[frozenset[int]]
    memory: list[frozenset[int]]
    pc: int = 0
    cycle: int = 0

    @classmethod
    def fresh(cls, n_regs: int, mem_size: int) -> "SymbolicState":
        zero = frozenset((0,))
        return cls([zero] * n_regs, [zero] * mem_size)


@dataclass
class LeakFinding:
    index: int
    kind: str
    location: str
    hd_set: frozenset[int]
    hw_set: frozenset[int]
    witness: tuple  # two (old, new) pairs with different observations

    def merge(self, other: "LeakFinding") -> None:
        self.hd_set = self.hd_set | other.hd_set
        self.hw_set = self.hw_set | other.hw_set


@dataclass
class BalanceReport:
    verdict: str
    findings: list[LeakFinding]
    cycles_verified: int
    reason: str = ""
    # how the cycles were verified: stepped, or replayed by the pc memo or
    # the block memo; not part of the report JSON
    stepped: int = 0
    pc_replayed: int = 0
    block_replayed: int = 0

    def to_json(self) -> str:
        return json.dumps(
            {
                "verdict": self.verdict,
                "findings": [
                    {
                        "index": f.index,
                        "kind": f.kind,
                        "location": f.location,
                        "hd_set": sorted(f.hd_set),
                        "hw_set": sorted(f.hw_set),
                        "witness": [list(w) for w in f.witness],
                    }
                    for f in self.findings
                ],
                "cycles": self.cycles_verified,
                "reason": self.reason,
            },
            indent=2,
        )


def symbolic_init(
    program: LinkedProgram, cfg: DplConfig | None = None
) -> SymbolicState:
    """Initial state: declared ;@sensitive cells take both bit values
    ({0,1} plain, both rail encodings under cfg), everything else is 0."""
    state = SymbolicState.fresh(program.n_regs, program.mem_size)
    pair = (
        frozenset((0, 1))
        if cfg is None
        else frozenset((cfg.encode(0), cfg.encode(1)))
    )
    for kind, loc in program.source.declared_cells("sensitive"):
        if kind == "reg":
            state.registers[loc] = pair
        else:
            state.memory[loc] = pair
    return state


def _hd_witness(pairs):
    """Two (old,new) pairs with distinct Hamming distances, if any."""
    seen = {}
    for o, n in pairs:
        h = HW[o ^ n]
        if h not in seen:
            seen[h] = (o, n)
            if len(seen) == 2:
                a, b = seen.values()
                return (a, b)
    return None


def _hw_witness(new: frozenset):
    seen = {}
    for n in new:
        h = HW[n]
        if h not in seen:
            seen[h] = (None, n)
            if len(seen) == 2:
                a, b = seen.values()
                return (a, b)
    return None


class Verifier:
    def __init__(self, program: LinkedProgram, cap: int = 16):
        self.program = program
        self.cap = cap
        # the set algebra of one verify run (see the module docstring): an
        # image is keyed on the ids of its operand sets and holds them, so
        # no id is reused; weights and distances, which no witness reads,
        # are keyed on the sets themselves
        self._sets: dict[tuple, frozenset] = {}  # elements in iteration order -> the one such set
        self._images: dict[tuple, tuple] = {}  # (fn, id a, id b, flags) -> image, pairs, their hd, a, b
        self._hw: dict[frozenset, frozenset] = {}  # set -> its Hamming weights
        self._hd: dict[tuple, frozenset] = {}  # (old, new) -> the Hamming distances between them

    def _intern(self, s: frozenset) -> frozenset:
        """The one set equal to s that iterates in s's order."""
        key = tuple(s)
        t = self._sets.get(key)
        if t is None:
            self._sets[key] = t = s
        return t

    def _weights(self, s: frozenset) -> frozenset:
        hw = self._hw.get(s)
        if hw is None:
            self._hw[s] = hw = frozenset([HW[v] for v in s])
        return hw

    # -- operand access -----------------------------------------------------

    def _addresses(self, state: SymbolicState, op: MemIndirect) -> frozenset:
        addrs = frozenset(b + op.offset for b in state.registers[op.base.index])
        for a in addrs:
            if not 0 <= a < self.program.mem_size:
                raise VerifierError(f"address {a} out of range at cycle {state.cycle}")
        return addrs

    def _load(self, state: SymbolicState, op, findings: list, idx: int):
        t = type(op)
        if t is Register:
            return state.registers[op.index]
        if t is Immediate:
            key = (op.value,)
            vals = self._sets.get(key)
            if vals is None:
                self._sets[key] = vals = frozenset(key)
            return vals
        if t is MemDirect:
            # one address: its weight on the address bus is one value
            vals = state.memory[op.address]
            if len(vals) > self.cap:
                raise _CapExceeded
        else:
            addrs = self._addresses(state, op)
            vals = set()
            for a in addrs:
                vals |= state.memory[a]
            if len(vals) > self.cap:
                raise _CapExceeded
            vals = self._intern(frozenset(vals))
            hw_addr = frozenset(HW[a] for a in addrs)
            if len(hw_addr) > 1:
                w = _hw_witness(addrs)
                findings.append(LeakFinding(idx, "addr_bus", "abus", hw_addr, hw_addr, w))
        hw_data = self._weights(vals)
        if len(hw_data) > 1:
            w = _hw_witness(vals)
            findings.append(LeakFinding(idx, "data_bus", "dbus", hw_data, hw_data, w))
        return vals

    def _cell(self, state: SymbolicState, op, idx: int) -> tuple[list, int]:
        """The list and index of the one cell a destination writes."""
        t = type(op)
        if t is Register:
            return state.registers, op.index
        if t is MemDirect:
            return state.memory, op.address
        addrs = self._addresses(state, op)
        if len(addrs) != 1:
            raise VerifierError(f"data-dependent store address at instruction {idx}")
        (addr,) = addrs
        return state.memory, addr

    def _store(
        self,
        state: SymbolicState,
        op,
        vals: frozenset,
        findings: list,
        idx: int,
        pairs: frozenset | None = None,
        pairs_hd: frozenset | None = None,
    ):
        """Write `vals` to a destination.  `pairs` carries the correlated
        (old, new) possibilities when the destination aliases a source
        operand, and `pairs_hd` their Hamming distances; otherwise old and
        new are treated as independent."""
        hw_set = self._weights(vals)
        if type(op) is Register:
            cells, i = state.registers, op.index
            loc, kind = op, "reg_update"
        else:
            cells, i = self._cell(state, op, idx)
            loc, kind = f"@{i}", "mem_update"
            # store address is concrete so the address bus is balanced;
            # the written value still crosses the data bus
            if len(hw_set) > 1:
                findings.append(
                    LeakFinding(idx, "data_bus", "dbus", hw_set, hw_set, _hw_witness(vals))
                )
        old = cells[i]
        cells[i] = vals
        if pairs is None:
            key = (old, vals)
            hd_set = self._hd.get(key)
            if hd_set is None:
                self._hd[key] = hd_set = frozenset([HW[o ^ n] for o in old for n in vals])
        else:
            hd_set = pairs_hd
        if len(hd_set) > 1 or len(hw_set) > 1:
            witness = _hd_witness(pairs or product(old, vals)) or _hw_witness(vals)
            findings.append(LeakFinding(idx, kind, str(loc), hd_set, hw_set, witness))

    # -- stepping -----------------------------------------------------------

    def sym_step(self, state: SymbolicState) -> list[LeakFinding]:
        program = self.program
        if state.pc >= len(program.instructions):
            raise VerifierError("halted")
        idx = state.pc
        inst = program.instructions[idx]
        spec = OPS[inst.opcode]
        findings: list[LeakFinding] = []
        next_pc = idx + 1

        if spec.kind == "jump":
            next_pc = inst.operands[0].index
        elif spec.kind == "branch":
            sa, sb, label = inst.operands
            a = self._load(state, sa, findings, idx)
            b = self._load(state, sb, findings, idx)
            # the outcome over every pair of values, or over each value
            # with itself when both read one location, as a binary step
            same = type(sa) is type(sb) and sa == sb
            taken = {bool(spec.fn(x, y, WORD_MASK)) for x in a for y in ((x,) if same else b)}
            if len(taken) > 1:
                if label.index != next_pc:
                    raise SensitiveBranchError(
                        f"instruction {idx}: branch condition is not a single value"
                    )
            elif taken.pop():
                next_pc = label.index
        elif spec.kind == "unary":
            dest, src = inst.operands
            vals = self._load(state, src, findings, idx)
            # an update of its own source pairs each old value with its image;
            # operands of two kinds never alias, and their dataclass __eq__
            # would run twice to say so
            alias = type(dest) is type(src) and dest == src
            key = (spec.fn, id(vals), alias)
            hit = self._images.get(key)
            if hit is None:
                image = [spec.fn(v, WORD_MASK) for v in vals]
                pairs = frozenset(zip(vals, image)) if alias else None
                hit = self._image(key, frozenset(image), pairs, vals)
            self._store(state, dest, hit[0], findings, idx, hit[1], hit[2])
        elif spec.kind == "binary":
            dest, sa, sb = inst.operands
            a = self._load(state, sa, findings, idx)
            b = self._load(state, sb, findings, idx)
            cls = type(dest)
            alias_a = type(sa) is cls and dest == sa
            alias_b = type(sb) is cls and dest == sb
            # two reads of one location give one value in a run: pair each
            # value with itself, not with every value of the other read
            same = type(sa) is type(sb) and sa == sb
            key = (spec.fn, id(a), id(b), same, alias_a, alias_b)
            hit = self._images.get(key)
            if hit is None:
                f = spec.fn
                image = set()
                pairs = set()
                for x in a:
                    for y in (x,) if same else b:
                        v = f(x, y, WORD_MASK)
                        image.add(v)
                        if alias_a:
                            pairs.add((x, v))
                        elif alias_b:
                            pairs.add((y, v))
                if len(image) > self.cap:
                    raise _CapExceeded
                pairs = frozenset(pairs) if (alias_a or alias_b) else None
                hit = self._image(key, frozenset(image), pairs, a, b)
            self._store(state, dest, hit[0], findings, idx, hit[1], hit[2])

        state.pc = next_pc
        state.cycle += 1
        return findings

    def _image(self, key: tuple, image: frozenset, pairs, *operands) -> tuple:
        """Cache a step's image and its (old, new) pairs under `key`, with
        the operand sets whose ids the key holds."""
        hd = None if pairs is None else frozenset([HW[o ^ n] for o, n in pairs])
        self._images[key] = hit = (self._intern(image), pairs, hd, *operands)
        return hit

    def _key_reader(self, start: int, stop: int):
        """A function (registers, memory) -> key of every set instructions
        start..stop-1 read before they write it: their operands, each
        destination's old set and, for an indexed operand, the base set and
        each cell it may read in address order (equal sets may iterate in
        different orders, so cells in set order could match two states whose
        cells are swapped).  No instruction in the range may index through a
        register an earlier one writes (see _block_stop), so the sets the key
        reads fix every address.  None when the range reads no set (jmp and
        nop)."""
        regs, cells, indexed = set(), set(), {}
        wrote_regs, wrote_cells = set(), set()
        for inst in self.program.instructions[start:stop]:
            kind = OPS[inst.opcode].kind
            if kind in ("jump", "nop"):
                continue
            operands = inst.operands[:2] if kind == "branch" else inst.operands
            for op in operands:
                if type(op) is MemIndirect:
                    indexed.setdefault(op.base.index, {})[op.offset] = None
                    op = op.base
                if type(op) is Register:
                    if op.index not in wrote_regs:
                        regs.add(op.index)
                elif type(op) is MemDirect and op.address not in wrote_cells:
                    cells.add(op.address)
            # the first operand is the destination; a branch's is not, but a
            # branch ends its range, so no later read can miss it
            dest = operands[0]
            if type(dest) is Register:
                wrote_regs.add(dest.index)
            elif type(dest) is MemDirect:
                wrote_cells.add(dest.address)
        if not (regs or cells or indexed):
            return None
        get_regs = itemgetter(*sorted(regs)) if regs else _nothing
        get_cells = itemgetter(*sorted(cells)) if cells else _nothing
        if not indexed:
            if not cells:
                return lambda r, m: get_regs(r)
            return lambda r, m: (get_regs(r), get_cells(m))
        offsets = [(b, tuple(offs)) for b, offs in indexed.items()]
        return lambda r, m: (
            get_regs(r),
            get_cells(m),
            tuple([m[a + off] for b, offs in offsets for a in sorted(r[b]) for off in offs]),
        )

    def _block_stop(self, pc: int) -> int:
        """The end of the basic block from pc: just after its first branch or
        jump, just before its first instruction that indexes through a
        register the block already wrote, or the end of the program."""
        instructions = self.program.instructions
        wrote = set()
        for i in range(pc, len(instructions)):
            inst = instructions[i]
            if any(type(op) is MemIndirect and op.base.index in wrote for op in inst.operands):
                return i
            kind = OPS[inst.opcode].kind
            if kind in ("jump", "branch"):
                return i + 1
            if kind != "nop" and type(inst.operands[0]) is Register:
                wrote.add(inst.operands[0].index)
        return len(instructions)


def _nothing(cells):
    return ()


def verify(
    program: LinkedProgram,
    init: SymbolicState | None = None,
    max_steps: int = MAX_STEPS,
    cap: int = 16,
    cfg: DplConfig | None = None,
) -> BalanceReport:
    """Run the program symbolically to halt, aggregating leak findings per
    (instruction, event kind, location).  Verdict: balanced / leaky /
    inconclusive (value-set cap or step limit hit)."""
    v = Verifier(program, cap)
    state = init if init is not None else symbolic_init(program, cfg)
    regs, mem = state.registers, state.memory
    merged: dict[tuple, LeakFinding] = {}
    steps = 0
    n = len(program.instructions)
    verdict_reason = ""
    verdict = None
    # Two exact memos replay revisited code (see the module docstring).
    # Each step is memoised on its pc and the sets it reads: a hit writes
    # the cached destination set and pc.  Each block is memoised on its
    # entry pc and the sets it reads before writing them: a hit writes the
    # final set of every location the block wrote and its exit pc.  Their
    # findings equal those of the miss that filled them, already merged, so
    # the report is unchanged.  A step or block that raises is never cached.
    # memos[pc] is None before the pc first runs and False after; from its
    # first revisit on it is (key reader, memo), or () for jmp and nop, so
    # straight-line code builds no reader.  blocks[pc] is built when the run
    # comes back to pc at a block boundary: (key reader, memo, length), or
    # () for a block of one step or one that reads no set.  A block miss
    # steps through the pc memo until `steps` reaches `end`, and `record`
    # (memo, key, {location: (cells, index)}) collects the cells it writes.
    memos: list = [None] * n
    blocks: list = [None] * n
    end, record = 0, None
    pc_replayed = block_replayed = 0
    pc, cycle0 = state.pc, state.cycle
    while pc < n:
        if record is not None and steps == end:
            block_memo, block_key, written = record
            block_memo[block_key] = (tuple([(c, i, c[i]) for c, i in written.values()]), pc)
            record = None
        if steps >= max_steps:
            verdict, verdict_reason = INCONCLUSIVE, f"step limit {max_steps} reached"
            break
        entry = memos[pc]
        if entry:
            if steps >= end:  # at a block boundary
                block = blocks[pc]
                if block is None:
                    stop = v._block_stop(pc)
                    read = v._key_reader(pc, stop) if stop - pc > 1 else None
                    blocks[pc] = block = (read, {}, stop - pc) if read else ()
                if block:
                    read, block_memo, length = block
                    end = steps + length
                    if end <= max_steps:
                        try:
                            block_key = read(regs, mem)
                        except IndexError:
                            pass  # an address past the memory: the block steps and raises
                        else:
                            hit = block_memo.get(block_key)
                            if hit is not None:
                                writes, pc = hit
                                for cells, i, vals in writes:
                                    cells[i] = vals
                                steps = end
                                block_replayed += length
                                continue
                            record = (block_memo, block_key, {})
            read, memo = entry
            try:
                key = read(regs, mem)
            except IndexError:
                entry = None  # an address past the memory: the step raises
            else:
                hit = memo.get(key)
                if hit is not None:
                    cells, i, vals, pc = hit
                    if cells is not None:
                        cells[i] = vals
                        if record is not None:
                            record[2][id(cells), i] = (cells, i)
                    steps += 1
                    pc_replayed += 1
                    continue
        elif entry is None:
            memos[pc] = False
        elif entry is False:
            read = v._key_reader(pc, pc + 1)
            memos[pc] = (read, {}) if read else ()
            continue  # the same pc again, now with its reader
        state.pc, state.cycle = pc, cycle0 + steps
        try:
            for f in v.sym_step(state):
                fkey = (f.index, f.kind, f.location)
                if fkey in merged:
                    merged[fkey].merge(f)
                else:
                    merged[fkey] = f
        except _CapExceeded:
            verdict, verdict_reason = (
                INCONCLUSIVE,
                f"value-set cap {cap} exceeded at instruction {pc}",
            )
            break
        if entry or record is not None:
            inst = program.instructions[pc]
            cells = i = vals = None
            if OPS[inst.opcode].kind in ("unary", "binary"):
                cells, i = v._cell(state, inst.operands[0], pc)
                vals = cells[i]
                if record is not None:
                    record[2][id(cells), i] = (cells, i)
            if entry:
                memo[key] = (cells, i, vals, state.pc)
        pc = state.pc
        steps += 1
    state.pc, state.cycle = pc, cycle0 + steps
    findings = sorted(merged.values(), key=lambda f: (f.index, f.kind, f.location))
    if verdict is None:
        verdict = LEAKY if findings else BALANCED
    return BalanceReport(
        verdict,
        findings,
        steps,
        verdict_reason,
        steps - pc_replayed - block_replayed,
        pc_replayed,
        block_replayed,
    )


@dataclass
class CrossValidation:
    passed: bool
    pairs_checked: int
    first_diff_cycle: int | None = None


def cross_validate(
    program: LinkedProgram,
    n_pairs: int = 100,
    seed: int = 0,
    cfg: DplConfig | None = None,
) -> CrossValidation:
    """Dynamic confirmation of a balanced verdict: random pairs of sensitive
    inputs must yield identical per-cycle leakage under uniform weights.

    All 2*n_pairs runs are one batch_run; lanes 2p and 2p+1 are pair p.
    Raises ValueError for fewer than one pair, StepLimitExceeded if the
    program does not halt within MAX_STEPS, and NonConstantTimeError if its
    control flow depends on the inputs.
    """
    if n_pairs < 1:
        raise ValueError(f"need at least one pair, got {n_pairs}")
    cells = program.source.declared_cells("sensitive")
    lanes = 2 * n_pairs
    mem, regs = _init_arrays(program, cells, _random_bits(len(cells), lanes, seed), cfg)
    res = batch_run(
        program,
        lanes,
        init_memory=mem,
        init_registers=regs,
        weights=[1.0] * WORD_BITS,
    )
    diff = res.leakage[:, 0::2] != res.leakage[:, 1::2]  # (cycles, n_pairs)
    failing = np.flatnonzero(diff.any(axis=0))
    if len(failing) == 0:
        return CrossValidation(True, n_pairs)
    p = int(failing[0])
    return CrossValidation(False, p + 1, int(np.argmax(diff[:, p])))
