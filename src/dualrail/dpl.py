"""Dual-rail-with-precharge code transformation.

A logical bit is encoded one-hot on two rails: encode(1) sets bit_t,
encode(0) sets bit_f, every other bit is zero.  Each sensitive logical
instruction is expanded into a macro that packs the two encoded operands
into a look-up-table index and fetches the encoded result, precharging
every written location to zero first so that each update flips exactly one
bit regardless of the data.  ``not`` needs no table: xor with the rail mask
swaps the rails in place, done through a precharged scratch register.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

from .asm import (
    AddressRef,
    Immediate,
    Instruction,
    Line,
    LOGICAL_OPS,
    OPS,
    MemDirect,
    MemIndirect,
    Program,
    Register,
    WORD_BITS,
    WORD_MASK,
)

PROLOGUE_TAG = "prologue"

#: the register the prologue zeroes and every precharge copies from
ZERO_REG = 0

#: the opcodes transform rewrites, unless tagged ;@public
_REWRITABLE = frozenset((*LOGICAL_OPS, "not"))


class TransformError(ValueError):
    pass


@dataclass(frozen=True)
class DplConfig:
    """Encoding layout and transformer resources.

    bit_f/bit_t: rail bit indices (False/True).  lut_base: address of the
    first operator table.  compact: interleave the tables on the free low
    index bits.  scratch: the three macro registers (index, loaded value,
    fetched result roles); ``ZERO_REG`` is kept at zero for precharge.
    """

    bit_f: int = 1
    bit_t: int = 0
    lut_base: int = 0
    compact: bool = False
    scratch: tuple[int, int, int] = (20, 21, 22)

    @cached_property
    def reserved(self) -> frozenset[int]:
        """The registers the macros own: scratch and zero register."""
        return frozenset((*self.scratch, ZERO_REG))

    @property
    def pattern_lo(self) -> int:
        """Least significant bit of the packed table index field: the lower
        rail, where operand b's encoding starts."""
        return min(self.bit_f, self.bit_t)

    @property
    def span(self) -> int:
        """Width of the bit field holding one encoded rail pair."""
        return abs(self.bit_f - self.bit_t) + 1

    @property
    def mask(self) -> int:
        return (1 << self.bit_f) | (1 << self.bit_t)

    @property
    def shifts(self) -> int:
        """Left shifts needed to stack operand a's field above b's."""
        return 4 - self.span

    @property
    def region_size(self) -> int:
        """Address span reserved per table: 2^(pattern_lo + 2*span)."""
        return 1 << (self.pattern_lo + 2 * self.span)

    @property
    def field_mask(self) -> int:
        """The table index bits a packed operand pair sets: a table base
        must have them clear."""
        return ((1 << 2 * self.span) - 1) << self.pattern_lo

    @property
    def tables_per_region(self) -> int:
        return (1 << self.pattern_lo) if self.compact else 1

    def validate(self) -> None:
        if self.bit_f == self.bit_t:
            raise TransformError("rails must use distinct bits")
        if self.span not in (2, 3):
            raise TransformError(f"rail span {self.span} unsupported (pair field must fit 4 bits)")
        if min(self.bit_f, self.bit_t) < 0 or max(self.bit_f, self.bit_t) >= WORD_BITS:
            raise TransformError("rail bit outside the word")
        if self.pattern_lo + 2 * self.span > WORD_BITS:
            raise TransformError(
                f"packed index field [{self.pattern_lo},{self.pattern_lo + 2 * self.span})"
                f" does not fit a {WORD_BITS}-bit index register"
            )
        if self.lut_base < 0:
            raise TransformError(f"negative table base {self.lut_base}")
        if self.lut_base & self.field_mask:
            raise TransformError(f"table base {self.lut_base} misaligned for the index field")
        if self.compact and self.pattern_lo == 0:
            raise TransformError("compact tables need both rails above bit 0")
        if len(self.reserved) != 4:
            raise TransformError("scratch registers and zero register must be distinct")
        if min(self.reserved) < 0:
            raise TransformError(f"negative register in scratch {self.scratch}")

    def encode(self, bit: int) -> int:
        if bit not in (0, 1):
            raise TransformError(f"cannot encode non-bit literal {bit}")
        return 1 << (self.bit_t if bit else self.bit_f)

    def decode(self, word: int) -> int:
        """Inverse of encode; rejects words that are not one-hot on the rails."""
        if word == 1 << self.bit_t:
            return 1
        if word == 1 << self.bit_f:
            return 0
        raise TransformError(f"word {word:#x} is not a valid rail encoding")

    def pack(self, ea: int, eb: int) -> int:
        """LUT index offset for encoded operands (a's field above b's)."""
        return (ea << self.shifts) | eb

    def table_base(self, op: str) -> int:
        k = LOGICAL_OPS.index(op)
        region, slot = divmod(k, self.tables_per_region)
        return self.lut_base + region * self.region_size + slot


@dataclass
class TransformReport:
    expanded_count: int
    skipped_count: int
    lut_bytes: int
    code_growth_ratio: float
    warnings: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(
            {
                "expanded_count": self.expanded_count,
                "skipped_count": self.skipped_count,
                "lut_bytes": self.lut_bytes,
                "code_growth_ratio": round(self.code_growth_ratio, 4),
                "warnings": self.warnings,
            },
            indent=2,
        )


def gen_luts(cfg: DplConfig, ops_used) -> list[Instruction]:
    """The prologue stores that materialize the tables of ops_used.

    Each operator keeps a fixed slot (and, orr, xor in order) so table
    addresses (``cfg.table_base``) do not depend on which operators a
    program happens to use.  Only the regions holding used tables are
    emitted, every cell of an emitted region gets exactly one store (the
    encoded result at a valid packed index, poison 0 elsewhere), and in
    compact mode tables interleave on the free low bit(s) of a shared
    region.
    """
    cfg.validate()
    ops = [op for op in LOGICAL_OPS if op in ops_used]
    cells = {
        cfg.table_base(op) + cfg.pack(cfg.encode(a), cfg.encode(b)): cfg.encode(OPS[op].fn(a, b, 1))
        for op in ops
        for a in (0, 1)
        for b in (0, 1)
    }
    stores = []
    for region in sorted({LOGICAL_OPS.index(op) // cfg.tables_per_region for op in ops}):
        lo = cfg.lut_base + region * cfg.region_size
        for addr in range(lo, lo + cfg.region_size):
            stores.append(Instruction("mov", (MemDirect(addr), Immediate(cells.get(addr, 0)))))
    return stores


def rewritten(p: Program, idx: int) -> bool:
    """Whether transform rewrites source instruction idx: an and, orr, xor
    or not that is not tagged ;@public.  Every other instruction is kept."""
    return p.instructions[idx].opcode in _REWRITABLE and not p.tagged(idx, "public")


def taint_warnings(p: Program) -> list[str]:
    """Add, mul and branch instructions that read a location tainted by the
    declared ;@sensitive cells, unless tagged ;@public."""
    tainted_regs: set[int] = set()
    tainted_mem: set[int] = set()
    for kind, loc in p.declared_cells("sensitive"):
        (tainted_regs if kind == "reg" else tainted_mem).add(loc)
    any_mem = [bool(tainted_mem)]  # True once an indirect store spills taint

    def src_tainted(op) -> bool:
        if isinstance(op, Register):
            return op.index in tainted_regs
        if isinstance(op, MemDirect):
            return any_mem[0] or op.address in tainted_mem
        if isinstance(op, MemIndirect):
            return any_mem[0] or bool(tainted_mem)
        return False  # immediate

    writers = [inst for inst in p.instructions if OPS[inst.opcode].kind in ("unary", "binary")]
    changed = True
    while changed:
        changed = False
        for inst in writers:
            dest, *srcs = inst.operands
            if not any(src_tainted(s) for s in srcs):
                continue
            if isinstance(dest, Register):
                if dest.index not in tainted_regs:
                    tainted_regs.add(dest.index)
                    changed = True
            elif isinstance(dest, MemDirect):
                if dest.address not in tainted_mem:
                    tainted_mem.add(dest.address)
                    changed = True
            elif not any_mem[0]:
                any_mem[0] = True
                changed = True

    warnings = []
    for idx, inst in enumerate(p.instructions):
        branch = OPS[inst.opcode].kind == "branch"
        if not (branch or inst.opcode in ("add", "mul")):
            continue
        if p.tagged(idx, "public"):
            continue
        srcs = inst.operands[:2] if branch else inst.operands[1:]
        if any(src_tainted(s) for s in srcs):
            warnings.append(f"instruction {idx}: {inst.opcode} reads sensitive data")
    return warnings


def _encode_value_operand(op, cfg: DplConfig):
    return Immediate(cfg.encode(op.value)) if isinstance(op, Immediate) else op


@lru_cache(maxsize=64)
def _macro_frame(cfg: DplConfig, opcode: str):
    """The operand-independent runs of _expand_macro's output: built once
    per (cfg, opcode) and shared by every macro (instructions are frozen)."""
    r1, r2, r3 = (Register(i) for i in cfg.scratch)
    r0 = Register(ZERO_REG)
    mask = Immediate(cfg.mask)
    precharge = Instruction("mov", (r1, r0))
    pack_a = (
        Instruction("and", (r1, r1, mask)),
        *[Instruction("lsl", (r1, r1, Immediate(1)))] * cfg.shifts,
        Instruction("mov", (r2, r0)),
    )
    fetch = (
        Instruction("and", (r2, r2, mask)),
        Instruction("orr", (r1, r1, r2)),
        Instruction("mov", (r3, r0)),
        Instruction("mov", (r3, MemIndirect(r1, cfg.table_base(opcode)))),
    )
    return precharge, pack_a, fetch


def _expand_macro(inst: Instruction, cfg: DplConfig) -> list[Instruction]:
    """The DPL macro for ``op d a b``: load and mask both encoded operands,
    stack them into the table index, fetch, and copy out - precharging every
    destination first.  13 instructions for adjacent rails (two shifts).
    The operands must be clear of ``cfg.reserved``, as transform checks."""
    d, a, b = inst.operands
    r1, r2, r3 = (Register(i) for i in cfg.scratch)
    r0 = Register(ZERO_REG)
    precharge, pack_a, fetch = _macro_frame(cfg, inst.opcode)
    return [
        precharge,
        Instruction("mov", (r1, _encode_value_operand(a, cfg))),
        *pack_a,
        Instruction("mov", (r2, _encode_value_operand(b, cfg))),
        *fetch,
        Instruction("mov", (d, r0)),
        Instruction("mov", (d, r3)),
    ]


def _rewrite_not(inst: Instruction, cfg: DplConfig) -> list[Instruction]:
    """``not d v`` on encoded data: xor with the rail mask swaps the rails.

    Routed through a precharged scratch register so both writes flip exactly
    one bit; a literal operand folds to a plain encoded store."""
    d, v = inst.operands
    r1 = Register(cfg.scratch[0])
    r0 = Register(ZERO_REG)
    if isinstance(v, Immediate):
        return [
            Instruction("mov", (d, r0)),
            Instruction("mov", (d, Immediate(cfg.encode(1 - v.value)))),
        ]
    return [
        Instruction("mov", (r1, r0)),
        Instruction("xor", (r1, v, Immediate(cfg.mask))),
        Instruction("mov", (d, r0)),
        Instruction("mov", (d, r1)),
    ]


def _used_locations(p: Program) -> tuple[set[int], set[int]]:
    """The registers and the cells p declares or addresses; an indexed
    operand may reach every cell from its offset to offset + WORD_MASK,
    the largest base."""
    regs, cells = set(), set()
    for inst in p.instructions:
        for op in inst.operands:
            if isinstance(op, Register):
                regs.add(op.index)
            elif isinstance(op, MemDirect):
                cells.add(op.address)
            elif isinstance(op, MemIndirect):
                regs.add(op.base.index)
                cells.update(range(op.offset, op.offset + WORD_MASK + 1))
    for name in ("sensitive", "output"):
        for kind, loc in p.declared_cells(name):
            if kind == "mem":
                cells.add(loc)
    return regs, cells


def _ops_used(p: Program) -> set[str]:
    """The logical operators whose tables the rewritten instructions read."""
    return {inst.opcode for idx, inst in enumerate(p.instructions)
            if inst.opcode in LOGICAL_OPS and rewritten(p, idx)}


def place_tables(p: Program, cfg: DplConfig, mem_size: int) -> DplConfig:
    """cfg with lut_base at the lowest aligned base whose tables for p fit
    below mem_size and touch no cell p declares or may address
    (``_used_locations``).  cfg itself when p needs no tables."""
    stores = gen_luts(replace(cfg, lut_base=0), _ops_used(p))
    offsets = [s.operands[0].address for s in stores]
    if not offsets:
        return cfg
    taken = _used_locations(p)[1]
    for base in range(mem_size - max(offsets)):
        if not base & cfg.field_mask and taken.isdisjoint([base + o for o in offsets]):
            return replace(cfg, lut_base=base)
    raise TransformError(f"no aligned region below {mem_size} holds the tables clear of program cells")


def transform(p: Program, cfg: DplConfig) -> tuple[Program, TransformReport]:
    """Full program rewrite: prologue (zero register, table stores) followed
    by each source instruction kept, not-rewritten, or macro-expanded in
    order.  Labels and directives stay anchored to the first emitted line of
    their instruction's expansion; an absolute ``#N`` target moves to the
    first instruction emitted for source instruction N."""
    cfg.validate()
    regs, cells = _used_locations(p)
    clash = regs & cfg.reserved
    if clash:
        raise TransformError(f"program already uses reserved register(s) {sorted(clash)}")

    stores = gen_luts(cfg, _ops_used(p))
    lut_bytes = len(stores)
    if lut_bytes:
        reserved_cells = {s.operands[0].address for s in stores}
        overlap = cells & reserved_cells
        if overlap:
            raise TransformError(
                f"tables [{min(reserved_cells)},{max(reserved_cells)}] "
                f"overlap program cells {sorted(overlap)[:8]}"
            )

    # each source instruction's expansion, and where it starts in the output
    bodies = []
    absolute = []  # kept jumps and branches to a #N target
    expanded = skipped = 0
    for idx, inst in enumerate(p.instructions):
        if rewritten(p, idx):
            bodies.append((_rewrite_not if inst.opcode == "not" else _expand_macro)(inst, cfg))
            expanded += 1
        else:
            bodies.append([inst])
            if inst.opcode in _REWRITABLE:
                skipped += 1
            elif OPS[inst.opcode].kind in ("jump", "branch") and inst.operands[-1].index is not None:
                absolute.append(idx)
    start = [1 + lut_bytes]
    for body in bodies:
        start.append(start[-1] + len(body))
    for idx in absolute:
        inst = p.instructions[idx]
        target = inst.operands[-1].index
        if not 0 <= target < len(start):
            raise TransformError(f"instruction {idx}: branch target {target} out of range")
        bodies[idx] = [Instruction(inst.opcode, inst.operands[:-1] + (AddressRef(index=start[target]),))]

    out_lines = [Line(None, Instruction("mov", (Register(ZERO_REG), Immediate(0))), PROLOGUE_TAG)]
    out_lines += [Line(None, s, PROLOGUE_TAG) for s in stores]
    bodies_in_order = iter(bodies)
    for ln in p.lines:
        if ln.instruction is None:
            out_lines.append(ln)
            continue
        body = next(bodies_in_order)
        out_lines.append(Line(ln.label, body[0], ln.directive))
        out_lines += [Line(None, e, None) for e in body[1:]]

    n_in = len(p.instructions)
    report = TransformReport(
        expanded_count=expanded,
        skipped_count=skipped,
        lut_bytes=lut_bytes,
        code_growth_ratio=(start[-1] / n_in) if n_in else 1.0,
        warnings=taint_warnings(p),
    )
    return Program(tuple(out_lines)), report
