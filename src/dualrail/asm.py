"""Parser, AST and printer for a small generic assembly language.

The language is line oriented: an optional ``label:`` prefix, an optional
instruction, and an optional ``;`` comment.  Comments starting with ``;@``
carry directives (``;@sensitive <loc>``, ``;@public``, ``;@output <loc>``,
...) which are preserved by the printer; plain comments are dropped.

Operands:
    rN          register
    #N          immediate
    @N          direct memory cell
    !rN[,off]   indirect memory cell (base register plus constant offset)
    !#N[,off]   constant address: parsed as the direct cell @N+off

Branch targets are labels or ``#`` absolute instruction indices.

A dialect (``SyntaxAdapter``, such as ``AVR_LIKE``) is this grammar under
its own table of opcode names: it parses and prints through the same
parser and printer as the core language.

The machine model is defined here once: a ``WORD_BITS``-bit word, 1 to
``MAX_CELLS`` registers and memory cells (``N_REGS`` and ``MEM_SIZE`` by
default), bounds that ``resolve`` enforces, and ``MAX_STEPS``, the steps
after which every engine gives up on a run.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

#: bits of a machine word, and the mask of its values
WORD_BITS = 8
WORD_MASK = (1 << WORD_BITS) - 1
#: the most registers or memory cells a machine has: addresses fit 16 bits
MAX_CELLS = 1 << 16
#: the registers and memory cells of a machine unless resolve() is told
N_REGS = 32
MEM_SIZE = 1024
#: steps after which an engine stops a program that has not halted: about
#: 30 times the longest corpus run (168,251 cycles for DPL PRESENT)
MAX_STEPS = 5_000_000
#: Hamming weight of every data value and address
HW = [i.bit_count() for i in range(MAX_CELLS)]

#: operand count of each instruction kind
_ARITY = {"nop": 0, "jump": 1, "unary": 2, "binary": 3, "branch": 3}


@dataclass(frozen=True)
class OpSpec:
    """Semantics of one opcode.

    ``kind`` fixes the operand shape: ``unary``/``binary`` write their
    first operand from the others, ``branch`` compares two operands and
    jumps to a target, ``jump`` only jumps.  ``fn(*values, mask)`` is the
    result (or the branch condition).  It must give the same answer on
    Python ints and, lane by lane, on numpy uint8 arrays: every interpreter
    and the verifier call it unchanged.
    """

    kind: str
    fn: Callable | None = None

    @property
    def arity(self) -> int:
        return _ARITY[self.kind]


#: the instruction set: the only definition of each opcode's semantics
OPS = {
    "nop": OpSpec("nop"),
    "jmp": OpSpec("jump"),
    "mov": OpSpec("unary", lambda a, m: a),
    "not": OpSpec("unary", lambda a, m: ~a & m),
    "and": OpSpec("binary", lambda a, b, m: a & b),
    "orr": OpSpec("binary", lambda a, b, m: a | b),
    "xor": OpSpec("binary", lambda a, b, m: a ^ b),
    "lsl": OpSpec("binary", lambda a, b, m: (a << b) & m),
    "lsr": OpSpec("binary", lambda a, b, m: a >> b),
    "add": OpSpec("binary", lambda a, b, m: (a + b) & m),
    "mul": OpSpec("binary", lambda a, b, m: (a * b) & m),
    "beq": OpSpec("branch", lambda a, b, m: a == b),
    "bne": OpSpec("branch", lambda a, b, m: a != b),
}

#: the logical gates the dual-rail transform expands, in table-slot order
LOGICAL_OPS = ("and", "orr", "xor")

_LABEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NAT = r"0[xX][0-9a-fA-F]+|0[bB][01]+|0|[1-9][0-9]*"  # what int(tok, 0) reads
_NUM_RE = re.compile(rf"-?(?:{_NAT})")
_LOC_RE = re.compile(rf"r([0-9]+)|@({_NAT})(?:-({_NAT}))?")

#: directives whose arguments are cell locations (rN, @N or @lo-hi)
LOCATION_DIRECTIVES = ("sensitive", "output")


class ParseError(ValueError):
    """Syntax or consistency error, carrying source line and column (1-based)."""

    def __init__(self, msg: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {msg}")
        self.line = line
        self.col = col
        self.msg = msg


class LinkError(ValueError):
    """Raised by resolve() for undefined labels or out-of-range references."""


@dataclass(frozen=True)
class Register:
    index: int

    def __str__(self):
        return f"r{self.index}"


@dataclass(frozen=True)
class Immediate:
    value: int

    def __str__(self):
        return f"#{self.value}"


@dataclass(frozen=True)
class MemDirect:
    address: int

    def __str__(self):
        return f"@{self.address}"


@dataclass(frozen=True)
class MemIndirect:
    base: Register
    offset: int = 0

    def __str__(self):
        if self.offset:
            return f"!{self.base},{self.offset}"
        return f"!{self.base}"


Operand = Register | Immediate | MemDirect | MemIndirect


@dataclass(frozen=True)
class AddressRef:
    """Branch target: a label name or an absolute instruction index."""

    label: str | None = None
    index: int | None = None

    def __str__(self):
        return self.label if self.label is not None else f"#{self.index}"


@dataclass(frozen=True)
class Instruction:
    opcode: str
    operands: tuple

    def __str__(self):
        if not self.operands:
            return self.opcode
        return self.opcode + " " + " ".join(str(o) for o in self.operands)


@dataclass(frozen=True)
class Line:
    """One source line: optional label, optional instruction, optional directive.

    ``directive`` is the comment text without the leading ``;@`` (for example
    ``"sensitive @0-63"``); plain comments are not retained.
    """

    label: str | None = None
    instruction: Instruction | None = None
    directive: str | None = None


@dataclass(frozen=True)
class Program:
    """Parsed lines.  The views below are built once and shared (callers
    must not modify them); the lines are immutable, so none goes stale."""

    lines: tuple[Line, ...]

    @cached_property
    def instructions(self) -> tuple[Instruction, ...]:
        return tuple(ln.instruction for ln in self.lines if ln.instruction is not None)

    @cached_property
    def label_table(self) -> dict[str, int]:
        table: dict[str, int] = {}
        idx = 0
        for ln in self.lines:
            if ln.label is not None:
                table[ln.label] = idx
            if ln.instruction is not None:
                idx += 1
        return table

    @cached_property
    def directives(self) -> dict[int, tuple[str, ...]]:
        """Directive tags per instruction index.

        A directive on an instruction line belongs to that instruction; a
        standalone directive line belongs to the next instruction (or, at end
        of file, to index == number of instructions).
        """
        out: dict[int, list[str]] = {}
        pending: list[str] = []
        idx = 0
        for ln in self.lines:
            if ln.directive is not None:
                pending.append(ln.directive)
            if ln.instruction is not None:
                if pending:
                    out.setdefault(idx, []).extend(pending)
                    pending = []
                idx += 1
        if pending:
            out.setdefault(idx, []).extend(pending)
        return {i: tuple(tags) for i, tags in out.items()}

    def tagged(self, idx: int, name: str) -> bool:
        """True if instruction idx carries a directive starting with name."""
        for tag in self.directives.get(idx, ()):
            if tag == name or tag.startswith(name + " "):
                return True
        return False

    def declared_spans(self, name: str):
        """(kind, lo, hi) of each location declared by ``;@<name> <loc>``
        directives, in order; kind is "reg" or "mem", hi is inclusive."""
        for tags in self.directives.values():
            for tag in tags:
                parts = tag.split()
                if parts and parts[0] == name:
                    yield from map(_parse_loc, parts[1:])

    def declared_cells(self, name: str) -> tuple[tuple[str, int], ...]:
        """All locations declared by ``;@<name> <loc>`` directives, in order,
        as (kind, index) pairs; ``@lo-hi`` ranges are expanded."""
        return tuple((kind, i) for kind, lo, hi in self.declared_spans(name) for i in range(lo, hi + 1))


def _parse_loc(spec: str) -> tuple[str, int, int]:
    m = _LOC_RE.fullmatch(spec)
    if m is None or (m[3] and int(m[3], 0) < int(m[2], 0)):
        raise ValueError(f"bad location {spec!r} (expected rN, @N or @lo-hi with lo <= hi)")
    if m[1] is not None:
        return ("reg", int(m[1]), int(m[1]))
    return ("mem", int(m[2], 0), int(m[3] or m[2], 0))


@dataclass(frozen=True)
class LinkedProgram:
    """Executable form: branch targets resolved to absolute indices, with
    the source it came from and the machine size it was checked against."""

    instructions: tuple[Instruction, ...]
    source: Program = field(compare=False, repr=False)
    n_regs: int
    mem_size: int


# ---------------------------------------------------------------------------
# parsing

def _parse_number(tok: str, line: int, col: int) -> int:
    if not _NUM_RE.fullmatch(tok):
        raise ParseError(f"bad number {tok!r}", line, col)
    return int(tok, 0)


def _parse_operand(tok: str, line: int, col: int) -> Operand:
    if tok.startswith("r"):
        if not tok[1:].isdecimal():
            raise ParseError(f"bad register {tok!r}", line, col)
        return Register(int(tok[1:]))
    if tok.startswith("#"):
        return Immediate(_parse_number(tok[1:], line, col))
    if tok.startswith("@"):
        return MemDirect(_parse_number(tok[1:], line, col))
    if tok.startswith("!"):
        body = tok[1:]
        off = 0
        if "," in body:
            body, off_s = body.split(",", 1)
            off = _parse_number(off_s, line, col)
        base = _parse_operand(body, line, col)
        if isinstance(base, Immediate):  # a constant address is a direct cell
            return MemDirect(base.value + off)
        if not isinstance(base, Register):
            raise ParseError(f"indirect base must be register or immediate: {tok!r}", line, col)
        return MemIndirect(base, off)
    raise ParseError(f"bad operand {tok!r}", line, col)


def _parse_target(tok: str, line: int, col: int) -> AddressRef:
    if tok.startswith("#"):
        return AddressRef(index=_parse_number(tok[1:], line, col))
    if _LABEL_RE.fullmatch(tok):
        return AddressRef(label=tok)
    raise ParseError(f"bad branch target {tok!r}", line, col)


def _parse_instruction(toks: list[str], names: dict[str, str], line: int, col: int) -> Instruction:
    name, args = toks[0], toks[1:]
    opcode = names.get(name)
    spec = OPS.get(opcode)
    if spec is None:
        raise ParseError(f"unknown opcode {name!r}", line, col)
    if len(args) != spec.arity:
        raise ParseError(f"{name} takes {spec.arity} operand(s), got {len(args)}", line, col)
    if spec.kind == "jump":
        return Instruction(opcode, (_parse_target(args[0], line, col),))
    if spec.kind == "branch":
        return Instruction(
            opcode,
            (
                _parse_operand(args[0], line, col),
                _parse_operand(args[1], line, col),
                _parse_target(args[2], line, col),
            ),
        )
    ops = tuple(_parse_operand(a, line, col) for a in args)
    if ops and isinstance(ops[0], Immediate):
        raise ParseError(f"destination of {name} cannot be an immediate", line, col)
    return Instruction(opcode, ops)


#: the core language's opcode names, each its own
_CORE_NAMES = {op: op for op in OPS}


def parse(source: str) -> Program:
    """Parse assembly text into a Program.

    Raises ParseError with line/column on malformed input, on a bad
    ``;@sensitive``/``;@output`` location, and for duplicate label
    definitions.
    """
    return _parse(source, _CORE_NAMES)


def _parse(source: str, names: dict[str, str]) -> Program:
    """The grammar of every dialect; `names` maps each opcode name the
    dialect spells to the core opcode it stands for."""
    lines: list[Line] = []
    seen_labels: set[str] = set()
    for lineno, raw in enumerate(source.splitlines(), start=1):
        text, _, comment = raw.partition(";")
        directive = None
        comment = comment.strip()
        if comment.startswith("@"):
            directive = comment[1:].strip()
            _check_locations(directive, raw, lineno)
        label = None
        start = 0  # where text starts in raw
        head, colon, rest = text.partition(":")
        if colon:
            label = head.strip()
            if not _LABEL_RE.fullmatch(label):
                raise ParseError(f"bad label {label!r}", lineno)
            if label in seen_labels:
                raise ParseError(f"duplicate label {label!r}", lineno)
            seen_labels.add(label)
            text, start = rest, len(head) + 1
        instruction = None
        toks = text.split()
        if toks:
            col = start + len(text) - len(text.lstrip()) + 1
            instruction = _parse_instruction(toks, names, lineno, col)
        if label is not None or instruction is not None or directive is not None:
            lines.append(Line(label, instruction, directive))
    return Program(tuple(lines))


def _check_locations(directive: str, raw: str, line: int) -> None:
    words = list(re.finditer(r"\S+", directive))
    if words and words[0].group() in LOCATION_DIRECTIVES:
        for word in words[1:]:
            try:
                _parse_loc(word.group())
            except ValueError as exc:
                col = raw.rindex(directive) + word.start() + 1
                raise ParseError(f";@{words[0].group()}: {exc}", line, col) from None


def print_program(p: Program) -> str:
    """Inverse of parse: parse(print_program(p)) == p."""
    return _print(p, _CORE_NAMES)


def _print(p: Program, names: dict[str, str]) -> str:
    """The text of p with each core opcode spelled as `names` maps it."""
    out = []
    for ln in p.lines:
        parts = []
        if ln.label is not None:
            parts.append(f"{ln.label}:")
        if ln.instruction is not None:
            parts.append(" ".join([names[ln.instruction.opcode], *map(str, ln.instruction.operands)]))
        if ln.directive is not None:
            parts.append(f";@{ln.directive}")
        out.append(" ".join(parts))
    return "\n".join(out) + ("\n" if out else "")


# ---------------------------------------------------------------------------
# linking

def resolve(p: Program, *, n_regs: int = N_REGS, mem_size: int = MEM_SIZE) -> LinkedProgram:
    """Replace label references by absolute instruction indices and validate
    the machine size (1 to MAX_CELLS registers and cells), operand ranges
    and the declared ``;@sensitive``/``;@output`` cells against it."""
    for name, size in (("n_regs", n_regs), ("mem_size", mem_size)):
        if not 1 <= size <= MAX_CELLS:
            raise LinkError(f"{name} {size} is not from 1 to {MAX_CELLS}")
    table = p.label_table
    instrs = p.instructions
    n = len(instrs)
    resolved = []
    for idx, inst in enumerate(instrs):
        for pos, op in enumerate(inst.operands):
            # one bound per operand type, dispatched on the exact type:
            # nothing is hashed for an operand in range
            t = type(op)
            if t is Register:
                if not 0 <= op.index < n_regs:
                    raise LinkError(f"instruction {idx} ({inst.opcode}): register r{op.index} out of range")
            elif t is MemDirect:
                if not 0 <= op.address < mem_size:
                    raise LinkError(f"instruction {idx} ({inst.opcode}): address @{op.address} out of range")
            elif t is MemIndirect:
                if not 0 <= op.base.index < n_regs:
                    raise LinkError(f"instruction {idx} ({inst.opcode}): register r{op.base.index} out of range")
                if not 0 <= op.offset < mem_size:
                    raise LinkError(f"instruction {idx} ({inst.opcode}): indirect offset {op.offset} out of range")
            elif t is Immediate:
                # immediates are data words except when used as a shift
                # count, which is bounded by the word width instead
                if pos == 2 and inst.opcode in ("lsl", "lsr"):
                    if not 0 <= op.value <= WORD_BITS:
                        raise LinkError(f"instruction {idx} ({inst.opcode}): shift count {op.value} out of range")
                elif not 0 <= op.value <= WORD_MASK:
                    raise LinkError(
                        f"instruction {idx} ({inst.opcode}): immediate {op.value} does not fit {WORD_BITS} bits"
                    )
            elif t is AddressRef:
                if op.label is not None:
                    if op.label not in table:
                        raise LinkError(f"instruction {idx}: undefined label {op.label!r}")
                    target = table[op.label]
                    # a branch target is always the last operand
                    inst = Instruction(inst.opcode, inst.operands[:pos] + (AddressRef(index=target),))
                else:
                    target = op.index
                if not 0 <= target <= n:
                    raise LinkError(f"instruction {idx}: branch target {target} out of range")
        resolved.append(inst)
    for name in LOCATION_DIRECTIVES:
        for kind, _lo, hi in p.declared_spans(name):
            # _parse_loc admits no negative index: only the top can be out
            if kind == "reg" and hi >= n_regs:
                raise LinkError(f";@{name}: register r{hi} out of range")
            if kind == "mem" and hi >= mem_size:
                raise LinkError(f";@{name}: address @{hi} out of range")
    return LinkedProgram(tuple(resolved), source=p, n_regs=n_regs, mem_size=mem_size)


# ---------------------------------------------------------------------------
# dialects

@dataclass(frozen=True)
class SyntaxAdapter:
    """An assembly dialect: the core grammar under its own opcode names.
    ``opcodes`` maps each name the dialect spells to its core opcode."""

    name: str
    opcodes: dict[str, str]

    def parse(self, source: str) -> Program:
        return _parse(source, self.opcodes)

    def print(self, p: Program) -> str:
        return _print(p, {op: own for own, op in self.opcodes.items()})


AVR_LIKE = SyntaxAdapter("avr-like", {
    "mov": "mov", "and": "and", "or": "orr", "eor": "xor", "com": "not",
    "lsl": "lsl", "lsr": "lsr", "add": "add", "mul": "mul",
    "rjmp": "jmp", "breq": "beq", "brne": "bne", "nop": "nop",
})

ADAPTERS = {AVR_LIKE.name: AVR_LIKE}
