"""Front-end tests: parsing, printing, label resolution, dialect adapters."""

import hashlib
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from dualrail.asm import (
    ADAPTERS,
    AVR_LIKE,
    AddressRef,
    Immediate,
    Instruction,
    LOCATION_DIRECTIVES,
    Line,
    LinkError,
    MAX_CELLS,
    OPS,
    MemDirect,
    MemIndirect,
    ParseError,
    Program,
    Register,
    WORD_BITS,
    WORD_MASK,
    parse,
    print_program,
    resolve,
)


def test_operand_forms():
    p = parse("mov r3 !r1,512\n")
    inst = p.instructions[0]
    assert inst.opcode == "mov"
    assert inst.operands[0] == Register(3)
    assert inst.operands[1] == MemIndirect(Register(1), 512)


def test_all_operand_kinds():
    p = parse("xor @7 r2 #5\n")
    d, a, b = p.instructions[0].operands
    assert d == MemDirect(7)
    assert a == Register(2)
    assert b == Immediate(5)


def test_indirect_defaults_to_zero_offset():
    p = parse("mov r3 !r1\n")
    assert p.instructions[0].operands[1] == MemIndirect(Register(1), 0)


def test_labels_and_branches():
    src = "top: add r1 r1 #1\nbne r1 #4 top\njmp end\nend: nop\n"
    p = parse(src)
    assert p.label_table == {"top": 0, "end": 3}
    assert p.instructions[1].operands[2] == AddressRef("top")


def test_comments_and_blank_lines_ignored():
    p = parse("\n; a comment\nmov r1 #0 ; trailing\n\n")
    assert len(p.instructions) == 1


def test_thirteen_line_macro_parses():
    src = (
        "mov r1 r0\nmov r1 r4\nand r1 r1 #3\nlsl r1 r1 #1\nlsl r1 r1 #1\n"
        "mov r2 r0\nmov r2 r5\nand r2 r2 #3\norr r1 r1 r2\nmov r3 r0\n"
        "mov r3 !r1,512\nmov r6 r0\nmov r6 r3\n"
    )
    p = parse(src)
    assert len(p.instructions) == 13
    assert not p.label_table


def test_print_is_inverse_of_parse():
    src = (
        ";@sensitive @10\n"
        ";@output @11\n"
        "loop: xor r5 r5 r6 ;@public\n"
        "mov @11 r5\n"
        "bne r5 #0 loop\n"
    )
    p = parse(src)
    assert print_program(parse(print_program(p))) == print_program(p)


def test_directives_survive_round_trip():
    src = ";@sensitive @10-12\n;@output r7\nmov r7 @10\n"
    p = parse(print_program(parse(src)))
    assert p.declared_cells("sensitive") == (("mem", 10), ("mem", 11), ("mem", 12))
    assert p.declared_cells("output") == (("reg", 7),)


def test_tag_attaches_to_instruction():
    p = parse("mov r1 #0 ;@public\nmov r2 #0\n")
    assert p.tagged(0, "public")
    assert not p.tagged(1, "public")


@pytest.mark.parametrize(
    "bad",
    [
        "bogus r1 r2\n",
        "mov r1\n",  # arity
        "mov r1 r2 r3\n",  # arity
        "and r1 r2\n",  # arity
        "mov #3 r1\n",  # immediate lvalue
        "jmp\n",  # missing target
        "mov r1 @x\n",  # bad address
        "mov r1 #010\n",  # leading zero: int(tok, 0) rejects it
        "mov r1 r\u00b2\n",  # a digit that is not decimal
        "mov r1 !@5\n",  # indirect through a cell: no base register
    ],
)
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse(bad)


_OP_OF_KIND = {spec.kind: op for op, spec in OPS.items()}


@pytest.mark.parametrize("kind", sorted(_OP_OF_KIND))
def test_wrong_operand_count_rejected_for_every_kind(kind):
    op = _OP_OF_KIND[kind]
    for n in (OPS[op].arity - 1, OPS[op].arity + 1):
        if n >= 0:
            with pytest.raises(ParseError, match="operand"):
                parse(op + " r1" * n + "\n")


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as e:
        parse("nop\nbogus r1 r2\n")
    assert "line 2" in str(e.value)


@pytest.mark.parametrize("spec", ["foo", "r", "rx", "r-1", "@", "@x", "@1-", "@-1", "@010", "@5-3", "r1-2"])
def test_bad_directive_location_is_a_parse_error(spec):
    with pytest.raises(ParseError, match=f"line 2, col 13: ;@sensitive: .*{spec}"):
        parse(f"nop\n;@sensitive {spec}\nnop\n")
    parse(f";@public {spec}\n")  # only location directives are checked


def test_resolve_labels_to_indices():
    p = parse("top: nop\nbeq r1 r2 top\njmp #0\n")
    lp = resolve(p)
    assert lp.instructions[1].operands[2].index == 0
    assert lp.instructions[2].operands[0].index == 0


def test_resolve_rejects_unknown_label():
    with pytest.raises(LinkError):
        resolve(parse("jmp nowhere\n"))


def test_resolve_rejects_out_of_range():
    with pytest.raises(LinkError):
        resolve(parse("mov r40 #0\n"), n_regs=32)
    with pytest.raises(LinkError):
        resolve(parse("mov @2000 #0\n"), mem_size=1024)
    with pytest.raises(LinkError):
        resolve(parse("jmp #99\n"))


def test_constant_address_is_a_direct_cell():
    assert parse("mov r1 !#3,5\n").instructions == parse("mov r1 @8\n").instructions
    assert parse("mov !#7 r1\n").instructions[0].operands[0] == MemDirect(7)
    assert print_program(parse("mov r1 !#3,5\n")) == "mov r1 @8\n"


@pytest.mark.parametrize("src", ["mov r2 !#200,900\n", "mov !#200,900 r2\n"])
def test_constant_address_beyond_memory_is_link_error(src):
    # cell 1100 of 1,024: refused at link time, as @1100 is
    with pytest.raises(LinkError, match="address @1100 out of range"):
        resolve(parse(src), mem_size=1024)


@pytest.mark.parametrize("size", [dict(n_regs=0), dict(mem_size=0), dict(n_regs=MAX_CELLS + 1),
                                  dict(mem_size=MAX_CELLS + 1), dict(mem_size=70000)])
def test_resolve_rejects_machine_size_out_of_range(size):
    # addresses fit 16 bits: a cell at 66000 cannot be linked at all
    with pytest.raises(LinkError, match=f"is not from 1 to {MAX_CELLS}"):
        resolve(parse("mov @66000 #1\n"), **size)


@pytest.mark.parametrize(
    "directive, message",
    [
        (";@sensitive @1024", ";@sensitive: address @1024 out of range"),
        (";@sensitive @1000-1024", ";@sensitive: address @1024 out of range"),
        (";@output r32", ";@output: register r32 out of range"),
    ],
)
def test_resolve_rejects_declared_cell_out_of_range(directive, message):
    with pytest.raises(LinkError, match=message):
        resolve(parse(f"{directive}\nnop\n"), n_regs=32, mem_size=1024)
    resolve(parse(f"{directive}\nnop\n"), n_regs=33, mem_size=1025)


def test_avr_adapter_round_trip():
    generic = parse("xor r5 r5 r6\nnot r4 r4\njmp #0\n")
    avr_text = AVR_LIKE.print(generic)
    assert "eor" in avr_text and "com" in avr_text and "rjmp" in avr_text
    back = AVR_LIKE.parse(avr_text)
    assert print_program(back) == print_program(generic)


def test_adapter_registry():
    assert "avr-like" in ADAPTERS


def test_dialect_error_reports_its_column_in_the_source():
    # a core opcode is not a name of the dialect
    with pytest.raises(ParseError, match=r"^line 2, col 7: unknown opcode 'xor'$"):
        AVR_LIKE.parse("nop\nlbl:  xor r1 r2 r3\n")
    with pytest.raises(ParseError, match=r"^line 1, col 9: eor takes 3 operand\(s\), got 2$"):
        AVR_LIKE.parse("eor: \t  eor r1 r2 ; eor\n")


#: sha256 of AVR_LIKE.print of each corpus file
AVR_CORPUS_SHA256 = {
    "present80.asm": "69442a14c1b857a5bc7efbb798bc2c2e12f0fbd3318e0b611e9c45b153a70ffb",
    "present80_dpl.asm": "1190100f2e58773d001e261763f65be67f366eda2eb049cdcab94d9b081cc35b",
}


@pytest.mark.parametrize("name", sorted(AVR_CORPUS_SHA256))
def test_avr_print_of_the_corpus_pinned(name):
    generic = parse((Path(__file__).resolve().parents[1] / "corpus" / name).read_text())
    text = AVR_LIKE.print(generic)
    assert hashlib.sha256(text.encode()).hexdigest() == AVR_CORPUS_SHA256[name]
    assert print_program(AVR_LIKE.parse(text)) == print_program(generic)


_OPC3 = st.sampled_from(sorted(op for op, spec in OPS.items() if spec.kind == "binary"))
_REG = st.integers(0, 31).map(lambda i: f"r{i}")
_VAL = st.one_of(
    _REG,
    st.integers(0, 255).map(lambda v: f"#{v}"),
    st.integers(0, 1023).map(lambda a: f"@{a}"),
)


@given(st.lists(st.tuples(_OPC3, _REG, _VAL, _VAL), min_size=1, max_size=20))
def test_round_trip_property(rows):
    src = "".join(f"{o} {d} {a} {b}\n" for o, d, a, b in rows)
    p = parse(src)
    assert print_program(parse(print_program(p))) == print_program(p)
    assert len(p.instructions) == len(rows)


# -- resolve against a per-operand reference --------------------------------


def _check_ranges(op, shift, where, n_regs, mem_size):
    """The bound of one operand, and the LinkError message that breaks it."""
    if isinstance(op, Register):
        if not 0 <= op.index < n_regs:
            raise LinkError(f"{where}: register r{op.index} out of range")
    elif isinstance(op, MemDirect):
        if not 0 <= op.address < mem_size:
            raise LinkError(f"{where}: address @{op.address} out of range")
    elif isinstance(op, Immediate):
        if shift:
            if not 0 <= op.value <= WORD_BITS:
                raise LinkError(f"{where}: shift count {op.value} out of range")
        elif not 0 <= op.value <= WORD_MASK:
            raise LinkError(f"{where}: immediate {op.value} does not fit {WORD_BITS} bits")
    elif isinstance(op, MemIndirect):
        if not 0 <= op.base.index < n_regs:
            raise LinkError(f"{where}: register r{op.base.index} out of range")
        if not 0 <= op.offset < mem_size:
            raise LinkError(f"{where}: indirect offset {op.offset} out of range")


def _resolve_reference(p, n_regs, mem_size):
    """What resolve() does, with _check_ranges run on every operand: the
    linked instructions, or the message of the first LinkError."""
    try:
        for name, size in (("n_regs", n_regs), ("mem_size", mem_size)):
            if not 1 <= size <= MAX_CELLS:
                raise LinkError(f"{name} {size} is not from 1 to {MAX_CELLS}")
        out = []
        for idx, inst in enumerate(p.instructions):
            for pos, op in enumerate(inst.operands):
                if isinstance(op, AddressRef):
                    if op.label is not None and op.label not in p.label_table:
                        raise LinkError(f"instruction {idx}: undefined label {op.label!r}")
                    target = p.label_table[op.label] if op.label is not None else op.index
                    if not 0 <= target <= len(p.instructions):
                        raise LinkError(f"instruction {idx}: branch target {target} out of range")
                    inst = Instruction(inst.opcode, inst.operands[:pos] + (AddressRef(index=target),))
                else:
                    shift = pos == 2 and inst.opcode in ("lsl", "lsr")
                    _check_ranges(op, shift, f"instruction {idx} ({inst.opcode})", n_regs, mem_size)
            out.append(inst)
        for name in LOCATION_DIRECTIVES:
            for kind, _lo, hi in p.declared_spans(name):
                loc = Register(hi) if kind == "reg" else MemDirect(hi)
                _check_ranges(loc, False, f";@{name}", n_regs, mem_size)
    except LinkError as exc:
        return str(exc)
    return tuple(out)


def _random_program(rng, n_regs, mem_size):
    """A few instructions of every kind; about one operand in 30 is just
    outside its range, as are some branch targets and declared cells."""
    def bound(hi):  # an integer in [0, hi), or now and then -1 or hi
        return rng.choice((-1, hi)) if rng.random() < 0.03 else rng.randrange(hi)

    def location():
        return rng.choice((
            lambda: Register(bound(n_regs)),
            lambda: MemDirect(bound(mem_size)),
            lambda: MemIndirect(Register(bound(n_regs)), bound(mem_size)),
        ))()

    def source(shift=False):
        if rng.random() < 0.3:
            return Immediate(bound(9 if shift else 256))
        return location()

    n = rng.randint(1, 5)
    labels = ["a", "b"]

    def target():
        if rng.random() < 0.5:
            return AddressRef(label=rng.choice(labels + ["missing"] * (rng.random() < 0.05)))
        return AddressRef(index=bound(n + 1))

    lines = []
    for i in range(n):
        opcode = rng.choice(sorted(OPS))
        kind = OPS[opcode].kind
        if kind == "nop":
            ops = ()
        elif kind == "jump":
            ops = (target(),)
        elif kind == "branch":
            ops = (source(), source(), target())
        elif kind == "unary":
            ops = (location(), source())
        else:
            ops = (location(), source(), source(opcode in ("lsl", "lsr")))
        label = labels[i] if i < len(labels) and rng.random() < 0.5 else None
        lines.append(Line(label, Instruction(opcode, ops)))
    for name in LOCATION_DIRECTIVES:
        if rng.random() < 0.3:  # the last register or cell, or one past it
            past = rng.random() < 0.1
            loc = f"r{n_regs - 1 + past}" if rng.random() < 0.5 else f"@0-{mem_size - 1 + past}"
            lines.append(Line(directive=f"{name} {loc}"))
    return Program(tuple(lines))


def test_resolve_equals_per_operand_reference():
    # 20,000 seeded programs, linked against small and default machines
    rng = random.Random(20)
    invalid = 0
    for _ in range(20_000):
        n_regs, mem_size = rng.choice((1, 4, 32)), rng.choice((8, 16, 1024))
        p = _random_program(rng, n_regs, mem_size)
        want = _resolve_reference(p, n_regs, mem_size)
        try:
            got = resolve(p, n_regs=n_regs, mem_size=mem_size).instructions
        except LinkError as exc:
            got = str(exc)
        assert got == want, p
        invalid += isinstance(want, str)
    assert 2_000 < invalid < 18_000  # both outcomes are well represented
