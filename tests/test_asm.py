"""Front-end tests: parsing, printing, label resolution, dialect adapters."""

import pytest
from hypothesis import given, strategies as st

from dualrail.asm import (
    ADAPTERS,
    AVR_LIKE,
    AddressRef,
    Immediate,
    Instruction,
    LinkError,
    MAX_CELLS,
    OPS,
    MemDirect,
    MemIndirect,
    ParseError,
    Register,
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
