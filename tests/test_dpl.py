"""Dual-rail transform tests: encoding configs, tables, macro expansion,
and whole-program rewriting."""

import pytest
from hypothesis import given, settings, strategies as st

from dualrail.asm import Immediate, MemDirect, parse, print_program
from dualrail.dpl import (
    DplConfig,
    PROLOGUE_TAG,
    ZERO_REG,
    TransformError,
    gen_luts,
    place_tables,
    rewritten,
    transform,
)
from dualrail.equivalence import DplStateMap, check
from dualrail.machine import run
from dualrail.asm import resolve, Instruction, Register
from dualrail.verifier import cross_validate, verify

CANON = DplConfig()
ALL_OPS = {"and", "orr", "xor"}

#: rail layouts whose packed index field fits the 8-bit index register:
#: adjacent and one-apart pairs, both orientations
ADMISSIBLE = [(f, t) for f in range(8) for t in range(8)
              if f != t and abs(f - t) <= 2
              and min(f, t) + 2 * (abs(f - t) + 1) <= 8]


def _cfg(f, t, **kw):
    return DplConfig(bit_f=f, bit_t=t, **kw)


# -- configuration ----------------------------------------------------------


def test_usable_layout_census():
    # five adjacent and three one-apart unordered pairs keep the packed
    # index inside an 8-bit register; both orientations of each work
    unordered = {tuple(sorted(p)) for p in ADMISSIBLE}
    assert len(unordered) == 8
    assert len(ADMISSIBLE) == 16


def test_high_layouts_rejected():
    # rails {5,6}, {6,7} or {5,7} would push the packed index past bit 7
    for f, t in ((5, 6), (6, 7), (5, 7), (4, 6)):
        with pytest.raises(TransformError):
            _cfg(f, t).validate()


def test_all_layouts_validate():
    # the table index field starts at the lower rail: no layout sets it
    for f, t in ADMISSIBLE:
        _cfg(f, t).validate()


@pytest.mark.parametrize(
    "kw",
    [
        dict(bit_f=1, bit_t=1),  # equal rails
        dict(bit_f=4, bit_t=0),  # span too wide
        dict(bit_f=0, bit_t=-1),  # rail below the word
        dict(bit_f=1, bit_t=0, lut_base=3),  # misaligned base
        dict(bit_f=1, bit_t=0, lut_base=-16),  # negative base, aligned
        dict(bit_f=1, bit_t=0, compact=True),  # compact needs lower rail > 0
        dict(bit_f=1, bit_t=0, scratch=(20, 20, 22)),  # dup scratch
        dict(bit_f=8, bit_t=7),  # outside word
        dict(bit_f=1, bit_t=0, scratch=(-1, 21, 22)),  # negative scratch
        dict(bit_f=1, bit_t=0, scratch=(20, ZERO_REG, 22)),  # scratch on the zero register
    ],
)
def test_invalid_configs(kw):
    with pytest.raises(TransformError):
        DplConfig(**kw).validate()


def test_encoding_canonical():
    assert CANON.encode(1) == 1  # binary 01
    assert CANON.encode(0) == 2  # binary 10


def test_encoding_appc_layout():
    cfg = _cfg(2, 1)
    assert cfg.encode(1) == 2 and cfg.encode(0) == 4
    assert cfg.mask == 6


def test_encode_decode_inverse_all_layouts():
    for f, t in ADMISSIBLE:
        cfg = _cfg(f, t)
        for bit in (0, 1):
            assert cfg.decode(cfg.encode(bit)) == bit
        assert cfg.encode(0) ^ cfg.encode(1) == cfg.mask
        assert bin(cfg.encode(0)).count("1") == 1
        assert bin(cfg.encode(1)).count("1") == 1


def test_decode_rejects_invalid():
    for word in (0, 3, 7, 255):
        with pytest.raises(TransformError):
            CANON.decode(word)


# -- tables -----------------------------------------------------------------


def _cells(cfg, ops):
    """Address -> value of each prologue table store."""
    return {s.operands[0].address: s.operands[1].value for s in gen_luts(cfg, ops)}


def test_lut_entries_canonical():
    cells = _cells(CANON, ALL_OPS)
    at = {op: [cells[CANON.table_base(op) + i] for i in (5, 6, 9, 10)] for op in ALL_OPS}
    # index 0101 -> a=1,b=1; 0110 -> a=1,b=0; 1001 -> a=0,b=1; 1010 -> a=0,b=0
    assert at["and"] == [1, 2, 2, 2]
    assert at["orr"] == [1, 1, 1, 2]
    assert at["xor"] == [2, 1, 1, 2]


def test_lut_poison_is_zero():
    # every stored cell but the valid packed indices of the tables holds 0
    valid = {CANON.table_base(op) + CANON.pack(CANON.encode(a), CANON.encode(b))
             for op in ALL_OPS for a in (0, 1) for b in (0, 1)}
    assert {addr for addr, val in _cells(CANON, ALL_OPS).items() if val} == valid


def test_lut_correct_for_all_layouts():
    f_ = {"and": lambda a, b: a & b, "orr": lambda a, b: a | b, "xor": lambda a, b: a ^ b}
    for f, t in ADMISSIBLE:
        cfg = _cfg(f, t)
        cells = _cells(cfg, ALL_OPS)
        for op in ALL_OPS:
            for a in (0, 1):
                for b in (0, 1):
                    idx = cfg.table_base(op) + cfg.pack(cfg.encode(a), cfg.encode(b))
                    assert cells[idx] == cfg.encode(f_[op](a, b))


def test_lut_region_per_used_op_only():
    # a program using only xor still addresses the fixed xor slot; the
    # prologue must cover that region, not the first one
    assert set(_cells(CANON, {"xor"})) == set(range(32, 48))
    assert CANON.table_base("xor") == 32


def test_lut_spans():
    # the prologue stores every cell of each region the three tables use
    assert len(gen_luts(CANON, ALL_OPS)) == 48
    assert len(gen_luts(_cfg(2, 1), ALL_OPS)) == 96
    assert len(gen_luts(_cfg(2, 1, compact=True), ALL_OPS)) == 64
    assert len(gen_luts(_cfg(2, 0), ALL_OPS)) == 192


def test_compact_interleaves_without_overlap():
    cfg = _cfg(2, 1, compact=True)
    stores = gen_luts(cfg, ALL_OPS)
    assert len(stores) == 64
    addrs = [s.operands[0].address for s in stores]
    assert len(addrs) == len(set(addrs))  # each cell stored exactly once
    # and/orr share region 0 on stride 2; xor sits alone in region 1
    bases = {op: cfg.table_base(op) for op in ALL_OPS}
    assert bases["and"] == 0 and bases["orr"] == 1 and bases["xor"] == 32


def test_alignment_invariant():
    for f, t in ADMISSIBLE:
        cfg = _cfg(f, t, lut_base=1 << (min(f, t) + 2 * (abs(f - t) + 1)))
        cfg.validate()
        field = ((1 << 2 * cfg.span) - 1) << cfg.pattern_lo
        for op in ("and", "orr", "xor"):
            assert cfg.table_base(op) & field == 0


# -- macro expansion --------------------------------------------------------

GOLDEN_MACRO = [
    "mov r1 r0", "mov r1 r4", "and r1 r1 #3", "lsl r1 r1 #1", "lsl r1 r1 #1",
    "mov r2 r0", "mov r2 r5", "and r2 r2 #3", "orr r1 r1 r2", "mov r3 r0",
    "mov r3 !r1", "mov r6 r0", "mov r6 r3",
]


def _body(src, cfg):
    """The instructions transform emits for src after its prologue."""
    out, rep = transform(parse(src), cfg)
    return list(out.instructions[1 + rep.lut_bytes:])


def test_golden_macro_shape():
    # and-table base is 0 under the default config; a zero indexed-load
    # offset prints bare
    out = _body("and r6 r4 r5\n", DplConfig(scratch=(1, 2, 3)))
    assert [str(i) for i in out] == GOLDEN_MACRO


def test_golden_macro_shape_uses_op_table():
    cfg = DplConfig(scratch=(1, 2, 3))
    for op, base in (("and", 0), ("orr", 16), ("xor", 32)):
        out = _body(f"{op} r6 r4 r5\n", cfg)
        assert out[10].operands[1].offset == base


def test_span3_macro_has_one_shift():
    out = _body("and r6 r4 r5\n", _cfg(2, 0, scratch=(1, 2, 3)))
    assert len(out) == 12
    assert sum(1 for i in out if i.opcode == "lsl") == 1
    assert "#5" in str(out[2])  # mask 101b


def test_appc_macro_mask_six():
    out = _body("and r6 r4 r5\n", _cfg(2, 1, scratch=(1, 2, 3)))
    assert len(out) == 13
    assert "#6" in str(out[2])


def test_macro_immediate_operands_encoded():
    out = _body("xor r6 r4 #1\n", CANON)
    loads = [i for i in out if i.opcode == "mov" and isinstance(i.operands[1], Immediate)]
    assert Immediate(CANON.encode(1)) in [i.operands[1] for i in loads]


def test_macro_rejects_scratch_collision():
    cfg = DplConfig(scratch=(1, 2, 3))
    with pytest.raises(TransformError, match=r"reserved register\(s\) \[1\]"):
        transform(parse("and r1 r4 r5\n"), cfg)
    with pytest.raises(TransformError, match=r"reserved register\(s\) \[0\]"):
        transform(parse("and r6 r0 r5\n"), cfg)


def test_macro_executes_and_correctly():
    """Running each op's macro on all four encoded inputs gives the encoded
    truth-table result."""
    f_ = {"and": lambda a, b: a & b, "orr": lambda a, b: a | b, "xor": lambda a, b: a ^ b}
    for op in ("and", "orr", "xor"):
        for a in (0, 1):
            for b in (0, 1):
                src = (
                    f"mov r4 #{CANON.encode(a)}\n"
                    f"mov r5 #{CANON.encode(b)}\n"
                    f"{op} r6 r4 r5\n"
                )
                out, _ = transform(parse(src), CANON)
                res = run(resolve(out))
                got = res.final_state.registers[6]
                assert CANON.decode(got) == f_[op](a, b)


def test_not_rewrite_swaps_rails():
    out, _ = transform(parse("mov r4 #1\nnot r6 r4\n"), CANON)
    res = run(resolve(out))
    assert res.final_state.registers[6] == 2  # encoded 1 -> encoded 0


def test_not_of_literal_folds():
    insts = _body("not r6 #0\n", CANON)
    assert [i.opcode for i in insts] == ["mov", "mov"]
    assert insts[-1].operands[1] == Immediate(CANON.encode(1))


# -- whole-program transform ------------------------------------------------


def test_transform_returns_prologue_plus_body():
    p = parse("mov r9 #0\n")
    out, rep = transform(p, CANON)
    assert rep.expanded_count == 0
    # zero logical ops: prologue is just the zero-register init
    assert len(out.instructions) == 2
    assert out.tagged(0, PROLOGUE_TAG)
    assert rep.lut_bytes == 0


def test_single_gate_instruction_count():
    out, rep = transform(parse("and r6 r4 r5\n"), CANON)
    # 1 zero-reg init + 16 table stores + 13 macro instructions
    assert len(out.instructions) == 1 + 16 + 13
    assert rep.expanded_count == 1


def test_transform_encodes_immediates_and_keeps_labels():
    src = "top: xor r6 r4 #1\nbne r7 #3 top ;@public\n"
    out, rep = transform(parse(src), CANON)
    assert out.label_table["top"] == 17  # first instruction after prologue
    assert rep.expanded_count == 1


def test_transform_remaps_absolute_branch_targets():
    src = "nop\njmp #0\n"
    out, _ = transform(parse(src), CANON)
    jmp = [i for i in out.instructions if i.opcode == "jmp"][0]
    assert jmp.operands[0].index == 1  # prologue shifts the target
    # targets before, at and after a 13-instruction macro, and the halt index
    out, _ = transform(parse("and r6 r4 r5\nbeq r1 r2 #0\nnot r6 r4\njmp #2\nbne r1 r2 #5\n"), CANON)
    start = 1 + 16
    targets = [i.operands[-1].index for i in out.instructions if i.opcode in ("beq", "bne", "jmp")]
    assert targets == [start, start + 13 + 1, start + 13 + 1 + 4 + 1 + 1]
    assert len(out.instructions) == start + 13 + 1 + 4 + 1 + 1


@pytest.mark.parametrize("target", [-1, 2])
def test_transform_rejects_absolute_target_out_of_range(target):
    with pytest.raises(TransformError, match=f"instruction 0: branch target {target} out of range"):
        transform(parse(f"jmp #{target}\n"), CANON)


def test_transform_public_gate_kept():
    out, rep = transform(parse("and r6 r4 r5 ;@public\n"), CANON)
    assert rep.expanded_count == 0 and rep.skipped_count == 1
    assert [i.opcode for i in out.instructions if i.opcode == "and"] == ["and"]


def test_one_rule_decides_what_is_rewritten():
    # ;@public keeps an and and a not; a literal not is rewritten and needs
    # no table.  So only the xor's table is placed, at [32, 48), and base 0
    # stays clear of @5, which the and's table at [0, 16) would cover
    p = parse("and r6 r4 r5 ;@public\nnot r7 r4 ;@public\nnot r8 #1\nxor r9 r4 @5\n")
    assert [rewritten(p, i) for i in range(4)] == [False, False, True, True]
    _, rep = transform(p, CANON)
    assert (rep.expanded_count, rep.skipped_count, rep.lut_bytes) == (2, 2, 16)
    assert place_tables(p, CANON, 1024).lut_base == 0


def test_transform_warns_on_tainted_arithmetic():
    src = ";@sensitive @10\nmov r4 @10\nadd r5 r4 #1\n"
    _, rep = transform(parse(src), CANON)
    assert any("add" in w for w in rep.warnings)


@pytest.mark.parametrize("store, warnings", [
    ("mov !r1,200 r4", ["instruction 1: add reads sensitive data"]),
    ("mov @300 r4", []),
])
def test_indexed_store_taints_every_cell(store, warnings):
    # an indexed store of a sensitive value may land in any cell, so every
    # later memory read is tainted; a direct store taints its own cell only
    _, rep = transform(parse(f";@sensitive r4\n{store}\nadd r2 @50 #1\n"), CANON)
    assert rep.warnings == warnings


def test_transform_rejects_reserved_register_use():
    with pytest.raises(TransformError):
        transform(parse("mov r20 #0\nand r6 r4 r5\n"), CANON)


def test_transform_rejects_table_overlap():
    src = ";@sensitive @34\nxor r6 r4 @34\n"
    with pytest.raises(TransformError):
        transform(parse(src), CANON)  # xor table occupies [32,48)


def test_constant_address_counts_one_cell():
    # !#0,600 is the cell @600, not 256 cells from 600 on that would
    # reach the tables at 768
    cfg = DplConfig(lut_base=768)
    outs = [print_program(transform(parse(f";@sensitive @600\nmov r1 {op}\nand @601 @600 @600\n"), cfg)[0])
            for op in ("!#0,600", "@600")]
    assert outs[0] == outs[1]


def test_transform_rejects_negative_scratch_register():
    # caught by validate, before the program would name r-1
    with pytest.raises(TransformError, match="negative register"):
        transform(parse("and r6 r4 r5\n"), DplConfig(scratch=(-1, 21, 22)))


def test_transform_rejects_tables_an_indexed_store_reaches():
    # mov !r1,10 with r1 = 28 writes cell 38 of the xor table at [32, 48):
    # an indexed operand counts its offset through offset + 255
    src = (
        ";@sensitive @300-301\n;@output @302\n"
        "mov r1 #28\nmov !r1,10 @300\nxor @302 @301 @300\n"
    )
    with pytest.raises(TransformError, match=r"tables \[32,47\] overlap program cells"):
        transform(parse(src), DplConfig(lut_base=0))


def test_place_tables_first_free_aligned_base():
    # the xor table alone: cells [32, 48) above the base
    assert place_tables(parse("xor r6 r4 r5\n"), CANON, 1024).lut_base == 0
    assert place_tables(parse(";@sensitive @34\nxor r6 r4 @34\n"), CANON, 1024).lut_base == 16
    # an indexed operand may reach its offset + 255: [20, 275] is taken
    placed = place_tables(parse("xor r6 r4 !r5,20\n"), CANON, 1024)
    assert placed.lut_base == 256 and placed.lut_base & placed.field_mask == 0
    transform(parse("xor r6 r4 !r5,20\n"), placed)
    with pytest.raises(TransformError, match="no aligned region below 300"):
        place_tables(parse("xor r6 r4 !r5,20\n"), CANON, 300)
    # no expanded gate, no tables: the configuration is kept
    assert place_tables(parse("mov r6 !r5,0\n"), CANON, 16) is CANON


def test_growth_ratio_reported():
    # ratio counts the emitted program including its table prologue
    out, rep = transform(parse("and r6 r4 r5\nmov r9 r6\n"), CANON)
    assert rep.code_growth_ratio == pytest.approx((17 + 13 + 1) / 2)


def test_directives_preserved():
    src = ";@sensitive @100\n;@output @102\nxor @102 @100 #1\n"
    out, _ = transform(parse(src), CANON)
    assert out.declared_cells("sensitive") == (("mem", 100),)
    assert out.declared_cells("output") == (("mem", 102),)


def test_transformed_program_round_trips_through_text():
    src = ";@sensitive @100\nxor @102 @100 #1\n"
    out, _ = transform(parse(src), CANON)
    text = print_program(out)
    again = parse(text)
    assert print_program(again) == text
    assert again.tagged(0, PROLOGUE_TAG)


# -- property: random gate netlists ------------------------------------------


@st.composite
def _netlist(draw):
    """Up to 24 and/orr/xor/not gates over up to 8 sensitive cells from
    @100 on.  A gate reads only cells that already hold a rail-encodable
    value and writes one of eight cells from @120 on; some written cells
    are declared outputs."""
    n_in = draw(st.integers(1, 8))
    live = [100 + i for i in range(n_in)]
    lines = [f";@sensitive @{c}" for c in live]
    written = []
    for _ in range(draw(st.integers(1, 24))):
        op = draw(st.sampled_from(["and", "orr", "xor", "not"]))
        dest = draw(st.integers(120, 127))
        srcs = [draw(st.sampled_from(live)) for _ in range(1 if op == "not" else 2)]
        lines.append(" ".join([op, f"@{dest}", *(f"@{c}" for c in srcs)]))
        if dest not in live:
            live.append(dest)
        written.append(dest)
    outs = draw(st.lists(st.sampled_from(sorted(set(written))), min_size=1, max_size=4, unique=True))
    return "".join(f";@output @{c}\n" for c in outs) + "\n".join(lines) + "\n"


@settings(max_examples=25, deadline=None)
@given(_netlist())
def test_random_netlist_transform_is_balanced_and_equivalent(src):
    orig = parse(src)
    out, _ = transform(orig, CANON)
    linked = resolve(out)
    report = verify(linked, cfg=CANON)
    assert report.verdict == "balanced", report.findings
    assert check(resolve(orig), linked, DplStateMap(CANON)).passed
    # whole-program leakage through the open window end, whose length is
    # rarely a multiple of a recording block
    assert cross_validate(linked, cfg=CANON).passed
