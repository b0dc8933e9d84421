"""Balance verifier tests: set-valued stepping, leak findings, verdicts,
and concrete cross-validation."""

import hashlib
import inspect
import json
from collections import Counter, defaultdict
from contextlib import nullcontext
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dualrail import machine, vector_machine, verifier
from dualrail.asm import MAX_STEPS, OPS, OpSpec, parse, resolve
from dualrail.dpl import DplConfig, transform
from dualrail.machine import MachineState, run
from dualrail.verifier import (
    SensitiveBranchError,
    Verifier,
    VerifierError,
    cross_validate,
    symbolic_init,
    verify,
)
from dualrail.vector_machine import batch_run

from conftest import netlist_generator

CANON = DplConfig()


def _verify_src(src, cfg=None, **kw):
    return verify(resolve(parse(src)), cfg=cfg, **kw)


# -- elementary leak semantics ----------------------------------------------


def test_self_or_leaks():
    # a = a | b with a in {0,1}, b = 1: result is always 1 but the update's
    # Hamming distance depends on the prior value
    src = ";@sensitive r4\nmov r5 #1\norr r4 r4 r5\n"
    rep = _verify_src(src)
    assert rep.verdict == "leaky"
    f = [f for f in rep.findings if f.location == "r4"][0]
    assert f.hd_set == frozenset({0, 1})


def test_precharge_of_rails_is_balanced():
    # overwriting a one-hot rail pair with zero flips exactly one bit
    src = ";@sensitive @100\nmov r4 @100\nmov r4 r0\n"
    rep = _verify_src(src, cfg=CANON)
    assert rep.verdict == "balanced"
    assert rep.findings == []


def test_lut_fetch_on_balanced_index_is_balanced():
    # staged rail-pair index against the and-table: all four addresses have
    # equal weight, fetched values are one-hot
    src = (
        ";@sensitive @100\n;@sensitive @101\n"
        "and r6 @100 @101\n"
    )
    out, _ = transform(parse(src), CANON)
    rep = verify(resolve(out), cfg=CANON)
    assert rep.verdict == "balanced"


def test_unprotected_and_leaks():
    src = ";@sensitive r4\n;@sensitive r5\nand r6 r4 r5\n"
    rep = _verify_src(src)
    assert rep.verdict == "leaky"
    hd = [f for f in rep.findings if f.location == "r6"][0]
    assert len(hd.hd_set) > 1 or len(hd.hw_set) > 1


def test_and_macro_balanced():
    out, _ = transform(parse(";@sensitive r4\n;@sensitive r5\nand r6 r4 r5\n"), CANON)
    rep = verify(resolve(out), cfg=CANON)
    assert rep.verdict == "balanced"
    assert rep.findings == []


def test_self_update_masks_do_not_false_positive():
    # and r1 r1 #3 keeps each one-hot value in place: per-value hd is 0
    src = ";@sensitive r1\nand r1 r1 #3\n"
    lp = resolve(parse(src))
    state = symbolic_init(lp, CANON)
    rep = verify(lp, init=state, cfg=CANON)
    assert rep.verdict == "balanced"


def test_data_bus_hw_leak_detected():
    # storing a value of varying weight leaks on the data bus even when the
    # destination transition count is constant
    src = ";@sensitive r4\nlsl r5 r4 #1\nxor r5 r5 r4\nmov @100 r5\n"
    rep = _verify_src(src)
    assert rep.verdict == "leaky"
    assert any(f.kind in ("data_bus", "mem_update") for f in rep.findings)


def test_sensitive_branch_rejected():
    src = ";@sensitive r4\nbeq r4 #1 end\nmov r5 #1\nend: nop\n"
    with pytest.raises(SensitiveBranchError):
        _verify_src(src)


@pytest.mark.parametrize("branch, cycles", [
    ("beq r4 r4", 2),  # taken in every run
    ("bne r4 r4", 3),  # taken in none
    ("beq r4 #5", 3),  # r4 is 0 or 1: never 5
])
def test_branch_of_one_outcome_is_not_sensitive(branch, cycles):
    lp = resolve(parse(f";@sensitive r4\n{branch} end\nmov r5 #1\nend: nop\n"))
    rep = verify(lp)
    assert (rep.verdict, rep.findings, rep.cycles_verified) == ("balanced", [], cycles)
    regs = np.zeros((lp.n_regs, 2), dtype=np.uint8)
    regs[4] = [0, 1]
    assert batch_run(lp, 2, init_registers=regs).cycles == cycles


def test_branch_on_public_counter_ok():
    src = "top: add r1 r1 #1 ;@public\nbne r1 #3 top\n"
    rep = _verify_src(src)
    assert rep.verdict == "balanced"
    assert rep.cycles_verified == 6


def test_cap_exceeded_is_inconclusive():
    # two symbolic values added into each other in turn blow past the set cap
    src = ";@sensitive r4\n;@sensitive r5\n" + "add r4 r4 r5\nadd r5 r5 r4\n" * 4
    rep = _verify_src(src, cap=16)
    assert rep.verdict == "inconclusive"
    assert rep.reason == "value-set cap 16 exceeded at instruction 5"


def test_step_limit_is_inconclusive():
    rep = _verify_src("top: jmp top\n", max_steps=64)
    assert (rep.verdict, rep.reason) == ("inconclusive", "step limit 64 reached")


def test_one_step_limit_for_every_engine():
    for fn in (machine.run, vector_machine.batch_run, verifier.verify):
        assert inspect.signature(fn).parameters["max_steps"].default == MAX_STEPS
    # a runaway loop at the default limit: a verdict, not a hang
    rep = _verify_src("top: add r1 r1 #1\njmp top\n")
    assert (rep.verdict, rep.reason) == ("inconclusive", f"step limit {MAX_STEPS} reached")


def test_findings_merge_by_instruction():
    # the same leaking instruction revisited in a loop yields one finding
    src = (
        ";@sensitive r4\n"
        "top: orr r4 r4 #1\nadd r1 r1 #1 ;@public\nbne r1 #3 top\n"
    )
    rep = _verify_src(src)
    idxs = [f.index for f in rep.findings if f.location == "r4"]
    assert len(idxs) == len(set(idxs))


def test_prologue_stores_exempt():
    # table initialization writes values of differing weight by design, but
    # every such store is concrete, so it verifies clean with no exemption
    out, _ = transform(parse(";@sensitive r4\n;@sensitive r5\nxor r6 r4 r5\n"), CANON)
    rep = verify(resolve(out), cfg=CANON)
    assert rep.verdict == "balanced"


def test_prologue_tag_does_not_exempt_a_leak():
    # no tag may suppress a finding: the same leaking gate verifies leaky
    # with and without a prologue tag
    for tag in ("", " ;@prologue"):
        rep = _verify_src(f";@sensitive r4\nand r7 r4 #1{tag}\n")
        assert rep.verdict == "leaky"


def test_report_json_shape():
    rep = _verify_src(";@sensitive r4\norr r4 r4 #1\n")
    doc = json.loads(rep.to_json())
    assert doc["verdict"] == "leaky"
    f = doc["findings"][0]
    assert set(f) == {"index", "kind", "location", "hd_set", "hw_set", "witness"}
    assert f["hd_set"] == [0, 1]


# -- symbolic init ----------------------------------------------------------


def test_symbolic_init_plain_and_encoded():
    lp = resolve(parse(";@sensitive @7\n;@sensitive r3\nnop\n"))
    plain = symbolic_init(lp)
    assert plain.memory[7] == frozenset({0, 1})
    assert plain.registers[3] == frozenset({0, 1})
    enc = symbolic_init(lp, CANON)
    assert enc.memory[7] == frozenset({1, 2})


def test_no_sensitive_cells_trivially_balanced():
    rep = _verify_src("mov r1 #5\nmov @9 r1\n")
    assert rep.verdict == "balanced"


# -- soundness against the concrete machine ---------------------------------


def test_cross_validate_balanced_macro():
    out, _ = transform(parse(";@sensitive r4\n;@sensitive r5\nand r6 r4 r5\n"), CANON)
    assert cross_validate(resolve(out), n_pairs=20, seed=1, cfg=CANON).passed


def test_cross_validate_fails_on_leaky_program():
    lp = resolve(parse(";@sensitive r4\nmov @100 r4\n"))
    res = cross_validate(lp, n_pairs=20, seed=1)
    assert not res.passed
    assert res.first_diff_cycle is not None


def test_leak_on_the_address_bus_alone():
    # r1 holds a rail encoding, of one weight either way; the address it
    # indexes does not, and the cell it reads holds 0 either way
    cfg = DplConfig(lut_base=768)
    lp = resolve(parse(";@sensitive @10\nmov r1 @10\nmov r2 !r1,3\n"))
    rep = verify(lp, cfg=cfg)
    assert [(f.index, f.kind, f.location) for f in rep.findings] == [(1, "addr_bus", "abus")]
    xv = cross_validate(lp, n_pairs=20, cfg=cfg)
    assert (xv.passed, xv.first_diff_cycle) == (False, 1)


@pytest.mark.parametrize("n_pairs", [0, -3])
def test_cross_validate_needs_a_pair(n_pairs):
    # with no pair to compare, a leaky program would pass
    lp = resolve(parse(";@sensitive r4\nmov @100 r4\n"))
    assert verify(lp).verdict == "leaky"
    with pytest.raises(ValueError, match="at least one pair"):
        cross_validate(lp, n_pairs=n_pairs)


def test_cross_validate_no_sensitive_cells():
    lp = resolve(parse("mov r1 #3\n"))
    assert cross_validate(lp, n_pairs=5, seed=0).passed


def test_concrete_hd_member_of_symbolic_sets():
    """Every concrete event's hd/hw must fall inside the reported set for
    that instruction (soundness spot check on a leaky program)."""
    src = ";@sensitive r4\norr r4 r4 #1\n"
    lp = resolve(parse(src))
    rep = verify(lp)
    finding = [f for f in rep.findings if f.location == "r4"][0]
    for val in (0, 1):
        st = MachineState.fresh(lp.n_regs, lp.mem_size)
        st.registers[4] = val
        res = run(lp, init=st)
        ev = [e for e in res.events if e.location == "r4"][0]
        assert ev.hd in finding.hd_set
        assert ev.hw in finding.hw_set


@pytest.mark.parametrize("src, leaks", [
    # xor of a value with itself is 0 in every run
    (";@sensitive r5\nxor r6 r5 r5\n", set()),
    # the loads move the input on the data bus; the stored 0 does not leak
    (";@sensitive @100\nxor @101 @100 @100\n", {(0, "data_bus", "dbus")}),
    # r5 clears itself: from 0 or 1 to 0
    (";@sensitive r5\nxor r5 r5 r5\n", {(0, "reg_update", "r5")}),
    # the destination is the second source: every run flips the bits of 3
    (";@sensitive r5\nmov r4 #3\nxor r5 r4 r5\n", {(1, "reg_update", "r5")}),
])
def test_findings_equal_concrete_enumeration(src, leaks):
    """Straight-line programs whose two sources, or a source and the
    destination, are one location: the findings are exactly the events
    whose (hd, hw) varies over every input, with the values seen."""
    lp = resolve(parse(src))
    cells = lp.source.declared_cells("sensitive")
    observed = defaultdict(set)  # (cycle, kind, location, n-th such event) -> {(hd, hw)}
    for bits in product((0, 1), repeat=len(cells)):
        init = MachineState.fresh(lp.n_regs, lp.mem_size)
        for (kind, loc), bit in zip(cells, bits):
            (init.registers if kind == "reg" else init.memory)[loc] = bit
        seen = Counter()
        for e in run(lp, init).events:
            key = (e.cycle, e.kind, e.location)
            observed[(*key, seen[key])].add((e.hd, e.hw))
            seen[key] += 1
    assert {key[:3] for key, obs in observed.items() if len(obs) > 1} == leaks
    rep = verify(lp)
    assert {(f.index, f.kind, f.location) for f in rep.findings} == leaks
    for f in rep.findings:
        obs = set().union(*(obs for key, obs in observed.items() if key[:3] == (f.index, f.kind, f.location)))
        assert (f.hd_set, f.hw_set) == ({hd for hd, _ in obs}, {hw for _, hw in obs})


# -- memoised steps ---------------------------------------------------------


def test_corpus_reports_pinned(linked_unprotected, linked_dpl, canonical_cfg):
    # sha256 of each corpus' report JSON, witnesses included
    pins = (
        (linked_unprotected, None, "613c57ff408a1ef8670a9b466b288bdb5cb1ba6f53f7dbebd74806deeb17eeda"),
        (linked_dpl, canonical_cfg, "82135355835a84f512160ee6bd4e4393e0ebc58db0c5bee66c12a7e47f4546ee"),
    )
    for lp, cfg, pin in pins:
        assert hashlib.sha256(verify(lp, cfg=cfg).to_json().encode()).hexdigest() == pin


def _cold(self, start, stop):
    """A key reader that turns off both memos: no pc or block gets one."""
    return None


def _memo_vs_cold(src, **kw):
    """verify() on src, and again with every step cold (no pc or block ever
    gets a key reader): both must give the same report and final state.
    Returns the memoised run's report, its final state and the number of
    steps it replayed, by the pc memo or the block memo, instead of
    stepping."""
    lp = resolve(parse(src))
    step, stepped = Verifier.sym_step, []

    def counted(self, state):
        findings = step(self, state)
        stepped.append(state.pc)
        return findings

    memo_state = symbolic_init(lp)
    with mock.patch.object(Verifier, "sym_step", counted):
        memo = verify(lp, init=memo_state, **kw)
    cold_state = symbolic_init(lp)
    with mock.patch.object(Verifier, "_key_reader", _cold):
        cold = verify(lp, init=cold_state, **kw)
    assert memo.to_json() == cold.to_json()
    assert (memo_state.registers, memo_state.memory) == (cold_state.registers, cold_state.memory)
    assert (memo_state.pc, memo_state.cycle) == (cold_state.pc, cold_state.cycle)
    assert (cold.stepped, cold.pc_replayed, cold.block_replayed) == (cold.cycles_verified, 0, 0)
    assert memo.stepped == len(stepped)
    assert memo.stepped + memo.pc_replayed + memo.block_replayed == memo.cycles_verified
    return memo, memo_state, memo.pc_replayed + memo.block_replayed


def test_memo_sees_a_register_turn_sensitive_on_a_later_pass():
    # r5 takes r4's set through r8, so the gate reads it sensitive only on
    # the third pass, after the second filled its memo with r5 = {0}
    src = (
        ";@sensitive r4\n"
        "top: orr r6 r5 #0\nmov r5 r8\nmov r8 r4\n"
        "add r1 r1 #1 ;@public\nbne r1 #5 top\n"
    )
    rep, state, replayed = _memo_vs_cold(src)
    assert replayed > 0
    assert (0, "r6") in [(f.index, f.location) for f in rep.findings]
    assert state.registers[6] == frozenset({0, 1})


def test_memo_sees_a_branch_turn_sensitive_on_a_later_pass():
    src = (
        ";@sensitive r4\n"
        "top: mov r7 #1\nbeq r5 #1 skip\nmov r6 #2\nskip: mov r5 r8\nmov r8 r4\n"
        "add r1 r1 #1 ;@public\nbne r1 #5 top\n"
    )
    with pytest.raises(SensitiveBranchError, match="instruction 1:"):
        _verify_src(src)


def test_memo_follows_the_cell_an_indexed_read_reads():
    # the base r3 never changes, but the cell !r3,60 reads turns sensitive
    # on the third pass: the read must miss and leak on the data bus
    src = (
        ";@sensitive @50\n"
        "top: mov r6 !r3,60\nmov r6 #0\nbne r1 #1 skip\nmov @60 @50\n"
        "skip: add r1 r1 #1 ;@public\nbne r1 #5 top\n"
    )
    rep, _, replayed = _memo_vs_cold(src)
    assert replayed > 0
    assert (0, "data_bus", "dbus") in [(f.index, f.kind, f.location) for f in rep.findings]


def test_memo_keys_indexed_cells_by_address():
    # the base set is {0, 1}: the read sees @60 and @61, which swap their
    # contents on every pass, so successive passes read the same two sets
    # from swapped cells
    src = (
        ";@sensitive r3\n"
        "mov @60 #3\n"
        "top: mov r6 !r3,60\nmov r7 @60\nmov @60 @61\nmov @61 r7\n"
        "add r1 r1 #1 ;@public\nbne r1 #6 top\n"
    )
    rep, state, replayed = _memo_vs_cold(src)
    assert replayed > 0
    assert state.registers[6] == frozenset({0, 3})
    assert (state.memory[60], state.memory[61]) == (frozenset({3}), frozenset({0}))
    assert rep.verdict == "leaky"  # the two addresses differ in weight


def test_memo_keeps_cap_and_step_limit_inconclusive():
    # the same reasons and cycle counts as stepping every instruction cold
    cap = (
        ";@sensitive r4\n"
        "top: mov r6 #1\nadd r5 r5 r4\n"
        "add r1 r1 #1 ;@public\nbne r1 #40 top\n"
    )
    rep, _, replayed = _memo_vs_cold(cap, cap=4)
    assert replayed > 0
    assert (rep.verdict, rep.reason, rep.cycles_verified) == (
        "inconclusive",
        "value-set cap 4 exceeded at instruction 1",
        13,
    )
    step = ";@sensitive r4\ntop: mov r6 r4\nxor r7 r7 #1\njmp top\n"
    rep, _, replayed = _memo_vs_cold(step, max_steps=101)
    assert replayed > 0
    assert (rep.verdict, rep.reason, rep.cycles_verified) == ("inconclusive", "step limit 101 reached", 101)


def test_memo_keeps_an_address_past_the_memory_an_error():
    # the indexed read walks 10 cells a pass and leaves memory on the fourth
    src = (
        "top: mov r7 #1\nmov r6 !r3,1000\nadd r3 r3 #10\n"
        "add r1 r1 #1 ;@public\nbne r1 #9 top\n"
    )
    with pytest.raises(VerifierError, match=r"^address 1030 out of range at cycle 16$"):
        _verify_src(src)


def test_dpl_present_replays_whole_blocks(linked_dpl, canonical_cfg):
    # the counts repeat exactly; the block memo replays most loop passes, and
    # the pc memo the steps of the blocks it misses
    rep = verify(linked_dpl, cfg=canonical_cfg)
    assert (rep.stepped, rep.pc_replayed, rep.block_replayed) == (3571, 1495, 163185)
    assert rep.stepped + rep.pc_replayed + rep.block_replayed == rep.cycles_verified == 168251
    assert rep.block_replayed >= 0.8 * rep.cycles_verified


def _same_outcome(lp, patch, cfg=None, **kw):
    """verify() on lp, and again under `patch`: both must give the same
    report (its cycle count included), or the same error, and the same
    final state."""
    outcomes = []
    for context in (nullcontext(), patch):
        state = symbolic_init(lp, cfg)
        with context:
            try:
                out = verify(lp, init=state, cfg=cfg, **kw).to_json()
            except VerifierError as exc:
                out = (type(exc), str(exc))
        outcomes.append((out, state.registers, state.memory, state.pc, state.cycle))
    assert outcomes[0] == outcomes[1]


#: r8 counts the passes and no generated instruction writes it; r7 is an
#: index the body computes; !r1,100 may store to a cell read directly, and
#: !r2,1000 may read or store past the 1,024 cells
_LOOP_REGS = ["r1", "r2", "r3", "r4", "r7"]
_LOOP_CELLS = ["@100", "@101", "@102", "@103"]
_LOOP_INDEXED = ["!r1,100", "!r7,100", "!r7,101", "!r2,1000"]
_LOOP_OPS = sorted(o for o, s in OPS.items() if s.kind in ("unary", "binary"))


@st.composite
def _loop_program(draw):
    """A counted loop whose body computes indexes (so an indexed operand
    through r7 may end a block), stores through indexes that alias direct
    reads and may skip part of itself on a public branch.  The body ends
    in a jmp to the counter's block, so a pass whose body reads the sets of
    an earlier one replays blocks that do not read the counter."""
    sensitive = draw(st.lists(st.sampled_from(_LOOP_REGS + _LOOP_CELLS), min_size=1, max_size=2, unique=True))
    operand = st.one_of(
        st.sampled_from(_LOOP_REGS + _LOOP_CELLS + _LOOP_INDEXED),
        st.integers(0, 255).map(lambda v: f"#{v}"),
    )
    body = []
    for _ in range(draw(st.integers(1, 10))):
        if draw(st.integers(0, 4)) == 0:
            src = draw(st.sampled_from(["r8", *_LOOP_REGS]))
            body.append(f"and r7 {src} #{draw(st.sampled_from([1, 3, 255]))}")
            continue
        op = draw(st.sampled_from(_LOOP_OPS))
        dest = draw(st.sampled_from(_LOOP_REGS + _LOOP_CELLS + _LOOP_INDEXED))
        srcs = [draw(operand) for _ in range(OPS[op].arity - 1)]
        if op in ("lsl", "lsr"):
            srcs[-1] = draw(st.one_of(st.sampled_from(_LOOP_REGS), st.integers(0, 8).map(lambda v: f"#{v}")))
        body.append(" ".join([op, dest, *srcs]))
    branch = draw(st.integers(0, len(body)))
    body.insert(branch, f"beq {draw(st.sampled_from(['r7', 'r8']))} #{draw(st.integers(0, 3))} skip")
    passes = draw(st.integers(2, 10))
    lines = [*body, "jmp next", "next: add r8 r8 #1 ;@public", f"bne r8 #{passes} top"]
    target = draw(st.integers(branch + 1, len(body)))  # at most the jmp
    lines[target] = f"skip: {lines[target]}"
    lines[0] = f"top: {lines[0]}"
    return "".join(f";@sensitive {loc}\n" for loc in sensitive) + "".join(f"{line}\n" for line in lines)


@settings(max_examples=300, deadline=None)
@given(_loop_program(), st.sampled_from([2, 4, 16]), st.one_of(st.just(MAX_STEPS), st.integers(1, 150)))
# r7 takes r2's parity, which repeats every other pass, but @101, which r7
# indexes on odd passes, changes on every pass: the block is cut before the
# read, or its key would hold the cell at r7's entry value instead
@example(";@sensitive r3\ntop: and r7 r2 #1\nmov r4 !r7,100\njmp next\n"
         "next: xor r2 r2 #1\nadd @101 @101 #1\nadd r8 r8 #1 ;@public\nbne r8 #8 top\n", 16, MAX_STEPS)
# a block miss whose steps replay from the pc memo still records their writes
@example(";@sensitive r1\ntop: and r7 r8 #1\nbeq r7 #1 skip\nand r7 r8 #1\nskip: add r1 r1 r1\n"
         "lsl r1 r1 r1\nand r7 r1 #1\nadd r1 r1 r1\njmp next\nnext: add r8 r8 #1 ;@public\nbne r8 #6 top\n",
         2, MAX_STEPS)
# a block that would run past the step limit is stepped up to it instead
@example(";@sensitive r1\ntop: add r1 r1 r1\nbeq r7 #0 skip\nskip: and r7 r8 #1\nand r7 r8 #1\nadd r1 r1 r1\n"
         "add r1 r1 r1\nadd r1 r1 r1\njmp next\nnext: add r8 r8 #1 ;@public\nbne r8 #5 top\n", 2, 41)
def test_memos_do_not_change_a_report(src, cap, max_steps):
    _same_outcome(resolve(parse(src)), mock.patch.object(Verifier, "_key_reader", _cold), cap=cap, max_steps=max_steps)


# -- cached set algebra -----------------------------------------------------


@pytest.mark.parametrize("gates, pin", [
    (250, "89e6ac30bf9c5e81c2b6523ef56c04339dbe945872d606640db215d7da115418"),
    (4000, "89f46317bf7d63094297c06539c291075c65fe59a9a1bc534f2a9612decb795f"),
])
def test_netlist_reports_pinned(gates, pin, canonical_cfg):
    # straight-line DPL code, where no pc is revisited: sha256 of the
    # report JSON of the seed-1 benchmark netlist
    out, _ = transform(parse(netlist_generator()(1, gates=gates)), canonical_cfg)
    rep = verify(resolve(out), cfg=canonical_cfg)
    assert hashlib.sha256(rep.to_json().encode()).hexdigest() == pin


class _Forgetful(dict):
    """A cache that never keeps an entry."""

    def __setitem__(self, key, value):
        pass


def _cached_vs_uncached(lp, cfg=None, **kw):
    """verify() on lp, and again with every set-algebra cache forgetting
    what it is given: both must give the same report, or the same error,
    and the same final state."""
    init = Verifier.__init__

    def forgetful(self, *args):
        init(self, *args)
        for name, cache in vars(self).items():
            if type(cache) is dict:
                setattr(self, name, _Forgetful())

    _same_outcome(lp, mock.patch.object(Verifier, "__init__", forgetful), cfg, **kw)


#: no destination is r1, so a store through it has one address unless r1
#: is sensitive; r2 is written too, so !r2,100 may reach any of 256 cells
_CELLS = [f"@{a}" for a in range(100, 104)]
_REGS = [f"r{i}" for i in range(2, 6)]
_INDEXED = [f"!r1,{a}" for a in (100, 102)] + ["!r2,100"]


@st.composite
def _set_program(draw):
    """A straight-line or counted-loop program over few registers and
    cells, so that destinations alias sources and a source is often read
    twice; r1 or r2 as a base makes an indexed read of several cells."""
    sensitive = draw(st.lists(st.sampled_from(["r1", *_REGS, *_CELLS]), min_size=1, max_size=3, unique=True))
    body = []
    for _ in range(draw(st.integers(1, 12))):
        op = draw(st.sampled_from(sorted(o for o, s in OPS.items() if s.kind in ("unary", "binary"))))
        dest = draw(st.sampled_from(_REGS + _CELLS + _INDEXED))
        pool = st.one_of(
            st.sampled_from(["r1", *_REGS, *_CELLS, *_INDEXED, dest]),
            st.integers(0, 255).map(lambda v: f"#{v}"),
        )
        srcs = [draw(pool) for _ in range(OPS[op].arity - 1)]
        if len(srcs) == 2 and draw(st.booleans()):
            srcs[1] = srcs[0]
        if op in ("lsl", "lsr"):
            srcs[-1] = draw(st.one_of(st.sampled_from(_REGS), st.integers(0, 8).map(lambda v: f"#{v}")))
        body.append(" ".join([op, dest, *srcs]))
    passes = draw(st.integers(1, 3))
    if passes > 1:  # r8 counts the passes: no generated instruction touches it
        body = [f"top: {body[0]}", *body[1:], "add r8 r8 #1 ;@public", f"bne r8 #{passes} top"]
    return "".join(f";@sensitive {loc}\n" for loc in sensitive) + "".join(f"{i}\n" for i in body)


@settings(max_examples=200, deadline=None)
@given(_set_program(), st.sampled_from([2, 4, 16]), st.booleans())
# two reads of one set from two locations are not two reads of one location
@example(";@sensitive r2\nmov r3 r2\nmov r4 r2\nxor r5 r3 r3\nxor r5 r3 r4\n", 16, False)
# {1, 9} built as 1, 9 and as 9, 1: equal sets whose witnesses differ
@example(";@sensitive r2\nlsl r3 r2 #3\norr r4 r3 #1\nxor r5 r3 #9\nmov r6 r5\n", 16, False)
# the same function of the same sets, once into a destination that is a
# source (first, then second): its update pairs each old value with its new
@example(";@sensitive r2\nmov r3 r2\nmov r2 r2\nxor r4 #1 r2\nxor r2 #1 r2\nxor r5 r2 #1\nxor r2 r2 #1\n", 16, False)
def test_set_cache_does_not_change_a_report(src, cap, encoded):
    cfg = CANON if encoded else None
    _cached_vs_uncached(resolve(parse(src)), cap=cap, cfg=cfg)


def test_set_algebra_is_computed_once_per_operand_sets(canonical_cfg):
    # every copy of the gate reads the sets the copy before it read, so
    # only the first copies compute images; later copies reuse them
    calls = Counter()

    def counted(name, fn):
        def f(*args):
            calls[name] += 1
            return fn(*args)
        return f

    patched = {name: OpSpec(spec.kind, counted(name, spec.fn)) for name, spec in OPS.items() if spec.fn}
    counts = []
    for copies in (10, 100):
        out, _ = transform(parse(";@sensitive @0-1\n" + "and @2 @0 @1\n" * copies), canonical_cfg)
        lp = resolve(out)
        calls.clear()
        with mock.patch.dict(verifier.OPS, patched):
            assert verify(lp, cfg=canonical_cfg).verdict == "balanced"
        counts.append(sum(calls.values()))
    assert counts[0] == counts[1]
