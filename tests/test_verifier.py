"""Balance verifier tests: set-valued stepping, leak findings, verdicts,
and concrete cross-validation."""

import json

import pytest

from dualrail.asm import parse, resolve
from dualrail.dpl import DplConfig, transform
from dualrail.verifier import (
    SensitiveBranchError,
    cross_validate,
    symbolic_init,
    verify,
)

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


def test_branch_on_public_counter_ok():
    src = "top: add r1 r1 #1 ;@public\nbne r1 #3 top\n"
    rep = _verify_src(src)
    assert rep.verdict == "balanced"
    assert rep.cycles_verified == 6


def test_cap_exceeded_is_inconclusive():
    # repeated adds on a symbolic value blow past the set cap
    src = ";@sensitive r4\n" + "add r4 r4 r4\n" * 8
    rep = _verify_src(src, cap=16)
    assert rep.verdict == "inconclusive"
    assert "cap" in rep.reason


def test_step_limit_is_inconclusive():
    rep = _verify_src("top: jmp top\n", max_steps=64)
    assert rep.verdict == "inconclusive"


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


def test_cross_validate_no_sensitive_cells():
    lp = resolve(parse("mov r1 #3\n"))
    assert cross_validate(lp, n_pairs=5, seed=0).passed


def test_concrete_hd_member_of_symbolic_sets():
    """Every concrete event's hd/hw must fall inside the reported set for
    that instruction (soundness spot check on a leaky program)."""
    from dualrail.machine import MachineState, run

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
