"""Functional equivalence tests between plain programs and their dual-rail
versions."""

import json

import pytest

from dualrail.asm import parse, resolve
from dualrail.dpl import DplConfig, transform
from dualrail.equivalence import DplStateMap, check

CANON = DplConfig()

GATE = ";@sensitive @100\n;@sensitive @101\n;@output @102\n{op} @102 @100 @101\n"


def _pair(src, cfg=CANON):
    orig = parse(src)
    trans, _ = transform(orig, cfg)
    return resolve(orig), resolve(trans)


@pytest.mark.parametrize("op", ["and", "orr", "xor"])
def test_single_gate_exhaustive(op):
    orig, trans = _pair(GATE.format(op=op))
    verdict = check(orig, trans, DplStateMap(CANON))
    assert verdict.passed
    assert verdict.checked == 4  # exhaustive over two sensitive bits


def test_gate_with_not():
    src = ";@sensitive @100\n;@output @102\nnot @102 @100\n"
    orig, trans = _pair(src)
    verdict = check(orig, trans, DplStateMap(CANON))
    assert verdict.passed and verdict.checked == 2


def test_small_circuit_alternate_layout():
    cfg = DplConfig(bit_f=2, bit_t=1, lut_base=512)
    src = (
        ";@sensitive @100\n;@sensitive @101\n;@sensitive @103\n"
        ";@output @102\n"
        "xor r4 @100 @101\n"
        "and r5 r4 @103\n"
        "orr @102 r5 @100\n"
    )
    orig, trans = _pair(src, cfg)
    verdict = check(orig, trans, DplStateMap(cfg))
    assert verdict.passed and verdict.checked == 8


def test_mismatch_detected():
    """Sabotage: swap the transformed and-table for the orr-table."""
    src = GATE.format(op="and")
    orig = parse(src)
    trans, _ = transform(orig, CANON)
    sabotaged = parse(print_src := __import__("dualrail.asm", fromlist=["print_program"]).print_program(trans))
    # retarget the macro's indexed load from the and-table (0) to orr (16)
    lines = print_src.splitlines()
    lines = [ln.replace("!r20", "!r20,16") if ln.strip().startswith("mov r22 !r20") else ln for ln in lines]
    sabotaged = parse("\n".join(lines) + "\n")
    verdict = check(resolve(orig), resolve(sabotaged), DplStateMap(CANON))
    assert not verdict.passed
    assert verdict.failures


def test_poison_output_reported():
    """A transformed program whose output cell never receives a valid rail
    pair is flagged as poisoned, not silently decoded."""
    src = ";@sensitive @100\n;@output @102\nmov @102 #0\nxor r4 @100 #1\n"
    orig = parse(src)
    trans, _ = transform(orig, CANON)
    verdict = check(resolve(orig), resolve(trans), DplStateMap(CANON))
    assert not verdict.passed
    assert all(f["poison_cells"] == [102] for f in verdict.failures)


def test_directive_mismatch_rejected():
    a = resolve(parse(";@sensitive @100\n;@output @102\nmov @102 @100\n"))
    b = resolve(parse(";@sensitive @101\n;@output @102\nmov @102 @101\n"))
    with pytest.raises(ValueError):
        check(a, b, DplStateMap(CANON))


def test_output_mismatch_rejected():
    a = resolve(parse(";@sensitive @100\n;@output @102\nmov @102 @100\n"))
    b = resolve(parse(";@sensitive @100\n;@output @103\nmov @103 @100\n"))
    with pytest.raises(ValueError, match="output cell declarations differ"):
        check(a, b, DplStateMap(CANON))


def test_missing_outputs_rejected():
    a = resolve(parse(";@sensitive @100\nmov r4 @100\n"))
    with pytest.raises(ValueError):
        check(a, a, DplStateMap(CANON))


def test_sampling_above_threshold():
    cells = "".join(f";@sensitive @{100 + i}\n" for i in range(20))
    src = cells + ";@output @90\nxor @90 @100 @101\n"
    orig, trans = _pair(src)
    verdict = check(orig, trans, DplStateMap(CANON), n_samples=40, seed=3)
    assert verdict.passed and verdict.checked == 40


def test_verdict_json():
    orig, trans = _pair(GATE.format(op="xor"))
    verdict = check(orig, trans, DplStateMap(CANON))
    doc = json.loads(verdict.to_json())
    assert doc == {"checked": 4, "passed": True, "failures": []}
