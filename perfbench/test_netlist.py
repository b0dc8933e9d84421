"""Properties of the benchmark's netlist generator.

    PYTHONPATH=src python -m pytest -q perfbench
"""
import pytest

import netlist
from dualrail import DplConfig, DplStateMap, MemDirect, check, parse, resolve, transform, verify

CFG = DplConfig(lut_base=netlist.TABLE_BASE)


@pytest.fixture(scope="module", params=[0, 7])
def built(request):
    src = netlist.generate(request.param, gates=400)
    prog = parse(src)
    dprog, _ = transform(prog, CFG)
    return prog, resolve(prog), resolve(dprog)


def test_same_seed_same_text():
    assert netlist.generate(3, gates=300) == netlist.generate(3, gates=300)
    assert netlist.generate(3, gates=300) != netlist.generate(4, gates=300)


def test_verdicts(built):
    _prog, ls, ld = built
    assert verify(ld, cfg=CFG).verdict == "balanced"
    assert verify(ls).verdict == "leaky"


def test_equivalence(built):
    _prog, ls, ld = built
    verdict = check(ls, ld, DplStateMap(CFG), n_samples=100, seed=1)
    assert verdict.passed, verdict.failures[:3]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cells_stay_below_tables(seed):
    prog = parse(netlist.generate(seed))
    cells = {op.address for inst in prog.instructions for op in inst.operands if isinstance(op, MemDirect)}
    cells |= {loc for name in ("sensitive", "output") for _kind, loc in prog.declared_cells(name)}
    assert max(cells) < netlist.TABLE_BASE
    assert len(prog.instructions) == 4000


def test_rejects_layout_reaching_tables():
    with pytest.raises(ValueError):
        netlist.generate(0, pool=700)
