"""The one instruction-set table, run three ways: on generated straight-line
programs over every non-branch opcode in asm.OPS, the scalar machine and
the batch engine agree exactly, and every concrete leakage observation lies
in the verifier's sets for its instruction, also with the program as the
body of a counted loop."""

from collections import Counter, defaultdict
from itertools import product
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from dualrail.asm import OPS, WORD_BITS, parse, resolve
from dualrail.machine import MachineState, cycle_leakage, run
from dualrail.vector_machine import batch_run
from dualrail.verifier import Verifier, symbolic_init, verify

LANES = 6
#: r1 is the index register: read but never written, so indirect stores
#: through it stay at one address for the verifier (r1 = 0 there)
DEST_REGS = range(2, 8)
CELLS = range(100, 108)

_reg = st.sampled_from([f"r{i}" for i in (1, *DEST_REGS)])
_direct = st.sampled_from([f"@{a}" for a in CELLS])
#: the constant addresses !#N,off parse as the cells @N+off
_indirect = st.one_of(
    st.sampled_from([f"!r1,{a}" for a in CELLS]),
    st.tuples(st.integers(0, 7), st.sampled_from(CELLS)).map(lambda t: f"!#{t[0]},{t[1]}"),
)
_dest = st.one_of(st.sampled_from([f"r{i}" for i in DEST_REGS]), _direct, _indirect)


def _source(imm_max):
    return st.one_of(_reg, _direct, _indirect, st.integers(0, imm_max).map(lambda v: f"#{v}"))


@st.composite
def _instruction(draw, index):
    op = draw(st.sampled_from(sorted(o for o, s in OPS.items() if s.kind != "branch")))
    kind = OPS[op].kind
    if kind == "nop":
        return op
    if kind == "jump":
        return f"{op} #{index + 1}"
    srcs = [draw(_source(255)) for _ in range(OPS[op].arity - 1)]
    if op in ("lsl", "lsr"):
        srcs[-1] = draw(_source(8))  # an immediate shift count is bounded by the width
    return " ".join([op, draw(_dest), *srcs])


@st.composite
def _body(draw):
    n = draw(st.integers(1, 10))
    body = [draw(_instruction(i)) for i in range(n)]
    sensitive = draw(
        st.lists(st.sampled_from([f"r{i}" for i in DEST_REGS] + [f"@{a}" for a in CELLS]),
                 min_size=1, max_size=3, unique=True)
    )
    return body, sensitive


def _link(body, sensitive):
    text = "".join(f";@sensitive {loc}\n" for loc in sensitive) + "".join(f"{i}\n" for i in body)
    return resolve(parse(text)), sensitive


def _program():
    return _body().map(lambda b: _link(*b))


@settings(max_examples=100, deadline=None)
@given(_program(), st.integers(0, 2**32 - 1), st.booleans(), st.sets(st.sampled_from(DEST_REGS)))
def test_scalar_and_batch_engines_agree(prog, seed, uniform_index, uniform_regs):
    """Registers drawn per lane, except the index register r1 when
    uniform_index and the uniform_regs, which hold one value in every lane:
    the batch engine runs those as ints, and indexes memory through a
    uniform r1 by row."""
    lp, _ = prog
    rng = np.random.default_rng(seed)
    regs = rng.integers(0, 256, size=(lp.n_regs, LANES), dtype=np.uint8)
    for i in ({1} | uniform_regs) if uniform_index else uniform_regs:
        regs[i] = regs[i, 0]
    mem = rng.integers(0, 256, size=(lp.mem_size, LANES), dtype=np.uint8)
    weights = tuple(rng.uniform(0.5, 2.0, size=WORD_BITS))
    res = batch_run(lp, LANES, init_memory=mem, init_registers=regs, weights=weights, include_bus=True)
    for j in range(LANES):
        init = MachineState([int(v) for v in regs[:, j]], [int(v) for v in mem[:, j]])
        scalar = run(lp, init)
        assert res.cycles == scalar.instruction_count
        assert list(res.registers[:, j]) == scalar.final_state.registers
        assert list(res.memory[:, j]) == scalar.final_state.memory
        leak = cycle_leakage(scalar.events, weights, include_bus=True, n_cycles=res.cycles)
        assert np.allclose(res.leakage[:, j], leak, rtol=1e-5)


def _check_observations(lp, sensitive, instruction_of_cycle):
    """Over all assignments of the sensitive bits, an observation that
    varies is flagged, and its finding's hd/hw sets hold every value seen."""
    rep = verify(lp, cap=256)
    assert rep.verdict != "inconclusive"
    findings = {(f.index, f.kind, f.location): f for f in rep.findings}
    observed = defaultdict(list)  # (cycle, kind, location, n-th) -> [(hd, hw)]
    for bits in product((0, 1), repeat=len(sensitive)):
        init = MachineState.fresh(lp.n_regs, lp.mem_size)
        for loc, bit in zip(sensitive, bits):
            if loc.startswith("r"):
                init.registers[int(loc[1:])] = bit
            else:
                init.memory[int(loc[1:])] = bit
        seen = Counter()
        for e in run(lp, init).events:
            key = (e.cycle, e.kind, e.location)
            observed[(*key, seen[key])].append((e.hd, e.hw))
            seen[key] += 1
    for (cycle, kind, location, _), obs in observed.items():
        if len(set(obs)) > 1:
            f = findings[(instruction_of_cycle(cycle), kind, location)]
            assert all(hd in f.hd_set and hw in f.hw_set for hd, hw in obs)
    return rep


@settings(max_examples=100, deadline=None)
@given(_program())
def test_concrete_observations_lie_in_verifier_sets(prog):
    # straight-line code: the cycle is the instruction index
    _check_observations(*prog, lambda cycle: cycle)


@settings(max_examples=50, deadline=None)
@given(_body(), st.integers(2, 3))
def test_concrete_observations_lie_in_verifier_sets_of_a_loop(prog, passes):
    """The same property with the body in a public counted loop, whose
    later passes replay memoised steps and blocks; the report also equals
    that of stepping every instruction cold (no pc or block ever gets a key
    reader), and so does the final state."""
    body, sensitive = prog
    # r8 is the loop counter: no generated instruction touches it
    looped = [f"top: {body[0]}", *body[1:], "add r8 r8 #1 ;@public", f"bne r8 #{passes} top"]
    lp, _ = _link(looped, sensitive)
    rep = _check_observations(lp, sensitive, lambda cycle: cycle % len(looped))
    memo, cold = symbolic_init(lp), symbolic_init(lp)
    verify(lp, init=memo, cap=256)
    with mock.patch.object(Verifier, "_key_reader", lambda self, start, stop: None):
        assert verify(lp, init=cold, cap=256).to_json() == rep.to_json()
    assert (memo.registers, memo.memory) == (cold.registers, cold.memory)
