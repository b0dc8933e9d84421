"""Front-end scaling tests: Program views are built once, transform computes
each of them a bounded number of times whatever the program length, and the
output of transform and resolve is pinned by a golden hash."""

import hashlib
import random
from collections import Counter
from functools import cached_property

import pytest

from dualrail.asm import MEM_SIZE, Program, parse, print_program, resolve
from dualrail.dpl import DplConfig, place_tables, transform
from dualrail.present import present_program

from conftest import netlist_generator

#: registers the generated programs may use: r0 is the DPL zero register and
#: r20-r22 are the macro scratch registers
_REGS = [i for i in range(1, 32) if i not in (20, 21, 22)]


def golden_source(n: int = 600, seed: int = 2015) -> str:
    """A seeded loop-free program of n instructions over cells @0-63.

    It mixes logical gates on registers, cells and bit immediates, ``not``,
    moves, shifts, add/mul, ``;@public`` tags (inline and standalone),
    labels, and forward branches to labels and to absolute ``#N`` indices.
    """
    rng = random.Random(seed)

    def reg():
        return f"r{rng.choice(_REGS)}"

    def val():
        roll = rng.random()
        if roll < 0.6:
            return reg()
        if roll < 0.9:
            return f"@{rng.randrange(64)}"
        return f"#{rng.randrange(2)}"

    labels = {i: f"L{i}" for i in sorted(rng.sample(range(1, n), n // 20))}
    lines = [";@sensitive @0-15 r1", ";@output @32-47"]
    for i in range(n):
        roll = rng.random()
        if roll < 0.45:
            op = rng.choice(("and", "orr", "xor"))
            dest = reg() if rng.random() < 0.7 else f"@{rng.randrange(16, 64)}"
            text = f"{op} {dest} {val()} {val()}"
        elif roll < 0.55:
            text = f"not {reg()} {val()}"
        elif roll < 0.65:
            text = f"mov {reg()} {val()}"
        elif roll < 0.7:
            text = f"mov @{rng.randrange(16, 64)} {reg()}"
        elif roll < 0.75:
            text = f"{rng.choice(('lsl', 'lsr'))} {reg()} {reg()} #{rng.randrange(9)}"
        elif roll < 0.8:
            text = f"{rng.choice(('add', 'mul'))} {reg()} {reg()} #{rng.randrange(256)}"
        elif roll < 0.85:
            text = f"mov {reg()} !r{rng.choice(_REGS)},{rng.randrange(64)}"
        elif roll < 0.9:
            target = rng.randrange(i + 1, n + 1)
            text = f"{rng.choice(('beq', 'bne'))} {reg()} {val()} #{target}"
        elif roll < 0.93:
            ahead = [j for j in labels if j > i]
            text = f"bne {reg()} {reg()} {labels[rng.choice(ahead)]}" if ahead else "nop"
        elif roll < 0.95:
            text = f"jmp #{rng.randrange(i + 1, n + 1)}"
        else:
            text = "nop"
        if i in labels:
            text = f"{labels[i]}: {text}"
        tag = rng.random()
        if tag < 0.08:
            text += " ;@public"
        elif tag < 0.1:
            lines.append(";@public")
        lines.append(text)
    lines.append("halt_here: nop ;@output r1")
    return "\n".join(lines) + "\n"


VIEWS = ("instructions", "label_table", "directives")


@pytest.mark.parametrize("view", VIEWS)
def test_views_are_built_once(view):
    p = parse(golden_source(50))
    assert getattr(p, view) is getattr(p, view)


def test_cached_views_leave_equality_alone():
    p, q = parse(golden_source(50)), parse(golden_source(50))
    for view in VIEWS:
        getattr(p, view)
    assert p == q and hash(p) == hash(q)


@pytest.fixture()
def view_builds(monkeypatch):
    """Count how often each Program view is computed, over all programs."""
    counts = Counter()
    for view in VIEWS:
        build = vars(Program)[view].func

        def counted(self, build=build, view=view):
            counts[view] += 1
            return build(self)

        prop = cached_property(counted)
        prop.__set_name__(Program, view)
        monkeypatch.setattr(Program, view, prop)
    return counts


def test_front_end_builds_views_a_bounded_number_of_times(view_builds):
    """A view rebuilt per instruction would scale with the program; parse,
    transform and resolve together must build each one at most once per
    Program, whatever its length."""
    seen = []
    for n in (40, 400):
        view_builds.clear()
        out, _ = transform(parse(golden_source(n)), DplConfig(lut_base=768))
        resolve(out)
        seen.append(dict(view_builds))
        assert all(count <= 2 for count in view_builds.values()), view_builds
    assert seen[0] == seen[1]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_program_is_well_formed():
    p = parse(golden_source())
    assert len(p.instructions) == 601
    tags = [t for tags in p.directives.values() for t in tags]
    assert tags.count("public") > 20
    assert any(str(i).startswith("not") for i in p.instructions)


def test_transform_and_resolve_golden():
    """Values recorded before the front end was made linear: the rewrite
    must stay byte for byte what it was."""
    p = parse(golden_source())
    out, report = transform(p, DplConfig(lut_base=768))
    linked = resolve(out)
    assert _sha(print_program(out)) == GOLDEN_PRINT
    assert _sha(repr(linked.instructions)) == GOLDEN_RESOLVED
    assert _sha(report.to_json()) == GOLDEN_REPORT
    assert _sha(repr(resolve(p).instructions)) == GOLDEN_SOURCE_RESOLVED


GOLDEN_PRINT = "9cc2dcb3b49fda39f35b8299e78b74ca644ee1da76b1bfefe26cfc5840cefc82"
GOLDEN_RESOLVED = "e22cd54b8b45d965ed500e193b588c7c57687f13758856883a3a6ac099de004b"
GOLDEN_REPORT = "8220b01e871cb02f1b07aa7efc6b600afdf674a6558da2abe1f3909c1a20c187"
GOLDEN_SOURCE_RESOLVED = "8affc0ea8e40a7b35eb049ce5ff5f54a9a52c8b0f34b4cc3b4803d05b24bf635"


def _present_placed(cfg):
    """cfg with the tables placed for PRESENT, as ``dualrail -d`` without -la."""
    return place_tables(parse(present_program(0)), cfg, MEM_SIZE)


@pytest.mark.parametrize("source, cfg, pin", [
    pytest.param(lambda: present_program(0), lambda: DplConfig(lut_base=768),
                 "eb3e9a671fb4f124b24c18e4c34f89662270c3907b99773e3ba6bb3b0f9cbcd5", id="present"),
    pytest.param(lambda: present_program(0), lambda: _present_placed(DplConfig(bit_f=2, bit_t=1, compact=True)),
                 "ddd04df8d879c23a55f824e37b21504bd8ec72ce1e9221285bdc324e53de102d", id="present-bf2-bt1-cl"),
    pytest.param(lambda: netlist_generator()(1, gates=250), lambda: DplConfig(lut_base=768),
                 "97b88c94fcdc3b2e8a13e4c0369e8b2993655ff4ae686639146c81f745eacf4d", id="netlist-250"),
    pytest.param(lambda: netlist_generator()(1, gates=4000), lambda: DplConfig(lut_base=768),
                 "3734ccd35935f2cd10e648558fddaeea3c4ce904f409411c739dd2f5e4a1a397", id="netlist-4000"),
])
def test_transform_output_pinned(source, cfg, pin):
    """Values recorded before the table specs, the macros' own reserved
    register checks and the whole-output branch remap were removed: the
    printed rewrite must stay byte for byte what it was."""
    out, _ = transform(parse(source()), cfg())
    assert _sha(print_program(out)) == pin
