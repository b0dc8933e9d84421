"""Seeded random straight-line gate netlists for the benchmark.

A netlist is bitsliced assembly: every cell holds one logical bit, every
instruction is an ``and``/``orr``/``xor``/``not`` gate on memory cells and
runs exactly once, so the dual-rail front end (parse, transform, resolve)
carries most of the work and the interpreters little.

Layout (all below the dual-rail tables at 768):

    @0 .. @inputs-1                   declared ``;@sensitive`` input bits
    @POOL .. @POOL+pool-1             reused intermediate cells
    @POOL+pool .. +outputs-1          declared ``;@output`` bits, written once

Every gate reads only cells that already hold a value (an input or an
earlier result), so the transformed program never loads an unencoded zero.
The last ``outputs`` gates write the output cells.
"""
from __future__ import annotations

import random

POOL = 64
TABLE_BASE = 768
OPS = ("and", "orr", "xor", "not")


def generate(seed: int, gates: int = 4000, inputs: int = 64, pool: int = 256, outputs: int = 32) -> str:
    """Assembly text of a random netlist; the same arguments give the same text."""
    out_base = POOL + pool
    if inputs > POOL or out_base + outputs > TABLE_BASE:
        raise ValueError("netlist cells would reach the table region")
    if not 0 < outputs <= gates:
        raise ValueError("need between 1 and `gates` output cells")
    rng = random.Random(seed)
    live = list(range(inputs))
    written = set(live)
    lines = [f";@sensitive @0-{inputs - 1}", f";@output @{out_base}-{out_base + outputs - 1}"]
    for g in range(gates):
        k = g - (gates - outputs)
        dest = out_base + k if k >= 0 else POOL + rng.randrange(pool)
        op = rng.choice(OPS)
        a = rng.choice(live)
        if op == "not":
            lines.append(f"not @{dest} @{a}")
        else:
            lines.append(f"{op} @{dest} @{a} @{rng.choice(live)}")
        if dest not in written:
            written.add(dest)
            live.append(dest)
    return "\n".join(lines) + "\n"
