"""Concrete input/output equivalence between a program and its dual-rail
transform.

Sensitive inputs are enumerated exhaustively when there are at most
EXHAUSTIVE_THRESHOLD of them, otherwise sampled with one seeded draw of
all their bits (the sampler cross_validate shares).  Both programs run
on matching (plain vs rail-encoded) initial states, in the same cells,
and the decoded transformed outputs must equal the original ones.  A
transformed output that is not a valid rail encoding is reported as
poison, distinct from a plain mismatch.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import numpy as np

from .asm import LinkedProgram
from .dpl import DplConfig
from .vector_machine import batch_run

EXHAUSTIVE_THRESHOLD = 16


@dataclass(frozen=True)
class DplStateMap:
    """How logical state maps onto the transformed program's state: each
    cell keeps its place and holds its bit in the rail encoding of cfg."""

    cfg: DplConfig


@dataclass
class EquivalenceVerdict:
    checked: int
    failures: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> str:
        return json.dumps(
            {"checked": self.checked, "passed": self.passed, "failures": self.failures},
            indent=2,
        )


def _bits_hex(bits) -> str:
    return hex(sum(int(b) << i for i, b in enumerate(bits)))


def _random_bits(k: int, n: int, seed: int) -> np.ndarray:
    """A seeded (k, n) uint8 matrix of random bits: one draw of k * n bits,
    unpacked least significant first.  Not numpy.random: loading it costs
    about 6 MB, and its generators reject negative seeds."""
    raw = random.Random(seed).getrandbits(k * n).to_bytes((k * n + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(raw, np.uint8), count=k * n, bitorder="little").reshape(k, n)


def _assignments(k: int, n_samples: int, seed: int) -> np.ndarray:
    """(k, runs) bit matrix of the inputs to check: every assignment in
    itertools.product order (first cell most significant) when k is at most
    EXHAUSTIVE_THRESHOLD, else n_samples random ones."""
    if k <= EXHAUSTIVE_THRESHOLD:
        shifts = np.arange(k - 1, -1, -1)[:, None]
        return (np.arange(1 << k) >> shifts & 1).astype(np.uint8)
    return _random_bits(k, n_samples, seed)


def _init_arrays(program: LinkedProgram, cells, columns: np.ndarray, cfg: DplConfig | None = None):
    """Initial (memory, registers) of a batch.  columns: (k, n) bit matrix
    in declared-cell order, stored plain or, under cfg, rail-encoded."""
    n = columns.shape[1]
    mem = np.zeros((program.mem_size, n), dtype=np.uint8)
    regs = np.zeros((program.n_regs, n), dtype=np.uint8)
    for (kind, loc), row in zip(cells, columns):
        target = regs if kind == "reg" else mem
        target[loc] = row if cfg is None else np.where(row, cfg.encode(1), cfg.encode(0))
    return mem, regs


def check(
    original: LinkedProgram,
    transformed: LinkedProgram,
    state_map: DplStateMap,
    n_samples: int = 100,
    seed: int = 0,
) -> EquivalenceVerdict:
    """Compare ;@output cells of both programs over sensitive-input
    assignments; transformed outputs are rail-decoded first."""
    sens = original.source.declared_cells("sensitive")
    if transformed.source.declared_cells("sensitive") != sens:
        raise ValueError("sensitive cell declarations differ between programs")
    outs = original.source.declared_cells("output")
    if transformed.source.declared_cells("output") != outs:
        raise ValueError("output cell declarations differ between programs")
    if not outs:
        raise ValueError("no ;@output cells declared")

    cfg = state_map.cfg
    cols = _assignments(len(sens), n_samples, seed)
    runs = cols.shape[1]

    mem_o, regs_o = _init_arrays(original, sens, cols)
    mem_t, regs_t = _init_arrays(transformed, sens, cols, cfg)

    res_o = batch_run(original, runs, init_memory=mem_o, init_registers=regs_o)
    res_t = batch_run(transformed, runs, init_memory=mem_t, init_registers=regs_t)

    def read(res, cells):
        rows = []
        for kind, loc in cells:
            rows.append(res.registers[loc] if kind == "reg" else res.memory[loc])
        return np.stack(rows)  # (k_out, n)

    # declared outputs are bit lines: only bit 0 of a plain cell is the
    # logical result (`not` complements the whole word, upper bits are
    # unspecified in the bitsliced model)
    expected = read(res_o, outs) & 1
    raw = read(res_t, outs)
    enc0, enc1 = cfg.encode(0), cfg.encode(1)
    poison = (raw != enc0) & (raw != enc1)
    actual = (raw == enc1).astype(np.uint8)

    bad = (poison.any(axis=0)) | (actual != expected).any(axis=0)
    failures = []
    for run_idx in np.nonzero(bad)[0]:
        cell_poison = np.nonzero(poison[:, run_idx])[0]
        failures.append(
            {
                "input": _bits_hex(cols[:, run_idx]),
                "expected": _bits_hex(expected[:, run_idx]),
                "actual": _bits_hex(actual[:, run_idx]),
                "poison_cells": [int(outs[i][1]) for i in cell_poison],
            }
        )
    return EquivalenceVerdict(checked=runs, failures=failures)
