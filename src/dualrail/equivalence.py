"""Concrete input/output equivalence between a program and its dual-rail
transform.

Sensitive inputs are enumerated exhaustively when few enough, otherwise
sampled; both programs run on matching (plain vs rail-encoded) initial
states and the decoded transformed outputs must equal the original ones.
A transformed output that is not a valid rail encoding is reported as
poison, distinct from a plain mismatch.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .asm import LinkedProgram
from .dpl import DplConfig
from .vector_machine import batch_run

EXHAUSTIVE_THRESHOLD = 16


@dataclass(frozen=True)
class DplStateMap:
    """How logical state maps onto the transformed program's state: the rail
    encoding plus an optional relocation of cells (identity by default)."""

    cfg: DplConfig
    cell_map: dict[int, int] | None = None

    def physical(self, cell: int) -> int:
        if self.cell_map is None:
            return cell
        return self.cell_map.get(cell, cell)


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


def _assignments(k: int, n_samples: int, seed: int, exhaustive_threshold: int):
    if k <= exhaustive_threshold:
        return [tuple(bits) for bits in product((0, 1), repeat=k)]
    rng = random.Random(seed)
    return [tuple(rng.randint(0, 1) for _ in range(k)) for _ in range(n_samples)]


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
    exhaustive_threshold: int = EXHAUSTIVE_THRESHOLD,
) -> EquivalenceVerdict:
    """Compare ;@output cells of both programs over sensitive-input
    assignments; transformed outputs are rail-decoded first."""
    if original.source is None or transformed.source is None:
        raise ValueError("both programs need source-level directives")
    sens = original.source.declared_cells("sensitive")
    if transformed.source.declared_cells("sensitive") != sens:
        raise ValueError("sensitive cell declarations differ between programs")
    outs = original.source.declared_cells("output")
    if transformed.source.declared_cells("output") != outs:
        raise ValueError("output cell declarations differ between programs")
    if not outs:
        raise ValueError("no ;@output cells declared")

    cfg = state_map.cfg
    assigns = _assignments(len(sens), n_samples, seed, exhaustive_threshold)
    cols = np.array(assigns, dtype=np.uint8).T.reshape(len(sens), len(assigns))

    mem_o, regs_o = _init_arrays(original, sens, cols)
    sens_phys = tuple((kind, state_map.physical(loc) if kind == "mem" else loc) for kind, loc in sens)
    mem_t, regs_t = _init_arrays(transformed, sens_phys, cols, cfg)

    res_o = batch_run(original, len(assigns), init_memory=mem_o, init_registers=regs_o)
    res_t = batch_run(transformed, len(assigns), init_memory=mem_t, init_registers=regs_t)

    def read(res, cells):
        rows = []
        for kind, loc in cells:
            rows.append(res.registers[loc] if kind == "reg" else res.memory[loc])
        return np.stack(rows)  # (k_out, n)

    # declared outputs are bit lines: only bit 0 of a plain cell is the
    # logical result (`not` complements the whole word, upper bits are
    # unspecified in the bitsliced model)
    expected = read(res_o, outs) & 1
    outs_phys = tuple((kind, state_map.physical(loc) if kind == "mem" else loc) for kind, loc in outs)
    raw = read(res_t, outs_phys)
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
    return EquivalenceVerdict(checked=len(assigns), failures=failures)
