"""Bitsliced PRESENT-80 corpus and reference model.

The corpus program keeps one cipher-state bit per memory cell (at a
configurable bit position, so eight single-bit variants of the same code
can profile each bit line separately).  All key-dependent computation goes
through two-operand logic gates (``and``/``orr``/``xor``) on cells, which
is the class of instructions the dual-rail transformer expands; loops and
counters run on registers with public, input-independent control flow.

Precharge discipline: every ``mov`` that overwrites a cell still holding
live data is preceded by a zero store.  The transformer keeps plain moves
untouched, and a move onto a zeroed cell transfers the same Hamming
distance for either rail encoding, so the transformed corpus stays
balanced without rewriting its data movement.

The independent reference model (`reference_encrypt`) is a plain integer
implementation used to check the corpus and to generate test vectors.
"""
from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .asm import MAX_STEPS, MEM_SIZE, WORD_BITS, LinkedProgram, parse, print_program
from .machine import MachineState, StepLimitExceeded, step

MASK64 = (1 << 64) - 1
MASK80 = (1 << 80) - 1

SBOX = (0xC, 0x5, 0x6, 0xB, 0x9, 0x0, 0xA, 0xD, 0x3, 0xE, 0xF, 0x8, 0x4, 0x7, 0x1, 0x2)

#: bit permutation: output position of state bit i
PERM = tuple(63 if i == 63 else (16 * i) % 63 for i in range(64))

ROUNDS = 31


# -- reference model --------------------------------------------------------


def _sbox_layer(state: int) -> int:
    out = 0
    for n in range(16):
        out |= SBOX[(state >> (4 * n)) & 0xF] << (4 * n)
    return out


def _p_layer(state: int) -> int:
    out = 0
    for i in range(64):
        if (state >> i) & 1:
            out |= 1 << PERM[i]
    return out


def reference_encrypt(plaintext: int, key: int) -> int:
    """Encrypt one 64-bit block under an 80-bit key (plain integer model)."""
    state = plaintext & MASK64
    key &= MASK80
    for rnd in range(1, ROUNDS + 1):
        state = _p_layer(_sbox_layer(state ^ (key >> 16)))
        key = ((key & ((1 << 19) - 1)) << 61) | (key >> 19)
        key = (key & ~(0xF << 76)) | (SBOX[(key >> 76) & 0xF] << 76)
        key ^= rnd << 15
    return state ^ (key >> 16)


def first_round_subkey_nibble(key: int, nibble: int) -> int:
    """The round-1 key nibble mixed into state nibble `nibble`; this is the
    value a first-round S-box attack recovers."""
    return ((key & MASK80) >> (16 + 4 * nibble)) & 0xF


# -- memory map -------------------------------------------------------------

P_IN = 0  # 64 cells: plaintext bits (sensitive input)
K_IN = 64  # 80 cells: key bits (sensitive input)
STATE = 144  # 64 cells: cipher state
KEY = 208  # 80 cells: key register
TMP = 288  # 80 cells: permutation / rotation staging
SBOX_IN = 432  # 4 cells: S-box input x0..x3
SBOX_OUT = 436  # 4 cells: S-box output y0..y3
SBOX_TMP = 440  # 8 cells: S-box intermediates
CNT = 448  # 5 cells: round counter bits
CARRY_A = 453  # ripple-carry scratch
CARRY_B = 454
OUT = 456  # 64 cells: ciphertext bits (declared output)

ROUND_REG = 16  # register: round counter
INDEX_REG = 17  # register: loop index

#: loop-head labels usable as trace-window markers
LABEL_ROUND = "round"
LABEL_ARK = "arkl"
LABEL_SBOX = "sbx"
LABEL_PCOPY = "pcl"
LABEL_KROT = "krl"
LABEL_FIN = "fin"

#: 14-gate S-box circuit on cells; "ONE" marks an immediate all-ones bit.
#: Computes y0..y3 = S(x0..x3) with x bits in SBOX_IN, y bits in SBOX_OUT.
SBOX_GATES = (
    ("xor", SBOX_TMP + 0, SBOX_IN + 1, SBOX_IN + 2),
    ("and", SBOX_TMP + 1, SBOX_IN + 2, SBOX_TMP + 0),
    ("xor", SBOX_TMP + 2, SBOX_IN + 3, SBOX_TMP + 1),
    ("xor", SBOX_OUT + 0, SBOX_IN + 0, SBOX_TMP + 2),
    ("and", SBOX_TMP + 3, SBOX_TMP + 0, SBOX_TMP + 2),
    ("xor", SBOX_TMP + 4, SBOX_TMP + 0, SBOX_OUT + 0),
    ("xor", SBOX_TMP + 5, SBOX_TMP + 3, SBOX_IN + 2),
    ("orr", SBOX_TMP + 6, SBOX_IN + 0, SBOX_TMP + 5),
    ("xor", SBOX_OUT + 1, SBOX_TMP + 4, SBOX_TMP + 6),
    ("xor", SBOX_TMP + 7, SBOX_IN + 0, "ONE"),
    ("xor", SBOX_TMP + 1, SBOX_TMP + 5, SBOX_TMP + 7),
    ("xor", SBOX_OUT + 3, SBOX_OUT + 1, SBOX_TMP + 1),
    ("orr", SBOX_TMP + 3, SBOX_TMP + 1, SBOX_TMP + 4),
    ("xor", SBOX_OUT + 2, SBOX_TMP + 2, SBOX_TMP + 3),
)


def _gate_lines(one: int) -> list[str]:
    lines = []
    for op, d, a, b in SBOX_GATES:
        sb = f"#{one}" if b == "ONE" else f"@{b}"
        lines.append(f"{op} @{d} @{a} {sb}")
    return lines


def present_program(slot: int = 0) -> str:
    """Assembly source for one full PRESENT-80 encryption, bitsliced at bit
    position `slot` (cells carry ``bit << slot``)."""
    if not 0 <= slot < WORD_BITS:
        raise ValueError(f"slot must be a bit position within the {WORD_BITS}-bit word")
    one = 1 << slot
    L: list[str] = [
        f";@sensitive @{P_IN}-{P_IN + 63}",
        f";@sensitive @{K_IN}-{K_IN + 79}",
        f";@output @{OUT}-{OUT + 63}",
    ]
    A = L.append

    # load inputs into working cells (first write to each cell: no precharge)
    for j in range(64):
        A(f"mov @{STATE + j} @{P_IN + j}")
    for j in range(80):
        A(f"mov @{KEY + j} @{K_IN + j}")
    # round counter cells start at zero via gates so they carry the slot bit
    for j in range(5):
        A(f"and @{CNT + j} #0 #0")
    A(f"mov r{ROUND_REG} #0")

    # add round key: state[j] ^= key[16+j]
    A(f"{LABEL_ROUND}: mov r{INDEX_REG} #0")
    A(f"{LABEL_ARK}: xor !r{INDEX_REG},{STATE} !r{INDEX_REG},{STATE} !r{INDEX_REG},{KEY + 16}")
    A(f"add r{INDEX_REG} r{INDEX_REG} #1")
    A(f"bne r{INDEX_REG} #64 {LABEL_ARK}")
    A(f"beq r{ROUND_REG} #{ROUNDS} {LABEL_FIN}")

    # S-box layer, one nibble per iteration
    A(f"mov r{INDEX_REG} #0")
    first = True
    for j in range(4):
        head = f"{LABEL_SBOX}: " if first else ""
        first = False
        A(f"{head}mov @{SBOX_IN + j} #0")
        A(f"mov @{SBOX_IN + j} !r{INDEX_REG},{STATE + j}")
    L.extend(_gate_lines(one))
    for j in range(4):
        A(f"mov !r{INDEX_REG},{STATE + j} #0")
        A(f"mov !r{INDEX_REG},{STATE + j} @{SBOX_OUT + j}")
    A(f"add r{INDEX_REG} r{INDEX_REG} #4")
    A(f"bne r{INDEX_REG} #64 {LABEL_SBOX}")

    # bit permutation: scatter into staging cells, then copy back
    for i in range(64):
        d = TMP + PERM[i]
        A(f"mov @{d} #0")
        A(f"mov @{d} @{STATE + i}")
    A(f"mov r{INDEX_REG} #0")
    A(f"{LABEL_PCOPY}: mov !r{INDEX_REG},{STATE} #0")
    A(f"mov !r{INDEX_REG},{STATE} !r{INDEX_REG},{TMP}")
    A(f"add r{INDEX_REG} r{INDEX_REG} #1")
    A(f"bne r{INDEX_REG} #64 {LABEL_PCOPY}")

    # key rotation: new key[p] = key[(p + 19) mod 80], staged through TMP
    A(f"mov r{INDEX_REG} #0")
    A(f"{LABEL_KROT}: mov !r{INDEX_REG},{TMP} #0")
    A(f"mov !r{INDEX_REG},{TMP} !r{INDEX_REG},{KEY + 19}")
    A(f"add r{INDEX_REG} r{INDEX_REG} #1")
    A(f"bne r{INDEX_REG} #61 {LABEL_KROT}")
    for p in range(61, 80):
        A(f"mov @{TMP + p} #0")
        A(f"mov @{TMP + p} @{KEY + p - 61}")
    for p in range(80):
        A(f"mov @{KEY + p} #0")
        A(f"mov @{KEY + p} @{TMP + p}")

    # S-box on the top key nibble (key bits 76..79)
    for j in range(4):
        A(f"mov @{SBOX_IN + j} #0")
        A(f"mov @{SBOX_IN + j} @{KEY + 76 + j}")
    L.extend(_gate_lines(one))
    for j in range(4):
        A(f"mov @{KEY + 76 + j} #0")
        A(f"mov @{KEY + 76 + j} @{SBOX_OUT + j}")

    # round counter += 1 (ripple carry through two scratch cells)
    A(f"orr @{CARRY_A} #{one} #{one}")
    carries = (CARRY_A, CARRY_B)
    for j in range(4):
        cin, cout = carries[j % 2], carries[(j + 1) % 2]
        A(f"and @{cout} @{CNT + j} @{cin}")
        A(f"xor @{CNT + j} @{CNT + j} @{cin}")
    A(f"xor @{CNT + 4} @{CNT + 4} @{CARRY_A}")
    # key[15..19] ^= counter
    for j in range(5):
        A(f"xor @{KEY + 15 + j} @{KEY + 15 + j} @{CNT + j}")
    A(f"add r{ROUND_REG} r{ROUND_REG} #1")
    A(f"jmp {LABEL_ROUND}")

    # copy state to the output cells (first and only write: no precharge)
    first = True
    for j in range(64):
        head = f"{LABEL_FIN}: " if first else ""
        first = False
        A(f"{head}mov @{OUT + j} @{STATE + j}")
    return "\n".join(L) + "\n"


# -- batch input/output packing ---------------------------------------------


def _bit_matrix(values, n_bits: int, what: str) -> np.ndarray:
    """(n_bits, n) 0/1 matrix of the little-endian bits of each value, read
    64 bits at a time: an unsigned array as it is, ints as 64-bit words.
    Raises ValueError for an int outside [0, 2**n_bits), naming it `what`."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "u" and n_bits <= 64:
        words = np.asarray(values, dtype=np.uint64)[None, :]
    else:
        ints = [int(v) for v in values]
        limit = 1 << n_bits
        bad = [v for v in ints if not 0 <= v < limit]
        if bad:
            raise ValueError(f"{what} {bad[0]:#x} is outside [0, 2**{n_bits})")
        words = np.array([[(v >> lo) & MASK64 for v in ints] for lo in range(0, n_bits, 64)], dtype=np.uint64)
    shifts = np.arange(64, dtype=np.uint64)[:, None]
    bits = (words[:, None, :] >> shifts) & np.uint64(1)
    return bits.reshape(-1, words.shape[1])[:n_bits].astype(np.uint8)


def corpus_init(
    plaintexts,
    keys,
    *,
    slot: int = 0,
    cfg=None,
    mem_size: int = MEM_SIZE,
) -> np.ndarray:
    """Initial memory matrix (mem_size, n_runs) for a batch of encryptions.

    `keys` may be a single integer (fixed key for the whole batch) or one
    key per run.  With a dual-rail `cfg`, input bits are rail-encoded;
    otherwise they are placed at bit position `slot`.  Raises ValueError
    for a key outside [0, 2**80) or a plaintext outside [0, 2**64).
    """
    pts = plaintexts if isinstance(plaintexts, np.ndarray) else list(plaintexts)
    n = len(pts)
    mem = np.zeros((mem_size, n), dtype=np.uint8)
    pbits = _bit_matrix(pts, 64, "plaintext")
    if isinstance(keys, int):
        kbits = _bit_matrix([keys], 80, "key")  # one column, broadcast to every run
    else:
        ks = list(keys)
        if len(ks) != n:
            raise ValueError("need one key per plaintext (or a single fixed key)")
        kbits = _bit_matrix(ks, 80, "key")
    for base, bits in ((P_IN, pbits), (K_IN, kbits)):
        rows = mem[base : base + len(bits)]
        if cfg is None:
            rows[...] = bits << slot
        else:
            # bit b is rail-encoded as e0 ^ b * (e0 ^ e1), in uint8 throughout
            e0 = cfg.encode(0)
            np.multiply(bits, np.uint8(e0 ^ cfg.encode(1)), out=rows)
            rows ^= np.uint8(e0)
    return mem


def read_ciphertexts(memory: np.ndarray, *, slot: int = 0, cfg=None) -> np.ndarray:
    """Pack the output cells of a (mem_size, n_runs) memory into uint64s."""
    block = memory[OUT : OUT + 64]
    if cfg is None:
        bits = (block >> slot) & 1
    else:
        e1 = cfg.encode(1)
        bits = (block == e1).astype(np.uint8)
    weights = np.uint64(1) << np.arange(64, dtype=np.uint64)
    return (bits.astype(np.uint64) * weights[:, None]).sum(axis=0, dtype=np.uint64)


# -- trace-window location --------------------------------------------------


def loop_iteration_window(linked: LinkedProgram, label: str) -> tuple[int, int]:
    """Cycle window [start, stop) spanning the first iteration of the loop
    whose head carries `label`: the first arrival at the label up to the
    second.  Control flow is input-independent, so the window is valid for
    every run.  Raises KeyError for an unknown label, ValueError when the
    program halts before the second arrival and StepLimitExceeded when
    MAX_STEPS cycles pass without it."""
    if label not in linked.source.label_table:
        raise KeyError(f"no label {label!r} in program")
    idx = linked.source.label_table[label]
    state = MachineState.fresh(linked.n_regs, linked.mem_size)
    hits: list[int] = []
    n = len(linked.instructions)
    while state.pc < n and state.cycle < MAX_STEPS:
        if state.pc == idx:
            hits.append(state.cycle)
            if len(hits) == 2:
                return hits[0], hits[1]
        step(state, linked)
    reached = f"label {label!r} reached {len(hits)} time(s)"
    if state.pc < n:
        raise StepLimitExceeded(f"{reached} in the step limit of {MAX_STEPS}; need 2 arrivals")
    raise ValueError(f"{reached}; need 2 arrivals for a full iteration")


# -- test vectors -----------------------------------------------------------

_CORNERS = ((0, 0), (0, MASK80), (MASK64, 0), (MASK64, MASK80))


def make_test_vectors() -> list[tuple[int, int, int]]:
    import random

    rng = random.Random(7)
    vecs = [(p, k, reference_encrypt(p, k)) for p, k in _CORNERS]
    for _ in range(20):
        p, k = rng.getrandbits(64), rng.getrandbits(80)
        vecs.append((p, k, reference_encrypt(p, k)))
    return vecs


def write_test_vectors(path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["plaintext", "key", "ciphertext"])
        for p, k, c in make_test_vectors():
            w.writerow([f"{p:016X}", f"{k:020X}", f"{c:016X}"])


def load_test_vectors(path) -> list[tuple[int, int, int]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [(int(p, 16), int(k, 16), int(c, 16)) for p, k, c in rows[1:]]


def write_corpus_files(directory, cfg=None) -> dict[str, Path]:
    """Materialise the corpus tree: plain source, transformed source, and
    reference test vectors."""
    from .dpl import DplConfig, transform

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    cfg = cfg if cfg is not None else DplConfig(lut_base=768)
    src = present_program(0)
    paths = {
        "asm": directory / "present80.asm",
        "dpl": directory / "present80_dpl.asm",
        "vectors": directory / "test_vectors.csv",
    }
    paths["asm"].write_text(src)
    out, _report = transform(parse(src), cfg)
    paths["dpl"].write_text(print_program(out))
    write_test_vectors(paths["vectors"])
    return paths
