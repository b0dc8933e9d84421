"""PRESENT-80 reference model and bitsliced corpus tests."""

import csv

import numpy as np
import pytest

from dualrail.asm import parse, print_program, resolve
from dualrail import present
from dualrail.dpl import DplConfig, transform
from dualrail.machine import StepLimitExceeded
from dualrail.present import (
    PERM,
    SBOX,
    SBOX_GATES,
    SBOX_IN,
    SBOX_OUT,
    K_IN,
    P_IN,
    corpus_init,
    first_round_subkey_nibble,
    load_test_vectors,
    loop_iteration_window,
    present_program,
    read_ciphertexts,
    reference_encrypt,
    write_corpus_files,
)
from dualrail.vector_machine import batch_run

# Published PRESENT-80 test vectors (corner plaintext/key combinations).
KATS = [
    (0x0000000000000000, 0x00000000000000000000, 0x5579C1387B228445),
    (0x0000000000000000, 0xFFFFFFFFFFFFFFFFFFFF, 0xE72C46C0F5945049),
    (0xFFFFFFFFFFFFFFFF, 0x00000000000000000000, 0xA112FFC72F68417B),
    (0xFFFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFFFFFF, 0x3333DCD3213210D2),
]


@pytest.mark.parametrize("pt,key,ct", KATS)
def test_reference_known_answers(pt, key, ct):
    assert reference_encrypt(pt, key) == ct


def test_sbox_is_a_permutation():
    assert sorted(SBOX) == list(range(16))


def test_player_has_order_three():
    assert sorted(PERM) == list(range(64))
    p2 = [PERM[PERM[i]] for i in range(64)]
    p3 = [PERM[j] for j in p2]
    assert p3 == list(range(64))
    assert [i for i in range(64) if PERM[i] == i] == [0, 21, 42, 63]


def test_sbox_gate_circuit_matches_table():
    """Evaluate the 14-gate boolean circuit on all 16 inputs."""
    for x in range(16):
        cells = {}
        for j in range(4):
            cells[SBOX_IN + j] = (x >> j) & 1
        for op, d, a, b in SBOX_GATES:
            va = cells[a]
            vb = 1 if b == "ONE" else cells[b]
            cells[d] = {"and": va & vb, "orr": va | vb, "xor": va ^ vb}[op]
        y = sum(cells[SBOX_OUT + j] << j for j in range(4))
        assert y == SBOX[x], f"S({x:X}) gate circuit gave {y:X}"


def test_first_round_subkey_nibble():
    key = 0x133457799BBCDFF1AABB
    k1 = key >> 16  # round-1 subkey = top 64 bits of the 80-bit key
    for n in range(16):
        assert first_round_subkey_nibble(key, n) == (k1 >> (4 * n)) & 0xF


def test_corpus_entries_and_metadata():
    variants = [parse(present_program(s)) for s in range(8)]
    p0 = variants[0]
    assert set(p0.declared_cells("sensitive")) == {("mem", c) for c in range(0, 144)}
    assert set(p0.declared_cells("output")) == {("mem", c) for c in range(456, 520)}
    assert 400 <= len(p0.instructions) <= 900
    assert any(i.opcode in ("and", "orr", "xor") for i in p0.instructions)
    # all slot variants are the same length
    assert len({len(p.instructions) for p in variants}) == 1


def test_control_flow_is_input_independent(unprotected_src):
    """Branch predicates must never read sensitive cells: counters live in
    registers and cells derived only from constants."""
    from dualrail.asm import MemDirect, MemIndirect

    sensitive = {c for (_k, c) in unprotected_src.declared_cells("sensitive")}
    for ins in unprotected_src.instructions:
        if ins.opcode in ("beq", "bne"):
            for op in ins.operands[:-1]:
                assert not isinstance(op, MemIndirect)
                if isinstance(op, MemDirect):
                    assert op.address not in sensitive


def _run_batch(linked, pts, keys, cfg=None, slot=0):
    mem = corpus_init(pts, keys, slot=slot, cfg=cfg, mem_size=linked.mem_size)
    res = batch_run(linked, mem.shape[1], init_memory=mem, max_steps=5_000_000)
    return read_ciphertexts(res.memory, slot=slot, cfg=cfg)


def test_unprotected_corpus_matches_reference(linked_unprotected):
    rng = np.random.default_rng(5)
    pts = [0] + [int(x) for x in rng.integers(0, 1 << 62, 5)]
    key = 0x133457799BBCDFF1AABB
    cts = _run_batch(linked_unprotected, pts, key)
    assert [int(c) for c in cts] == [reference_encrypt(p, key) for p in pts]


def test_slot_variant_matches_reference():
    src = resolve(parse(present_program(5)))
    pts = [0, 0x0123456789ABCDEF]
    key = 0xFFEE0123456789ABCDEF
    cts = _run_batch(src, pts, key, slot=5)
    assert [int(c) for c in cts] == [reference_encrypt(p, key) for p in pts]


def test_dpl_corpus_matches_reference(linked_dpl, canonical_cfg):
    rng = np.random.default_rng(6)
    pts = [int(x) for x in rng.integers(0, 1 << 62, 3)]
    keys = [int(x) << 16 for x in rng.integers(0, 1 << 62, 3)]
    cts = _run_batch(linked_dpl, pts, keys, cfg=canonical_cfg)
    assert [int(c) for c in cts] == [
        reference_encrypt(p, k) for p, k in zip(pts, keys)
    ]


def test_loop_iteration_window(linked_unprotected):
    lo, hi = loop_iteration_window(linked_unprotected, "sbx")
    assert 0 < lo < hi
    with pytest.raises(KeyError):
        loop_iteration_window(linked_unprotected, "nonesuch")


def test_loop_iteration_window_needs_the_next_arrival():
    # the loop head is reached twice: one full iteration, not two
    lp = resolve(parse("mov r1 #0\ntop: add r1 r1 #1\nbne r1 #2 top\n"))
    assert loop_iteration_window(lp, "top") == (1, 3)
    once = resolve(parse("mov r1 #0\ntop: add r1 r1 #1\n"))
    with pytest.raises(ValueError, match=r"reached 1 time\(s\); need 2 arrivals"):
        loop_iteration_window(once, "top")


def test_loop_iteration_window_stops_at_the_step_limit(monkeypatch):
    # the label is reached once, then the program spins: the walk gives up
    # at MAX_STEPS and says so, instead of counting the arrivals
    monkeypatch.setattr(present, "MAX_STEPS", 100)
    lp = resolve(parse("mov r1 #0\nsbx: add r1 r1 #1\ntop: jmp top\n"))
    with pytest.raises(StepLimitExceeded, match=r"reached 1 time\(s\) in the step limit of 100"):
        loop_iteration_window(lp, "sbx")


def test_written_corpus_round_trips(tmp_path):
    paths = write_corpus_files(tmp_path)
    prog = parse(paths["asm"].read_text())
    assert print_program(resolve(prog).source) == print_program(prog)
    dpl_prog = parse(paths["dpl"].read_text())
    resolve(dpl_prog)  # links cleanly
    vecs = load_test_vectors(paths["vectors"])
    assert len(vecs) == 24
    for p, k, c in vecs[:6]:
        assert reference_encrypt(p, k) == c


def test_checked_in_corpus_is_current(tmp_path):
    """corpus/ files must match what the generator emits today."""
    import pathlib

    repo = pathlib.Path(__file__).resolve().parents[1] / "corpus"
    fresh = write_corpus_files(tmp_path)
    for name in ("present80.asm", "present80_dpl.asm", "test_vectors.csv"):
        assert (repo / name).read_text() == (tmp_path / name).read_text(), name


def test_vector_csv_format(tmp_path):
    paths = write_corpus_files(tmp_path)
    with open(paths["vectors"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"plaintext", "key", "ciphertext"}
    assert len(rows[0]["key"]) == 20  # 80-bit keys, zero padded hex


def test_transform_of_corpus_is_deterministic(unprotected_src):
    cfg = DplConfig(lut_base=768)
    a, _ = transform(unprotected_src, cfg)
    b, _ = transform(unprotected_src, cfg)
    assert print_program(a) == print_program(b)


@pytest.mark.parametrize("cfg", [None, DplConfig(), DplConfig(bit_f=2, bit_t=1), DplConfig(bit_f=7, bit_t=0)])
@pytest.mark.parametrize("per_run_keys", [False, True])
def test_corpus_init_places_the_bits(cfg, per_run_keys):
    # the rail encoding of each bit under both orientations, or the bit at
    # its slot, in the plaintext and key cells; every other cell stays 0
    rng = np.random.default_rng(7)
    pts = [int(v) for v in rng.integers(0, 2**63, 5, dtype=np.uint64)] + [0, 2**64 - 1]
    keys = [int.from_bytes(rng.bytes(10), "little") for _ in pts] if per_run_keys else 0x133457799BBCDFF1AABB
    mem = corpus_init(pts, keys, slot=5, cfg=cfg)
    kbits = [[(k >> i) & 1 for k in (keys if per_run_keys else [keys] * len(pts))] for i in range(80)]
    pbits = [[(p >> i) & 1 for p in pts] for i in range(64)]
    want = np.zeros_like(mem)
    for base, bits in ((P_IN, pbits), (K_IN, kbits)):
        cells = np.array(bits, dtype=np.uint8)
        want[base : base + len(bits)] = cells << 5 if cfg is None else np.where(cells, cfg.encode(1), cfg.encode(0))
    assert mem.dtype == np.uint8 and mem.shape == (1024, len(pts))
    assert np.array_equal(mem, want)


@pytest.mark.parametrize("pts, keys, message", [
    ([0], 2**80 + 5, "key 0x100000000000000000005 is outside"),
    ([0], -5, "key -0x5 is outside"),
    ([0, 1], [3, 2**80], "key 0x100000000000000000000 is outside"),
    ([2**64 + 3], 0, "plaintext 0x10000000000000003 is outside"),
    ([-1], 0, "plaintext -0x1 is outside"),
    (np.array([-1], dtype=np.int64), 0, "plaintext -0x1 is outside"),
])
def test_corpus_init_refuses_values_wider_than_their_cells(pts, keys, message):
    # once the high bits were dropped: 2**80 + 5 gave the memory of key 5
    with pytest.raises(ValueError, match=message):
        corpus_init(pts, keys)


@pytest.mark.parametrize("cfg", [None, DplConfig()])
def test_per_run_keys_equal_one_call_per_key(cfg):
    # keys wider than 64 bits go through the same word split as a fixed key
    rng = np.random.default_rng(11)
    pts = [int(v) for v in rng.integers(0, 2**63, 6, dtype=np.uint64)] + [2**64 - 1]
    keys = [int.from_bytes(rng.bytes(10), "little") for _ in pts[:-2]] + [0, 2**80 - 1]
    mem = corpus_init(pts, keys, cfg=cfg)
    one_per_key = [corpus_init([p], k, cfg=cfg) for p, k in zip(pts, keys)]
    assert np.array_equal(mem, np.hstack(one_per_key))
