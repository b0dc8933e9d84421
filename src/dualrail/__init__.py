"""Dual-rail-with-precharge hardening for bitsliced assembly.

The package turns software that computes on one-bit values into a form
whose power-relevant switching activity is independent of the data: every
logical bit travels as a complementary rail pair inside one machine word,
logical operators become balanced table lookups, and every write is
preceded by a precharge.  Around that core transform sit a set-valued
symbolic verifier that proves constant transition counts, a functional
equivalence checker, and a measurement lab (synthetic traces, NICV
profiling, correlation attacks, success-rate curves).

Modules
-------
asm
    Assembly front end: the instruction-set table every interpreter and
    the verifier run, parser, printer, label resolution, dialects.
machine
    Concrete reference interpreter with a per-cycle transition event log.
vector_machine
    Batched interpreter running thousands of inputs in lockstep.
dpl
    The dual-rail transform: encoding configs, lookup tables, macro
    expansion.
verifier
    Set-valued symbolic execution proving balanced activity.
equivalence
    Input/output agreement between a program and its transformed twin.
present
    A bitsliced 31-round SPN cipher corpus with per-bit-line variants.
lab
    Trace synthesis, NICV, monobit CPA, success-rate curves, bit-line
    profiling.
cli
    The ``dualrail`` command-line tool.
"""

from .asm import (
    ADAPTERS,
    AVR_LIKE,
    Immediate,
    Instruction,
    LinkedProgram,
    LinkError,
    MemDirect,
    MemIndirect,
    ParseError,
    Program,
    Register,
    SyntaxAdapter,
    parse,
    print_program,
    resolve,
)
from .dpl import (
    DplConfig,
    TransformError,
    TransformReport,
    gen_luts,
    transform,
)
from .equivalence import DplStateMap, EquivalenceVerdict, check
from .lab import (
    ADMISSIBLE_PAIRS,
    DEFAULT_NOISE_SIGMA,
    AttackResult,
    BitProfile,
    LabError,
    LeakModel,
    TraceSet,
    cpa_monobit,
    load_traces,
    nibble_classifier,
    nicv,
    profile_bits,
    save_traces,
    success_rate,
    synth_traces,
    write_curve_csv,
)
from .machine import (
    LeakageEvent,
    MachineError,
    MachineState,
    RunResult,
    StepLimitExceeded,
    cycle_leakage,
    run,
    step,
    write_events_csv,
)
from .present import (
    corpus_init,
    first_round_subkey_nibble,
    load_test_vectors,
    loop_iteration_window,
    make_test_vectors,
    present_program,
    read_ciphertexts,
    reference_encrypt,
    write_corpus_files,
)
from .vector_machine import BatchResult, NonConstantTimeError, batch_run
from .verifier import (
    BalanceReport,
    LeakFinding,
    SensitiveBranchError,
    VerifierError,
    cross_validate,
    symbolic_init,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "ADAPTERS",
    "ADMISSIBLE_PAIRS",
    "AVR_LIKE",
    "AttackResult",
    "BalanceReport",
    "BatchResult",
    "BitProfile",
    "DEFAULT_NOISE_SIGMA",
    "DplConfig",
    "DplStateMap",
    "EquivalenceVerdict",
    "Immediate",
    "Instruction",
    "LabError",
    "LeakFinding",
    "LeakModel",
    "LeakageEvent",
    "LinkError",
    "LinkedProgram",
    "MachineError",
    "MachineState",
    "MemDirect",
    "MemIndirect",
    "NonConstantTimeError",
    "ParseError",
    "Program",
    "Register",
    "RunResult",
    "SensitiveBranchError",
    "StepLimitExceeded",
    "SyntaxAdapter",
    "TraceSet",
    "TransformError",
    "TransformReport",
    "VerifierError",
    "batch_run",
    "check",
    "corpus_init",
    "cpa_monobit",
    "cross_validate",
    "cycle_leakage",
    "first_round_subkey_nibble",
    "gen_luts",
    "load_test_vectors",
    "load_traces",
    "loop_iteration_window",
    "make_test_vectors",
    "nibble_classifier",
    "nicv",
    "parse",
    "present_program",
    "print_program",
    "profile_bits",
    "read_ciphertexts",
    "reference_encrypt",
    "resolve",
    "run",
    "save_traces",
    "step",
    "success_rate",
    "symbolic_init",
    "synth_traces",
    "transform",
    "verify",
    "write_corpus_files",
    "write_curve_csv",
    "write_events_csv",
]
