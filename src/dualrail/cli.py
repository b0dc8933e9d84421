"""Command-line front end.

One binary, three entry points:

``dualrail [flags] file.asm``
    The compiler pipeline.  Stages run in a fixed order: lint, which
    parses the program and links it under ``-r``/``-m`` (``-l`` stops
    there), then the opt-in dual-rail transform (``-d``), balance
    verification (``-v``) and concrete simulation (``-s``).  These take
    the linked program, or the transform's output, linked once.  A single
    JSON document on stdout carries one report per executed stage.  The
    table and scratch flags ``-la``, ``-cl`` and ``-r1``-``-r3`` are the
    transform's own: they are checked only when ``-d`` runs.

``dualrail equiv original.asm transformed.asm``
    Functional equivalence check between a program and its dual-rail
    version over the declared ``;@sensitive`` inputs.  It, ``-v`` and
    ``lab ... -dpl`` read only the rails of ``-bf``/``-bt``.

``dualrail lab {traces,nicv,cpa,success-rate,profile} ...``
    The measurement side: synthetic power traces, NICV maps, monobit
    CPA, success-rate curves and per-bit-line leakage profiling.

Every run prints one JSON document on stdout, failures included: a failed
stage adds ``{"<stage>": {"error": "..."}}`` to the report.  The exit
code depends only on the stage that failed (``EXIT_CODES``): 0 success,
1 usage (a bad command line), parse or lint (link) error, 2 transform
error, 3 verify (not balanced, or it could not run), 4 simulate or lab
failure, 5 equivalence failure.  ``-h`` prints help and exits 0.  A
reader that closes stdout before the report is written leaves the exit
code as it is.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager

import numpy as np

from .asm import ADAPTERS, MAX_CELLS, MEM_SIZE, N_REGS, WORD_BITS, ParseError, parse, print_program, resolve
from .dpl import DplConfig, TransformError, place_tables, transform
from .equivalence import DplStateMap, check
from .lab import (
    DEFAULT_NOISE_SIGMA,
    LeakModel,
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
from .machine import MachineError, run, write_events_csv
from .present import (
    LABEL_ROUND,
    LABEL_SBOX,
    first_round_subkey_nibble,
    loop_iteration_window,
)
from .vector_machine import NonConstantTimeError
from .verifier import VerifierError, verify

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_TRANSFORM = 2
EXIT_LEAKY = 3
EXIT_SIMULATE = 4
EXIT_EQUIVALENCE = 5

#: exit code of a failure, by the stage that failed
EXIT_CODES = {
    "usage": EXIT_PARSE,
    "parse": EXIT_PARSE,
    "lint": EXIT_PARSE,
    "transform": EXIT_TRANSFORM,
    "verify": EXIT_LEAKY,
    "simulate": EXIT_SIMULATE,
    "lab": EXIT_SIMULATE,
    "equivalence": EXIT_EQUIVALENCE,
}

#: errors that fail the running stage; anything else is a bug and propagates
_STAGE_ERRORS = (OSError, ValueError, MachineError, NonConstantTimeError, VerifierError)

#: fixed key used by lab commands when none is given, so examples are
#: reproducible end to end
DEFAULT_LAB_KEY = 0x133457799BBCDFF1AABB


class CliError(Exception):
    """A failure of one stage, reported by main under the stage's name."""

    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


@contextmanager
def _stage(name: str, context: str = ""):
    """Run a block (or, as a decorator, a function) as stage `name`: its
    errors become a CliError of that stage, the message prefixed with
    `context`.  A ParseError or TransformError fails "parse" or "transform"
    wherever it is raised."""
    try:
        yield
    except _STAGE_ERRORS as exc:
        stage = {ParseError: "parse", TransformError: "transform"}.get(type(exc), name)
        raise CliError(stage, f"{context}: {exc}" if context else str(exc)) from exc


class _ArgumentParser(argparse.ArgumentParser):
    """Command-line errors are a failure of stage "usage"."""

    def error(self, message):
        raise CliError("usage", f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# shared argument groups

def _int_in(lo: int, hi: int):
    """argparse type: an int from lo to hi - 1, else a usage error."""

    def parse(text):
        v = int(text)
        if not lo <= v < hi:
            raise argparse.ArgumentTypeError(f"{v} is not from {lo} to {hi - 1}")
        return v

    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


#: a count of runs, samples or attacks
_COUNT = _int_in(1, math.inf)


def _add_rail_flags(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("-bf", type=int, default=1, metavar="N",
                    help="bit position of the false rail (default 1)")
    ap.add_argument("-bt", type=int, default=0, metavar="N",
                    help="bit position of the true rail (default 0)")


def _add_transform_flags(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("-cl", action="store_true",
                    help="with -d, compact the operator tables (overlap their zero entries)")
    ap.add_argument("-la", type=int, default=None, metavar="ADDR",
                    help="with -d, base memory address of the operator tables "
                         "(default: the lowest aligned base clear of the "
                         "program's cells)")
    for n, reg in enumerate(DplConfig().scratch, 1):
        ap.add_argument(f"-r{n}", type=int, default=reg, metavar="REG",
                        help=f"with -d, scratch register {n}, from 0 to -r minus 1 "
                             f"(default {reg})")


def _add_machine_flags(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("-r", type=_int_in(1, MAX_CELLS + 1), default=N_REGS, metavar="N",
                    help=f"register file size, at most {MAX_CELLS} (default {N_REGS})")
    ap.add_argument("-m", type=_int_in(1, MAX_CELLS + 1), default=MEM_SIZE, metavar="N",
                    help=f"memory size in cells, at most {MAX_CELLS} (default {MEM_SIZE})")


def _add_adapter_flag(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("-a", metavar="NAME", default=None,
                    choices=sorted(ADAPTERS),
                    help="read and write an external assembly dialect "
                         f"(one of: {', '.join(sorted(ADAPTERS))})")


def _rails_from(args) -> DplConfig:
    """The rail encoding of -bf/-bt: all that -v, equiv and lab -dpl read."""
    cfg = DplConfig(bit_f=args.bf, bit_t=args.bt)
    cfg.validate()
    return cfg


def _parse_program(path: str, adapter_name):
    parser_fn = ADAPTERS[adapter_name].parse if adapter_name else parse
    with _stage("parse", path), open(path) as fh:
        return parser_fn(fh.read())


def _resolve(program, args):
    return resolve(program, n_regs=args.r, mem_size=args.m)


def _parse_range(text: str, limit: int, what: str) -> range:
    """'LO:HI' (HI exclusive) or a single cell index."""
    try:
        if ":" in text:
            lo_s, _, hi_s = text.partition(":")
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = int(text)
            hi = lo + 1
    except ValueError:
        raise ValueError(f"bad {what} range {text!r}: use LO:HI") from None
    if not (0 <= lo <= hi <= limit):
        raise ValueError(f"{what} range {text!r} outside [0, {limit})")
    return range(lo, hi)


def _parse_key(text: str) -> int:
    """An 80-bit PRESENT key in hex."""
    try:
        key = int(text, 16)
    except ValueError:
        raise ValueError(f"bad key {text!r}: expected hex") from None
    if not 0 <= key < 1 << 80:
        raise ValueError(f"bad key {text!r}: outside [0, 2**80)")
    return key


def _parse_weights(text):
    if text is None:
        return (1.0,) * WORD_BITS
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError:
        raise ValueError(f"bad weights {text!r}: expected comma-separated floats") from None


def _parse_lo_hi(text, choices=""):
    """Absolute 'LO:HI' bounds, HI exclusive; choices names the other
    accepted spellings, for the error message."""
    try:
        lo_s, _, hi_s = text.partition(":")
        return (int(lo_s), int(hi_s))
    except ValueError:
        raise ValueError(f"bad window {text!r}: use {choices}LO:HI") from None


def _parse_window(text, linked):
    """'full', 'round', 'sbox', or absolute 'LO:HI' cycle bounds."""
    if text in (None, "full"):
        return None
    label = {"round": LABEL_ROUND, "sbox": LABEL_SBOX}.get(text)
    if label is None:
        return _parse_lo_hi(text, "full, round, sbox or ")
    if label not in linked.source.label_table:
        raise ValueError(f"window {text}: no label {label!r} in program")
    return loop_iteration_window(linked, label)


# ---------------------------------------------------------------------------
# the compiler pipeline


def _build_pipeline_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="dualrail",
        allow_abbrev=False,
        description="Dual-rail-with-precharge transformer, balance verifier "
                    "and simulator for bitsliced assembly.",
        epilog="Subcommands: 'dualrail equiv' checks functional equivalence, "
               "'dualrail lab' runs trace synthesis and attacks.  "
               "See 'dualrail equiv -h' and 'dualrail lab -h'.",
    )
    _add_rail_flags(ap)
    _add_transform_flags(ap)
    _add_adapter_flag(ap)
    ap.add_argument("-o", metavar="FILE", default=None,
                    help="write the transformed program to FILE")
    ap.add_argument("-l", action="store_true",
                    help="only parse and link (under -r/-m), then stop")
    ap.add_argument("-d", action="store_true",
                    help="transform the program to dual-rail form")
    ap.add_argument("-v", action="store_true",
                    help="verify constant activity; sensitive cells start as the "
                         "set of both rail encodings chosen by -bf/-bt")
    ap.add_argument("-s", action="store_true",
                    help="simulate the program on a zero-initialized machine")
    _add_machine_flags(ap)
    ap.add_argument("-M", metavar="RANGE", default=None,
                    help="after -s, dump memory cells LO:HI (hex, one row per cell)")
    ap.add_argument("-R", metavar="RANGE", default=None,
                    help="after -s, dump registers LO:HI (hex, one row per cell)")
    ap.add_argument("--events-csv", metavar="FILE", default=None,
                    help="after -s, write the per-cycle transition log to FILE")
    ap.add_argument("file", help="input assembly file")
    return ap


@_stage("lint")
def _stage_lint(program, args, report: dict):
    linked = _resolve(program, args)
    report["lint"] = {
        "ok": True,
        "instructions": len(program.instructions),
        "labels": len(program.label_table),
    }
    return linked


@_stage("transform")
def _stage_transform(linked, args, report: dict):
    program = linked.source
    scratch = (args.r1, args.r2, args.r3)
    for n, reg in enumerate(scratch, 1):
        if not 0 <= reg < args.r:
            raise CliError("usage", f"argument -r{n}: {reg} is not from 0 to {args.r - 1} (-r)")
    cfg = DplConfig(bit_f=args.bf, bit_t=args.bt, lut_base=args.la or 0,
                    compact=args.cl, scratch=scratch)
    if args.la is None:
        cfg = place_tables(program, cfg, args.m)
    transformed, tr = transform(program, cfg)
    report["transform"] = json.loads(tr.to_json())
    out = _resolve(transformed, args)
    if args.o:
        text = (ADAPTERS[args.a].print if args.a else print_program)(transformed)
        with _stage("transform", f"cannot write {args.o}"), open(args.o, "w") as fh:
            fh.write(text)
        report["transform"]["output"] = args.o
    return out


@_stage("verify")
def _stage_verify(linked, args, report: dict) -> None:
    br = verify(linked, cfg=_rails_from(args))
    report["verify"] = json.loads(br.to_json())
    report["verify"]["memo"] = {
        "stepped": br.stepped,
        "pc_replayed": br.pc_replayed,
        "block_replayed": br.block_replayed,
    }
    if br.verdict != "balanced":
        raise CliError("verify", f"verdict {br.verdict}")


@_stage("simulate")
def _stage_simulate(linked, args, report: dict) -> None:
    result = run(linked)
    final = result.final_state
    sim = {"cycles": final.cycle, "instructions_executed": result.instruction_count}
    if args.M:
        cells = _parse_range(args.M, args.m, "memory")
        sim["memory"] = {str(i): f"0x{final.memory[i]:02x}" for i in cells}
    if args.R:
        cells = _parse_range(args.R, args.r, "register")
        sim["registers"] = {str(i): f"0x{final.registers[i]:02x}" for i in cells}
    if args.events_csv:
        with _stage("simulate", f"cannot write {args.events_csv}"):
            write_events_csv(result.events, args.events_csv)
        sim["events_csv"] = args.events_csv
    report["simulate"] = sim


def _pipeline(args, report: dict) -> None:
    linked = _stage_lint(_parse_program(args.file, args.a), args, report)
    if args.l:
        return
    if args.d:
        linked = _stage_transform(linked, args, report)
    if args.v:
        _stage_verify(linked, args, report)
    if args.s:
        _stage_simulate(linked, args, report)


# ---------------------------------------------------------------------------
# equivalence checking


def _build_equiv_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="dualrail equiv",
        allow_abbrev=False,
        description="Check that a transformed program computes the same "
                    "outputs as the original over its sensitive inputs.",
    )
    _add_rail_flags(ap)
    _add_adapter_flag(ap)
    _add_machine_flags(ap)
    ap.add_argument("-n", type=_COUNT, default=100, metavar="N",
                    help="input samples when the sensitive space is too large "
                         "to enumerate (default 100)")
    ap.add_argument("-seed", type=int, default=0, help="sampling seed (default 0)")
    ap.add_argument("original", help="original assembly file")
    ap.add_argument("transformed", help="dual-rail assembly file")
    return ap


@_stage("equivalence")
def _equiv(args, report: dict) -> None:
    cfg = _rails_from(args)
    orig = _resolve(_parse_program(args.original, args.a), args)
    trans = _resolve(_parse_program(args.transformed, args.a), args)
    verdict = check(orig, trans, DplStateMap(cfg),
                    n_samples=args.n, seed=args.seed)
    report["equivalence"] = json.loads(verdict.to_json())
    if not verdict.passed:
        raise CliError("equivalence", f"{len(verdict.failures)} mismatches")


# ---------------------------------------------------------------------------
# measurement lab


def _add_model_flags(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("-sigma", type=float, default=DEFAULT_NOISE_SIGMA,
                    help=f"Gaussian noise level (default {DEFAULT_NOISE_SIGMA})")
    ap.add_argument("-weights", metavar="W0,W1,...", default=None,
                    help="per-bit-line leakage weights (default uniform)")
    ap.add_argument("-seed", type=int, default=0, help="random seed (default 0)")


#: the 16 nibbles of a 64-bit plaintext
_NIBBLE = _int_in(0, 16)


def _add_target_flags(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("-key", metavar="HEX", default=None,
                    help=f"fixed key (default {DEFAULT_LAB_KEY:020x})")
    ap.add_argument("-slot", type=_int_in(0, WORD_BITS), default=0,
                    help="bit line carrying the cipher state, 0 to 7 (default 0)")
    ap.add_argument("-window", metavar="SPEC", default=None,
                    help="trace window: full, round, sbox, or LO:HI cycles "
                         "(default full)")
    ap.add_argument("-dpl", action="store_true",
                    help="the program is in dual-rail form; encode its inputs "
                         "on the rails of -bf/-bt")


def _build_lab_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="dualrail lab",
        allow_abbrev=False,
        description="Synthetic side-channel measurement bench.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    tr = sub.add_parser("traces", allow_abbrev=False,
                        help="simulate runs and save a trace set")
    tr.add_argument("file", help="assembly file to trace")
    tr.add_argument("-o", metavar="FILE", required=True, help="output trace file")
    tr.add_argument("-n", type=_COUNT, default=1000, help="number of runs (default 1000)")
    _add_model_flags(tr)
    _add_target_flags(tr)
    _add_rail_flags(tr)
    _add_machine_flags(tr)
    _add_adapter_flag(tr)

    nv = sub.add_parser("nicv", allow_abbrev=False,
                        help="normalized interclass variance per cycle")
    nv.add_argument("-i", metavar="FILE", required=True, help="input trace file")
    nv.add_argument("-nibble", type=_NIBBLE, default=0,
                    help="plaintext nibble used as the class label, 0 to 15 (default 0)")
    nv.add_argument("-o", metavar="FILE", default=None,
                    help="write the per-cycle curve as CSV")

    cp = sub.add_parser("cpa", allow_abbrev=False,
                        help="monobit correlation attack on a saved trace set")
    cp.add_argument("-i", metavar="FILE", required=True, help="input trace file")
    cp.add_argument("-nibble", type=_NIBBLE, default=0,
                    help="key nibble under attack, 0 to 15 (default 0)")
    cp.add_argument("-key", metavar="HEX", default=None,
                    help="true key, to score the attack (trace files carry no key)")
    cp.add_argument("-window", metavar="LO:HI", default=None,
                    help="restrict the attack to trace columns LO:HI")

    sr = sub.add_parser("success-rate", allow_abbrev=False,
                        help="attack success rate as a function of trace count")
    sr.add_argument("file", help="assembly file to attack")
    sr.add_argument("-grid", metavar="N1,N2,...", required=True,
                    help="trace counts to evaluate")
    sr.add_argument("-attacks", type=_COUNT, default=100,
                    help="independent campaigns per point (default 100)")
    sr.add_argument("-o", metavar="FILE", default=None, help="write the curve as CSV")
    sr.add_argument("-nibble", type=_NIBBLE, default=0,
                    help="key nibble under attack, 0 to 15 (default 0)")
    _add_model_flags(sr)
    _add_target_flags(sr)
    _add_rail_flags(sr)
    _add_machine_flags(sr)
    _add_adapter_flag(sr)

    pf = sub.add_parser("profile", allow_abbrev=False,
                        help="rank bit lines by leakage and recommend a rail pair")
    pf.add_argument("-n", type=_COUNT, default=256,
                    help="runs per bit-line variant (default 256)")
    _add_model_flags(pf)
    pf.add_argument("-o", metavar="FILE", default=None,
                    help="write per-bit scores as CSV")
    return ap


def _lab_program(args):
    linked = _resolve(_parse_program(args.file, args.a), args)
    cfg = _rails_from(args) if args.dpl else None
    key = _parse_key(args.key) if args.key else DEFAULT_LAB_KEY
    model = LeakModel(weights=_parse_weights(args.weights), noise_sigma=args.sigma)
    return linked, cfg, key, model


def _lab_traces(args, report: dict) -> None:
    linked, cfg, key, model = _lab_program(args)
    window = _parse_window(args.window, linked)
    ts = synth_traces(linked, key, args.n, model, seed=args.seed,
                      window=window, cfg=cfg, slot=args.slot)
    save_traces(args.o, ts)
    report["traces"] = {
        "output": args.o,
        "runs": ts.n_runs,
        "cycles": ts.n_cycles,
        "cycle_offset": ts.cycle_offset,
        "noise_sigma": model.noise_sigma,
    }


def _lab_nicv(args, report: dict) -> None:
    ts = load_traces(args.i)
    curve = nicv(ts, nibble_classifier(args.nibble))
    peak = int(np.argmax(curve)) if len(curve) else 0
    report["nicv"] = {
        "cycles": int(len(curve)),
        "max": float(curve[peak]) if len(curve) else 0.0,
        "argmax_cycle": peak + ts.cycle_offset,
    }
    if args.o:
        with open(args.o, "w") as fh:
            fh.write("cycle,nicv\n")
            for i, v in enumerate(curve):
                fh.write(f"{i + ts.cycle_offset},{float(v)}\n")
        report["nicv"]["output"] = args.o


def _lab_cpa(args, report: dict) -> None:
    ts = load_traces(args.i)
    window = _parse_lo_hi(args.window) if args.window else None
    true_key = _parse_key(args.key) if args.key else None
    res = cpa_monobit(ts, target=args.nibble, window=window, true_key=true_key)
    out = {
        "best_guess": res.best_guess,
        "no_signal": res.no_signal,
        "traces_used": res.traces_used,
        "scores": [float(s) for s in res.scores],
    }
    if true_key is not None:
        out["true_nibble"] = first_round_subkey_nibble(true_key, args.nibble)
        out["success"] = res.success
    report["cpa"] = out


def _lab_success_rate(args, report: dict) -> None:
    linked, cfg, key, model = _lab_program(args)
    window = _parse_window(args.window, linked)
    try:
        grid = [int(t) for t in args.grid.split(",")]
    except ValueError:
        raise ValueError(f"bad grid {args.grid!r}") from None
    curve = success_rate(linked, key, model, grid,
                         attacks_per_point=args.attacks, seed=args.seed,
                         target=args.nibble, window=window, cfg=cfg,
                         slot=args.slot)
    report["success_rate"] = {"curve": [[n, r] for n, r in curve]}
    if args.o:
        write_curve_csv(args.o, curve)
        report["success_rate"]["output"] = args.o


def _lab_profile(args, report: dict) -> None:
    model = LeakModel(weights=_parse_weights(args.weights), noise_sigma=args.sigma)
    prof = profile_bits(model, n=args.n, seed=args.seed)
    bf, bt = prof.recommended_rails
    report["profile"] = {
        "scores": [float(s) for s in prof.scores],
        "ranking": list(prof.ranking),
        "recommended_pair": list(prof.recommended),
        "recommended_rails": {"bf": bf, "bt": bt},
    }
    if args.o:
        with open(args.o, "w") as fh:
            fh.write("bit,score\n")
            for i, s in enumerate(prof.scores):
                fh.write(f"{i},{float(s)}\n")
        report["profile"]["output"] = args.o


_LAB_COMMANDS = {
    "traces": _lab_traces,
    "nicv": _lab_nicv,
    "cpa": _lab_cpa,
    "success-rate": _lab_success_rate,
    "profile": _lab_profile,
}


@_stage("lab")
def _lab(args, report: dict) -> None:
    _LAB_COMMANDS[args.command](args, report)


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    """Run one command, print its report as one JSON document and return
    the exit code: EXIT_OK, or EXIT_CODES of the stage that failed."""
    argv = sys.argv[1:] if argv is None else list(argv)
    report: dict = {}
    code = EXIT_OK
    try:
        if argv[:1] == ["lab"]:
            _lab(_build_lab_parser().parse_args(argv[1:]), report)
        elif argv[:1] == ["equiv"]:
            _equiv(_build_equiv_parser().parse_args(argv[1:]), report)
        else:
            _pipeline(_build_pipeline_parser().parse_args(argv), report)
    except CliError as exc:
        report.setdefault(exc.stage, {})["error"] = str(exc)
        code = EXIT_CODES[exc.stage]
    try:
        print(json.dumps(report, indent=2))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: send the interpreter's final flush to
        # devnull, so it raises no second BrokenPipeError at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
