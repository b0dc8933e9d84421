"""Command-line front end.

One binary, three entry points:

``dualrail [flags] file.asm``
    The compiler pipeline.  Stages are opt-in and run in a fixed order:
    lint (``-l``), dual-rail transform (``-d``), balance verification
    (``-v``), concrete simulation (``-s``).  A single JSON document on
    stdout carries one report per executed stage.

``dualrail equiv original.asm transformed.asm``
    Functional equivalence check between a program and its dual-rail
    version over the declared ``;@sensitive`` inputs.

``dualrail lab {traces,nicv,cpa,success-rate,profile} ...``
    The measurement side: synthetic power traces, NICV maps, monobit
    CPA, success-rate curves and per-bit-line leakage profiling.

Exit codes: 0 success, 1 parse error, 2 transform error, 3 balance
verification found leaks, 4 simulation failure, 5 equivalence failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .asm import ADAPTERS, LinkError, ParseError, parse, print_program, resolve
from .dpl import DplConfig, TransformError, transform
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
from .machine import MachineError, MachineState, run
from .present import (
    LABEL_ROUND,
    LABEL_SBOX,
    build_corpus,
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

#: library errors that the lab and equiv commands report as a failed run
#: (LabError is a ValueError)
_RUN_ERRORS = (OSError, ValueError, MachineError, NonConstantTimeError)

#: fixed key used by lab commands when none is given, so examples are
#: reproducible end to end
DEFAULT_LAB_KEY = 0x133457799BBCDFF1AABB


class CliError(Exception):
    """A user-facing error carrying the stage it occurred in and the
    process exit code to use."""

    def __init__(self, stage: str, message: str, code: int):
        super().__init__(message)
        self.stage = stage
        self.code = code


# ---------------------------------------------------------------------------
# shared argument groups


def _add_dpl_flags(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("-bf", type=int, default=1, metavar="N",
                    help="bit position of the false rail (default 1)")
    ap.add_argument("-bt", type=int, default=0, metavar="N",
                    help="bit position of the true rail (default 0)")
    ap.add_argument("-po", type=int, default=0, metavar="N",
                    help="least significant bit of the rail pattern field "
                         "(default 0, must equal min(-bf, -bt))")
    ap.add_argument("-cl", action="store_true",
                    help="compact the operator tables (overlap their zero entries)")
    ap.add_argument("-la", type=int, default=0, metavar="ADDR",
                    help="base memory address of the operator tables (default 0)")
    ap.add_argument("-r1", type=int, default=20, metavar="REG",
                    help="first scratch register (default 20)")
    ap.add_argument("-r2", type=int, default=21, metavar="REG",
                    help="second scratch register (default 21)")
    ap.add_argument("-r3", type=int, default=22, metavar="REG",
                    help="third scratch register (default 22)")


def _add_machine_flags(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("-r", type=int, default=32, metavar="N",
                    help="register file size (default 32)")
    ap.add_argument("-m", type=int, default=1024, metavar="N",
                    help="memory size in cells (default 1024)")


def _add_adapter_flag(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("-a", metavar="NAME", default=None,
                    choices=sorted(ADAPTERS),
                    help="read and write an external assembly dialect "
                         f"(one of: {', '.join(sorted(ADAPTERS))})")


def _config_from(args) -> DplConfig:
    try:
        cfg = DplConfig(
            bit_f=args.bf,
            bit_t=args.bt,
            pattern_lo=args.po,
            lut_base=args.la,
            compact=args.cl,
            scratch=(args.r1, args.r2, args.r3),
        )
        cfg.validate()
        return cfg
    except TransformError as exc:
        raise CliError("transform", str(exc), EXIT_TRANSFORM) from exc


def _read_source(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise CliError("parse", f"cannot read {path}: {exc}", EXIT_PARSE) from exc


def _parse_program(path: str, adapter_name):
    text = _read_source(path)
    parser_fn = ADAPTERS[adapter_name].parse if adapter_name else parse
    try:
        return parser_fn(text)
    except ParseError as exc:
        raise CliError("parse", f"{path}: {exc}", EXIT_PARSE) from exc


def _resolve(program, args, stage: str, code: int):
    try:
        return resolve(program, n_regs=args.r, mem_size=args.m)
    except LinkError as exc:
        raise CliError(stage, str(exc), code) from exc


def _parse_range(text: str, limit: int, what: str) -> range:
    """'LO:HI' (HI exclusive) or a single cell index."""
    try:
        if ":" in text:
            lo_s, _, hi_s = text.partition(":")
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = int(text)
            hi = lo + 1
    except ValueError as exc:
        raise CliError("simulate", f"bad {what} range {text!r}: use LO:HI", EXIT_SIMULATE) from exc
    if not (0 <= lo <= hi <= limit):
        raise CliError("simulate", f"{what} range {text!r} outside [0, {limit})", EXIT_SIMULATE)
    return range(lo, hi)


def _parse_key(text: str) -> int:
    try:
        return int(text, 16)
    except ValueError as exc:
        raise CliError("lab", f"bad key {text!r}: expected hex", EXIT_SIMULATE) from exc


def _parse_weights(text):
    if text is None:
        return (1.0,) * 8
    try:
        weights = tuple(float(t) for t in text.split(","))
    except ValueError as exc:
        raise CliError("lab", f"bad weights {text!r}: expected comma-separated floats",
                       EXIT_SIMULATE) from exc
    if not weights:
        raise CliError("lab", "empty weight list", EXIT_SIMULATE)
    return weights


def _parse_lo_hi(text, choices=""):
    """Absolute 'LO:HI' bounds, HI exclusive; choices names the other
    accepted spellings, for the error message."""
    try:
        lo_s, _, hi_s = text.partition(":")
        return (int(lo_s), int(hi_s))
    except ValueError as exc:
        raise CliError("lab", f"bad window {text!r}: use {choices}LO:HI",
                       EXIT_SIMULATE) from exc


def _parse_window(text, linked):
    """'full', 'round', 'sbox', or absolute 'LO:HI' cycle bounds."""
    if text in (None, "full"):
        return None
    labels = {"round": LABEL_ROUND, "sbox": LABEL_SBOX}
    if text not in labels:
        return _parse_lo_hi(text, "full, round, sbox or ")
    try:
        return loop_iteration_window(linked, labels[text])
    except KeyError as exc:
        raise CliError("lab", f"window {text}: {exc.args[0]}", EXIT_SIMULATE) from exc


# ---------------------------------------------------------------------------
# the compiler pipeline


def _build_pipeline_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dualrail",
        allow_abbrev=False,
        description="Dual-rail-with-precharge transformer, balance verifier "
                    "and simulator for bitsliced assembly.",
        epilog="Subcommands: 'dualrail equiv' checks functional equivalence, "
               "'dualrail lab' runs trace synthesis and attacks.  "
               "See 'dualrail equiv -h' and 'dualrail lab -h'.",
    )
    _add_dpl_flags(ap)
    _add_adapter_flag(ap)
    ap.add_argument("-o", metavar="FILE", default=None,
                    help="write the transformed program to FILE")
    ap.add_argument("-l", action="store_true",
                    help="only check syntax, then stop")
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


def _stage_lint(program, report: dict) -> None:
    report["lint"] = {
        "ok": True,
        "instructions": len(program.instructions),
        "labels": len(program.label_table),
    }


def _stage_transform(program, args, report: dict):
    cfg = _config_from(args)
    try:
        transformed, tr = transform(program, cfg)
    except TransformError as exc:
        raise CliError("transform", str(exc), EXIT_TRANSFORM) from exc
    report["transform"] = json.loads(tr.to_json())
    if args.o:
        printer = ADAPTERS[args.a].print if args.a else print_program
        try:
            with open(args.o, "w") as fh:
                fh.write(printer(transformed))
        except OSError as exc:
            raise CliError("transform", f"cannot write {args.o}: {exc}", EXIT_TRANSFORM) from exc
        report["transform"]["output"] = args.o
    return transformed


def _stage_verify(program, args, report: dict) -> None:
    cfg = _config_from(args)
    linked = _resolve(program, args, "verify", EXIT_LEAKY)
    try:
        br = verify(linked, cfg=cfg)
    except VerifierError as exc:
        raise CliError("verify", str(exc), EXIT_LEAKY) from exc
    report["verify"] = json.loads(br.to_json())
    if br.verdict != "balanced":
        raise CliError("verify", f"verdict {br.verdict}", EXIT_LEAKY)


def _stage_simulate(program, args, report: dict) -> None:
    linked = _resolve(program, args, "simulate", EXIT_SIMULATE)
    state = MachineState.fresh(args.r, args.m)
    try:
        result = run(linked, init=state, max_steps=5_000_000)
    except MachineError as exc:
        raise CliError("simulate", str(exc), EXIT_SIMULATE) from exc
    final = result.final_state
    sim = {"cycles": final.cycle, "instructions_executed": result.instruction_count}
    if args.M:
        cells = _parse_range(args.M, args.m, "memory")
        sim["memory"] = {str(i): f"0x{final.memory[i]:02x}" for i in cells}
    if args.R:
        cells = _parse_range(args.R, args.r, "register")
        sim["registers"] = {str(i): f"0x{final.registers[i]:02x}" for i in cells}
    if args.events_csv:
        from .machine import write_events_csv

        try:
            write_events_csv(result.events, args.events_csv)
        except OSError as exc:
            raise CliError("simulate", f"cannot write {args.events_csv}: {exc}",
                           EXIT_SIMULATE) from exc
        sim["events_csv"] = args.events_csv
    report["simulate"] = sim


def _pipeline(args, report: dict) -> None:
    program = _parse_program(args.file, args.a)
    _stage_lint(program, report)
    if args.l:
        return
    if args.d:
        program = _stage_transform(program, args, report)
    if args.v:
        _stage_verify(program, args, report)
    if args.s:
        _stage_simulate(program, args, report)


# ---------------------------------------------------------------------------
# equivalence checking


def _build_equiv_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dualrail equiv",
        allow_abbrev=False,
        description="Check that a transformed program computes the same "
                    "outputs as the original over its sensitive inputs.",
    )
    _add_dpl_flags(ap)
    _add_adapter_flag(ap)
    _add_machine_flags(ap)
    ap.add_argument("-n", type=int, default=100, metavar="N",
                    help="input samples when the sensitive space is too large "
                         "to enumerate (default 100)")
    ap.add_argument("-seed", type=int, default=0, help="sampling seed (default 0)")
    ap.add_argument("original", help="original assembly file")
    ap.add_argument("transformed", help="dual-rail assembly file")
    return ap


def _equiv(args, report: dict) -> None:
    cfg = _config_from(args)
    orig = _resolve(_parse_program(args.original, args.a), args,
                    "equivalence", EXIT_EQUIVALENCE)
    trans = _resolve(_parse_program(args.transformed, args.a), args,
                     "equivalence", EXIT_EQUIVALENCE)
    verdict = check(orig, trans, DplStateMap(cfg),
                    n_samples=args.n, seed=args.seed)
    report["equivalence"] = json.loads(verdict.to_json())
    if not verdict.passed:
        raise CliError("equivalence", f"{len(verdict.failures)} mismatches",
                       EXIT_EQUIVALENCE)


# ---------------------------------------------------------------------------
# measurement lab


def _add_model_flags(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("-sigma", type=float, default=DEFAULT_NOISE_SIGMA,
                    help=f"Gaussian noise level (default {DEFAULT_NOISE_SIGMA})")
    ap.add_argument("-weights", metavar="W0,W1,...", default=None,
                    help="per-bit-line leakage weights (default uniform)")
    ap.add_argument("-seed", type=int, default=0, help="random seed (default 0)")


def _add_target_flags(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("-key", metavar="HEX", default=None,
                    help=f"fixed key (default {DEFAULT_LAB_KEY:020x})")
    ap.add_argument("-slot", type=int, default=0,
                    help="bit line carrying the cipher state (default 0)")
    ap.add_argument("-nibble", type=int, default=0,
                    help="plaintext/key nibble under attack (default 0)")
    ap.add_argument("-window", metavar="SPEC", default=None,
                    help="trace window: full, round, sbox, or LO:HI cycles "
                         "(default full)")
    ap.add_argument("-dpl", action="store_true",
                    help="the program is in dual-rail form; encode its inputs "
                         "with the rail configuration from -bf/-bt/...")


def _build_lab_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dualrail lab",
        allow_abbrev=False,
        description="Synthetic side-channel measurement bench.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    tr = sub.add_parser("traces", allow_abbrev=False,
                        help="simulate runs and save a trace set")
    tr.add_argument("file", help="assembly file to trace")
    tr.add_argument("-o", metavar="FILE", required=True, help="output trace file")
    tr.add_argument("-n", type=int, default=1000, help="number of runs (default 1000)")
    _add_model_flags(tr)
    _add_target_flags(tr)
    _add_dpl_flags(tr)
    _add_machine_flags(tr)
    tr.add_argument("-a", metavar="NAME", default=None, choices=sorted(ADAPTERS))

    nv = sub.add_parser("nicv", allow_abbrev=False,
                        help="normalized interclass variance per cycle")
    nv.add_argument("-i", metavar="FILE", required=True, help="input trace file")
    nv.add_argument("-nibble", type=int, default=0,
                    help="plaintext nibble used as the class label (default 0)")
    nv.add_argument("-o", metavar="FILE", default=None,
                    help="write the per-cycle curve as CSV")

    cp = sub.add_parser("cpa", allow_abbrev=False,
                        help="monobit correlation attack on a saved trace set")
    cp.add_argument("-i", metavar="FILE", required=True, help="input trace file")
    cp.add_argument("-nibble", type=int, default=0,
                    help="key nibble under attack (default 0)")
    cp.add_argument("-key", metavar="HEX", default=None,
                    help="true key, to score the attack (trace files carry no key)")
    cp.add_argument("-window", metavar="LO:HI", default=None,
                    help="restrict the attack to trace columns LO:HI")

    sr = sub.add_parser("success-rate", allow_abbrev=False,
                        help="attack success rate as a function of trace count")
    sr.add_argument("file", help="assembly file to attack")
    sr.add_argument("-grid", metavar="N1,N2,...", required=True,
                    help="trace counts to evaluate")
    sr.add_argument("-attacks", type=int, default=100,
                    help="independent campaigns per point (default 100)")
    sr.add_argument("-o", metavar="FILE", default=None, help="write the curve as CSV")
    _add_model_flags(sr)
    _add_target_flags(sr)
    _add_dpl_flags(sr)
    _add_machine_flags(sr)
    sr.add_argument("-a", metavar="NAME", default=None, choices=sorted(ADAPTERS))

    pf = sub.add_parser("profile", allow_abbrev=False,
                        help="rank bit lines by leakage and recommend a rail pair")
    pf.add_argument("-n", type=int, default=256,
                    help="runs per bit-line variant (default 256)")
    _add_model_flags(pf)
    pf.add_argument("-o", metavar="FILE", default=None,
                    help="write per-bit scores as CSV")
    return ap


def _lab_program(args, stage="lab", code=EXIT_SIMULATE):
    adapter = getattr(args, "a", None)
    program = _parse_program(args.file, adapter)
    linked = _resolve(program, args, stage, code)
    cfg = _config_from(args) if args.dpl else None
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
    except ValueError as exc:
        raise CliError("lab", f"bad grid {args.grid!r}", EXIT_SIMULATE) from exc
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
    programs = [resolve(e.program) for e in build_corpus()]
    prof = profile_bits(programs, model, n=args.n, seed=args.seed)
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


# ---------------------------------------------------------------------------


def _reported(handler, args, stage=None, code=None) -> int:
    """Run handler(args, report), print the report as one JSON document and
    return the exit code.

    A CliError is recorded under its own stage with its own code.  Given a
    stage, a library error (_RUN_ERRORS) is recorded under that stage and
    returns `code`; without one it propagates after the report is printed.
    """
    report: dict = {}
    try:
        handler(args, report)
    except CliError as exc:
        report.setdefault(exc.stage, {})["error"] = str(exc)
        return exc.code
    except _RUN_ERRORS as exc:
        if stage is None:
            raise
        report.setdefault(stage, {})["error"] = str(exc)
        return code
    finally:
        print(json.dumps(report, indent=2))
    return EXIT_OK


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lab":
        args = _build_lab_parser().parse_args(argv[1:])
        return _reported(_LAB_COMMANDS[args.command], args, "lab", EXIT_SIMULATE)
    if argv and argv[0] == "equiv":
        args = _build_equiv_parser().parse_args(argv[1:])
        return _reported(_equiv, args, "equivalence", EXIT_EQUIVALENCE)
    return _reported(_pipeline, _build_pipeline_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
