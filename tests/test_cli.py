"""Command-line interface tests, run in-process via cli.main(argv)."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dualrail import cli, present
from dualrail.asm import resolve
from dualrail.lab import TraceSet, save_traces

GATE = ";@sensitive @100-101\n;@output @102\nand @102 @100 @101\n"
NOT_GATE = ";@sensitive @100\n;@output @102\nnot @102 @100\n"


@pytest.fixture()
def gate_file(tmp_path):
    p = tmp_path / "gate.asm"
    p.write_text(GATE)
    return str(p)


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else {}


# -- pipeline ---------------------------------------------------------------


def test_lint_only(capsys, gate_file):
    code, rep = _run(capsys, ["-l", gate_file])
    assert code == cli.EXIT_OK
    assert rep["lint"]["instructions"] == 1
    assert set(rep) == {"lint"}


@pytest.mark.parametrize("flags", [["-l"], ["-d"], ["-d", "-v"], ["-s"]])
@pytest.mark.parametrize("text, error", [
    ("mov r40 @1\n", "instruction 0 (mov): register r40 out of range"),
    ("mov r2 @1100\n", "instruction 0 (mov): address @1100 out of range"),
])
def test_lint_links_the_source(capsys, tmp_path, flags, text, error):
    # the error names the source instruction, before any stage runs
    p = tmp_path / "prog.asm"
    p.write_text(text)
    code, rep = _run(capsys, [*flags, str(p)])
    assert (code, rep) == (cli.EXIT_PARSE, {"lint": {"error": error}})
    code, rep = _run(capsys, [*flags, "-r", "41", "-m", "1101", str(p)])
    assert code == cli.EXIT_OK and rep["lint"]["ok"]


def test_transform_links_its_output(capsys, gate_file):
    code, rep = _run(capsys, ["-d", "-la", "2048", gate_file])
    assert code == cli.EXIT_TRANSFORM
    assert rep["transform"]["error"] == "instruction 1 (mov): address @2048 out of range"


def test_pipeline_links_source_and_output_once(capsys, gate_file, monkeypatch):
    linked = []

    def counted(program, **kw):
        linked.append(len(program.instructions))
        return resolve(program, **kw)

    monkeypatch.setattr(cli, "resolve", counted)
    code, rep = _run(capsys, ["-d", "-v", "-s", gate_file])
    assert code == cli.EXIT_OK and rep["verify"]["verdict"] == "balanced"
    assert linked == [1, 30]  # the source, then the transform's output


def test_parse_error(capsys, tmp_path):
    p = tmp_path / "bad.asm"
    p.write_text("mov r1\n")
    code, rep = _run(capsys, [str(p)])
    assert code == cli.EXIT_PARSE
    assert "error" in rep["parse"]


def test_transform_report(capsys, gate_file):
    code, rep = _run(capsys, ["-d", gate_file])
    assert code == cli.EXIT_OK
    tr = rep["transform"]
    assert tr["expanded_count"] == 1
    assert tr["lut_bytes"] == 16
    assert tr["code_growth_ratio"] > 1.0


def test_transform_writes_output(capsys, gate_file, tmp_path):
    out = tmp_path / "out.asm"
    code, rep = _run(capsys, ["-d", "-o", str(out), gate_file])
    assert code == cli.EXIT_OK
    text = out.read_text()
    assert "!r20" in text  # table fetch through the packed index register
    # the emitted file is itself a valid pipeline input that verifies clean
    code2, rep2 = _run(capsys, ["-v", str(out)])
    assert code2 == cli.EXIT_OK
    assert rep2["verify"]["verdict"] == "balanced"


def test_transform_error_reserved_scratch(capsys, tmp_path):
    p = tmp_path / "clash.asm"
    p.write_text(";@sensitive @100-101\nand r20 @100 @101\n")
    code, rep = _run(capsys, ["-d", str(p)])
    assert code == cli.EXIT_TRANSFORM
    assert "error" in rep["transform"]


def test_verify_flags_unprotected_gate(capsys, gate_file):
    code, rep = _run(capsys, ["-v", gate_file])
    assert code == cli.EXIT_LEAKY
    assert rep["verify"]["verdict"] == "leaky"
    assert rep["verify"]["findings"]


def test_transform_then_verify_balanced(capsys, gate_file):
    code, rep = _run(capsys, ["-d", "-v", gate_file])
    assert code == cli.EXIT_OK
    assert rep["verify"]["verdict"] == "balanced"
    assert rep["verify"]["findings"] == []


def test_custom_layout_flags(capsys, gate_file):
    code, rep = _run(
        capsys, ["-d", "-v", "-bf", "2", "-bt", "1", "-cl", gate_file]
    )
    assert code == cli.EXIT_OK
    assert rep["verify"]["verdict"] == "balanced"


def test_closed_stdout_keeps_the_exit_code(gate_file):
    # the reader is gone before the report is written: no traceback, and
    # the exit code is the stage's own
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    try:
        for argv, want in ((["-l", gate_file], cli.EXIT_OK), (["-v", gate_file], cli.EXIT_LEAKY)):
            proc = subprocess.run([sys.executable, "-m", "dualrail.cli", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE, env=env)
            assert (proc.returncode, proc.stderr) == (want, b"")
    finally:
        os.close(write_end)


def test_inadmissible_layout_rejected(capsys, gate_file):
    code, rep = _run(capsys, ["-d", "-bf", "6", "-bt", "7", gate_file])
    assert code == cli.EXIT_TRANSFORM
    assert "error" in rep["transform"]


def test_simulate_dumps(capsys, tmp_path):
    p = tmp_path / "prog.asm"
    p.write_text("mov r1 #5\nadd r1 r1 #2\nmov @100 r1\n")
    code, rep = _run(capsys, ["-s", "-M", "100:102", "-R", "1", str(p)])
    assert code == cli.EXIT_OK
    sim = rep["simulate"]
    assert sim["memory"]["100"] == "0x07"
    assert sim["memory"]["101"] == "0x00"
    assert sim["registers"]["1"] == "0x07"
    assert sim["instructions_executed"] == 3


def test_events_csv(capsys, tmp_path):
    p = tmp_path / "prog.asm"
    p.write_text("mov r1 #5\n")
    out = tmp_path / "ev.csv"
    code, rep = _run(capsys, ["-s", "--events-csv", str(out), str(p)])
    assert code == cli.EXIT_OK
    assert out.read_text().startswith("cycle,kind,location,hd,hw")


def test_not_gate_full_pipeline(capsys, tmp_path):
    p = tmp_path / "not.asm"
    p.write_text(NOT_GATE)
    code, rep = _run(capsys, ["-d", "-v", str(p)])
    assert code == cli.EXIT_OK
    assert rep["verify"]["verdict"] == "balanced"


# -- equivalence subcommand -------------------------------------------------


def test_equiv_pass(capsys, gate_file, tmp_path):
    out = tmp_path / "dpl.asm"
    assert cli.main(["-d", "-o", str(out), gate_file]) == cli.EXIT_OK
    capsys.readouterr()
    code, rep = _run(capsys, ["equiv", gate_file, str(out)])
    assert code == cli.EXIT_OK
    assert rep["equivalence"]["passed"] is True
    assert rep["equivalence"]["checked"] == 4


def test_tables_placed_without_la(capsys, tmp_path):
    # the corpus uses cells 0-519 (its indexed operands may reach 288 + 255):
    # the tables go to the first 16-aligned base above them, as -la 544 would
    out = tmp_path / "dpl.asm"
    code, rep = _run(capsys, ["-d", "-v", "-o", str(out), "corpus/present80.asm"])
    assert code == cli.EXIT_OK
    assert rep["transform"]["lut_bytes"] == 48
    assert rep["verify"]["verdict"] == "balanced"
    assert "mov @544 #0 ;@prologue" in out.read_text().splitlines()
    code, rep = _run(capsys, ["equiv", "corpus/present80.asm", str(out)])
    assert code == cli.EXIT_OK
    assert rep["equivalence"]["passed"] is True
    # an explicit base is still checked, and no free region is an error too
    for argv in (["-la", "0"], ["-m", "560"]):
        code, rep = _run(capsys, ["-d", *argv, "corpus/present80.asm"])
        assert code == cli.EXIT_TRANSFORM
        assert "error" in rep["transform"]


def test_rail_readers_take_no_transform_settings(capsys, gate_file, tmp_path):
    # -v, equiv and lab -dpl read only the rails of -bf/-bt: the table base
    # and scratch registers are checked under -d alone, so a 16-register
    # round trip needs no scratch flags after the transform
    out = tmp_path / "g16.asm"
    code, _ = _run(capsys, ["-d", "-r", "16", "-r1", "1", "-r2", "2", "-r3", "3",
                            "-o", str(out), gate_file])
    assert code == cli.EXIT_OK
    for argv in (["-la", "3"], ["-r", "16"], ["-cl", "-r1", "99"]):
        code, rep = _run(capsys, ["-v", *argv, str(out)])
        assert (code, rep["verify"]["verdict"]) == (cli.EXIT_OK, "balanced")
    code, rep = _run(capsys, ["equiv", gate_file, str(out), "-r", "16"])
    assert code == cli.EXIT_OK and rep["equivalence"]["passed"] is True
    code, rep = _run(capsys, ["lab", "traces", str(out), "-o", str(tmp_path / "t.bin"),
                              "-n", "4", "-dpl", "-r", "16"])
    assert code == cli.EXIT_OK and rep["traces"]["runs"] == 4


def test_equiv_detects_mismatch(capsys, gate_file, tmp_path):
    out = tmp_path / "dpl.asm"
    assert cli.main(["-d", "-o", str(out), gate_file]) == cli.EXIT_OK
    capsys.readouterr()
    # sabotage: retarget the table fetch at a wrong region
    text = out.read_text().replace("!r20\n", "!r20,32\n")
    bad = tmp_path / "sabotaged.asm"
    bad.write_text(text)
    code, rep = _run(capsys, ["equiv", gate_file, str(bad)])
    assert code == cli.EXIT_EQUIVALENCE
    assert rep["equivalence"]["passed"] is False
    assert rep["equivalence"]["failures"]


# -- lab subcommand ---------------------------------------------------------


def test_lab_trace_nicv_cpa_chain(capsys, tmp_path):
    tr = tmp_path / "t.bin"
    code, rep = _run(
        capsys,
        ["lab", "traces", "corpus/present80.asm", "-o", str(tr), "-n", "80",
         "-sigma", "0.5", "-window", "sbox", "-seed", "3"],
    )
    assert code == cli.EXIT_OK
    assert rep["traces"]["runs"] == 80

    code, rep = _run(capsys, ["lab", "nicv", "-i", str(tr)])
    assert code == cli.EXIT_OK
    assert 0.0 <= rep["nicv"]["max"] <= 1.0

    code, rep = _run(
        capsys,
        ["lab", "cpa", "-i", str(tr), "-key", "0x133457799BBCDFF1AABB"],
    )
    assert code == cli.EXIT_OK
    assert len(rep["cpa"]["scores"]) == 16
    assert rep["cpa"]["success"] in (True, False)


@pytest.mark.parametrize("key", ["100000000000000000000005", "-5", "zz"])
@pytest.mark.parametrize("command", ["traces", "success-rate", "cpa"])
def test_lab_key_must_be_80_bit_hex(capsys, tmp_path, command, key):
    # a key outside [0, 2**80) once lost its high bits and ran
    argv = {
        "traces": ["corpus/present80.asm", "-o", str(tmp_path / "t.bin"), "-n", "2"],
        "success-rate": ["corpus/present80.asm", "-grid", "2", "-attacks", "1"],
        "cpa": ["-i", str(_trace_file(tmp_path))],
    }[command]
    code, rep = _run(capsys, ["lab", command, *argv, f"-key={key}"])
    assert (code, list(rep)) == (cli.EXIT_SIMULATE, ["lab"])
    assert rep["lab"]["error"].startswith(f"bad key {key!r}:")


def test_lab_nicv_csv_output(capsys, tmp_path):
    tr = tmp_path / "t.bin"
    assert cli.main(
        ["lab", "traces", "corpus/present80.asm", "-o", str(tr), "-n", "40",
         "-sigma", "0", "-window", "sbox"]
    ) == cli.EXIT_OK
    capsys.readouterr()
    csv_out = tmp_path / "nicv.csv"
    code, rep = _run(capsys, ["lab", "nicv", "-i", str(tr), "-o", str(csv_out)])
    assert code == cli.EXIT_OK
    assert csv_out.read_text().splitlines()[0] == "cycle,nicv"


def test_lab_profile(capsys):
    code, rep = _run(capsys, ["lab", "profile", "-n", "32", "-sigma", "1"])
    assert code == cli.EXIT_OK
    prof = rep["profile"]
    assert len(prof["scores"]) == 8
    assert sorted(prof["ranking"]) == list(range(8))
    assert set(prof["recommended_rails"]) == {"bf", "bt"}


def test_missing_file(capsys):
    code, rep = _run(capsys, ["/nonexistent/x.asm"])
    assert code == cli.EXIT_PARSE
    assert "error" in rep["parse"]


# -- errors become a JSON report and an exit code ---------------------------


def _trace_file(tmp_path, n_runs=4, n_cycles=10):
    path = tmp_path / "t.bin"
    save_traces(path, TraceSet(np.zeros((n_runs, n_cycles)), np.arange(n_runs, dtype=np.uint64),
                               fixed_key=None))
    return path


def test_verify_data_dependent_store_address(capsys, tmp_path):
    p = tmp_path / "store.asm"
    p.write_text(";@sensitive r4\nmov !r4,100 #1\n")
    code, rep = _run(capsys, ["-v", str(p)])
    assert code == cli.EXIT_LEAKY
    assert "data-dependent store address" in rep["verify"]["error"]


def test_lab_cpa_window_past_trace_length(capsys, tmp_path):
    code, rep = _run(capsys, ["lab", "cpa", "-i", str(_trace_file(tmp_path)), "-window", "0:11"])
    assert code == cli.EXIT_SIMULATE
    assert "window outside trace length" in rep["lab"]["error"]


def test_lab_truncated_trace_file(capsys, tmp_path):
    path = _trace_file(tmp_path)
    path.write_bytes(path.read_bytes()[:-3])
    code, rep = _run(capsys, ["lab", "nicv", "-i", str(path)])
    assert code == cli.EXIT_SIMULATE
    assert "truncated trace file" in rep["lab"]["error"]


def test_lab_window_label_missing(capsys, gate_file, tmp_path):
    code, rep = _run(capsys, ["lab", "traces", gate_file, "-o", str(tmp_path / "t.bin"),
                              "-n", "2", "-window", "sbox"])
    assert code == cli.EXIT_SIMULATE
    assert "no label 'sbx'" in rep["lab"]["error"]


def test_lab_window_past_the_step_limit(capsys, tmp_path, monkeypatch):
    # the S-box label is reached once before the program spins forever
    monkeypatch.setattr(present, "MAX_STEPS", 100)
    p = tmp_path / "spin.asm"
    p.write_text("sbx: nop\ntop: jmp top\n")
    code, rep = _run(capsys, ["lab", "traces", str(p), "-o", str(tmp_path / "t.bin"),
                              "-n", "2", "-window", "sbox"])
    assert code == cli.EXIT_SIMULATE
    assert "in the step limit of 100" in rep["lab"]["error"]
    assert not (tmp_path / "t.bin").exists()


def test_lab_success_rate_zero_traces(capsys):
    code, rep = _run(capsys, ["lab", "success-rate", "corpus/present80.asm", "-grid", "0",
                              "-window", "sbox"])
    assert code == cli.EXIT_SIMULATE
    assert "at least 2 traces" in rep["lab"]["error"]


def test_lab_traces_zero_runs(capsys, tmp_path):
    out = tmp_path / "t.bin"
    code, rep = _run(capsys, ["lab", "traces", "corpus/present80.asm", "-n", "0", "-o", str(out),
                              "-window", "sbox"])
    assert code == cli.EXIT_PARSE
    assert "argument -n: 0 is not from 1" in rep["usage"]["error"]
    assert not out.exists()


def test_transform_output_unwritable(capsys, gate_file, tmp_path):
    out = tmp_path / "missing" / "out.asm"
    code, rep = _run(capsys, ["-d", "-o", str(out), gate_file])
    assert code == cli.EXIT_TRANSFORM
    assert "cannot write" in rep["transform"]["error"]
    assert rep["transform"]["expanded_count"] == 1


def test_events_csv_unwritable(capsys, tmp_path):
    p = tmp_path / "prog.asm"
    p.write_text("mov r1 #5\n")
    out = tmp_path / "missing" / "ev.csv"
    code, rep = _run(capsys, ["-s", "--events-csv", str(out), str(p)])
    assert code == cli.EXIT_SIMULATE
    assert "cannot write" in rep["simulate"]["error"]


@pytest.mark.parametrize("argv", [
    ["lab", "nicv", "-i", "t.bin", "-o", "missing/out.csv"],
    ["lab", "profile", "-n", "4", "-o", "missing/out.csv"],
    ["lab", "traces", "gate.asm", "-n", "4", "-o", "missing/out.csv"],
    ["lab", "success-rate", "gate.asm", "-grid", "2", "-attacks", "1", "-o", "missing/out.csv"],
], ids=["nicv", "profile", "traces", "success-rate"])
def test_lab_output_unwritable(capsys, tmp_path, monkeypatch, argv):
    _trace_file(tmp_path)
    (tmp_path / "gate.asm").write_text(GATE)
    monkeypatch.chdir(tmp_path)
    code, rep = _run(capsys, argv)
    assert code == cli.EXIT_SIMULATE
    assert rep["lab"]["error"].startswith("cannot write missing/out.csv: [Errno 2]")


def test_simulate_dump_range_reversed(capsys, tmp_path):
    p = tmp_path / "prog.asm"
    p.write_text("mov r1 #5\n")
    code, rep = _run(capsys, ["-s", "-M", "5:3", str(p)])
    assert code == cli.EXIT_SIMULATE
    assert rep["simulate"]["error"] == "memory range '5:3' is reversed: HI is below LO"


# a flag matches only its own name, so the error names what it refused;
# rails that only encode inputs are a command-line setting
@pytest.mark.parametrize("argv, message", [
    pytest.param(["equiv", "gate.asm", "gate.asm", "-r1"],
                 "dualrail equiv: unrecognized arguments: -r1", id="attached-value"),
    pytest.param(["equiv", "gate.asm", "gate.asm", "-se", "3"],
                 "dualrail equiv: unrecognized arguments: -se 3", id="abbreviation"),
    pytest.param(["lab", "traces", "gate.asm", "-o", "t.bin", "-nibble", "3"],
                 "dualrail lab: unrecognized arguments: -nibble 3", id="flag-of-another-command"),
    pytest.param(["-dv", "gate.asm"], "dualrail: unrecognized arguments: -dv", id="combined-flags"),
    pytest.param(["-s", "--events", "e.csv", "gate.asm"], "dualrail: unrecognized arguments: --events",
                 id="long-abbreviation"),
    pytest.param(["-v", "-bf", "6", "-bt", "7", "gate.asm"],
                 "argument -bf/-bt: packed index field", id="verify-rails"),
])
def test_usage_error_names_the_token(capsys, tmp_path, monkeypatch, argv, message):
    (tmp_path / "gate.asm").write_text(GATE)
    monkeypatch.chdir(tmp_path)
    code, rep = _run(capsys, argv)
    assert code == cli.EXIT_PARSE
    assert rep["usage"]["error"].startswith(message)


# -- one failure table: every bad input is one JSON report and its code -----

_INPUTS = {
    "gate.asm": GATE,
    "xor.asm": ";@sensitive r4 r5\n;@output r6\nxor r6 r4 r5\n",
    "badloc.asm": ";@sensitive foo\nand @2 @0 @1\n",
    "mem5000.asm": ";@sensitive @5000\nand @2 @0 @1\n",
    "r40.asm": ";@sensitive r40 @100-101\n;@output @102\nand @102 @100 @101\n",
    "out5000.asm": ";@output @5000\nmov @2 #1\n",
    "leadzero.asm": "mov r1 #010\n",
    "regs.asm": "mov r1 #1\n",
}

FAILURES = [
    # command-line errors, for each entry point
    pytest.param(["-r", "x", "gate.asm"], "usage", id="pipeline-bad-value"),
    pytest.param(["--bogus", "gate.asm"], "usage", id="pipeline-unknown-flag"),
    pytest.param(["-d"], "usage", id="pipeline-missing-file"),
    pytest.param(["equiv", "-n", "x", "gate.asm", "gate.asm"], "usage", id="equiv-bad-value"),
    pytest.param(["equiv", "--bogus", "gate.asm", "gate.asm"], "usage", id="equiv-unknown-flag"),
    pytest.param(["equiv", "gate.asm"], "usage", id="equiv-missing-file"),
    pytest.param(["lab", "nicv", "-i", "huge.bin", "-nibble", "x"], "usage", id="lab-bad-value"),
    pytest.param(["lab", "profile", "--bogus"], "usage", id="lab-unknown-flag"),
    pytest.param(["lab", "traces", "-o", "t.bin"], "usage", id="lab-missing-file"),
    # the table index field starts at the lower rail: there is no offset flag
    pytest.param(["-d", "-bf", "2", "-bt", "1", "-po", "1", "gate.asm"], "usage",
                 id="pattern-offset-flag"),
    # numeric flags out of range
    pytest.param(["-s", "-m", "-3", "regs.asm"], "usage", id="memory-size-negative"),
    pytest.param(["-s", "-m", "100000000000", "regs.asm"], "usage", id="memory-size-huge"),
    pytest.param(["-s", "-r", "0", "regs.asm"], "usage", id="register-file-empty"),
    pytest.param(["lab", "traces", "gate.asm", "-o", "t.bin", "-slot", "9"], "usage",
                 id="lab-slot-beyond-word"),
    pytest.param(["lab", "cpa", "-i", "huge.bin", "-nibble", "99"], "usage",
                 id="lab-nibble-beyond-plaintext"),
    pytest.param(["-d", "-r1", "99", "gate.asm"], "usage", id="scratch-register-beyond-file"),
    pytest.param(["-d", "-r1", "-3", "gate.asm"], "usage", id="scratch-register-negative"),
    pytest.param(["equiv", "-n", "0", "gate.asm", "gate.asm"], "usage", id="equiv-no-samples"),
    pytest.param(["lab", "traces", "gate.asm", "-o", "t.bin", "-n", "-1"], "usage",
                 id="lab-traces-negative-runs"),
    pytest.param(["lab", "profile", "-n", "0"], "usage", id="lab-profile-no-runs"),
    pytest.param(["lab", "success-rate", "gate.asm", "-grid", "2", "-attacks", "0"], "usage",
                 id="lab-success-rate-no-attacks"),
    # the table and scratch flags are the pipeline's, and lab traces attacks
    # no nibble
    pytest.param(["equiv", "gate.asm", "gate.asm", "-la", "768"], "usage", id="equiv-table-base"),
    pytest.param(["lab", "traces", "gate.asm", "-o", "t.bin", "-nibble", "3"], "usage",
                 id="lab-traces-nibble"),
    pytest.param(["lab", "success-rate", "gate.asm", "-grid", "2", "-r1", "5"], "usage",
                 id="lab-success-rate-scratch-register"),
    # rails that only encode inputs are a command-line setting
    pytest.param(["-v", "-bf", "6", "-bt", "7", "xor.asm"], "usage", id="verify-rails-inadmissible"),
    pytest.param(["equiv", "-bf", "6", "-bt", "7", "gate.asm", "gate.asm"], "usage",
                 id="equiv-rails-inadmissible"),
    pytest.param(["lab", "traces", "gate.asm", "-o", "t.bin", "-dpl", "-bf", "6", "-bt", "7"], "usage",
                 id="lab-traces-rails-inadmissible"),
    # inputs that once ended in a traceback
    pytest.param(["-d", "badloc.asm"], "parse", id="bad-directive-location"),
    pytest.param(["-v", "mem5000.asm"], "lint", id="verify-sensitive-cell-out-of-range"),
    pytest.param(["equiv", "r40.asm", "r40.asm"], "equivalence", id="equiv-sensitive-register-out-of-range"),
    pytest.param(["lab", "nicv", "-i", "huge.bin"], "lab", id="trace-header-larger-than-file"),
    pytest.param(["lab", "nicv", "-i", "wide.bin"], "lab", id="nicv-trace-of-16-bit-words"),
    pytest.param(["lab", "cpa", "-i", "wide.bin"], "lab", id="cpa-trace-of-16-bit-words"),
    pytest.param(["lab", "traces", "gate.asm", "-o", "t.bin", "-sigma", "nan"], "lab",
                 id="lab-traces-noise-nan"),
    pytest.param(["lab", "success-rate", "gate.asm", "-grid", "20", "-attacks", "2",
                  "-sigma", "inf"], "lab", id="lab-success-rate-noise-infinite"),
    pytest.param(["lab", "traces", "gate.asm", "-o", "t.bin", "-weights", "nan,1,1,1,1,1,1,1"],
                 "lab", id="lab-traces-weight-nan"),
    pytest.param(["lab", "profile", "-weights", "1,1,1,1,1,1,1,inf"], "lab",
                 id="lab-profile-weight-infinite"),
    pytest.param(["lab", "nicv", "-i", "inf.bin"], "lab", id="nicv-trace-of-infinity"),
    pytest.param(["lab", "cpa", "-i", "inf.bin"], "lab", id="cpa-trace-of-infinity"),
    # one library error per pipeline stage
    pytest.param(["-l", "leadzero.asm"], "parse", id="parse-leading-zero"),
    pytest.param(["-d", "-bf", "-1", "-bt", "-2", "gate.asm"], "transform",
                 id="transform-negative-rails"),
    pytest.param(["-d", "-la", "-16", "xor.asm"], "transform", id="transform-negative-table-base"),
    pytest.param(["-v", "out5000.asm"], "lint", id="verify-output-cell-out-of-range"),
    pytest.param(["-s", "r40.asm"], "lint", id="simulate-sensitive-register-out-of-range"),
]


@pytest.mark.parametrize("argv, stage", FAILURES)
def test_failure_is_one_json_report(capsys, tmp_path, monkeypatch, argv, stage):
    for name, text in _INPUTS.items():
        (tmp_path / name).write_text(text)
    # a 20-byte trace file whose header claims 10^6 runs of 10^6 cycles
    (tmp_path / "huge.bin").write_bytes(b"DPLT" + struct.pack("<IIII", 1, 10**6, 10**6, 8))
    # two runs of one cycle, plaintexts 0 and 1, in a header that claims
    # 16-bit words
    (tmp_path / "wide.bin").write_bytes(
        b"DPLT" + struct.pack("<IIII", 1, 2, 1, 16) + struct.pack("<QfQf", 0, 0.0, 1, 0.0)
    )
    # two runs of two cycles, the second cycle infinite
    (tmp_path / "inf.bin").write_bytes(
        b"DPLT" + struct.pack("<IIII", 1, 2, 2, 8)
        + struct.pack("<QffQff", 0, 0.0, float("inf"), 1, 1.0, float("inf"))
    )
    monkeypatch.chdir(tmp_path)
    code = cli.main(argv)
    out, err = capsys.readouterr()
    report = json.loads(out)  # exactly one JSON document
    assert (code, err) == (cli.EXIT_CODES[stage], "")
    assert "error" in report[stage]
    assert [k for k, v in report.items() if "error" in v] == [stage]


def test_help_is_not_a_failure(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["lab", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: dualrail lab")
