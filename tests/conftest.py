"""Shared fixtures: the cipher corpus is expensive to build, so parsed and
transformed versions are constructed once per session."""

import importlib.util
from pathlib import Path

import pytest

from dualrail.asm import parse, resolve
from dualrail.dpl import DplConfig, transform
from dualrail.present import LABEL_SBOX, loop_iteration_window, present_program

#: fixed key used across attack tests (arbitrary, hex-memorable)
TEST_KEY = 0x133457799BBCDFF1AABB

def netlist_generator():
    """``generate`` of the benchmark's seeded gate netlists (perfbench/netlist.py)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "netlist.py"
    spec = importlib.util.spec_from_file_location("netlist", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.generate


#: one line per acceptance criterion, echoed after the test summary
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def canonical_cfg():
    return DplConfig(lut_base=768)


@pytest.fixture(scope="session")
def unprotected_src():
    return parse(present_program(0))


@pytest.fixture(scope="session")
def dpl_build(unprotected_src, canonical_cfg):
    """(transformed Program, TransformReport) for the canonical config."""
    return transform(unprotected_src, canonical_cfg)


@pytest.fixture(scope="session")
def linked_unprotected(unprotected_src):
    return resolve(unprotected_src)


@pytest.fixture(scope="session")
def linked_dpl(dpl_build):
    return resolve(dpl_build[0])


@pytest.fixture(scope="session")
def sbox_window_u(linked_unprotected):
    return loop_iteration_window(linked_unprotected, LABEL_SBOX)


@pytest.fixture(scope="session")
def sbox_window_d(linked_dpl):
    return loop_iteration_window(linked_dpl, LABEL_SBOX)
