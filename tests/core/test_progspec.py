"""Tests for declarative program specifications."""

import json

import pytest

from repro.errors import ReproError
from repro.core import build_program
from repro.core.progspec import (
    fork_tree_spec,
    sleeper_spec,
    spinner_spec,
    worker_spec,
)
from repro.unixsim.programs import (
    ForkTreeProgram,
    SleeperProgram,
    SpinnerProgram,
    WorkerProgram,
)


def test_specs_are_json_serialisable():
    spec = fork_tree_spec(
        [("child", 10.0, spinner_spec(100.0)),
         ("other", 20.0, None)],
        duration_ms=500.0)
    assert json.loads(json.dumps(spec)) == spec


def test_build_spinner():
    program = build_program(spinner_spec(123.0))
    assert isinstance(program, SpinnerProgram)
    assert program.duration_ms == 123.0
    assert build_program(spinner_spec()).duration_ms is None


def test_build_sleeper_and_worker():
    assert isinstance(build_program(sleeper_spec(5.0)), SleeperProgram)
    worker = build_program(worker_spec(9.0, exit_status=3))
    assert isinstance(worker, WorkerProgram)
    assert worker.exit_status == 3


def test_build_fork_tree_recursive():
    spec = fork_tree_spec(
        [("a", 1.0, fork_tree_spec([("b", 2.0, worker_spec(5.0))]))])
    program = build_program(spec)
    assert isinstance(program, ForkTreeProgram)
    (command, delay, child), = program.children_spec
    assert command == "a"
    assert isinstance(child, ForkTreeProgram)


def test_none_spec_builds_nothing():
    assert build_program(None) is None


def test_fork_tree_default_child_is_forever_spinner():
    program = build_program(fork_tree_spec([("c", 0.0, None)]))
    (_, _, child), = program.children_spec
    assert isinstance(child, SpinnerProgram)
    assert child.duration_ms is None


def test_unknown_spec_rejected():
    with pytest.raises(ReproError):
        build_program({"type": "daemon"})
