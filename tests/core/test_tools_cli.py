"""Tests for the simulate/figures CLI subcommands (classify is covered in
``test_tools.py``)."""

from __future__ import annotations

import re

import pytest

from repro.tools.__main__ import main as cli_main


class TestSimulate:
    def test_set_universal(self, capsys):
        code = cli_main(["simulate", "--spec", "set", "--ops", "40", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "update-consistent convergence: PASS" in out
        assert "messages:" in out

    def test_counter_commutative_strategy(self, capsys):
        # The counter's updates commute, so the default strategy runs
        # Section VII-C's commutative path (the fold replay), which still
        # records the witness the convergence check reads.
        code = cli_main(["simulate", "--spec", "counter", "--ops", "30"])
        out = capsys.readouterr().out
        assert code == 0
        assert "update-consistent convergence: PASS" in out

    def test_gc_strategy_records_the_witness(self, capsys):
        # A garbage-collecting replica records its Def. 9 witness like
        # every Algorithm 1 replica: the convergence check runs on its
        # update stamps, the timestamp size is read from them, and the
        # staleness line from its queries' visibility.
        code = cli_main(["simulate", "--spec", "counter", "--strategy", "gc"])
        out = capsys.readouterr().out
        assert code == 0
        assert "update-consistent convergence: PASS" in out
        bits = re.search(r"max timestamp (\d+) bits", out)
        assert bits is not None and int(bits.group(1)) > 0
        assert "reads: " in out

    def test_fuzzed_run_reports_adversary(self, capsys):
        code = cli_main([
            "simulate", "--spec", "set", "--ops", "30", "--fuzz",
            "--crash", "1", "--seed", "5",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "adversary:" in out

    def test_memory_spec(self, capsys):
        code = cli_main(["simulate", "--spec", "memory", "--ops", "30"])
        assert code == 0
        assert "converged state" in capsys.readouterr().out

    def test_log_spec(self, capsys):
        code = cli_main(["simulate", "--spec", "log", "--ops", "20", "--n", "2"])
        assert code == 0

    def test_determinism(self, capsys):
        cli_main(["simulate", "--spec", "set", "--ops", "40", "--seed", "9"])
        first = capsys.readouterr().out
        cli_main(["simulate", "--spec", "set", "--ops", "40", "--seed", "9"])
        second = capsys.readouterr().out
        assert first == second


class TestFigures:
    def test_prints_matrix(self, capsys):
        assert cli_main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out and "1a" in out
        # The caption, as text.
        assert "yes | no  | no  | no  | no" in out


class TestDispatch:
    def test_default_command_is_classify(self, capsys):
        code = cli_main(["--demo", "fig1c"])
        assert code == 1  # SUC/PC fail on 1c
        assert "UC  : holds" in capsys.readouterr().out

    def test_classify_without_input_errors(self, capsys):
        assert cli_main(["classify"]) == 2
        assert "history file" in capsys.readouterr().err
