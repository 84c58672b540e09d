"""Tests for the command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestColdStart:
    def test_cli_import_skips_scipy_stats(self):
        """Every CLI call, dist worker and cluster respawn pays this import."""
        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        code = "import sys, repro.cli; print('scipy.stats' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert out.stdout.strip() == "False"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["dba"])
        assert args.scale == "smoke"
        assert args.threshold == 3
        assert args.variant == "M2"

    def test_rejects_bad_scale(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["info", "--scale", "galactic"])

    def test_rejects_bad_variant(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dba", "--variant", "M9"])

    def test_threshold_short_flag(self):
        args = build_parser().parse_args(["dba", "-V", "5"])
        assert args.threshold == 5

    def test_all_commands_registered(self):
        parser = build_parser()
        for cmd in ("info", "baseline", "dba", "table1", "sweep", "table4"):
            args = parser.parse_args([cmd])
            assert callable(args.func)


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "languages: 5" in out
        assert "EN_DNN" in out

    @pytest.mark.slow
    def test_table1(self, capsys):
        assert main(["table1", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "V = 6" in out and "error rate" in out

    @pytest.mark.slow
    def test_dba_command(self, capsys):
        assert main(["dba", "--scale", "smoke", "-V", "3"]) == 0
        out = capsys.readouterr().out
        assert "PPRVSM" in out and "DBA-M2" in out and "pool:" in out


class TestStoreFlag:
    @pytest.mark.parametrize(
        "command",
        ["baseline", "dba", "sweep", "table4", "campaign", "replicate"],
    )
    def test_store_flag_available(self, command):
        args = build_parser().parse_args([command, "--store", "/tmp/s"])
        assert args.store == "/tmp/s"

    @pytest.mark.parametrize("command", ["baseline", "campaign"])
    def test_store_defaults_to_none(self, command):
        assert build_parser().parse_args([command]).store is None

    def test_info_has_no_store_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["info", "--store", "/tmp/s"])

    @pytest.mark.slow
    def test_baseline_resumes_from_store(self, tmp_path, capsys):
        from repro.obs.metrics import default_registry

        store_dir = str(tmp_path / "store")
        assert main(["baseline", "--scale", "smoke", "--store", store_dir]) == 0
        registry = default_registry()
        registry.reset()
        assert main(["baseline", "--scale", "smoke", "--store", store_dir]) == 0
        assert registry.counter("exec.stage.phi.executed").value == 0
        assert registry.counter("exec.store.hits").value > 0
        out = capsys.readouterr().out
        assert "PPRVSM" in out
