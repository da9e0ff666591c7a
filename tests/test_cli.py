"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.core.kernels import KERNELS
from repro.core.transaction import TransactionDB
from repro.data.io import write_dat


@pytest.fixture
def dat_file(tmp_path):
    db = TransactionDB(
        [(1, 2, 3), (1, 2), (2, 3), (1, 3), (1, 2, 3), (2, 3)]
    )
    path = tmp_path / "db.dat"
    write_dat(db, path)
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_mine_defaults(self, dat_file):
        args = build_parser().parse_args(["mine", str(dat_file)])
        assert args.min_support == 0.01
        assert args.algorithm is None

    def test_bad_algorithm_rejected(self, dat_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["mine", str(dat_file), "--algorithm", "NOPE"]
            )

    def test_bad_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "figure99"])


class TestMineCommand:
    def test_serial_mine(self, dat_file, capsys):
        exit_code = main(["mine", str(dat_file), "--min-support", "0.3"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "serial Apriori" in out
        assert "frequent item-sets" in out

    def test_parallel_mine(self, dat_file, capsys):
        exit_code = main(
            [
                "mine",
                str(dat_file),
                "--min-support",
                "0.3",
                "--algorithm",
                "HD",
                "--processors",
                "2",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "HD on 2 simulated processors" in out
        assert "response time" in out

    def test_mine_with_rules(self, dat_file, capsys):
        exit_code = main(
            [
                "mine",
                str(dat_file),
                "--min-support",
                "0.3",
                "--min-confidence",
                "0.6",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "rules at confidence" in out
        assert "=>" in out

    def test_mine_on_sp2(self, dat_file, capsys):
        exit_code = main(
            [
                "mine",
                str(dat_file),
                "--min-support",
                "0.3",
                "--algorithm",
                "CD",
                "--machine",
                "sp2",
            ]
        )
        assert exit_code == 0
        assert "IBM SP2" in capsys.readouterr().out


class TestNativeMineCommand:
    def test_native_mine(self, dat_file, capsys):
        exit_code = main(
            [
                "mine", str(dat_file), "--min-support", "0.3",
                "--algorithm", "native", "--processors", "2",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "native CD on 2 worker processes" in out
        assert "frequent item-sets" in out

    def test_native_mine_with_fault_spec(self, dat_file, capsys):
        exit_code = main(
            [
                "mine", str(dat_file), "--min-support", "0.3",
                "--algorithm", "native", "--processors", "2",
                "--fault-spec", "kill@0:k2",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "pass 2: worker 0 died -> respawned" in out

    def test_simulated_mine_with_fault_spec(self, dat_file, capsys):
        exit_code = main(
            [
                "mine", str(dat_file), "--min-support", "0.3",
                "--algorithm", "CD", "--processors", "2",
                "--fault-spec", "kill@0:k2",
            ]
        )
        assert exit_code == 0
        assert "frequent item-sets" in capsys.readouterr().out

    def test_fault_knob_defaults(self, dat_file):
        args = build_parser().parse_args(["mine", str(dat_file)])
        assert args.fault_spec is None
        assert args.recv_timeout == 30.0
        assert args.max_retries == 2

    def test_fault_spec_parsed_at_cli_edge(self, dat_file):
        from repro.faults import FaultSpec

        args = build_parser().parse_args(
            ["mine", str(dat_file), "--fault-spec", "kill@0:k2"]
        )
        assert isinstance(args.fault_spec, FaultSpec)
        assert args.fault_spec.format() == "kill@0:k2"

    def test_malformed_fault_spec_is_usage_error(self, dat_file, capsys):
        # e.g. 'kill@0' (no pass number) must be an argparse usage
        # error, not a raw ValueError traceback from miner construction.
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "mine", str(dat_file),
                    "--algorithm", "native",
                    "--fault-spec", "kill@0",
                ]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--fault-spec" in err
        assert "malformed fault event" in err


class TestKernelAndDataPlaneFlags:
    def test_flag_defaults(self, dat_file):
        args = build_parser().parse_args(["mine", str(dat_file)])
        assert args.kernel is None
        assert args.data_plane is None

    def test_bad_kernel_is_usage_error(self, dat_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["mine", str(dat_file), "--kernel", "turbo"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--kernel" in err
        assert "unknown kernel" in err

    def test_bad_data_plane_is_usage_error(self, dat_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["mine", str(dat_file), "--algorithm", "native",
                 "--data-plane", "carrier-pigeon"]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--data-plane" in err
        assert "unknown data plane" in err

    def test_data_plane_without_native_is_usage_error(self, dat_file, capsys):
        # --data-plane picks the native pool's transport; the simulated
        # formulations have no worker processes for it to configure.
        for argv in (
            ["mine", str(dat_file), "--data-plane", "shared"],
            ["mine", str(dat_file), "--algorithm", "CD",
             "--data-plane", "mmap"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert "--data-plane" in capsys.readouterr().err

    def test_serial_mine_with_kernel(self, dat_file, capsys):
        for kernel in ("reference", "fast"):
            exit_code = main(
                ["mine", str(dat_file), "--min-support", "0.3",
                 "--kernel", kernel]
            )
            assert exit_code == 0
            assert "serial Apriori" in capsys.readouterr().out

    def test_simulated_mine_with_kernel(self, dat_file, capsys):
        exit_code = main(
            ["mine", str(dat_file), "--min-support", "0.3",
             "--algorithm", "CD", "--processors", "2",
             "--kernel", "fast"]
        )
        assert exit_code == 0
        assert "frequent item-sets" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "algorithm, kernel, allowed",
        [
            # The deleted TID-bitmap kernel is no kernel at all.
            ("CD", "vertical", "'reference', 'fast', 'fast-np'"),
            ("IDD", "fast-np", "'reference', 'fast'"),
            ("HD", "vertical", "'reference', 'fast', 'fast-np'"),
            ("native-cd", "reference", "'fast-np'"),
            ("native-idd", "fast", "'fast-np'"),
            ("native", "fast", "'fast-np'"),
            ("native-hd", "vertical", "'reference', 'fast', 'fast-np'"),
        ],
    )
    def test_kernel_algorithm_mismatch_is_usage_error(
        self, dat_file, capsys, algorithm, kernel, allowed
    ):
        # Rejected before the database is even read: one usage line
        # naming the kernels the chosen miner can run (or, for a name
        # that is no kernel, every kernel).
        with pytest.raises(SystemExit) as excinfo:
            main(["mine", str(dat_file), "--algorithm", algorithm,
                  "--kernel", kernel])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "loaded" not in captured.out
        (line,) = [
            text for text in captured.err.splitlines() if "error:" in text
        ]
        reason = "unsupported" if kernel in KERNELS else "unknown"
        assert f"{reason} kernel {kernel!r}" in line
        assert line.endswith(f"expected one of: {allowed}")

    @pytest.mark.parametrize("command", ["mine", "serve"])
    def test_vertical_kernel_is_usage_error(self, dat_file, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, str(dat_file), "--kernel", "vertical"])
        assert excinfo.value.code == 2
        (line,) = [
            text for text in capsys.readouterr().err.splitlines()
            if "error:" in text
        ]
        assert "unknown kernel 'vertical'" in line

    def test_serve_attach_kernel_mismatch_is_usage_error(
        self, tmp_path, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--attach", str(tmp_path / "x.packed"),
                  "--algorithm", "native-hd", "--kernel", "reference"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unsupported kernel 'reference'" in err
        assert "expected one of: 'fast-np'" in err

    def test_native_mine_each_plane(self, dat_file, capsys):
        for plane in ("shared", "mmap"):
            exit_code = main(
                ["mine", str(dat_file), "--min-support", "0.3",
                 "--algorithm", "native", "--processors", "2",
                 "--data-plane", plane, "--kernel", "fast-np"]
            )
            assert exit_code == 0
            out = capsys.readouterr().out
            assert f"({plane} data plane)" in out
            assert "frequent item-sets" in out


class TestCheckpointFlags:
    """The out-of-core and crash-recovery flags added with the mmap plane."""

    def test_flag_defaults(self, dat_file):
        args = build_parser().parse_args(["mine", str(dat_file)])
        assert args.store_dir is None
        assert args.block_budget is None
        assert args.checkpoint_dir is None
        assert args.resume is False

    def test_resume_without_checkpoint_dir_is_usage_error(
        self, dat_file, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["mine", str(dat_file), "--algorithm", "native", "--resume"]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--resume requires --checkpoint-dir" in err

    def test_checkpoint_dir_without_native_is_usage_error(
        self, dat_file, tmp_path, capsys
    ):
        # Only the native pool journals passes; the simulated
        # formulations have no coordinator process to crash.
        for argv in (
            ["mine", str(dat_file), "--checkpoint-dir", str(tmp_path)],
            ["mine", str(dat_file), "--algorithm", "CD",
             "--checkpoint-dir", str(tmp_path)],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert "--checkpoint-dir" in capsys.readouterr().err

    def test_block_budget_without_native_is_usage_error(
        self, dat_file, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["mine", str(dat_file), "--block-budget", "64"])
        assert excinfo.value.code == 2
        assert "--block-budget" in capsys.readouterr().err

    def test_block_budget_on_pickle_plane_is_usage_error(
        self, dat_file, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["mine", str(dat_file), "--algorithm", "native",
                 "--data-plane", "pickle", "--block-budget", "64"]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown data plane 'pickle'" in err

    def test_block_budget_must_be_positive(self, dat_file, capsys):
        for bad in ("0", "-3", "four"):
            with pytest.raises(SystemExit) as excinfo:
                main(
                    ["mine", str(dat_file), "--algorithm", "native",
                     "--data-plane", "shared", "--block-budget", bad]
                )
            assert excinfo.value.code == 2
            assert "--block-budget" in capsys.readouterr().err

    def test_store_dir_without_mmap_plane_is_usage_error(
        self, dat_file, tmp_path, capsys
    ):
        for argv in (
            ["mine", str(dat_file), "--store-dir", str(tmp_path)],
            ["mine", str(dat_file), "--algorithm", "native",
             "--data-plane", "shared", "--store-dir", str(tmp_path)],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert "--store-dir" in capsys.readouterr().err

    def test_native_mine_through_mmap_plane(self, dat_file, tmp_path, capsys):
        store = tmp_path / "store"
        store.mkdir()
        exit_code = main(
            ["mine", str(dat_file), "--min-support", "0.3",
             "--algorithm", "native", "--processors", "2",
             "--data-plane", "mmap", "--store-dir", str(store),
             "--block-budget", "4", "--kernel", "fast-np"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "(mmap data plane)" in out
        assert "frequent item-sets" in out
        # A clean run unlinks its packed store file at pool shutdown.
        assert list(store.glob("*.packed")) == []

    def test_resume_round_trip_prints_pass(self, dat_file, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        base = [
            "mine", str(dat_file), "--min-support", "0.3",
            "--algorithm", "native", "--processors", "2",
            "--checkpoint-dir", ckpt,
        ]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "resumed from checkpoint after pass" in out
        assert "frequent item-sets" in out


class TestGenerateCommand:
    def test_generates_file(self, tmp_path, capsys):
        out_path = tmp_path / "synthetic.dat"
        exit_code = main(
            [
                "generate",
                "--transactions",
                "50",
                "--items",
                "40",
                "--out",
                str(out_path),
            ]
        )
        assert exit_code == 0
        assert out_path.exists()
        assert "wrote 50 transactions" in capsys.readouterr().out

    def test_generated_file_is_minable(self, tmp_path, capsys):
        out_path = tmp_path / "synthetic.dat"
        main(
            ["generate", "--transactions", "60", "--items", "30",
             "--out", str(out_path), "--seed", "4"]
        )
        exit_code = main(
            ["mine", str(out_path), "--min-support", "0.1"]
        )
        assert exit_code == 0


class TestScaleFlags:
    """`generate --generate-to` / `mine --attach`."""

    def test_generate_to_writes_attachable_store(self, tmp_path, capsys):
        store = tmp_path / "db.packed"
        exit_code = main(
            ["generate", "--transactions", "250", "--items", "40",
             "--seed", "5", "--generate-to", str(store),
             "--progress-every", "100"]
        )
        assert exit_code == 0
        assert store.exists()
        out = capsys.readouterr().out
        assert "generated 100/250 transactions" in out
        assert "generated 250/250 transactions" in out
        assert "wrote packed store" in out

    def test_generate_without_destination_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["generate", "--transactions", "10"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--out" in err and "--generate-to" in err

    def test_generate_both_destinations(self, tmp_path, capsys):
        exit_code = main(
            ["generate", "--transactions", "40", "--items", "30",
             "--out", str(tmp_path / "db.dat"),
             "--generate-to", str(tmp_path / "db.packed")]
        )
        assert exit_code == 0
        assert (tmp_path / "db.dat").exists()
        assert (tmp_path / "db.packed").exists()

    def test_attach_mines_the_store(self, tmp_path, capsys):
        store = tmp_path / "db.packed"
        main(
            ["generate", "--transactions", "200", "--items", "30",
             "--seed", "6", "--generate-to", str(store)]
        )
        capsys.readouterr()
        exit_code = main(
            ["mine", "--attach", str(store), "--algorithm", "native-cd",
             "--processors", "2", "--min-support", "0.1"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "attached 200 transactions" in out
        assert "(mmap data plane)" in out  # --attach defaults to mmap
        assert "frequent item-sets" in out
        # The attached store is the caller's file: still there.
        assert store.exists()

    def test_database_and_attach_are_mutually_exclusive(
        self, dat_file, tmp_path, capsys
    ):
        for argv in (
            ["mine"],
            ["mine", str(dat_file), "--attach", str(tmp_path / "x.packed")],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert "exactly one input" in capsys.readouterr().err

    def test_attach_without_native_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["mine", "--attach", str(tmp_path / "x.packed")])
        assert excinfo.value.code == 2
        assert "--attach requires a native algorithm" in (
            capsys.readouterr().err
        )

    def test_attach_on_pickle_plane_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["mine", "--attach", str(tmp_path / "x.packed"),
                 "--algorithm", "native", "--data-plane", "pickle"]
            )
        assert excinfo.value.code == 2
        assert "unknown data plane 'pickle'" in capsys.readouterr().err

    def test_attach_missing_store_is_clean_error(self, tmp_path, capsys):
        exit_code = main(
            ["mine", "--attach", str(tmp_path / "gone.packed"),
             "--algorithm", "native-cd"]
        )
        assert exit_code == 2
        assert "does not exist" in capsys.readouterr().err


class TestReportFlag:
    def test_serial_report(self, dat_file, capsys):
        exit_code = main(
            ["mine", str(dat_file), "--min-support", "0.3", "--report"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "serial Apriori run" in out
        assert "pass" in out

    def test_parallel_report(self, dat_file, capsys):
        exit_code = main(
            [
                "mine", str(dat_file), "--min-support", "0.3",
                "--algorithm", "CD", "--processors", "2", "--report",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "CD run on 2 simulated processors" in out
        assert "runtime decomposition" in out


class TestChartFlag:
    def test_experiment_chart(self, capsys, monkeypatch):
        from repro.experiments.common import ExperimentResult

        def fake_experiment(**kwargs):
            r = ExperimentResult("table2", "fake", "pass", "value")
            r.add_point("G", 2, 4)
            r.add_point("G", 3, 2)
            return r

        import repro.cli as cli_module

        monkeypatch.setitem(
            cli_module.EXPERIMENTS, "table2", fake_experiment
        )
        exit_code = main(["experiment", "table2", "--chart"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "legend:" in out


class TestServeAndQueryFlags:
    """Usage guards for the serving daemon's CLI surface."""

    def test_serve_defaults(self, dat_file):
        args = build_parser().parse_args(["serve", str(dat_file)])
        assert args.min_confidence == 0.5
        assert args.port == 7911
        assert args.remine_every is None
        assert args.algorithm == "native-cd"

    def test_serve_requires_exactly_one_input(self, dat_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve"])
        assert excinfo.value.code == 2
        assert "exactly one model source" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", str(dat_file), "--attach", "x.packed"])
        assert excinfo.value.code == 2
        assert "exactly one model source" in capsys.readouterr().err

    def test_serve_rejects_bad_confidence(self, dat_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", str(dat_file), "--min-confidence", "0"])
        assert excinfo.value.code == 2
        assert "--min-confidence" in capsys.readouterr().err

    def test_serve_rejects_bad_remine_every(self, dat_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", str(dat_file), "--remine-every", "0"])
        assert excinfo.value.code == 2
        assert "--remine-every" in capsys.readouterr().err

    def test_serve_block_budget_requires_attach(self, dat_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", str(dat_file), "--block-budget", "64"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--block-budget only applies with --attach" in err

    def test_query_requires_exactly_one_action(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["query"])
        assert excinfo.value.code == 2
        assert "exactly one action" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            main(["query", "--stats", "--ping"])
        assert excinfo.value.code == 2
        assert "exactly one action" in capsys.readouterr().err

    def test_query_wait_requires_remine(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["query", "--stats", "--wait"])
        assert excinfo.value.code == 2
        assert "--remine" in capsys.readouterr().err

    def test_query_unreachable_daemon_is_an_error(self, capsys):
        # A port from the ephemeral range with nothing listening.
        exit_code = main(
            ["query", "--port", "1", "--timeout", "0.5", "--ping"]
        )
        assert exit_code == 1
        assert "cannot reach daemon" in capsys.readouterr().err


class TestServeEndToEnd:
    """The daemon as a subprocess, driven by the in-process query CLI."""

    @staticmethod
    def _spawn_daemon(dat_file, *extra):
        import os
        import select
        import subprocess
        import sys
        from pathlib import Path

        repo_src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(repo_src), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", str(dat_file),
                "--min-support", "0.2", "--min-confidence", "0.4",
                "--port", "0", *extra,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        ready, _, _ = select.select([proc.stdout], [], [], 30.0)
        assert ready, "daemon never printed its ready line"
        line = proc.stdout.readline()
        assert "serving rules on" in line, line
        port = int(line.split("127.0.0.1:")[1].split()[0])
        return proc, port

    @pytest.mark.timeout(120)
    def test_serve_query_remine_shutdown(self, dat_file, capsys):
        proc, port = self._spawn_daemon(dat_file)
        try:
            exit_code = main(["query", "--port", str(port), "1"])
            assert exit_code == 0
            out = capsys.readouterr().out
            assert "generation 1" in out
            assert main(["query", "--port", str(port), "--remine",
                         "--wait"]) == 0
            assert "generation 2" in capsys.readouterr().out
            assert main(["query", "--port", str(port), "--stats"]) == 0
            stats_out = capsys.readouterr().out
            assert "failed_queries:     0" in stats_out
            assert "generation:         2" in stats_out
            assert main(["query", "--port", str(port), "--shutdown"]) == 0
            assert proc.wait(timeout=20) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

    @pytest.mark.timeout(120)
    def test_sigterm_is_a_clean_exit(self, dat_file, capsys):
        import signal

        proc, port = self._spawn_daemon(dat_file)
        try:
            assert main(["query", "--port", str(port), "--ping"]) == 0
            capsys.readouterr()
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=20) == 0
            remaining = proc.stdout.read()
            assert "shut down cleanly" in remaining
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
