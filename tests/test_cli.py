"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command in ("figure6", "overhead", "protocols", "resources", "ablations"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_cut_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cut"])

    def test_cut_subcommands(self):
        parser = build_parser()
        run_args = parser.parse_args(["cut", "run", "--width", "2", "--workload", "random"])
        assert run_args.command == "cut" and run_args.cut_command == "run"
        assert run_args.width == 2 and run_args.workload == "random"
        demo_args = parser.parse_args(["cut", "demo", "--qubits", "3"])
        assert demo_args.cut_command == "demo" and demo_args.qubits == 3

    def test_figure6_options(self):
        args = build_parser().parse_args(["figure6", "--states", "5", "--seed", "3", "--csv", "x.csv"])
        assert args.states == 5 and args.seed == 3 and args.csv == "x.csv"


class TestCommands:
    def test_overhead_command(self, capsys):
        assert main(["overhead"]) == 0
        out = capsys.readouterr().out
        assert "gamma_theorem1" in out

    def test_protocols_command(self, capsys):
        assert main(["protocols"]) == 0
        assert "teleportation" in capsys.readouterr().out

    def test_resources_command(self, capsys):
        assert main(["resources"]) == 0
        assert "pairs_proportionality_2a" in capsys.readouterr().out

    def test_figure6_small_run(self, capsys, tmp_path):
        csv_path = tmp_path / "fig6.csv"
        assert main(["figure6", "--states", "3", "--seed", "1", "--csv", str(csv_path)]) == 0
        assert csv_path.exists()
        assert "mean_error" in capsys.readouterr().out

    def test_cut_demo_command(self, capsys):
        assert main(["cut", "demo", "--qubits", "3", "--shots", "500", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "harada" in out and "teleportation" in out

    def test_cut_run_command(self, capsys):
        assert main(
            ["cut", "run", "--qubits", "4", "--width", "2", "--shots", "500", "--seed", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "plan:" in out and "decomposition:" in out and "reconstruct:" in out

    def test_cut_run_reports_planning_failure(self, capsys):
        assert main(["cut", "run", "--qubits", "3", "--width", "1", "--shots", "100"]) == 1
        assert "planning failed" in capsys.readouterr().out

    def test_overhead_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "overhead.csv"
        assert main(["overhead", "--csv", str(csv_path)]) == 0
        assert csv_path.exists()


class TestDevicesCommands:
    def _write_spec(self, tmp_path):
        import json

        from repro.devices import example_fleet_spec

        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(example_fleet_spec()))
        return path

    def test_devices_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["devices"])

    def test_devices_list_builtin_example(self, capsys):
        assert main(["devices", "list"]) == 0
        out = capsys.readouterr().out
        assert "qpu_clean" in out and "fidelity" in out and "shots" in out

    def test_devices_list_from_spec_with_split_override(self, capsys, tmp_path):
        path = self._write_spec(tmp_path)
        assert main(["devices", "list", "--devices", str(path), "--split", "uniform"]) == 0
        out = capsys.readouterr().out
        assert "uniform split" in out and "qpu_small" in out

    def test_devices_list_rejects_bad_spec(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        assert main(["devices", "list", "--devices", str(path)]) == 1
        assert "invalid device spec" in capsys.readouterr().out

    def test_cut_run_on_device_fleet(self, capsys, tmp_path):
        path = self._write_spec(tmp_path)
        assert (
            main(
                [
                    "cut", "run", "--qubits", "4", "--width", "2", "--shots", "400",
                    "--seed", "2", "--devices", str(path), "--split", "fidelity",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "fleet(3 devices, fidelity split)" in out and "reconstruct:" in out

    def test_cut_run_split_requires_devices(self, capsys):
        assert main(["cut", "run", "--split", "uniform"]) == 1
        assert "--split requires --devices" in capsys.readouterr().out

    def test_cut_run_missing_spec_fails_cleanly(self, capsys, tmp_path):
        assert main(["cut", "run", "--devices", str(tmp_path / "absent.json")]) == 1
        assert "invalid device spec" in capsys.readouterr().out

    def test_cut_run_reports_fleet_rejecting_term_circuits(self, capsys, tmp_path):
        import json

        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"devices": [{"name": "tiny", "max_qubits": 1}]}))
        # Planning succeeds (width 2), but the cut gadgets widen the term
        # circuits past every device's limit — a clean message, not a traceback.
        assert main(
            ["cut", "run", "--qubits", "4", "--width", "2", "--shots", "100",
             "--devices", str(path)]
        ) == 1
        assert "fleet execution failed" in capsys.readouterr().out

    def test_ablations_rejects_invalid_noise_levels(self, capsys):
        assert main(["ablations", "--noise-levels", "0.1", "1.5"]) == 1
        assert "invalid --noise-levels" in capsys.readouterr().out


class TestBoundaryValidation:
    @pytest.mark.parametrize("shots", ["0", "-5"])
    def test_cut_run_rejects_non_positive_shots(self, capsys, shots):
        assert main(["cut", "run", "--qubits", "4", "--width", "2", "--shots", shots]) == 1
        assert "--shots must be a positive integer" in capsys.readouterr().out

    def test_cut_demo_rejects_zero_shots(self, capsys):
        assert main(["cut", "demo", "--qubits", "3", "--shots", "0"]) == 1
        assert "--shots must be a positive integer" in capsys.readouterr().out

    def test_ablations_rejects_zero_shots(self, capsys):
        assert main(["ablations", "--shots", "0"]) == 1
        assert "--shots must be a positive integer" in capsys.readouterr().out

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_serve_rejects_non_positive_workers(self, capsys, workers):
        assert main(["serve", "--workers", workers]) == 1
        assert "--workers must be a positive integer" in capsys.readouterr().out


class TestDedupFlag:
    def test_cut_run_dedup_reports_instance_accounting(self, capsys):
        assert (
            main(
                [
                    "cut", "run", "--qubits", "4", "--width", "2", "--shots", "800",
                    "--seed", "2", "--dedup",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "unique subcircuit instances served" in out
        assert "reconstruct:" in out

    def test_cut_run_dedup_rejects_devices(self, capsys, tmp_path):
        import json

        from repro.devices import example_fleet_spec

        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(example_fleet_spec()))
        assert (
            main(["cut", "run", "--dedup", "--devices", str(path)]) == 1
        )
        assert "--dedup requires an ideal simulator backend" in capsys.readouterr().out

    def test_cut_run_dedup_falls_back_on_nme(self, capsys):
        assert (
            main(
                [
                    "cut", "run", "--qubits", "4", "--width", "2", "--shots", "400",
                    "--seed", "2", "--overlap", "0.8", "--dedup",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "does not factorise" in out

    def test_cut_run_dedup_with_store_round_trips(self, capsys, tmp_path):
        command = [
            "cut", "run", "--qubits", "4", "--width", "3", "--shots", "500",
            "--seed", "3", "--dedup", "--store", str(tmp_path / "store"),
        ]
        assert main(command) == 0
        first = capsys.readouterr().out
        assert "fresh run" in first
        assert main(command) == 0
        second = capsys.readouterr().out
        assert "cache hit (no re-execution)" in second
        assert first.splitlines()[-1] == second.splitlines()[-1]


class TestServiceCommands:
    def test_parser_accepts_serve_and_jobs(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "--port", "9000", "--workers", "3"])
        assert args.command == "serve" and args.port == 9000 and args.workers == 3
        args = parser.parse_args(["jobs", "submit", "--shots", "123", "--wait"])
        assert args.jobs_command == "submit" and args.shots == 123 and args.wait
        args = parser.parse_args(["jobs", "status", "abc123"])
        assert args.job_id == "abc123"

    def test_jobs_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["jobs"])

    def test_jobs_against_unreachable_service(self, capsys):
        assert main(["jobs", "list", "--url", "http://127.0.0.1:1"]) == 1
        assert "service error" in capsys.readouterr().out

    @pytest.fixture
    def live_service(self, tmp_path):
        import threading

        from repro.service import RunService, RunStore, make_server

        run_service = RunService(store=RunStore(tmp_path / "store"), workers=2)
        server = make_server(host="127.0.0.1", port=0, service=run_service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address
        try:
            yield f"http://{host}:{port}"
        finally:
            server.shutdown()
            server.server_close()
            run_service.close()
            thread.join(timeout=10)

    @pytest.mark.integration
    def test_jobs_submit_wait_status_list(self, capsys, live_service):
        submit = [
            "jobs", "submit", "--url", live_service, "--qubits", "4", "--width", "3",
            "--shots", "800", "--seed", "5", "--wait",
        ]
        assert main(submit) == 0
        out = capsys.readouterr().out
        assert "submitted job" in out and "result" in out
        job_id = out.split("submitted job ")[1].split()[0]

        assert main(["jobs", "status", job_id, "--url", live_service]) == 0
        assert "done" in capsys.readouterr().out
        assert main(["jobs", "result", job_id, "--url", live_service]) == 0
        assert "result" in capsys.readouterr().out
        assert main(["jobs", "list", "--url", live_service]) == 0
        assert job_id in capsys.readouterr().out

    def test_jobs_submit_rejects_zero_shots(self, capsys):
        assert main(["jobs", "submit", "--shots", "0", "--url", "http://127.0.0.1:1"]) == 1
        assert "--shots must be a positive integer" in capsys.readouterr().out


class TestStoreFlags:
    def test_cut_run_store_caches_second_invocation(self, capsys, tmp_path):
        command = [
            "cut", "run", "--qubits", "4", "--width", "3", "--shots", "500",
            "--seed", "3", "--store", str(tmp_path / "store"),
        ]
        assert main(command) == 0
        first = capsys.readouterr().out
        assert "fresh run" in first
        assert main(command) == 0
        second = capsys.readouterr().out
        assert "cache hit (no re-execution)" in second
        # The reported estimate must be identical on the cache hit.
        assert first.splitlines()[-1] == second.splitlines()[-1]

    def test_figure6_store_roundtrip(self, capsys, tmp_path):
        command = ["figure6", "--states", "2", "--seed", "4", "--store", str(tmp_path / "s")]
        assert main(command) == 0
        first = capsys.readouterr().out
        assert main(command) == 0
        captured = capsys.readouterr()
        # Cache provenance is progress, logged to stderr; the table stays on stdout.
        assert "served from store" in captured.err
        # Identical table contents (order included) after the cache round trip.
        assert first.strip() in captured.out

    @staticmethod
    def _stale_table(name: str):
        """A table no current sampler produces, to plant under a previous engine's key."""
        from repro.experiments import SweepTable, table_to_payload

        return table_to_payload(SweepTable(name=name, columns={"stale_marker": [1.0]}))

    def test_figure6_store_ignores_tables_of_the_previous_engine(self, capsys, tmp_path):
        from repro.experiments import Figure6Config
        from repro.service import RunStore
        from repro.utils.serialization import payload_fingerprint

        config = Figure6Config(num_states=2, seed=4)
        # The key the previous engine stored this table under (no engine version).
        previous_key = payload_fingerprint(
            {
                "experiment": "figure6",
                "num_states": 2,
                "shot_grid": [int(s) for s in config.shot_grid],
                "overlaps": [float(f) for f in config.overlaps],
                "allocation": config.allocation,
                "seed": 4,
            }
        )
        assert previous_key != config.fingerprint()
        store = RunStore(tmp_path / "s")
        store.put_artifact(previous_key, self._stale_table("figure6_error_vs_shots"))
        command = ["figure6", "--states", "2", "--seed", "4", "--store", str(tmp_path / "s")]
        assert main(command) == 0
        captured = capsys.readouterr()
        assert "served from store" not in captured.err
        assert "stale_marker" not in captured.out
        assert store.get_artifact(config.fingerprint()) is not None

    @pytest.mark.parametrize(
        "previous_engine",
        [{}, {"engine_version": 2}],
        ids=["unversioned", "engine-2"],
    )
    def test_ablations_store_ignores_tables_of_the_previous_engine(
        self, capsys, tmp_path, previous_engine
    ):
        from repro.service import RunStore
        from repro.utils.serialization import payload_fingerprint

        store = RunStore(tmp_path / "s")
        parameters = {"states": 2, "shots": 100, "seed": 11}
        previous_key = payload_fingerprint(
            {"experiment": "ablations", "table": "allocation", **previous_engine, **parameters}
        )
        store.put_artifact(previous_key, self._stale_table("allocation_strategy_ablation"))
        command = ["ablations", "--states", "2", "--shots", "100", "--store", str(tmp_path / "s")]
        assert main(command) == 0
        first = capsys.readouterr().out
        assert "stale_marker" not in first
        assert "proportional" in first
        # The recomputed tables are stored under the current keys and served.
        assert main(command) == 0
        assert capsys.readouterr().out == first
