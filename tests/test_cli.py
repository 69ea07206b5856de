"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "jacobi_2d" in out and "j3d27pt" in out
        # The listing now covers all three registries.
        assert "radius" in out and "points" in out
        assert "saris" in out and "base" in out
        assert "snitch-8" in out and "snitch-16" in out

    def test_list_json(self, capsys):
        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {entry["name"] for entry in payload["variants"]} >= {"base",
                                                                    "saris"}
        assert any(m["name"] == "snitch-4" for m in payload["machines"])
        jacobi = next(k for k in payload["kernels"]
                      if k["name"] == "jacobi_2d")
        # Machine-readable means typed values, not display strings.
        assert jacobi["dims"] == 2 and jacobi["default_tile"] == [64, 64]

    def test_machines_command(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "snitch-8" in out and "snitch-4" in out and "4x2" in out
        assert main(["machines", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [m["name"] for m in payload][0] == "snitch-8"
        wide = next(m for m in payload if m["name"] == "snitch-8-wide")
        # Typed values for scripting, not display strings.
        assert wide["num_cores"] == 8 and wide["tcdm_banks"] == 64
        assert wide["tcdm_size"] == 256 * 1024 and wide["clock_ghz"] == 1.0

    def test_run_json_and_machine_flag(self, capsys):
        code = main(["run", "jacobi_2d", "--tile", "12", "12",
                     "--machine", "snitch-4", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["machine"] == "snitch-4"
        assert payload["correct"] is True and payload["cycles"] > 0

    def test_compare_json(self, capsys):
        code = main(["compare", "jacobi_2d", "--tile", "12", "12", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["machine"] == "snitch-8"
        assert payload["speedup"] > 0
        assert payload["base"]["cycles"] > payload["saris"]["cycles"]

    def test_unknown_machine_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "jacobi_2d", "--machine", "cray-1"])

    def test_run_command_small_tile(self, capsys):
        code = main(["run", "jacobi_2d", "--variant", "saris",
                     "--tile", "12", "12"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fpu_util" in out

    def test_compare_command(self, capsys):
        code = main(["compare", "jacobi_2d", "--tile", "12", "12"])
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_unknown_kernel_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "not_a_kernel"])

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_machines_json_reports_topology(self, capsys):
        assert main(["machines", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        m2 = next(m for m in payload if m["name"] == "manticore-2")
        assert m2["groups"] == 1 and m2["clusters_per_group"] == 2
        assert m2["hbm_device_gbs"] == 51.2
        assert m2["peak_gflops"] == 32.0  # system peak: two clusters


class TestScaleoutCommand:
    def test_analytical_default_is_manticore_32(self, capsys):
        assert main(["scaleout", "star3d2r"]) == 0
        out = capsys.readouterr().out
        assert "manticore-32" in out and "8x4 clusters" in out
        assert "analytical" in out

    def test_analytical_json_with_machine_and_config(self, capsys):
        code = main(["scaleout", "jacobi_2d", "--machine", "manticore-8",
                     "--config", "groups=4", "--config", "hbm=25.6", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"] == "analytical"
        assert payload["groups"] == 4 and payload["hbm_device_gbs"] == 25.6
        assert payload["speedup"] > 0 and 0 < payload["fpu_util"] <= 1

    def test_direct_json(self, capsys):
        code = main(["scaleout", "jacobi_2d", "--direct", "--tiles", "2",
                     "--workers", "1", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"] == "direct"
        assert payload["machine"] == "manticore-2"
        assert payload["granularity"] == "epoch"
        assert payload["tiles_per_cluster"] == 2
        assert len(payload["per_cluster"]) == 2
        assert payload["speedup"] > 1.0
        assert "speedup" in payload["analytical"]

    def test_direct_text_report(self, capsys):
        code = main(["scaleout", "jacobi_2d", "--direct", "--tiles", "2",
                     "--workers", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "direct simulation" in out
        assert "epoch-granular" in out
        assert "analytical speedup (cross-check)" in out

    def test_bad_config_key_rejected(self, capsys):
        assert main(["scaleout", "jacobi_2d", "--config", "warp=9"]) == 2
        assert "--config expects KEY=VALUE" in capsys.readouterr().err

    def test_bad_config_value_rejected(self, capsys):
        assert main(["scaleout", "jacobi_2d", "--config", "groups=many"]) == 2
        assert "invalid value" in capsys.readouterr().err

    def test_hbm_override_reaches_single_cluster_analytical_config(self, capsys):
        code = main(["scaleout", "jacobi_2d", "--machine", "snitch-8",
                     "--config", "hbm=1.0", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["hbm_device_gbs"] == 1.0
        assert payload["memory_bound"] is True  # 1 GB/s starves the groups

    def test_direct_rejects_non_positive_tiles(self, capsys):
        assert main(["scaleout", "jacobi_2d", "--direct", "--tiles", "0"]) == 2
        assert "--tiles must be >= 1" in capsys.readouterr().err


class TestReproduceCommand:
    def test_reproduce_listing1(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code = main(["reproduce", "--subset", "listing1",
                     "-o", str(report_path), "-q"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Listing 1" in out
        report = json.loads(report_path.read_text())
        assert report["subset"] == "listing1"
        assert report["sweep"] is None  # static artifact: no simulations
        assert len(report["artifacts"]) == 1

    def test_reproduce_table1_through_engine(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code = main(["reproduce", "--subset", "table1", "--workers", "2",
                     "--cache-dir", str(tmp_path / "cache"),
                     "-o", str(report_path), "-q"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "sweep:" in out
        report = json.loads(report_path.read_text())
        assert report["sweep"]["jobs"] == 20
        assert report["sweep"]["cache_hits"] == 0
        # A warm re-run is served entirely from the store.
        assert main(["reproduce", "--subset", "table1",
                     "--cache-dir", str(tmp_path / "cache"), "-o", "", "-q"]) == 0
        capsys.readouterr()

    def test_reproduce_rejects_unknown_subset(self):
        with pytest.raises(SystemExit):
            main(["reproduce", "--subset", "fig9"])

    def test_reproduce_on_non_default_machine(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code = main(["reproduce", "--subset", "table1",
                     "--machine", "snitch-4",
                     "--cache-dir", str(tmp_path / "cache"),
                     "-o", str(report_path), "-q"])
        assert code == 0
        out = capsys.readouterr().out
        assert "machine: snitch-4" in out
        report = json.loads(report_path.read_text())
        assert report["machine"] == "snitch-4"
        assert report["sweep"]["jobs"] == 20
        # The snitch-4 results were cached under machine-aware keys: a
        # default-machine run of the same subset must not hit them.
        code = main(["reproduce", "--subset", "table1",
                     "--cache-dir", str(tmp_path / "cache"), "-o", "", "-q"])
        assert code == 0
        out = capsys.readouterr().out
        assert "20 executed, 0 cache hits" in out

    def test_collect_covers_the_scaleout_direct_tiles(self, capsys, tmp_path,
                                                      monkeypatch):
        # The direct scaleout's tile jobs run in the one supervised sweep,
        # so a failing tile skips the artifact instead of crashing the run.
        from repro.sweep import faults

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv(faults.FAULT_ENV_VAR,
                           "mode=raise:kernel=jacobi_2d:variant=saris")
        report_path = tmp_path / "report.json"
        code = main(["reproduce", "--subset", "scaleout_direct",
                     "--on-error", "collect", "--retries", "1",
                     "--workers", "1", "-q", "-o", str(report_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAILED jobs" in out and "scaleout_direct [skipped]" in out
        report = json.loads(report_path.read_text())
        assert {failure["label"] for failure in report["failures"]} \
            == {"jacobi_2d/saris@manticore-2-cluster"}
        assert all(failure["attempts"] == 1 for failure in report["failures"])


@pytest.mark.parametrize("argv", [
    ["reproduce", "--retries", "0"],
    ["reproduce", "--timeout", "0"],
    ["reproduce", "--timeout", "-1"],
    ["serve", "--retries", "0"],
    ["serve", "--fabric", "--lease-ttl", "0"],
    ["worker", "--retries", "0"],
    ["worker", "--jobs", "0"],
    ["worker", "--jobs", "-2"],
    ["worker", "--poll", "0"],
    ["worker", "--poll", "-0.5"],
])
def test_non_positive_supervision_flags_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be positive" in capsys.readouterr().err


class TestDoctorCommand:
    def test_text_report(self, capsys):
        from repro.snitch import native
        code = main(["doctor"])
        out = capsys.readouterr().out
        assert "repro environment diagnostics" in out
        assert "native engine" in out
        assert code == (0 if native.available() else 1)

    def test_json_report(self, capsys, tmp_path):
        code = main(["doctor", "--json", "--cache-dir", str(tmp_path)])
        payload = json.loads(capsys.readouterr().out)
        assert payload["native"]["abi_version"] >= 1
        assert payload["store"]["root"] == str(tmp_path)
        assert payload["store"]["entries"] == 0
        assert code in (0, 1)


class TestFuzzCommand:
    def test_small_clean_run(self, capsys, tmp_path):
        from repro.snitch import native
        if not native.available():
            pytest.skip("native engine unavailable")
        code = main(["fuzz", "--budget", "3", "--seed", "0",
                     "--corpus-dir", str(tmp_path), "-q"])
        out = capsys.readouterr().out
        assert code == 0
        assert "3 cases" in out and "0 divergence" in out
        assert not list(tmp_path.iterdir())  # clean run writes nothing

    def test_json_report(self, capsys, tmp_path):
        from repro.snitch import native
        if not native.available():
            pytest.skip("native engine unavailable")
        code = main(["fuzz", "--budget", "2", "--seed", "1", "--json", "-q",
                     "--corpus-dir", str(tmp_path)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["ok"] is True and payload["cases_run"] == 2

    def test_corrupted_engine_fails_and_writes_corpus(self, capsys,
                                                      tmp_path):
        from repro.snitch import native
        if not native.available():
            pytest.skip("native engine unavailable")
        with native.corrupted():
            code = main(["fuzz", "--budget", "1", "--seed", "0",
                         "--corpus-dir", str(tmp_path), "-q"])
        assert code == 1
        assert list(tmp_path.glob("divergence-*.json"))
        err = capsys.readouterr().err
        assert "divergence" in err

    def test_rejects_bad_budget(self, capsys):
        assert main(["fuzz", "--budget", "0"]) == 2
        assert "--budget" in capsys.readouterr().err


class TestServiceCommands:
    def test_submit_falls_back_to_in_process(self, capsys, monkeypatch,
                                             tmp_path):
        monkeypatch.delenv("REPRO_SERVICE_URL", raising=False)
        code = main(["submit", "jacobi_2d", "--variants", "base",
                     "--tile", "12", "12",
                     "--cache-dir", str(tmp_path), "--json"])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["state"] == "done"
        assert payload["counts"]["done"] == 1

    def test_submit_fallback_announces_itself(self, capsys, monkeypatch,
                                              tmp_path):
        monkeypatch.delenv("REPRO_SERVICE_URL", raising=False)
        code = main(["submit", "jacobi_2d", "--variants", "base",
                     "--tile", "12", "12", "--cache-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "no server configured" in captured.err
        # The in-process path streams the same event lines a server would.
        assert "[  submitted]" in captured.out
        assert "[ sweep_done]" in captured.out

    def test_submit_fallback_hits_warm_cache(self, capsys, monkeypatch,
                                             tmp_path):
        monkeypatch.delenv("REPRO_SERVICE_URL", raising=False)
        args = ["submit", "jacobi_2d", "--variants", "base",
                "--tile", "12", "12", "--cache-dir", str(tmp_path), "--json"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache_hits"] == 1

    def test_submit_rejects_unknown_kernel(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_SERVICE_URL", raising=False)
        code = main(["submit", "no_such_kernel", "--no-cache"])
        assert code == 2
        assert "no_such_kernel" in capsys.readouterr().err

    def test_watch_without_server_is_an_error(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_SERVICE_URL", raising=False)
        code = main(["watch", "s0001-deadbeef"])
        assert code == 2
        assert "no server configured" in capsys.readouterr().err

    def test_submit_and_watch_against_live_server(self, capsys, tmp_path):
        from tests.test_service_server import running_server

        with running_server(store=None) as (service, client):
            code = main(["submit", "jacobi_2d", "--variants", "base",
                         "--tile", "12", "12", "--url", service.url,
                         "--watch"])
            out = capsys.readouterr().out
            assert code == 0
            assert "[       done]" in out and "[ sweep_done]" in out
            # Submit without --watch prints the receipt + a watch hint.
            code = main(["submit", "jacobi_2d", "--variants", "base",
                         "--tile", "12", "12", "--url", service.url])
            out = capsys.readouterr().out
            assert code == 0
            assert "1 cache hit(s)" in out and "repro watch" in out
            sweep_id = next(line.split()[1] for line in out.splitlines()
                            if line.startswith("sweep "))
            code = main(["watch", sweep_id.rstrip(":"), "--url",
                         service.url, "--json"])
            payload = json.loads(capsys.readouterr().out)
            assert code == 0 and payload["state"] == "done"

    def test_submit_unreachable_server_is_an_error(self, capsys):
        code = main(["submit", "jacobi_2d", "--tile", "12", "12",
                     "--url", "http://127.0.0.1:1", "--watch"])
        assert code == 2
        assert "cannot reach" in capsys.readouterr().err

    def test_submit_watch_failure_exits_1_with_summary(self, capsys):
        """Server path: a failed job makes submit --watch exit 1 with a
        stderr summary (consistent with `repro reproduce`)."""
        from tests.test_service_server import running_server

        def exploding(job):
            raise ValueError("injected boom")

        with running_server(runner=exploding) as (service, client):
            code = main(["submit", "jacobi_2d", "--variants", "base",
                         "--tile", "12", "12", "--url", service.url,
                         "--watch"])
            captured = capsys.readouterr()
            assert code == 1
            assert "1 of 1 job(s) failed" in captured.err
            assert "ValueError" in captured.err
            assert "injected boom" in captured.err
            stats = client.stats()  # the daemon itself is still healthy
            assert stats["queue"]["failed"] == 1

    def test_watch_failure_exits_1_with_summary(self, capsys):
        from tests.test_service_server import running_server

        def exploding(job):
            raise ValueError("injected boom")

        with running_server(runner=exploding) as (service, client):
            receipt = client.submit(
                {"jobs": [{"kernel": "jacobi_2d", "variant": "base",
                           "tile_shape": [12, 12]}]})
            client.wait(receipt["sweep"])
            code = main(["watch", receipt["sweep"], "--url", service.url])
            captured = capsys.readouterr()
            assert code == 1
            assert "watch: 1 of 1 job(s) failed" in captured.err
            assert "ValueError" in captured.err

    def test_submit_fallback_failure_exits_1_with_summary(
            self, capsys, monkeypatch, tmp_path):
        """In-process fallback path: same exit code and summary contract
        as the server path."""
        monkeypatch.delenv("REPRO_SERVICE_URL", raising=False)
        monkeypatch.setenv("REPRO_FAULT_INJECT",
                           "mode=raise:kernel=jacobi_2d")
        code = main(["submit", "jacobi_2d", "--variants", "base",
                     "--tile", "12", "12", "--cache-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "submit: 1 of 1 job(s) failed" in captured.err
        assert "InjectedFault" in captured.err

    def test_worker_without_coordinator_is_an_error(self, capsys,
                                                    monkeypatch):
        monkeypatch.delenv("REPRO_SERVICE_URL", raising=False)
        code = main(["worker"])
        assert code == 2
        assert "no coordinator configured" in capsys.readouterr().err

    def test_doctor_probes_fabric_daemon(self, capsys):
        from tests.test_fabric import running_fabric

        with running_fabric() as (service, client):
            code = main(["doctor", "--json", "--url", service.url])
            payload = json.loads(capsys.readouterr().out)
            assert code == 0
            assert payload["service"]["reachable"] is True
            assert payload["service"]["queue"]["dispatch"] == "fabric"
            assert payload["service"]["fabric"]["lease_ttl"] == 5.0
        # Unreachable daemon: reported, not fatal.
        code = main(["doctor", "--json", "--url", "http://127.0.0.1:1"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["service"]["reachable"] is False
        assert "error" in payload["service"]
