"""Tests for the ``deact`` command-line interface."""

import pytest

from repro.cli import main


class TestRunCommand:
    def test_run_prints_metrics(self, capsys):
        code = main(["run", "--benchmark", "mcf", "--arch", "deact-n",
                     "--events", "1500", "--footprint-scale", "0.01"])
        assert code == 0
        out = capsys.readouterr().out
        assert "IPC" in out
        assert "deact-n" in out
        assert "ACM hit rate" in out

    def test_run_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            main(["run", "--benchmark", "doom", "--arch", "e-fam"])

    def test_run_rejects_unknown_arch(self):
        with pytest.raises(SystemExit):
            main(["run", "--benchmark", "mcf", "--arch", "z-fam"])


class TestCompareCommand:
    def test_compare_lists_all_architectures(self, capsys):
        code = main(["compare", "--benchmark", "mg",
                     "--events", "1500", "--footprint-scale", "0.01"])
        assert code == 0
        out = capsys.readouterr().out
        for arch in ("e-fam", "i-fam", "deact-w", "deact-n"):
            assert arch in out
        assert "vs I-FAM" in out

    def test_compare_multi_node(self, capsys):
        code = main(["compare", "--benchmark", "mg", "--nodes", "2",
                     "--events", "800", "--footprint-scale", "0.01"])
        assert code == 0

    def test_compare_with_jobs(self, capsys):
        code = main(["compare", "--benchmark", "mg", "--jobs", "2",
                     "--events", "800", "--footprint-scale", "0.01"])
        assert code == 0
        out = capsys.readouterr().out
        for arch in ("e-fam", "i-fam", "deact-w", "deact-n"):
            assert arch in out

    def test_compare_rejects_zero_jobs(self):
        with pytest.raises(SystemExit):
            main(["compare", "--benchmark", "mg", "--jobs", "0"])

    def test_compare_output_identical_across_jobs(self, capsys):
        argv = ["compare", "--benchmark", "mg",
                "--events", "800", "--footprint-scale", "0.01"]
        assert main(argv + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial


class TestSweepCommand:
    def test_sweep_prints_every_cell(self, capsys):
        code = main(["sweep", "--benchmark", "mcf", "--arch", "e-fam",
                     "--arch", "i-fam", "--events", "1500",
                     "--footprint-scale", "0.01"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 runs" in out
        assert "e-fam" in out and "i-fam" in out
        assert "default" in out

    def test_sweep_repeated_axis_accumulates_values(self, capsys):
        code = main(["sweep", "--benchmark", "mcf", "--arch", "e-fam",
                     "--axis", "stu-entries=256",
                     "--axis", "stu-entries=512",
                     "--events", "1500", "--footprint-scale", "0.01"])
        assert code == 0
        out = capsys.readouterr().out
        assert "stu-entries=256" in out
        assert "stu-entries=512" in out

    def test_sweep_with_axis_and_jobs(self, capsys):
        code = main(["sweep", "--benchmark", "mcf", "--arch", "e-fam",
                     "--axis", "stu-entries=256,512", "--jobs", "2",
                     "--events", "1500", "--footprint-scale", "0.01"])
        assert code == 0
        out = capsys.readouterr().out
        assert "stu-entries=256" in out
        assert "stu-entries=512" in out

    def test_sweep_writes_cache(self, capsys, tmp_path):
        cache = tmp_path / "cache.json"
        code = main(["sweep", "--benchmark", "mcf", "--arch", "e-fam",
                     "--events", "1500", "--footprint-scale", "0.01",
                     "--cache", str(cache)])
        assert code == 0
        assert cache.exists()

    def test_sweep_rejects_zero_jobs(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--benchmark", "mcf", "--jobs", "0"])
        assert "--jobs must be >= 1" in capsys.readouterr().err

    def test_sweep_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--benchmark", "doom"])

    def test_sweep_rejects_unknown_architecture(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--benchmark", "mcf", "--arch", "z-fam"])

    def test_sweep_rejects_unknown_axis(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--benchmark", "mcf",
                  "--axis", "warp-factor=9"])
        assert "unknown sweep axis" in capsys.readouterr().err

    def test_sweep_rejects_malformed_axis(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--benchmark", "mcf", "--axis", "stu-entries"])
        assert "NAME=V1" in capsys.readouterr().err

    def test_sweep_jobs_defaults_to_env_var(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SWEEP_JOBS", "3")
        code = main(["sweep", "--benchmark", "mcf", "--arch", "e-fam",
                     "--events", "800", "--footprint-scale", "0.01"])
        assert code == 0
        assert "jobs=3" in capsys.readouterr().out

    def test_sweep_jobs_flag_overrides_env_var(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SWEEP_JOBS", "3")
        code = main(["sweep", "--benchmark", "mcf", "--arch", "e-fam",
                     "--jobs", "1",
                     "--events", "800", "--footprint-scale", "0.01"])
        assert code == 0
        assert "jobs=1" in capsys.readouterr().out

    def test_sweep_garbage_env_var_falls_back_to_serial(
            self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SWEEP_JOBS", "a-lot")
        code = main(["sweep", "--benchmark", "mcf", "--arch", "e-fam",
                     "--events", "800", "--footprint-scale", "0.01"])
        assert code == 0
        assert "jobs=1" in capsys.readouterr().out


class TestShardedSweep:
    SPEC = ["--benchmark", "mcf", "--arch", "e-fam", "--arch", "i-fam",
            "--events", "800", "--footprint-scale", "0.01"]

    def test_shard_requires_cache(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--benchmark", "mcf", "--shard", "1/2"])
        assert "--shard requires --cache" in capsys.readouterr().err

    def test_shard_rejects_malformed_spec(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "--benchmark", "mcf", "--shard", "oops",
                  "--cache", str(tmp_path / "r.json")])
        assert "--shard expects I/N" in capsys.readouterr().err

    def test_shard_rejects_out_of_range_index(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "--benchmark", "mcf", "--shard", "3/2",
                  "--cache", str(tmp_path / "r.json")])
        assert "1..count" in capsys.readouterr().err

    def test_shard_writes_shard_cache_and_manifest(self, capsys, tmp_path):
        cache = tmp_path / "r.json"
        code = main(["sweep", *self.SPEC, "--cache", str(cache),
                     "--shard", "1/2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "shard 1/2: 1 of 2 cells" in out
        assert (tmp_path / "r.shard-1-of-2.json").exists()
        assert (tmp_path / "r.shard-1-of-2.manifest.json").exists()
        assert not cache.exists()  # canonical cache only via merge

    def test_shard_merge_validate_round_trip(self, capsys, tmp_path):
        cache = str(tmp_path / "r.json")
        assert main(["sweep", *self.SPEC, "--cache", cache,
                     "--shard", "1/2"]) == 0
        assert main(["sweep", *self.SPEC, "--cache", cache,
                     "--shard", "2/2"]) == 0
        assert main(["cache", "merge", "--cache", cache]) == 0
        out = capsys.readouterr().out
        assert "merged 2 shard cache(s)" in out
        assert main(["cache", "validate", "--cache", cache,
                     *self.SPEC]) == 0
        assert "verdict   : OK" in capsys.readouterr().out
        assert main(["cache", "status", "--cache", cache,
                     *self.SPEC]) == 0
        assert "2/2 cells (100.0%)" in capsys.readouterr().out

        # The reassembled cache equals what an unsharded sweep writes.
        from repro.experiments.shardfile import canonical_cache_text

        unsharded = str(tmp_path / "full.json")
        assert main(["sweep", *self.SPEC, "--cache", unsharded]) == 0
        assert canonical_cache_text(cache) == \
            canonical_cache_text(unsharded)


class TestCacheCommand:
    SPEC = ["--benchmark", "mcf", "--arch", "e-fam",
            "--events", "800", "--footprint-scale", "0.01"]

    def test_merge_without_shards_fails(self, capsys, tmp_path):
        code = main(["cache", "merge",
                     "--cache", str(tmp_path / "r.json")])
        assert code == 1
        assert "no shard caches" in capsys.readouterr().err

    def test_merge_unverifiable_shards_fail_without_force(
            self, capsys, tmp_path):
        import json

        # Hand-written shard caches with no manifests: strict mode
        # cannot verify they belong to any sweep and refuses; --force
        # merges anyway with first-seen payload winning.
        base = tmp_path / "r.json"
        (tmp_path / "r.shard-1-of-2.json").write_text(
            json.dumps({"k": {"v": 1}}))
        (tmp_path / "r.shard-2-of-2.json").write_text(
            json.dumps({"k": {"v": 2}}))
        assert main(["cache", "merge", "--cache", str(base)]) == 1
        assert "no manifest" in capsys.readouterr().err
        assert main(["cache", "merge", "--cache", str(base),
                     "--force"]) == 0
        assert json.loads(base.read_text()) == {"k": {"v": 1}}

    def test_validate_missing_cell_fails(self, capsys, tmp_path):
        import json

        cache = tmp_path / "r.json"
        cache.write_text(json.dumps({}))
        code = main(["cache", "validate", "--cache", str(cache),
                     *self.SPEC])
        assert code == 1
        out = capsys.readouterr().out
        assert "missing" in out
        assert "FAIL" in out

    def test_validate_strict_fails_on_orphans(self, capsys, tmp_path):
        import json

        from repro.config.presets import default_config
        from repro.experiments.runner import RunSettings, SweepJob, job_key

        settings = RunSettings(n_events=800, footprint_scale=0.01, seed=7)
        key = job_key(SweepJob("mcf", "e-fam", default_config(), settings))
        cache = tmp_path / "r.json"
        cache.write_text(json.dumps({key: {"v": 1},
                                     "orphan-key": {"v": 2}}))
        assert main(["cache", "validate", "--cache", str(cache),
                     *self.SPEC]) == 0
        assert "verdict   : OK" in capsys.readouterr().out
        assert main(["cache", "validate", "--cache", str(cache),
                     "--strict", *self.SPEC]) == 1
        out = capsys.readouterr().out
        assert "verdict   : FAIL" in out  # report agrees with exit code
        assert "fatal under --strict" in out

    def test_cache_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["cache"])


class TestProfileCommand:
    def test_profile_prints_hot_functions(self, capsys):
        code = main(["profile", "--benchmark", "lu",
                     "--arch", "deact-n", "--events", "1500",
                     "--footprint-scale", "0.01", "--limit", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "profile: lu on deact-n (1500 events)" in out
        assert "cumulative" in out
        assert "function calls" in out

    def test_profile_other_benchmark_and_arch(self, capsys):
        code = main(["profile", "--benchmark", "mg", "--arch", "e-fam",
                     "--events", "800", "--footprint-scale", "0.01",
                     "--limit", "5"])
        assert code == 0
        assert "function calls" in capsys.readouterr().out

    def test_profile_requires_benchmark(self):
        with pytest.raises(SystemExit):
            main(["profile", "--arch", "e-fam"])


class TestFiguresCommand:
    def test_figures_forwards_to_harness(self, capsys):
        code = main(["figures", "--figure", "t1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "FAM Architectures Comparison" in out

    def test_figures_forwards_jobs_flag(self, capsys):
        code = main(["figures", "--figure", "3", "--jobs", "2",
                     "--events", "1500", "--footprint-scale", "0.01"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Slowdown of I-FAM" in out

    def test_figures_rejects_zero_jobs(self, capsys):
        with pytest.raises(SystemExit):
            main(["figures", "--figure", "t1", "--jobs", "0"])
        assert "--jobs must be >= 1" in capsys.readouterr().err

    def test_figures_rejects_zero_events(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figures", "--figure", "3", "--events", "0"])
        assert excinfo.value.code == 2
        assert "n_events must be >= 1" in capsys.readouterr().err


class TestArgumentValidation:
    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("command", [
        ["run", "--benchmark", "lu", "--arch", "e-fam"],
        ["compare", "--benchmark", "lu"],
        ["sweep", "--benchmark", "lu", "--arch", "e-fam"],
        ["profile", "--benchmark", "lu"]],
        ids=["run", "compare", "sweep", "profile"])
    @pytest.mark.parametrize("bad", [
        ["--events", "0"], ["--events", "-5"],
        ["--footprint-scale", "0"], ["--nodes", "0"]],
        ids=["events-0", "events-neg", "scale-0", "nodes-0"])
    def test_bad_trace_scale_rejected_before_any_job(self, command, bad,
                                                     monkeypatch, capsys):
        # RunSettings and SystemConfig own the rules; every command
        # turns their ConfigError into an argparse exit before it
        # builds a single trace.
        from repro.experiments import runner

        built = []
        monkeypatch.setattr(runner, "build_traces",
                            lambda *args: built.append(args))
        with pytest.raises(SystemExit) as excinfo:
            main(command + bad)
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err
        assert built == []

    def test_bench_is_not_a_command(self, capsys):
        # Host speed is judged by perfbench/ alone; there is no
        # core-loop bench subcommand.
        with pytest.raises(SystemExit):
            main(["bench"])
        assert "invalid choice: 'bench'" in capsys.readouterr().err
