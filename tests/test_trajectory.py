"""Tests for the append-only bench trajectory and regression verdicts.

Entries here are fabricated (no simulation): append semantics, the
schema-1 auto-upgrade, settings-fingerprint refusal, and verdict math
are pure bookkeeping over payload dicts.  The end-to-end path through
``deact bench`` lives in ``tests/test_cli.py``; the real measurement
append lives in ``benchmarks/test_bench_core_loop.py``.
"""

import json
import os

import pytest

from repro.errors import BenchSettingsMismatch, BenchTrajectoryError
from repro.experiments.provenance import (
    PROVENANCE_FIELDS,
    collect_provenance,
    git_toplevel,
)
from repro.experiments.trajectory import (
    DEFAULT_TOLERANCES,
    TRAJECTORY_SCHEMA,
    append_entry,
    compare_entries,
    entry_from_payload,
    latest_entry,
    load_trajectory,
    runner_pinned,
    select_comparable,
    settings_fingerprint,
    write_trajectory,
)


def make_payload(n_events=4000, benchmarks=("lu",),
                 architectures=("deact-n",),
                 tiers=("reference", "fast"), scale=1.0):
    """A structurally faithful measurement payload, no simulation."""
    rows = []
    for benchmark in benchmarks:
        for architecture in architectures:
            for position, tier in enumerate(tiers):
                eps = 1000.0 * (position + 1) * scale
                rows.append({
                    "benchmark": benchmark,
                    "architecture": architecture,
                    "tier": tier,
                    "wall_s": n_events / eps,
                    "events_per_sec": eps,
                    "identical_to_first_tier": True,
                })
    return {
        "schema": 1,
        "settings": {"n_events": n_events, "footprint_scale": 0.06,
                     "seed": 13, "repeats": 3},
        "benchmarks": list(benchmarks),
        "architectures": list(architectures),
        "tiers": list(tiers),
        "rows": rows,
        "aggregates": {},
    }


class TestAppend:
    def test_append_creates_schema2_file(self, tmp_path):
        path = str(tmp_path / "traj.json")
        entry = append_entry(path, make_payload())
        data = json.loads(open(path).read())
        assert data["schema"] == TRAJECTORY_SCHEMA
        assert len(data["entries"]) == 1
        assert "schema" not in data["entries"][0]
        assert entry["settings_fingerprint"]

    def test_append_twice_keeps_both_entries(self, tmp_path):
        path = str(tmp_path / "traj.json")
        append_entry(path, make_payload(scale=1.0))
        append_entry(path, make_payload(scale=2.0))
        trajectory = load_trajectory(path)
        assert len(trajectory["entries"]) == 2
        rates = [trajectory["entries"][i]["rows"][0]["events_per_sec"]
                 for i in (0, 1)]
        assert rates[1] == 2 * rates[0]  # order preserved, no overwrite

    def test_append_stamps_provenance(self, tmp_path):
        path = str(tmp_path / "traj.json")
        entry = append_entry(path, make_payload())
        prov = entry["provenance"]
        assert set(prov) == set(PROVENANCE_FIELDS)
        assert prov["hostname"]
        assert prov["pid"] == os.getpid()

    def test_append_leaves_no_temp_files(self, tmp_path):
        path = str(tmp_path / "traj.json")
        append_entry(path, make_payload())
        append_entry(path, make_payload())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["traj.json"]

    def test_append_refuses_corrupt_history(self, tmp_path):
        # A corrupt trajectory is irreplaceable history: append must
        # raise, not treat it as empty and overwrite it.
        path = tmp_path / "traj.json"
        path.write_text("{truncated")
        with pytest.raises(BenchTrajectoryError, match="unreadable"):
            append_entry(str(path), make_payload())
        assert path.read_text() == "{truncated"


class TestSchema1Upgrade:
    def test_schema1_payload_becomes_single_legacy_entry(self, tmp_path):
        path = tmp_path / "traj.json"
        path.write_text(json.dumps(make_payload()))
        trajectory = load_trajectory(str(path))
        assert trajectory["schema"] == TRAJECTORY_SCHEMA
        (entry,) = trajectory["entries"]
        assert entry["provenance"] is None  # producing host is unknown
        assert entry["settings_fingerprint"]
        assert "schema" not in entry

    def test_append_after_upgrade_preserves_legacy_entry(self, tmp_path):
        path = tmp_path / "traj.json"
        path.write_text(json.dumps(make_payload()))
        append_entry(str(path), make_payload(scale=3.0))
        trajectory = load_trajectory(str(path))
        assert len(trajectory["entries"]) == 2
        assert trajectory["entries"][0]["provenance"] is None
        assert trajectory["entries"][1]["provenance"]["hostname"]

    def test_missing_file_is_empty_trajectory(self, tmp_path):
        trajectory = load_trajectory(str(tmp_path / "absent.json"))
        assert trajectory == {"schema": TRAJECTORY_SCHEMA, "entries": []}

    @pytest.mark.parametrize("text", [
        "[1, 2]",                                  # not an object
        json.dumps({"schema": 7, "entries": []}),  # unknown schema
        json.dumps({"schema": 1}),                 # schema 1, no rows
        json.dumps({"schema": 2, "entries": [{"no": "rows"}]}),
    ])
    def test_structurally_invalid_trajectories_raise(self, tmp_path, text):
        path = tmp_path / "traj.json"
        path.write_text(text)
        with pytest.raises(BenchTrajectoryError):
            load_trajectory(str(path))


class TestFingerprint:
    def test_order_insensitive_for_cell_sets(self):
        a = make_payload(architectures=("e-fam", "i-fam"))
        b = make_payload(architectures=("i-fam", "e-fam"))
        assert settings_fingerprint(a) == settings_fingerprint(b)

    def test_sensitive_to_events(self):
        # Different event counts are different measurement regimes
        # (a shorter trace spends more of its events warming up).
        assert settings_fingerprint(make_payload(n_events=4000)) != \
            settings_fingerprint(make_payload(n_events=16000))

    def test_sensitive_to_benchmark_set(self):
        assert settings_fingerprint(make_payload(benchmarks=("lu",))) != \
            settings_fingerprint(make_payload(benchmarks=("lu", "bc")))


class TestCompare:
    def test_parity_is_ok(self):
        base = entry_from_payload(make_payload())
        cand = entry_from_payload(make_payload())
        report = compare_entries(base, cand)
        assert report.ok
        assert not report.regressions
        assert "0 of 2 cell(s) regressed" in report.render()

    def test_slowdown_beyond_tolerance_regresses(self):
        base = entry_from_payload(make_payload(scale=1.0))
        cand = entry_from_payload(make_payload(scale=0.5))  # 2x slower
        report = compare_entries(base, cand)
        assert not report.ok
        assert len(report.regressions) == 2  # every tier cell
        assert "REGRESSED" in report.render()

    def test_slowdown_within_tolerance_is_ok(self):
        base = entry_from_payload(make_payload(scale=1.0))
        cand = entry_from_payload(make_payload(scale=0.9))
        assert compare_entries(base, cand).ok

    def test_speedup_is_ok(self):
        base = entry_from_payload(make_payload(scale=1.0))
        cand = entry_from_payload(make_payload(scale=4.0))
        report = compare_entries(base, cand)
        assert report.ok
        assert all(cell.ratio == pytest.approx(4.0)
                   for cell in report.cells)

    def test_per_tier_tolerance_override(self):
        base = entry_from_payload(make_payload(scale=1.0))
        cand = entry_from_payload(make_payload(scale=0.6))
        strict = compare_entries(base, cand)
        assert not strict.ok
        lax = compare_entries(
            base, cand,
            tolerances={tier: 0.5 for tier in DEFAULT_TOLERANCES})
        assert lax.ok

    def test_default_key_sets_unknown_tier_tolerance(self):
        tiers = ("custom-tier",)
        base = entry_from_payload(make_payload(tiers=tiers, scale=1.0))
        cand = entry_from_payload(make_payload(tiers=tiers, scale=0.7))
        assert not compare_entries(base, cand).ok
        assert compare_entries(base, cand,
                               tolerances={"default": 0.4}).ok

    def test_refuses_mismatched_settings(self):
        base = entry_from_payload(make_payload(n_events=16000))
        cand = entry_from_payload(make_payload(n_events=4000))
        with pytest.raises(BenchSettingsMismatch, match="refusing"):
            compare_entries(base, cand)

    def test_refuses_disjoint_cells(self):
        # Same settings fingerprint is a precondition, so disjoint
        # cells can only happen with hand-built entries — still an
        # error, not an empty "all clear" report.
        base = entry_from_payload(make_payload())
        cand = entry_from_payload(make_payload())
        cand["rows"] = [dict(row, benchmark="other")
                        for row in cand["rows"]]
        with pytest.raises(BenchTrajectoryError, match="no .* cells"):
            compare_entries(base, cand)


class TestSelection:
    def test_latest_entry_is_newest(self, tmp_path):
        path = str(tmp_path / "traj.json")
        append_entry(path, make_payload(scale=1.0))
        append_entry(path, make_payload(scale=2.0))
        entry = latest_entry(load_trajectory(path))
        assert entry["rows"][0]["events_per_sec"] == 2000.0

    def test_latest_entry_filters_by_fingerprint(self, tmp_path):
        path = str(tmp_path / "traj.json")
        append_entry(path, make_payload(n_events=16000, scale=1.0))
        append_entry(path, make_payload(n_events=4000, scale=2.0))
        fp = settings_fingerprint(make_payload(n_events=16000))
        entry = latest_entry(load_trajectory(path), fingerprint=fp)
        assert entry["settings"]["n_events"] == 16000

    def test_select_comparable_refuses_foreign_regime(self, tmp_path):
        path = str(tmp_path / "traj.json")
        append_entry(path, make_payload(n_events=16000))
        candidate = entry_from_payload(make_payload(n_events=4000))
        with pytest.raises(BenchSettingsMismatch, match="meaningless"):
            select_comparable(load_trajectory(path), candidate, path)

    def test_select_comparable_skips_newer_foreign_entries(self, tmp_path):
        path = str(tmp_path / "traj.json")
        append_entry(path, make_payload(n_events=16000, scale=1.0))
        append_entry(path, make_payload(n_events=4000, scale=9.0))
        candidate = entry_from_payload(make_payload(n_events=16000,
                                                    scale=1.1))
        baseline = select_comparable(load_trajectory(path), candidate,
                                     path)
        assert baseline["settings"]["n_events"] == 16000

    def test_empty_trajectory_has_no_latest(self):
        assert latest_entry({"schema": 2, "entries": []}) is None

    @staticmethod
    def _entry_from_host(host, scale):
        entry = entry_from_payload(make_payload(scale=scale))
        entry["provenance"] = dict(entry["provenance"], hostname=host)
        return entry

    def test_select_comparable_prefers_this_hosts_entries(self):
        # Throughput baselines are machine-specific: a newer entry
        # appended by a different (faster) host must not become the
        # yardstick when same-host history exists.
        trajectory = {"schema": 2, "entries": [
            self._entry_from_host("ours", 1.0),
            self._entry_from_host("ours", 1.1),
            self._entry_from_host("fast-ci-box", 9.0),
        ]}
        candidate = entry_from_payload(make_payload(scale=1.05))
        picked = select_comparable(trajectory, candidate, "traj",
                                   hostname="ours")
        assert picked["provenance"]["hostname"] == "ours"
        assert picked["rows"][0]["events_per_sec"] == 1100.0  # newest ours

    def test_select_comparable_falls_back_to_newest_match(self):
        # First run on this host (or legacy null-provenance entries):
        # the newest fingerprint match still gates, coarsely.
        trajectory = {"schema": 2, "entries": [
            self._entry_from_host("other-a", 1.0),
            self._entry_from_host("other-b", 2.0),
        ]}
        candidate = entry_from_payload(make_payload(scale=1.9))
        picked = select_comparable(trajectory, candidate, "traj",
                                   hostname="brand-new-host")
        assert picked["provenance"]["hostname"] == "other-b"


class TestRunnerPinned:
    """``runner_pinned`` — when CI history is deep enough to drop the
    cross-host fallback tolerance for the per-tier defaults."""

    @staticmethod
    def _entry_from_host(host, n_events=4000):
        entry = entry_from_payload(make_payload(n_events=n_events))
        entry["provenance"] = dict(entry["provenance"], hostname=host)
        return entry

    def test_two_same_host_entries_pin(self):
        trajectory = {"schema": 2, "entries": [
            self._entry_from_host("runner"),
            self._entry_from_host("runner"),
        ]}
        candidate = entry_from_payload(make_payload())
        assert runner_pinned(trajectory, candidate, hostname="runner")

    def test_one_entry_is_not_enough(self):
        # A single entry might itself be an outlier; two establish
        # the regime exists on this runner.
        trajectory = {"schema": 2, "entries": [
            self._entry_from_host("runner"),
        ]}
        candidate = entry_from_payload(make_payload())
        assert not runner_pinned(trajectory, candidate,
                                 hostname="runner")

    def test_other_hosts_never_pin(self):
        trajectory = {"schema": 2, "entries": [
            self._entry_from_host("box-a"),
            self._entry_from_host("box-a"),
            self._entry_from_host("box-b"),
        ]}
        candidate = entry_from_payload(make_payload())
        assert not runner_pinned(trajectory, candidate,
                                 hostname="runner")

    def test_foreign_regime_entries_do_not_count(self):
        # Same host, different settings fingerprint: not comparable,
        # so not pinning.
        trajectory = {"schema": 2, "entries": [
            self._entry_from_host("runner", n_events=4000),
            self._entry_from_host("runner", n_events=16000),
        ]}
        candidate = entry_from_payload(make_payload(n_events=4000))
        assert not runner_pinned(trajectory, candidate,
                                 hostname="runner")

    def test_null_provenance_entries_do_not_count(self):
        # Legacy schema-1 upgrades carry provenance=None.
        entry = entry_from_payload(make_payload())
        entry["provenance"] = None
        trajectory = {"schema": 2, "entries": [entry, dict(entry)]}
        candidate = entry_from_payload(make_payload())
        assert not runner_pinned(trajectory, candidate,
                                 hostname="runner")

    def test_empty_trajectory_is_unpinned(self):
        candidate = entry_from_payload(make_payload())
        assert not runner_pinned({"schema": 2, "entries": []},
                                 candidate, hostname="runner")


class TestProvenanceRoundTrip:
    def test_collect_provenance_contract(self):
        prov = collect_provenance()
        assert set(prov) == set(PROVENANCE_FIELDS)
        assert prov["pid"] == os.getpid()
        assert prov["python"].count(".") == 2
        assert prov["numpy"]

    def test_git_fields_inside_this_checkout(self):
        prov = collect_provenance(os.path.dirname(__file__))
        if prov["git_commit"] is not None:  # tolerate exported trees
            assert len(prov["git_commit"]) == 40
            assert isinstance(prov["git_dirty"], bool)

    def test_git_fields_none_outside_git(self, tmp_path):
        prov = collect_provenance(str(tmp_path))
        assert prov["git_commit"] is None
        assert prov["git_dirty"] is None
        assert prov["hostname"]  # host facts survive without git

    def test_entry_provenance_survives_disk_round_trip(self, tmp_path):
        path = str(tmp_path / "traj.json")
        written = append_entry(path, make_payload())
        loaded = latest_entry(load_trajectory(path))
        assert loaded["provenance"] == written["provenance"]


class TestDefaultJsonPath:
    def test_env_override_wins(self, monkeypatch):
        from repro.experiments.bench import default_json_path

        monkeypatch.setenv("REPRO_BENCH_JSON", "/elsewhere/t.json")
        assert default_json_path() == "/elsewhere/t.json"

    def test_git_toplevel_inside_checkout(self, monkeypatch):
        from repro.experiments.bench import default_json_path

        monkeypatch.delenv("REPRO_BENCH_JSON", raising=False)
        top = git_toplevel()
        if top is None:
            pytest.skip("not running inside a git checkout")
        monkeypatch.chdir(top)
        assert default_json_path() == \
            os.path.join(top, "BENCH_core_loop.json")

    def test_cwd_fallback_outside_git(self, monkeypatch, tmp_path):
        from repro.experiments.bench import default_json_path

        monkeypatch.delenv("REPRO_BENCH_JSON", raising=False)
        monkeypatch.chdir(tmp_path)
        if git_toplevel() is not None:
            pytest.skip("tmp_path unexpectedly inside a git checkout")
        assert default_json_path() == \
            str(tmp_path / "BENCH_core_loop.json")

    def test_never_points_into_site_packages(self, monkeypatch):
        # The regression this fixes: deriving the root from the
        # module __file__ lands in site-packages for installed
        # packages.  Whatever the fallback picks, it must be anchored
        # to the environment, not to the module location.
        from repro.experiments import bench

        monkeypatch.delenv("REPRO_BENCH_JSON", raising=False)
        module_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(bench.__file__)))))
        path = bench.default_json_path()
        assert path in (
            os.path.join(git_toplevel() or os.getcwd(),
                         "BENCH_core_loop.json"),
        )
        assert not path.startswith(os.path.join(module_root,
                                                "site-packages"))


class TestWriteTrajectory:
    def test_round_trip_is_stable(self, tmp_path):
        path = str(tmp_path / "traj.json")
        append_entry(path, make_payload())
        first = open(path).read()
        write_trajectory(path, load_trajectory(path))
        assert open(path).read() == first
