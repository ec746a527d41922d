"""The fuzz campaign loop: parameter validation, refused cuts, artifacts.

* out-of-range campaign parameters are refused up front — an argparse
  error (exit 2) at the CLI, ``ValueError`` from the entry points —
  instead of a campaign that checks nothing and reports ok;
* a partition campaign counts and reports the cuts the partitioner
  refused (each a vacuous pass);
* churn-kill and churn-disk artifacts record their kill position or
  disk fault, and :func:`repro.verify.fuzz.replay` re-runs the fleet
  check with exactly that fault.
"""

import json

import pytest

from repro.service.faults import DiskFaultSpec
from repro.verify import fuzz


class TestParameterValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--partition", "--cells", "0", "--max-instances", "2"],
            ["--partition", "--utility-floor", "0", "--max-instances", "2"],
            ["--partition", "--utility-floor", "1.5", "--max-instances", "2"],
            ["--max-instances", "-5"],
            ["--max-instances", "0"],
            ["--churn", "--streams", "0"],
            ["--churn", "--streams", "1", "--mutations-per-stream", "0"],
            ["--churn", "--streams", "1", "--workers", "0"],
            ["--max-instances", "2", "--time-budget", "-1"],
        ],
    )
    def test_cli_rejects_out_of_range_values(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            fuzz.main(argv + ["--quiet", "--out", "/dev/null"])
        assert exc.value.code == 2
        assert "must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "run, kwargs, name",
        [
            (fuzz.run_partition_fuzz, {"cells": 0}, "cells"),
            (fuzz.run_partition_fuzz, {"utility_floor": 0.0}, "utility_floor"),
            (fuzz.run_partition_fuzz, {"utility_floor": 1.01}, "utility_floor"),
            (fuzz.run_fuzz, {"max_instances": 0}, "max_instances"),
            (fuzz.run_churn_fuzz, {"streams": -1}, "streams"),
            (
                fuzz.run_churn_fuzz,
                {"mutations_per_stream": 0},
                "mutations_per_stream",
            ),
            (fuzz.run_churn_kill_fuzz, {"workers": 0}, "workers"),
            (fuzz.run_churn_disk_fuzz, {"streams": 0}, "streams"),
            (fuzz.run_fuzz, {"time_budget_s": -1.0}, "time_budget_s"),
        ],
    )
    def test_entry_points_raise(self, run, kwargs, name):
        # A zero time box stops a campaign before its first case (and
        # stays legal), so only up-front validation can raise here.
        with pytest.raises(ValueError, match=name):
            run(**{"time_budget_s": 0.0, **kwargs})


class TestRefusedCuts:
    def test_partition_report_counts_refused_cuts(self):
        report = fuzz.run_partition_fuzz(
            seed=20260807, max_instances=20, shrink=False
        )
        assert report.ok, report.summary()
        assert 0 < report.refused < report.instances_run
        assert f"{report.refused} cuts refused" in report.summary()


class TestFleetArtifacts:
    """Fleet artifacts replay the fleet check with the recorded fault.

    The fleet check is stubbed to fail, so no fleet boots: the test
    pins what the campaign draws, writes and replays.
    """

    @pytest.mark.parametrize(
        "run, key, first",
        [
            (fuzz.run_churn_kill_fuzz, "kill_index", 14),
            (fuzz.run_churn_disk_fuzz, "disk_fault", "disk-torn:14:-1"),
        ],
    )
    def test_artifact_records_the_fault_and_replay_reuses_it(
        self, tmp_path, monkeypatch, run, key, first
    ):
        calls = []

        def failing_check(config, mutations, workers=2, kill_index=None,
                          disk_fault=None):
            calls.append(
                {"config": config, "mutations": list(mutations),
                 "kill_index": kill_index, "disk_fault": disk_fault}
            )
            return [fuzz.FuzzFinding("<fleet>", "churn-kill-http", "stub")]

        monkeypatch.setattr(fuzz, "check_fleet_stream", failing_check)
        out = tmp_path / "fleet_failure.json"
        report = run(
            seed=20260807, streams=3, mutations_per_stream=15,
            out_path=str(out),
        )
        assert not report.ok and report.instances_run == 1
        assert calls[0][key] == first  # the CI seed's first draw

        payload = json.loads(out.read_text())
        assert payload["mode"] == report.mode
        assert payload[key] == first
        assert len(payload["mutations"]) == 15
        if key == "disk_fault":
            assert DiskFaultSpec.from_string(payload[key]).kind == "disk-torn"

        assert fuzz.replay(str(out))
        assert len(calls) == 2
        assert calls[1] == calls[0]

    def test_fleet_check_needs_exactly_one_fault(self):
        config = fuzz.random_config(fuzz.random.Random(1))
        with pytest.raises(ValueError):
            fuzz.check_fleet_stream(config, [])
        with pytest.raises(ValueError):
            fuzz.check_fleet_stream(
                config, [], kill_index=0, disk_fault="disk-eio:0:-1"
            )


def test_stream_draw_crash_is_dumped_and_replays(tmp_path, monkeypatch):
    # A stream whose instance cannot even be generated is reported as
    # a <churn-gen> crash with no stream recorded; its artifact still
    # replays in churn mode, reproducing the crash.
    def broken(config):
        raise RuntimeError("datagen down")

    monkeypatch.setattr(fuzz, "generate_instance", broken)
    out = tmp_path / "churn_failure.json"
    report = fuzz.run_churn_fuzz(seed=1, streams=2, out_path=str(out))
    assert [f.solver for f in report.findings] == ["<churn-gen>"]
    payload = json.loads(out.read_text())
    assert payload["mode"] == "churn" and "mutations" not in payload
    assert [f.kind for f in fuzz.replay(str(out))] == ["crash"]
