"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "fig2-v"])
        assert args.experiment == "fig2-v"
        assert args.scale == "small"
        assert not args.no_memory

    def test_run_options(self):
        args = build_parser().parse_args(
            ["run", "fig3-fb", "--scale", "tiny", "--algorithms", "DeDPO,DeGreedy",
             "--no-memory", "--validate", "--quiet"]
        )
        assert args.scale == "tiny"
        assert args.algorithms == "DeDPO,DeGreedy"
        assert args.no_memory and args.validate and args.quiet
        assert args.jobs is None

    def test_jobs_option(self):
        args = build_parser().parse_args(["run", "fig2-v", "--jobs", "4"])
        assert args.jobs == 4
        args = build_parser().parse_args(["run-all", "--jobs", "2"])
        assert args.jobs == 2

    def test_solve_profile_option(self):
        args = build_parser().parse_args(
            ["solve", "inst.json", "--profile", "out.prof"]
        )
        assert args.profile == "out.prof"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig2-v" in out and "fig4-real" in out

    def test_example(self, capsys):
        assert main(["example"]) == 0
        out = capsys.readouterr().out
        assert "Omega = 3.6" in out
        assert "Omega = 4.6" in out
        assert "Omega = 4.5" in out

    def test_run_tiny(self, capsys):
        code = main(
            ["run", "fig2-cr", "--scale", "tiny", "--no-memory", "--quiet",
             "--algorithms", "DeGreedy"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Total utility score" in out
        assert "EX-F2R" in out

    def test_run_unknown_experiment(self):
        with pytest.raises(KeyError):
            main(["run", "fig9-x", "--quiet"])

    def test_generate_and_solve_round_trip(self, tmp_path, capsys):
        inst_path = str(tmp_path / "inst.json")
        plan_path = str(tmp_path / "plan.json")
        assert main(
            ["generate", inst_path, "--events", "8", "--users", "20",
             "--capacity", "3", "--seed", "5"]
        ) == 0
        assert main(
            ["solve", inst_path, "--algorithm", "DeGreedy", "--out", plan_path,
             "--no-memory"]
        ) == 0
        out = capsys.readouterr().out
        assert "total utility" in out
        from repro.io import load_instance, load_planning
        from repro.core import validate_planning

        inst = load_instance(inst_path)
        validate_planning(load_planning(inst, plan_path))

    def test_generate_city(self, tmp_path):
        inst_path = str(tmp_path / "city.json")
        assert main(["generate", inst_path, "--city", "auckland"]) == 0
        from repro.io import load_instance

        assert load_instance(inst_path).num_events == 37

    def test_generate_unknown_city(self, tmp_path):
        assert main(["generate", str(tmp_path / "x.json"), "--city", "oz"]) == 2

    def test_run_with_chart(self, capsys):
        code = main(
            ["run", "fig2-cr", "--scale", "tiny", "--no-memory", "--quiet",
             "--algorithms", "DeGreedy", "--chart"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "o=DeGreedy" in out

    def test_run_with_seeds(self, capsys):
        code = main(
            ["run", "fig2-cr", "--scale", "tiny", "--no-memory", "--quiet",
             "--algorithms", "DeGreedy", "--seeds", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean over 2 seeds" in out
        assert "std" in out

    def test_run_with_jobs(self, capsys):
        code = main(
            ["run", "fig2-cr", "--scale", "tiny", "--no-memory", "--quiet",
             "--algorithms", "DeGreedy", "--jobs", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Total utility score" in out

    def test_solve_with_profile(self, tmp_path, capsys):
        import pstats

        inst_path = str(tmp_path / "inst.json")
        prof_path = str(tmp_path / "solve.prof")
        assert main(
            ["generate", inst_path, "--events", "8", "--users", "20",
             "--capacity", "3", "--seed", "5"]
        ) == 0
        assert main(
            ["solve", inst_path, "--algorithm", "DeDPO", "--no-memory",
             "--profile", prof_path]
        ) == 0
        out = capsys.readouterr().out
        assert "cProfile stats written" in out
        stats = pstats.Stats(prof_path)
        functions = {entry[2] for entry in stats.stats}
        assert "dp_single" in functions

    def test_run_with_csv(self, tmp_path, capsys):
        out_dir = str(tmp_path / "csv")
        code = main(
            ["run", "fig2-cr", "--scale", "tiny", "--no-memory", "--quiet",
             "--algorithms", "DeGreedy", "--csv", out_dir]
        )
        assert code == 0
        files = os.listdir(out_dir)
        assert files == ["fig2-cr-tiny.csv"]
        content = open(os.path.join(out_dir, files[0])).read()
        assert "DeGreedy" in content


class TestServiceFlags:
    def test_parser_accepts_service_options(self):
        args = build_parser().parse_args(
            ["run", "fig2-v", "--timeout", "2.5", "--ladder",
             "DeDPO+RG->RatioGreedy", "--max-retries", "5",
             "--journal", "j.jsonl", "--resume"]
        )
        assert args.timeout == 2.5
        assert args.ladder == "DeDPO+RG->RatioGreedy"
        assert args.max_retries == 5
        assert args.journal == "j.jsonl"
        assert args.resume

    def test_service_defaults_off(self):
        args = build_parser().parse_args(["run", "fig2-v"])
        assert args.timeout is None
        assert args.ladder is None
        assert args.max_retries is None
        assert args.journal is None
        assert not args.resume

    def test_resume_requires_journal(self, capsys):
        code = main(["run", "fig2-v", "--scale", "tiny", "--resume"])
        assert code == 2
        assert "--resume requires --journal" in capsys.readouterr().err

    def test_journal_rejected_with_seeds(self, capsys):
        code = main(["run", "fig2-v", "--scale", "tiny", "--journal",
                     "j.jsonl", "--seeds", "3"])
        assert code == 2
        assert "--journal is not supported" in capsys.readouterr().err

    def test_run_with_timeout_and_journal(self, tmp_path, capsys):
        journal = str(tmp_path / "run.jsonl")
        code = main(
            ["run", "fig2-cr", "--scale", "tiny", "--no-memory", "--quiet",
             "--algorithms", "DeGreedy", "--timeout", "60",
             "--journal", journal]
        )
        assert code == 0
        from repro.service.checkpoint import load_rows

        rows = load_rows(journal)
        assert rows and all(row["status"] == "ok" for row in rows)
        assert all(row["supervised"] for row in rows)

    def test_run_resume_replays_journal(self, tmp_path, capsys):
        journal = str(tmp_path / "run.jsonl")
        base = ["run", "fig2-cr", "--scale", "tiny", "--no-memory", "--quiet",
                "--algorithms", "DeGreedy", "--timeout", "60",
                "--journal", journal]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "replayed from journal" in out


class TestServeForwardsServerOptions:
    """``serve --workers N`` must give every worker the server options
    the single-process daemon would use (admission, ladder, solver,
    memory guard, journal cadence)."""

    #: flag -> (argv value, or None for a switch; ServerConfig reader;
    #: expected value).  Every value differs from its default.
    NON_DEFAULT = {
        "--max-inflight": ("3", lambda c: c.admission.max_inflight, 3),
        "--queue-depth": ("5", lambda c: c.admission.queue_depth, 5),
        "--deadline-cap": ("20", lambda c: c.admission.deadline_cap_s, 20.0),
        "--default-deadline": (
            "7", lambda c: c.admission.default_deadline_s, 7.0),
        "--rate": ("5", lambda c: c.admission.rate_per_s, 5.0),
        "--rate-burst": ("4", lambda c: c.admission.rate_burst, 4.0),
        "--max-body-bytes": (
            "4096", lambda c: c.admission.max_body_bytes, 4096),
        "--ladder": ("DeGreedy,RatioGreedy", lambda c: c.admission.ladder,
                     ("DeGreedy", "RatioGreedy")),
        "--algorithm": ("DeGreedy", lambda c: c.default_algorithm,
                        "DeGreedy"),
        "--memory-limit-mb": (
            "512", lambda c: c.memory_limit_bytes, 512 << 20),
        "--in-process": (None, lambda c: c.in_process, True),
        "--verbose": (None, lambda c: c.log_requests, True),
        "--snapshot-every": ("9", lambda c: c.snapshot_every, 9),
    }

    class _Captured(Exception):
        pass

    def _argv(self):
        argv = []
        for flag, (value, _, _) in self.NON_DEFAULT.items():
            argv += [flag] if value is None else [flag, value]
        return argv

    def _capture(self, monkeypatch, module, name, index):
        seen = []

        def stub(*args, **_kwargs):
            seen.append(args[index])
            raise self._Captured

        monkeypatch.setattr(module, name, stub)
        return seen

    def test_worker_config_matches_single_process(self, monkeypatch):
        import dataclasses

        from repro.service import server, supervisor, worker

        routed = self._capture(monkeypatch, supervisor, "Supervisor", 0)
        with pytest.raises(self._Captured):
            main(["serve", "--workers", "1", *self._argv()])
        configs = self._capture(monkeypatch, server, "make_server", 2)
        with pytest.raises(self._Captured):
            main(["serve", *self._argv()])
        monkeypatch.setattr(worker, "make_server", server.make_server)
        with pytest.raises(self._Captured):
            worker.main(["--worker-id", "w3", *routed[0].worker_args])
        single, fleet = configs
        for flag, (_, read, expected) in self.NON_DEFAULT.items():
            assert read(single) == expected, flag
            assert read(fleet) == expected, flag
        assert (fleet.worker_id, fleet.instance_id_prefix) == ("w3", "w3-")
        assert dataclasses.replace(
            fleet, worker_id=None, instance_id_prefix=""
        ) == single
        assert set(self.NON_DEFAULT) == {
            flag for flag, _ in worker.SERVER_OPTIONS
        }
