"""Fast tests of the benchmark itself, on the tiny smoke jobs.

    python3 -m pytest -q bench
"""

import os
import random

import run


def _smoke():
    return run.SMOKE["smoke"](random.Random(7))


def test_untraced_run_reports_every_end_to_end_metric():
    report = run.run_workload(_smoke(), seconds=0, traced=False)
    assert report["correct"] and report["failed"] == 0
    assert report["attempted"] == len(_smoke())
    for name, unit in run.END_TO_END.items():
        assert report["metrics"][name]["unit"] == unit
        assert report["metrics"][name]["value"] > 0


def test_traced_run_reports_every_layer_and_matches_untraced_results():
    report = run.run_workload(_smoke(), seconds=0, traced=True)
    assert report["correct"] and report["failed"] == 0
    assert set(report["metrics"]) == set(run.PER_LAYER)
    for name, unit in run.PER_LAYER.items():
        assert report["metrics"][name]["unit"] == unit
    untraced, traced = report["passes"]
    assert [r["result"] for r in untraced] == [r["result"] for r in traced]
    assert 0 < report["metrics"]["uncovered_frac"]["value"] < 1


def test_seeds_permute_jobs_but_not_results():
    def by_job(seed):
        jobs = run.SMOKE["smoke"](random.Random(seed))
        report = run.run_workload(jobs, seconds=0, traced=False)
        assert report["correct"]
        return ([job.get("arities") for job, _ in jobs],
                {(r["job"]["kind"], r["job"].get("spec")): r["result"]
                 for r in report["passes"][0]})
    arities_1, results_1 = by_job(1)
    arities_2, results_2 = by_job(2)
    assert arities_1 != arities_2
    assert results_1 == results_2


def test_wrong_expected_digest_counts_as_failure():
    jobs = _smoke()
    job, expect = jobs[-1]
    assert job["kind"] == "restrict"
    jobs[-1] = (job, dict(expect, map_digest="0" * 64))
    report = run.run_workload(jobs, seconds=0, traced=False)
    assert not report["correct"]
    assert report["failed"] == 1 and report["metrics"] == {}
    assert "map digest" in report["passes"][0][-1]["error"]


def test_raising_and_timed_out_jobs_count_as_failed_and_the_run_continues():
    good = _smoke()[0]
    bad_spec = (dict(good[0], spec="cyclic(4^1)"), good[1])
    passes = run.measure([bad_spec, good], seconds=0, traced=False)
    assert [r["error"] is None for r in passes[0]] == [False, True]
    assert passes[0][0]["error"].startswith("exit 1")
    rec = run.run_job(*good, mode="run", timeout=0.01)
    assert rec["error"].startswith("timed out")


def test_setup_only_job_stops_after_set_up():
    job, expect = _smoke()[-1]
    full = run.run_job(job, expect, mode="run", timeout=60)
    setup = run.run_job(job, expect, mode="setup", timeout=60)
    assert setup["error"] is None and setup["result"] is None
    assert 0 < setup["setup_s"] < setup["wall_s"]
    metrics = run.end_to_end([[full], [setup], [setup]])
    assert metrics["setup_s"] == setup["setup_s"]
    assert metrics["wall_s"] == full["wall_s"]


def test_command_fails_without_the_program(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", os.path.join(run.HERE, "no-such-src"))
    code = run.main(["--workload", "smoke", "--seed", "1", "--seconds", "1",
                     "--trace", "0"])
    assert code != 0 and capsys.readouterr().out == ""
