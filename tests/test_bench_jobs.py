"""The public API the benchmark jobs call, checked in-process.

Every smoke job of bench/run.py runs through bench/jobs.py's job kinds
here, so a change to what blocks, rank or the transfer API return fails
in the suite, not first in a benchmark run.  bench/ is only read.
"""

import json
import pathlib
import random
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import jobs  # noqa: E402
import run  # noqa: E402

SMOKE = run.SMOKE["smoke"](random.Random(0))


@pytest.mark.parametrize("job,expect", SMOKE,
                         ids=[f"{job['kind']}-{job.get('spec', job.get('high'))}"
                              for job, _ in SMOKE])
def test_smoke_job_answers_as_recorded(job, expect):
    result = jobs.KINDS[job["kind"]](job, jobs.Tracer("run"))
    result = json.loads(jobs.canonical(result))
    assert run.check(job, expect, result) is None
