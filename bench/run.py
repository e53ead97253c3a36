"""The ainfbar benchmark driver.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client: a single driver process runs one job at a time,
each in a fresh child process (bench/jobs.py), so at most two processes
are alive.  A pass runs every job of the workload once; the driver makes
passes while the time used plus its slowest pass so far fits in --seconds,
and always at least one.  Untraced, it fills the time left with set-up-only
passes, which stop each job once its group algebras are built.  Every
result is checked against the answers recorded in WORKLOADS; a job that
raises, times out or answers wrong counts as failed and the run goes on.

--trace 0 prints the end-to-end metrics, each the median over passes of a
per-pass figure: wall_s, cpu_s and setup_s summed over the pass's jobs,
peak_rss_mb the largest child's max RSS.  setup_s takes its median over the
full and the set-up-only passes together.  --trace 1 alternates untraced and
traced passes and prints the per-layer metrics of the traced ones, the
tracing overhead and the share of job wall time no layer span covers; its
spans and counters are written to bench/traces/.

The seed only permutes the order of jobs and of requested arities; every
seed must give identical results.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  --workload all runs
every workload and prints one summary line per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import selectors
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
JOBS = os.path.join(HERE, "jobs.py")
TRACE_DIR = os.path.join(HERE, "traces")

sys.path.insert(0, HERE)
from jobs import canonical, digest  # noqa: E402

JOB_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 170.0

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

LAYER_TIMES = ["groups.build", "bar.init", "bar.words",
               "bar.rank", "bar.reps", "bar.restriction_check",
               "bar.on_cohomology", "transfer.ops", "transfer.stasheff",
               "formality.invariants"]
COUNTERS = ["groups.algebra_dim", "bar.words", "bar.blocks",
            "bar.max_block_words", "bar.rank_sum", "bar.classes",
            "transfer.tuples", "transfer.stasheff_tuples",
            "formality.invariant_classes"]
PER_LAYER = {**{f"{name}_s": "s" for name in LAYER_TIMES},
             **{name: "count" for name in COUNTERS},
             "bar.pivot_ratio": "ratio", "transfer.nonzero_ratio": "ratio",
             "trace_overhead_frac": "ratio", "uncovered_frac": "ratio"}


# -- workloads -----------------------------------------------------------------------
#
# Each entry maps a seeded random.Random to a list of (job, expect) pairs.
# The job dict goes to the child; expect stays here and feeds check().

WITNESS_UNITS = {"cyclic(5^2)": (25, 1), "cyclic(3^3)": (27, 2),
                 "cyclic(2^5)": (32, 1), "cyclic(7^2)": (49, 1),
                 "cyclic(2^6)": (64, 1)}


def _shuffled(rng: random.Random, items: list) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def _witness_jobs(rng: random.Random, units: dict) -> list:
    jobs = []
    for spec, (q, unit) in _shuffled(rng, sorted(units.items())):
        job = {"kind": "witness", "spec": spec, "bar_cap": 3, "degree_cap": 2,
               "arities": _shuffled(rng, range(2, q + 1))}
        jobs.append((job, {"q": q, "unit": unit}))
    return jobs


WORKLOADS = {
    "tabulate-z9": lambda rng: [(
        {"kind": "tabulate", "spec": "cyclic(3^2)", "bar_cap": 6,
         "arity_cap": 3, "degree_cap": 5},
        {"dims": [1, 1, 1, 1, 1, 1], "stasheff_checked": 219,
         "ops_digest": "b2dfe36c7a5a012d5f495b14e9da5cae584f3ca14a14aaae528bb919e14ee606"})],
    "witness-tower": lambda rng: _witness_jobs(rng, WITNESS_UNITS),
    "compare-sd12": lambda rng: [(
        {"kind": "compare", "spec": "semidirect(torus(3,1,2), inversion)",
         "max_degree": 4},
        {"dims": [1, 0, 1, 4, 3]})],
    "restrict-sd22": lambda rng: [(
        {"kind": "restrict", "high": "semidirect(torus(3,2,2), inversion)",
         "low": "semidirect(torus(3,1,2), inversion)", "bar_cap": 3},
        {"map_digest": "3154249740d8de124564746ec3058452f6378a224d2f0d975990faead1184169"})],
}

# Tiny versions of every job kind, for the benchmark's own tests.
SMOKE = {
    "smoke": lambda rng: [
        ({"kind": "tabulate", "spec": "cyclic(3^1)", "bar_cap": 4,
          "arity_cap": 3, "degree_cap": 3},
         {"dims": [1, 1, 1, 1], "stasheff_checked": 65,
          "ops_digest": "23cbc063f29d9fcb694bc1b191de81173bd1c96af984163bb360a014c5726c67"}),
        *_witness_jobs(rng, {"cyclic(3^1)": (3, 2), "cyclic(2^2)": (4, 1)}),
        ({"kind": "compare", "spec": "semidirect(cyclic(3^1), inversion)",
          "max_degree": 3},
         {"dims": [1, 0, 0, 1]}),
        ({"kind": "restrict", "high": "cyclic(3^2)", "low": "cyclic(3^1)",
          "bar_cap": 3},
         {"map_digest": "ac4f26d36087e55828eb3cc9c3ed9f52836ca294bfbdb7dd72c04df416f7373e"}),
    ],
}


def check(job: dict, expect: dict, result: dict) -> str | None:
    """Why the result is wrong, or None when it is right."""
    kind = job["kind"]
    if kind == "tabulate":
        if result["stasheff_failures"]:
            return f"Stasheff residuals on {result['stasheff_failures'][:3]}"
        for key in ("dims", "stasheff_checked", "ops_digest"):
            if result[key] != expect[key]:
                return f"{key} {result[key]!r} != {expect[key]!r}"
    elif kind == "witness":
        # Lu-Palmieri-Wu-Zhang: for q = p^n >= 3, m_k(t,..,t) = 0 for
        # 2 <= k < q and m_q(t,..,t) = unit * x, x the degree-2 class.
        classes = result["classes"]
        if sorted(job["arities"]) != list(range(2, expect["q"] + 1)):
            return "arities requested are not 2..q"
        if [len(classes.get(str(d), [])) for d in range(3)] != [1, 1, 1]:
            return f"classes {classes} are not one per degree 0..2"
        want = {str(expect["q"]): [[classes["2"][0], expect["unit"]]]}
        if result["nonzero"] != want:
            return f"nonzero operations {result['nonzero']} != {want}"
    elif kind == "compare":
        if not result["bar_dims"] == result["invariant_dims"] == expect["dims"]:
            return (f"bar dims {result['bar_dims']}, invariant dims "
                    f"{result['invariant_dims']}, expected {expect['dims']}")
    elif kind == "restrict":
        if result["map_digest"] != expect["map_digest"]:
            return f"map digest {result['map_digest']} != {expect['map_digest']}"
        if ["h0:0#0", "h0:0#0", 1] not in result["map"]:
            return "h0 does not go to h0 with coefficient 1"
    return None


# -- one job in a fresh process --------------------------------------------------------

def _drain(proc: subprocess.Popen, deadline: float) -> tuple[bytes, bytes, bool]:
    """Read the child's stdout and stderr to EOF; True if the deadline hit."""
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            left = deadline - time.monotonic()
            if left <= 0:
                return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr]), True
            for key, _ in sel.select(left):
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr]), False


def run_job(job: dict, expect: dict, mode: str, timeout: float) -> dict:
    """Spawn in mode run, trace or setup, wait with wait4 for this child's
    own rusage, parse and check."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, JOBS, canonical(job), mode],
                            cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err, timed_out = _drain(proc, spawned + max(timeout, 0.0))
        if timed_out:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        proc.stdout.close()
        proc.stderr.close()
    rec = {"job": job, "mode": mode, "cpu_s": usage.ru_utime + usage.ru_stime,
           "rss_mb": usage.ru_maxrss / 1024.0, "error": None}
    if timed_out:
        rec["error"] = f"timed out after {timeout:.0f} s"
    elif proc.returncode != 0:
        tail = err.decode(errors="replace").strip().splitlines()[-1:] or ["?"]
        rec["error"] = f"exit {proc.returncode}: {tail[0]}"
    else:
        try:
            payload = json.loads(out.decode().strip().splitlines()[-1])
        except (ValueError, IndexError):
            payload = None
        if not isinstance(payload, dict):
            rec["error"] = "no result line on stdout"
        else:
            rec["result"] = payload["result"]
            rec["spans"] = payload["spans"]
            rec["counters"] = payload["counters"]
            rec["setup_s"] = payload["setup_done"] - spawned
            if mode != "setup":
                rec["error"] = check(job, expect, payload["result"])
    rec["wall_s"] = time.monotonic() - spawned
    return rec


# -- passes and metrics -------------------------------------------------------------------

def run_pass(jobs: list, mode: str, deadline: float) -> list[dict]:
    recs = []
    for job, expect in jobs:
        left = deadline - time.monotonic()
        if left <= 0:
            recs.append({"job": job, "mode": mode,
                         "error": "run deadline passed before launch"})
            continue
        rec = run_job(job, expect, mode, min(JOB_TIMEOUT_S, left))
        if rec["error"]:
            print(f"FAILED {canonical(job)[:120]}: {rec['error']}", file=sys.stderr)
        recs.append(rec)
    return recs


def measure(jobs: list, seconds: float, traced: bool) -> list[list[dict]]:
    """Passes over the jobs; with traced, each untraced pass is followed by
    a traced one and the pair is the unit the time budget counts.  Untraced
    and with no failure, set-up-only passes use the time left."""
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S

    def fits(slowest: float) -> bool:
        now = time.monotonic()
        return now - start + slowest <= seconds and now < deadline

    passes, slowest = [], 0.0
    while True:
        begun = time.monotonic()
        passes.append(run_pass(jobs, "run", deadline))
        if traced:
            passes.append(run_pass(jobs, "trace", deadline))
        slowest = max(slowest, time.monotonic() - begun)
        if not fits(slowest):
            break
    if traced or any(rec["error"] for recs in passes for rec in recs):
        return passes
    slowest = max(sum(rec["setup_s"] for rec in recs) for recs in passes)
    while fits(slowest):
        begun = time.monotonic()
        passes.append(run_pass(jobs, "setup", deadline))
        slowest = max(slowest, time.monotonic() - begun)
    return passes


def self_times(spans: list[list]) -> dict[str, float]:
    """Per span name, the duration not covered by child spans."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    out: dict[str, float] = {}
    for (name, *_), t in zip(spans, own):
        out[name] = out.get(name, 0.0) + t
    return out


def end_to_end(passes: list[list[dict]]) -> dict[str, float]:
    per_pass = {name: [] for name in END_TO_END}
    for recs in passes:
        mode = recs[0]["mode"]
        if mode != "trace":
            per_pass["setup_s"].append(sum(r["setup_s"] for r in recs))
        if mode != "run":
            continue
        per_pass["wall_s"].append(sum(r["wall_s"] for r in recs))
        per_pass["cpu_s"].append(sum(r["cpu_s"] for r in recs))
        per_pass["peak_rss_mb"].append(max(r["rss_mb"] for r in recs))
    return {name: statistics.median(v) for name, v in per_pass.items()}


def per_layer(passes: list[list[dict]]) -> dict[str, float]:
    traced = [recs for recs in passes if recs[0]["mode"] == "trace"]
    per_pass: dict[str, list[float]] = {name: [] for name in PER_LAYER}
    for recs in traced:
        times: dict[str, float] = {}
        counts: dict[str, int] = {}
        for rec in recs:
            for name, t in self_times(rec["spans"]).items():
                times[name] = times.get(name, 0.0) + t
            for name, c in rec["counters"].items():
                counts[name] = (max(counts.get(name, 0), c)
                                if name.startswith("bar.max_")
                                else counts.get(name, 0) + c)
        wall = sum(rec["wall_s"] for rec in recs)
        for name in LAYER_TIMES:
            per_pass[f"{name}_s"].append(times.get(name, 0.0))
        for name in COUNTERS:
            per_pass[name].append(counts.get(name, 0))
        per_pass["bar.pivot_ratio"].append(
            counts.get("bar.rank_sum", 0) / max(counts.get("bar.words", 0), 1))
        per_pass["transfer.nonzero_ratio"].append(
            counts.get("transfer.nonzero", 0) / max(counts.get("transfer.tuples", 0), 1))
        covered = sum(times.get(name, 0.0) for name in LAYER_TIMES)
        per_pass["uncovered_frac"].append(1.0 - covered / wall)
    untraced_wall = end_to_end(passes)["wall_s"]
    traced_wall = statistics.median(sum(r["wall_s"] for r in recs) for recs in traced)
    out = {name: statistics.median(v) for name, v in per_pass.items() if v}
    out["trace_overhead_frac"] = traced_wall / untraced_wall - 1.0
    return out


def results_agree(passes: list[list[dict]]) -> bool:
    """Every full pass, traced or not, gave each job the same result."""
    seen: dict[str, str] = {}
    for recs in passes:
        if recs[0]["mode"] == "setup":
            continue
        for rec in recs:
            key, got = canonical(rec["job"]), digest(rec.get("result"))
            if seen.setdefault(key, got) != got:
                return False
    return True


def run_workload(jobs: list, seconds: float, traced: bool) -> dict:
    passes = measure(jobs, seconds, traced)
    attempted = sum(len(recs) for recs in passes)
    failed = sum(1 for recs in passes for rec in recs if rec["error"])
    correct = failed == 0 and results_agree(passes)
    metrics, units = {}, {}
    if failed == 0:
        units = PER_LAYER if traced else END_TO_END
        metrics = per_layer(passes) if traced else end_to_end(passes)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units},
            "passes": passes}


def write_trace(name: str, seed: int, passes: list[list[dict]]) -> str:
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"{name}-seed{seed}.json")
    jobs = [{"job": rec["job"], "mode": rec["mode"],
             "wall_s": rec.get("wall_s"), "spans": rec.get("spans"),
             "counters": rec.get("counters"), "error": rec["error"]}
            for recs in passes for rec in recs]
    with open(path, "w") as fh:
        json.dump({"workload": name, "seed": seed, "jobs": jobs}, fh)
    return path


def summary(name: str, report: dict) -> str:
    fields = [f"{metric}={m['value']:.6g} {m['unit']}"
              for metric, m in report["metrics"].items()]
    fields.append(f"failed_frac={report['failed'] / report['attempted']:.6g} ratio")
    modes = [recs[0]["mode"] for recs in report["passes"]]
    return (f"{name}: {' '.join(fields)} ({modes.count('run')} untraced passes, "
            f"{modes.count('setup')} set-up-only passes, {report['attempted']} jobs)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + sorted(SMOKE) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ainfbar", "__init__.py")):
        print(f"no ainfbar sources under {SRC}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = {}
    for name in names:
        make = WORKLOADS.get(name) or SMOKE[name]
        report = run_workload(make(random.Random(args.seed)), args.seconds,
                              bool(args.trace))
        if args.trace:
            print(f"{name}: trace written to "
                  f"{write_trace(name, args.seed, report['passes'])}", file=sys.stderr)
        print(summary(name, report))
        reports[name] = report
    if len(reports) == 1:
        (report,) = reports.values()
        metrics = report["metrics"]
    else:
        metrics = {f"{name}.{metric}": m for name, r in reports.items()
                   for metric, m in r["metrics"].items()}
    final = {"correct": all(r["correct"] for r in reports.values()),
             "attempted": sum(r["attempted"] for r in reports.values()),
             "failed": sum(r["failed"] for r in reports.values()),
             "metrics": metrics}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
