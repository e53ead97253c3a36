"""One benchmark job, run in a fresh process by bench/run.py.

A job calls only the public ainfbar API (groups, bar, transfer, formality),
in a fixed order, and prints one JSON line on stdout: its result, the
monotonic time at which set-up (every group algebra built and verified)
ended, and, when traced, its spans and counters.  Checking the result
against the recorded answers is the driver's job, not this one's.

    PYTHONPATH=src python3 bench/jobs.py '<job json>' run|trace|setup

Mode run does the job untraced, trace does it with spans and counters, and
setup stops once set-up is done and reports no result.

The job never imports ainfbar.cli, so it cannot read or write the report
cache.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
import time


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical(obj).encode()).hexdigest()


_NULL_SPAN = contextlib.nullcontext()


class SetupOnly(Exception):
    """Raised when set-up ends in a job that was asked for set-up only."""


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr.stack[-1] if tr.stack else None
        self.index = len(tr.spans)
        tr.spans.append([self.name, time.monotonic(), None, parent])
        tr.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.monotonic()
        tr.stack.pop()
        return False


class Tracer:
    """Spans [name, start, end, parent index] and counters, kept in memory.

    Untraced (modes run and setup), span() hands out one shared no-op
    context and count() returns at once, so an untraced job does the same
    calls with no bookkeeping.  In mode setup, end_setup() stops the job.
    """

    def __init__(self, mode: str):
        self.enabled = mode == "trace"
        self.setup_only = mode == "setup"
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.setup_done: float | None = None

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL_SPAN

    def count(self, name: str, value: int) -> None:
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + value

    def maximum(self, name: str, value: int) -> None:
        if self.enabled:
            self.counters[name] = max(self.counters.get(name, 0), value)

    def end_setup(self) -> None:
        self.setup_done = time.monotonic()
        if self.setup_only:
            raise SetupOnly


# -- shared stages ---------------------------------------------------------------

def _build(tr: Tracer, spec: str):
    from ainfbar.groups import build_group_algebra
    with tr.span("groups.build"):
        alg = build_group_algebra(spec)
    tr.count("groups.algebra_dim", alg.dim)
    return alg


def _bar(tr: Tracer, alg, cap: int):
    """Build the bar complex, its word blocks below the cap, and every block
    rank in the order BarComplex.dims asks for them; return the bar complex
    and its cohomology dims per degree."""
    from ainfbar.bar import build_bar
    with tr.span("bar.init"):
        bar = build_bar(alg, cap)
    for n in range(cap):
        with tr.span("bar.words"):
            blocks = bar.blocks(n)
        if tr.enabled:
            tr.count("bar.words", sum(len(w) for w in blocks.values()))
            tr.count("bar.blocks", len(blocks))
            tr.maximum("bar.max_block_words", max(len(w) for w in blocks.values()))
    for n in range(cap):
        degrees = set(bar.blocks(n))
        if n > 0:
            degrees |= set(bar.blocks(n - 1))
        for s in sorted(degrees):
            with tr.span("bar.rank"):
                r = bar.rank(n, s)
            tr.count("bar.rank_sum", r)
    dims = [sum(bar.dims(n).values()) for n in range(cap)]
    tr.count("bar.classes", sum(dims))
    return bar, dims


def _representatives(tr: Tracer, coh) -> None:
    for label in coh.space.labels():
        with tr.span("bar.reps"):
            coh.representative(label)


# -- job kinds ---------------------------------------------------------------------

def tabulate(job: dict, tr: Tracer) -> dict:
    """Every operation up to the arity and degree caps, then Stasheff."""
    from ainfbar.transfer import check_stasheff, transfer
    alg = _build(tr, job["spec"])
    tr.end_setup()
    bar, dims = _bar(tr, alg, job["bar_cap"])
    coh = bar.cohomology()
    _representatives(tr, coh)
    with tr.span("transfer.ops"):
        st = transfer(bar, arity_cap=job["arity_cap"],
                      degree_cap=job["degree_cap"])
    table = [[k, list(labels), sorted(out.items())]
             for k in sorted(st.ops) for labels, out in sorted(st.ops[k].items())]
    tr.count("transfer.tuples", len(table))
    tr.count("transfer.nonzero", sum(1 for row in table if row[2]))
    with tr.span("transfer.stasheff"):
        checked, failures = check_stasheff(st)
    tr.count("transfer.stasheff_tuples", checked)
    return {"dims": dims, "tuples": len(table), "ops_digest": digest(table),
            "stasheff_checked": checked,
            "stasheff_failures": [list(tup) for tup, _ in failures]}


def witness(job: dict, tr: Tracer) -> dict:
    """m_k(t, ..., t) for the requested arities k, one tuple at a time."""
    from ainfbar.transfer import SDR, TransferEngine
    alg = _build(tr, job["spec"])
    tr.end_setup()
    bar, dims = _bar(tr, alg, job["bar_cap"])
    coh = bar.cohomology()
    _representatives(tr, coh)
    by_degree: dict[int, list[str]] = {}
    for label in coh.space.labels():
        by_degree.setdefault(coh.space.degrees(label)[0], []).append(label)
    (t,) = by_degree[1]
    with tr.span("transfer.ops"):
        engine = TransferEngine(SDR(bar), job["degree_cap"])
    nonzero = {}
    for k in job["arities"]:
        with tr.span("transfer.ops"):
            out = engine.m((t,) * k)
        tr.count("transfer.tuples", 1)
        if out:
            tr.count("transfer.nonzero", 1)
            nonzero[str(k)] = sorted(out.items())
    return {"dims": dims, "classes": by_degree, "nonzero": nonzero}


def compare(job: dict, tr: Tracer) -> dict:
    """Bar cohomology dims of the finite group against torus invariants."""
    from ainfbar.formality import TorusModel, invariant_dims
    from ainfbar.groups import parse_group_spec
    spec = parse_group_spec(job["spec"])
    alg = _build(tr, spec)
    tr.end_setup()
    _, dims = _bar(tr, alg, job["max_degree"] + 1)
    with tr.span("formality.invariants"):
        report = invariant_dims(TorusModel(spec, job["max_degree"]))
    tr.count("formality.invariant_classes", sum(report.dims))
    return {"bar_dims": dims, "invariant_dims": report.dims}


def restrict(job: dict, tr: Tracer) -> dict:
    """Restriction along the p-th power inclusion, then its cohomology map."""
    from ainfbar.bar import restriction
    from ainfbar.groups import power_inclusion
    high = _build(tr, job["high"])
    low = _build(tr, job["low"])
    tr.end_setup()
    high_bar, _ = _bar(tr, high, job["bar_cap"])
    low_bar, _ = _bar(tr, low, job["bar_cap"])
    fmap = power_inclusion(low, high)
    with tr.span("bar.restriction_check"):
        rmap = restriction(high_bar, low_bar, fmap)
    _representatives(tr, high_bar.cohomology())
    with tr.span("bar.on_cohomology"):
        induced = rmap.on_cohomology()
    entries = sorted([src, tgt, c] for (tgt, src), c in induced.entries.items())
    return {"map": entries, "map_digest": digest(entries)}


KINDS = {"tabulate": tabulate, "witness": witness, "compare": compare,
         "restrict": restrict}


def main(argv: list[str]) -> int:
    job, mode = json.loads(argv[1]), argv[2]
    tr = Tracer(mode)
    result = None
    try:
        with tr.span("job"):
            result = KINDS[job["kind"]](job, tr)
    except SetupOnly:
        pass
    if "ainfbar.cli" in sys.modules:
        raise RuntimeError("a job must not load ainfbar.cli or its report cache")
    print(canonical({"result": result, "setup_done": tr.setup_done,
                     "spans": tr.spans, "counters": tr.counters}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
