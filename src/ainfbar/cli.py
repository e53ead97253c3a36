"""Experiment runner over the library pipelines.

One subcommand per pipeline; every run produces a canonical JSON report
(sorted keys, compact separators) whose bytes depend only on the spec, the
prime, and the caps, never on timing or cache state.  Reports are cached
content-addressed under a digest of (package sources, command, spec, caps),
so a code change never serves an older report; cache files embed a checksum
of their payload and fall back to recomputation when unreadable or tampered
with.  Cache files and --out reports are written atomically.  Timing and
cache-hit counts go to stderr so the report bytes stay deterministic.

Exit codes: 0 success, 1 verification failure, 2 usage or spec error,
3 resource-budget error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import pathlib
import sys
import time
from typing import Optional

from .bar import (
    DEFAULT_WORD_BUDGET, BudgetExceededError, build_bar, restriction,
)
from .formality import (
    TorusModel, certificate_for_spec, compare_finite_vs_invariants,
    invariant_dims,
)
from .groups import (
    GroupSpec, SpecError, build_group_algebra, canonical_spec,
    equivariant_splitting, parse_group_spec, power_inclusion,
)
from .transfer import CapOverflowError, transfer

SCHEMA_VERSION = "1"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True) + "\n"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@functools.cache
def _source_digest() -> str:
    """SHA-256 over the package's *.py files, read in sorted order."""
    sha = hashlib.sha256()
    for path in sorted(pathlib.Path(__file__).parent.glob("*.py")):
        sha.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return sha.hexdigest()


def _write_atomic(path: str, text: str) -> None:
    """Write text to path through a per-process temp file beside it and
    os.replace, so a killed run never leaves a torn file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


class ReportCache:
    """Content-addressed store for report payloads.

    Entries carry their own payload checksum; a mismatch (truncation,
    manual edit, torn write from a killed process) is treated as a miss
    and silently repaired by the following store.
    """

    def __init__(self, root: Optional[str]):
        self.root = root
        self.hits = 0
        self.misses = 0

    def key(self, parts: dict) -> str:
        return _digest(canonical_json(parts))

    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    def load(self, key: str) -> Optional[dict]:
        if self.root is None:
            return None
        try:
            with open(self._path(key), "r", encoding="utf-8") as fh:
                wrapper = json.load(fh)
            payload = wrapper["payload"]
            if wrapper["digest"] != _digest(canonical_json(payload)):
                raise ValueError("checksum mismatch")
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def store(self, key: str, payload: dict) -> None:
        if self.root is None:
            return
        os.makedirs(self.root, exist_ok=True)
        wrapper = {"digest": _digest(canonical_json(payload)),
                   "payload": payload}
        _write_atomic(self._path(key), canonical_json(wrapper))


# -- payload builders --------------------------------------------------------

def _classes(space) -> list[dict]:
    return [{"label": str(label), "cohDegree": coh,
             "intDegree": internal.as_pair()}
            for label, coh, internal in space.basis]


def _dims(space, max_degree: int) -> list[int]:
    counts = space.dims_by_cohdeg()
    return [counts.get(d, 0) for d in range(max_degree + 1)]


def _vector(v: dict[str, int]) -> list[list]:
    return [[label, v[label]] for label in sorted(v)]


def _config_echo(args, spec: GroupSpec, with_arity: bool) -> dict:
    echo = {"spec": canonical_spec(spec), "p": spec.p,
            "maxDegree": args.max_degree}
    if with_arity:
        echo["maxArity"] = args.max_arity
    return echo


def _run_cohomology(args, spec: GroupSpec) -> dict:
    alg = build_group_algebra(spec)
    bar = build_bar(alg, args.max_degree + 1, args.budget)
    coh = bar.cohomology()
    return {"dims": _dims(coh.space, args.max_degree),
            "classes": _classes(coh.space)}


def _run_transfer(args, spec: GroupSpec) -> dict:
    alg = build_group_algebra(spec)
    bar = build_bar(alg, args.max_degree + 1, args.budget)
    st = transfer(bar, arity_cap=args.max_arity, degree_cap=args.max_degree)
    tensors = []
    for k in sorted(st.ops):
        entries = []
        for labels in sorted(st.ops[k]):
            out = st.ops[k][labels]
            for label in sorted(out):
                entries.append({"inputs": list(labels), "output": label,
                                "coeff": out[label]})
        tensors.append({"arity": k, "entries": entries})
    return {"dims": _dims(st.space, args.max_degree),
            "classes": _classes(st.space),
            "operations": tensors}


def _run_restriction(args, spec: GroupSpec) -> dict:
    low_spec = spec.lower()
    high_alg = build_group_algebra(spec)
    low_alg = build_group_algebra(low_spec)
    cap = args.max_degree + 1
    high_bar = build_bar(high_alg, cap, args.budget)
    low_bar = build_bar(low_alg, cap, args.budget)
    rmap = restriction(high_bar, low_bar, power_inclusion(low_alg, high_alg))
    induced = rmap.on_cohomology()
    entries = [{"source": src, "target": tgt, "coeff": c}
               for (tgt, src), c in sorted(induced.entries.items(),
                                           key=lambda kv: (kv[0][1], kv[0][0]))]
    return {"lowSpec": canonical_spec(low_spec),
            "sourceClasses": _classes(induced.source),
            "targetClasses": _classes(induced.target),
            "map": entries}


def _run_certificate(args, spec: GroupSpec) -> dict:
    cert = certificate_for_spec(spec, args.max_degree)
    return {"subject": cert.subject,
            "verdict": cert.verdict,
            "violators": cert.violators,
            "derivation": cert.derivation,
            "classes": [{"label": l, "cohDegree": d, "intDegree": s}
                        for l, d, s in cert.table]}


def _run_invariants(args, spec: GroupSpec) -> dict:
    report = invariant_dims(TorusModel(spec, args.max_degree))
    return {"dims": report.dims,
            "basis": [{"degree": d, "vectors": [_vector(v) for v in vecs]}
                      for d, vecs in sorted(report.basis.items())],
            "generators": [{"degree": d, "vector": _vector(v)}
                           for d, v in report.minimal_generators],
            "completeThrough": report.truncation}


def _run_compare(args, spec: GroupSpec) -> dict:
    report = compare_finite_vs_invariants(spec, args.max_degree, args.budget)
    return {"barDims": report.bar_dims,
            "invariantDims": report.invariant_dims,
            "mismatches": [list(m) for m in report.mismatches],
            "agree": report.agree}


def _run_splitting(args, spec: GroupSpec) -> dict:
    lifts = equivariant_splitting(spec)
    levels = [{"level": level,
               "lifts": [[[list(e), c] for e, c in sorted(vec.items())]
                         for vec in lifts[level]]}
              for level in sorted(lifts)]
    return {"p": spec.p, "rank": spec.rank, "depth": spec.uniform_depth,
            "levels": levels}


_RUNNERS = {
    "cohomology": (_run_cohomology, False),
    "transfer": (_run_transfer, True),
    "restriction": (_run_restriction, False),
    "certificate": (_run_certificate, False),
    "invariants": (_run_invariants, False),
    "compare": (_run_compare, False),
    "splitting": (_run_splitting, False),
}


# -- text rendering -----------------------------------------------------------

def render_text(payload: dict) -> str:
    lines: list[str] = []

    def emit(key, value, indent):
        pad = "  " * indent
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            for k in sorted(value):
                emit(k, value[k], indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            for item in value:
                lines.append(f"{pad}  -")
                for k in sorted(item):
                    emit(k, item[k], indent + 2)
        else:
            lines.append(f"{pad}{key}: {json.dumps(value, sort_keys=True)}")

    for k in sorted(payload):
        emit(k, payload[k], 0)
    return "\n".join(lines) + "\n"


# -- driver -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ainfbar",
        description="cohomology, homotopy transfer, and formality "
                    "certificates for finite torus approximations")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--spec", required=True,
                        help="group description, e.g. 'cyclic(3^2)' or "
                             "'semidirect(torus(3,1,2), inversion)'")
    common.add_argument("--p", type=int, default=None,
                        help="prime; checked against the spec when given")
    common.add_argument("--max-degree", type=int, default=6)
    common.add_argument("--max-arity", type=int, default=4)
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--cache-dir", default=".ainfbar_cache")
    common.add_argument("--no-cache", action="store_true")
    common.add_argument("--budget", type=int, default=DEFAULT_WORD_BUDGET,
                        help="bar complex word budget")
    common.add_argument("--out", default=None, help="write the report here "
                        "instead of stdout")
    for name in _RUNNERS:
        sub.add_parser(name, parents=[common])
    sub.add_parser("verify", help="run the acceptance checklist")
    return parser


def _validated_spec(args) -> GroupSpec:
    spec = parse_group_spec(args.spec)
    if args.p is not None and args.p != spec.p:
        raise SpecError(f"--p {args.p} contradicts the spec prime {spec.p}")
    if args.max_degree < 0 or args.max_arity < 2:
        raise SpecError("caps must satisfy max-degree >= 0, max-arity >= 2")
    if args.budget < 1:
        raise SpecError("budget must be positive")
    return spec


def run_report(argv) -> tuple[int, str, dict]:
    """Parse argv, run the pipeline, and return (exit code, report, meta).

    The report string is exactly what main() writes to the output stream;
    meta carries timing and cache counters for the stderr footer.
    """
    return _execute(build_parser().parse_args(argv))


def _execute(args) -> tuple[int, str, dict]:
    if args.command == "verify":
        from . import verify
        started = time.monotonic()
        results = verify.run_all()
        lines = [r.line() for r in results]
        ok = all(r.ok for r in results)
        lines.append(f"{sum(r.ok for r in results)}/{len(results)} criteria passed")
        meta = {"elapsed": time.monotonic() - started, "hits": 0, "misses": 0}
        return (0 if ok else 1), "\n".join(lines) + "\n", meta
    spec = _validated_spec(args)
    runner, with_arity = _RUNNERS[args.command]
    cache = ReportCache(None if args.no_cache else args.cache_dir)
    key_parts = {"source": _source_digest(), "command": args.command,
                 "config": _config_echo(args, spec, with_arity)}
    key = cache.key(key_parts)
    started = time.monotonic()
    payload = cache.load(key)
    if payload is None:
        body = runner(args, spec)
        payload = {"schemaVersion": SCHEMA_VERSION, "command": args.command,
                   "config": _config_echo(args, spec, with_arity)}
        payload.update(body)
        cache.store(key, payload)
    elapsed = time.monotonic() - started
    code = 0
    if args.command == "compare" and not payload["agree"]:
        code = 1
    text = (canonical_json(payload) if args.format == "json"
            else render_text(payload))
    meta = {"elapsed": elapsed, "hits": cache.hits, "misses": cache.misses}
    return code, text, meta


def _emit_error(code_name: str, message: str, **extra) -> None:
    err = {"error": dict({"code": code_name, "message": message}, **extra)}
    sys.stderr.write(canonical_json(err))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv if argv is not None else sys.argv[1:])
    try:
        code, text, meta = _execute(args)
    except BudgetExceededError as exc:
        _emit_error("budget-exceeded", str(exc), degree=exc.degree,
                    needed=exc.needed, budget=exc.budget)
        return 3
    except CapOverflowError as exc:
        _emit_error("cap-overflow", str(exc))
        return 2
    except SpecError as exc:
        _emit_error("spec-error", str(exc))
        return 2
    out = getattr(args, "out", None)
    if out:
        _write_atomic(out, text)
    else:
        sys.stdout.write(text)
    footer = f"elapsed {meta['elapsed']:.2f}s"
    if args.command != "verify":
        footer += f", cache hits {meta['hits']}, misses {meta['misses']}"
    sys.stderr.write(footer + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
