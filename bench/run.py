"""prodgeo benchmark: a closed loop of in-process CLI documents.

Run from the root of a checkout::

    python3 bench/run.py --workload grid-report --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

One process, one thread, one document at a time: each document is a
``prodgeo.cli.main([...])`` call on a scenario file written during set-up,
with stdout captured and checked.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics from an untraced phase, a traced
phase and two counting passes.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--smoke`` runs one document per workload in every mode and checks that
every metric named in BENCHMARK.json is emitted with its unit.

Every time is drift-corrected (see drift.py).  ``setup_s`` is measured in
fresh interpreters, because a CLI user pays imports, input parsing and the
first fill of the jet tables on every invocation.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("grid-report", "catalog-check", "fuzz-classify")
SETUP_PROBES = 3
PHASE_SHARE = 0.4  # of --seconds, for each of the untraced and traced phases

# (metric, layer, normalised per "doc" or "point"); cli.other is the self
# time of cli.main, i.e. argument parsing and the per-point loop's own code
LAYER_METRICS = (
    ("scenario.load_ms_per_doc", "scenario.load", "doc"),
    ("ambient.validate_ms_per_doc", "ambient.validate", "doc"),
    ("subgeom.build_ms_per_point", "subgeom.build", "point"),
    ("subgeom.classify_ms_per_point", "subgeom.classify", "point"),
    ("calculus.lemma1_ms_per_point", "calculus.lemma1", "point"),
    ("calculus.lemma2_ms_per_point", "calculus.lemma2", "point"),
    ("theorems.pointdata_ms_per_point", "theorems.pointdata", "point"),
    ("theorems.t2_ms_per_point", "theorems.t2", "point"),
    ("theorems.t3_ms_per_point", "theorems.t3", "point"),
    ("theorems.t4_ms_per_point", "theorems.t4", "point"),
    ("theorems.verdict_ms_per_doc", "theorems.verdict", "doc"),
    ("cli.render_ms_per_doc", "cli.render", "doc"),
    ("cli.other_ms_per_doc", "cli.main", "doc"),
)
COUNT_METRICS = (
    ("jets.mul_per_point", "mul"),
    ("jets.madds_per_point", "madds"),
    ("jets.truncate_per_point", "truncate"),
    ("expr.evaluate_calls_per_point", "evaluate"),
)


class Measured:
    """Drift-corrected unit times of one phase and the failures seen."""

    def __init__(self):
        self.raw = 0.0
        self.corrected = 0.0
        self.points = 0
        self.docs = 0
        self.factors: list[float] = []
        self.pass_times: list[float] = []
        self.failures: list[str] = []

    def ms_per_point(self) -> float:
        return 1000.0 * self.corrected / self.points

    def raw_ms_per_point(self) -> float:
        return 1000.0 * self.raw / self.points


@contextmanager
def _workdir(tag: str = ""):
    path = WORK / f"{os.getpid()}{tag}"
    try:
        yield str(path)
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # not empty: another run still uses it
            pass


def run_passes(workloads, workload, clock, seconds: float, max_docs: int | None = None) -> Measured:
    """Whole passes over the documents until ``seconds`` have gone by."""
    got = Measured()
    deadline = time.perf_counter() + seconds
    while True:
        pass_time = 0.0
        for doc in workload.docs:
            (code, out), raw, factor = clock.time(lambda: workloads.run_doc(doc))
            error = workloads.verify(doc, code, out)
            if error is not None:
                got.failures.append(f"{doc.name}: {error}")
            got.raw += raw
            got.corrected += raw * factor
            got.points += doc.points
            got.docs += 1
            got.factors.append(factor)
            pass_time += raw * factor
            if max_docs is not None and got.docs >= max_docs:
                return got
        got.pass_times.append(pass_time)
        if time.perf_counter() >= deadline:
            return got


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def _setup_probes(name: str, seed: int, count: int) -> tuple[list[float], list[str]]:
    """Set-up time of ``count`` fresh interpreters, one after another."""
    values, failures = [], []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        result = json.loads(lines[-1])
        values.append(result["setup_s"])
        failures.extend(result["failures"])
    return values, failures


def setup_probe(name: str, seed: int) -> dict:
    """Time one cold set-up, from before ``import prodgeo`` to a warm workload."""
    t0 = time.perf_counter()
    import workloads  # imports prodgeo and numpy

    imported = time.perf_counter() - t0
    import drift

    clock = drift.DriftClock()
    with _workdir("-probe") as workdir:
        workload, raw, factor = clock.time(lambda: workloads.setup(name, seed, workdir))
    return {"setup_s": (imported + raw) * factor, "raw_s": imported + raw,
            "failures": workload.failures}


def end_to_end(workloads, drift, workload, seed, seconds, max_docs=None, probes=SETUP_PROBES):
    clock = drift.DriftClock()
    got = run_passes(workloads, workload, clock, seconds, max_docs)
    setups, probe_failures = _setup_probes(workload.name, seed, probes)
    failures = workload.failures + got.failures + probe_failures
    attempted = (1 + probes) * len(workload.docs) + got.docs
    metrics = {
        "ms_per_point": _metric(got.ms_per_point(), "ms"),
        "pass_ms_p50": _metric(1000.0 * statistics.median(got.pass_times or [got.corrected]), "ms"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "doc_ok_ratio": _metric((attempted - len(failures)) / attempted, "ratio"),
    }
    info = {
        "passes": len(got.pass_times),
        "docs": got.docs,
        "raw_ms_per_point": got.raw_ms_per_point(),
        "setup_s_each": setups,
        "ref_ms_median": 1000.0 * statistics.median(clock.refs),
    }
    return metrics, info, attempted, failures


def per_layer(workloads, drift, layers, workload, seconds, max_docs=None):
    clock = drift.DriftClock()
    plain = run_passes(workloads, workload, clock, PHASE_SHARE * seconds, max_docs)
    tracer = layers.Tracer(clock)
    with tracer.installed():
        traced = run_passes(workloads, workload, clock, PHASE_SHARE * seconds, max_docs)
    factors = {doc: f for doc, f in enumerate(traced.factors, start=1)}
    self_s = tracer.self_times(factors)

    counts = []
    count_docs = workload.docs[:max_docs] if max_docs else workload.docs
    count_points = sum(d.points for d in count_docs)
    count_failures = []
    for _ in range(2):
        counter = layers.Counter()
        with counter.installed():
            for doc in count_docs:
                error = workloads.verify(doc, *workloads.run_doc(doc))
                if error is not None:
                    count_failures.append(f"{doc.name}: {error}")
        counts.append(counter.counts)
    if counts[0] != counts[1]:
        count_failures.append(f"counting passes differ: {counts[0]} vs {counts[1]}")

    metrics = {}
    for name, layer, per in LAYER_METRICS:
        base = traced.points if per == "point" else traced.docs
        metrics[name] = _metric(1000.0 * self_s.get(layer, 0.0) / base, "ms")
    for name, key in COUNT_METRICS:
        metrics[name] = _metric(counts[0][key] / count_points, "count")
    not_observed = tracer.not_observed + counter.not_observed
    metrics.update({
        "bench.ref_ms": _metric(1000.0 * statistics.median(clock.refs), "ms"),
        "bench.raw_ms_per_point": _metric(plain.raw_ms_per_point(), "ms"),
        "bench.traced_ms_per_point": _metric(traced.ms_per_point(), "ms"),
        "bench.trace_overhead_frac": _metric(traced.ms_per_point() / plain.ms_per_point() - 1.0, "ratio"),
        "bench.span_coverage_frac": _metric(sum(self_s.values()) / traced.corrected, "ratio"),
        "bench.boundaries_not_observed": _metric(len(not_observed), "count"),
        "repo.src_lines": _metric(_src_lines(), "lines"),
    })
    info = {"not_observed": not_observed, "counts": counts[0], "traced_docs": traced.docs,
            "plain_ms_per_point": plain.ms_per_point()}
    failures = workload.failures + plain.failures + traced.failures + count_failures
    attempted = len(workload.docs) + plain.docs + traced.docs + 2 * len(count_docs)
    return metrics, info, attempted, failures


def _load_modules():
    sys.path.insert(0, str(SRC))
    import drift
    import layers
    import workloads

    return workloads, drift, layers


def benchmark(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workloads, drift, layers = _load_modules()
    with _workdir() as workdir:
        workload = workloads.setup(name, seed, workdir)
        if trace:
            metrics, info, attempted, failures = per_layer(workloads, drift, layers, workload, seconds)
        else:
            metrics, info, attempted, failures = end_to_end(workloads, drift, workload, seed, seconds)
    for failure in failures[:20]:
        print(f"failed: {failure}")
    print("info: " + json.dumps(info))
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def smoke() -> int:
    """One document per workload in each mode; every declared metric present."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads, drift, layers = _load_modules()
    problems = []
    for name in WORKLOADS:
        with _workdir() as workdir:
            workload = workloads.setup(name, 1, workdir)
            e2e, _, _, fail_e = end_to_end(workloads, drift, workload, 1, 0.0, max_docs=1, probes=1)
            layer, info, _, fail_l = per_layer(workloads, drift, layers, workload, 0.0, max_docs=1)
        problems += [f"{name}: {f}" for f in fail_e + fail_l]
        problems += [f"{name}: not observed: {b}" for b in info["not_observed"]]
        for group, got in (("end_to_end", e2e), ("per_layer", layer)):
            for spec in declared[group]:
                metric = got.get(spec["name"])
                if metric is None:
                    problems.append(f"{name}: {spec['name']} missing")
                elif metric["unit"] != spec["unit"]:
                    problems.append(f"{name}: {spec['name']} unit {metric['unit']!r}")
            extra = set(got) - {spec["name"] for spec in declared[group]}
            problems += [f"{name}: {m} not declared" for m in sorted(extra)]
        print(f"smoke {name}: {len(e2e)} end-to-end and {len(layer)} per-layer metrics")
    for problem in problems:
        print(f"smoke problem: {problem}")
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ns = parser.parse_args(argv)
    # The thread pool is 1.8x slower than one thread on the 64-point report
    # and is due for deletion; pin the single-threaded path whatever the
    # caller's environment says.  Set-up probes inherit this environment.
    os.environ.pop("PRODGEO_THREADS", None)
    if not (SRC / "prodgeo" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no prodgeo sources under {SRC}; run from a full checkout\n")
        return 2
    if ns.smoke:
        return smoke()
    if ns.workload is None:
        parser.error("--workload is required")
    if ns.setup_probe:
        sys.path.insert(0, str(SRC))
        print(json.dumps(setup_probe(ns.workload, ns.seed)))
        return 0
    result = benchmark(ns.workload, ns.seed, ns.seconds, bool(ns.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
