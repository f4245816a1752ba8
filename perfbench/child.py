"""One workload run in a fresh interpreter; prints its figures as one JSON line.

``run.py`` starts this with ``src`` on PYTHONPATH and the BLAS thread pools
pinned to one thread:

    python3 perfbench/child.py --workload NAME --seed N --seconds S
        [--units M] [--trace --spans PATH]

Without ``--units`` the run measures for about S seconds.  ``--units M``
runs exactly M units (blocks or passes) instead; a traced run and its
untraced replay both use it, so that they do the same work.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

import tracing
from workloads import WORKLOADS, Tally


def _percentile(values, q: int) -> float:
    """The q-th percentile; with fewer than two samples, the only one."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _end_to_end(tally: Tally) -> dict:
    """Rates and latencies from each operation's median time over the passes."""
    main = [(op.work, statistics.median(op.main_s)) for op in tally.ops.values()]
    check = [(op.check_work, statistics.median(op.check_s)) for op in tally.ops.values() if op.check_s]
    latencies_ms = [t * 1e3 for _, t in main]
    return {
        "work_per_s": sum(w for w, _ in main) / sum(t for _, t in main),
        "check_per_s": sum(w for w, _ in check) / sum(t for _, t in check),
        "op_p50_ms": _percentile(latencies_ms, 50),
        "op_p90_ms": _percentile(latencies_ms, 90),
    }


def _layers(tracer, tally: Tally, workload: str, cache_delta) -> dict:
    """The per-layer figures of a traced run, by metric name."""
    spans = tracer.summary()

    def span(name, field):
        return spans.get(name, {}).get(field, 0.0)

    derived = span("derivation.derive_chain", "calls")
    walks = sum(len(op.main_s) for op in tally.ops.values()) if workload == "chain_walk" else 0
    hits, misses = cache_delta
    return {
        "derivation.derive_chain.calls": derived,
        "derivation.derive_chain.self_s": span("derivation.derive_chain", "self_s"),
        "derivation.verify_chain.calls": span("derivation.verify_chain", "calls"),
        "derivation.verify_chain.busy_s": span("derivation.verify_chain", "busy_s"),
        "derivation.verify_chain.per_chain": span("derivation.verify_chain", "calls") / derived if derived else 0.0,
        "derivation.final_constant.busy_s": span("derivation.final_constant", "busy_s"),
        "derivation.format_certificate.busy_s": span("derivation.format_certificate", "busy_s"),
        "derivation.parse_certificate.busy_s": span("derivation.parse_certificate", "busy_s"),
        "derivation.borderline.count": tally.counts.get("borderline", 0),
        "interp.classify_triple.calls": span("interp.classify_triple", "calls"),
        "interp.classify_triple.busy_s": span("interp.classify_triple", "busy_s"),
        "interp.classify_triple.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "testfn.jet.calls": span("testfn.jet", "calls"),
        "testfn.jet.busy_s": span("testfn.jet", "busy_s"),
        "testfn.jet.points": tracer.counters.get("testfn.jet.points", 0),
        "testfn.jet.coef_points": tracer.counters.get("testfn.jet.coef_points", 0),
        "testfn.jet.per_walk": span("testfn.jet", "calls") / walks if walks else 0.0,
        "taylor.mul.calls": span("taylor.mul", "calls"),
        "taylor.mul.busy_s": span("taylor.mul", "busy_s"),
        "derivation.xnorm.per_walk": span("norms.xnorm", "calls") / walks if walks else 0.0,
        "derivation.evaluate_chain.self_s": span("derivation.evaluate_chain", "self_s"),
        "derivation.dilation_sweep.self_s": span("derivation.dilation_sweep", "self_s"),
        "norms.lp_norm.self_s": span("norms.lp_norm", "self_s"),
        "norms.sup_norm.self_s": span("norms.sup_norm", "self_s"),
        "norms.lp_norm_midpoint_oracle.self_s": span("norms.lp_norm_midpoint_oracle", "self_s"),
        "norms.grid_too_coarse.count": tally.counts.get("grid_too_coarse", 0),
        "norms.refine_rounds": tally.counts.get("refine_rounds", 0),
        "norms.oracle_disagree.count": tally.disagree,
        "norms.holder_seminorm.calls": span("norms.holder_seminorm", "calls"),
        "norms.holder_seminorm.self_s": span("norms.holder_seminorm", "self_s"),
        "norms.pairs": tracer.counters.get("norms.pairs", 0),
        "norms.pair_bytes_computed": tracer.counters.get("norms.pair_bytes_computed", 0),
        "norms.brute_force_holder.self_s": span("norms.brute_force_holder", "self_s"),
        "trace.spans": len(tracer.start),
    }


def _cache_counts(gn) -> tuple[int, int]:
    """Hits and misses of ``classify_triple``'s cache, or zeros if it has none."""
    info = getattr(getattr(gn, "classify_triple", None), "cache_info", None)
    if info is None:
        return 0, 0
    stats = info()
    return stats.hits, stats.misses


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--units", type=int, default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    import gninterp as gn
    import numpy
    import scipy

    workload = WORKLOADS[args.workload](gn, args.seed)
    tally = Tally()
    tracer = None
    if args.trace:
        before = _cache_counts(gn)
        tracer = tracing.Tracer()
        tracing.install(gn, tracer)
    wall0 = time.perf_counter()
    try:
        workload.run(tally, args.seconds, args.units)
    finally:
        if tracer is not None:
            tracer.restore()
    wall_s = time.perf_counter() - wall0
    workload.check(tally)

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "attempted": tally.attempted,
        "failed": len(tally.wrong),
        "unsolved": tally.unsolved,
        "disagree": tally.disagree,
        "wrong": tally.wrong[:5],
        "notes": tally.notes[:10],
        "units": tally.units,
        "ops": sum(len(op.main_s) for op in tally.ops.values()),
        "distinct_ops": len(tally.ops),
        "timed_s": tally.timed_s,
        "wall_s": wall_s,
        **_end_to_end(tally),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "counts": tally.counts,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "gninterp": gn.__version__,
        },
        "gninterp_file": gn.__file__,
    }
    if tracer is not None:
        after = _cache_counts(gn)
        delta = (after[0] - before[0], after[1] - before[1])
        out["layers"] = _layers(tracer, tally, args.workload, delta)
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
