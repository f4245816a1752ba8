"""gninterp benchmark: one workload, timed end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every measurement runs in a fresh interpreter started from ``src`` with the
BLAS thread pools pinned to one thread.  With ``--trace 0`` the run reports
the end-to-end metrics: the workload's own figures, plus ``setup_s``, the
median of several cold ``import gninterp``.  With ``--trace 1`` it reports
the per-layer metrics: a traced run of a fixed amount of work, an untraced
replay of the same work (the difference is the tracing overhead), the
import profile from ``-X importtime`` and the CLI's cold start.

Earlier lines of standard output give details and provenance; the last line
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Full results and the spans of traced runs are written under
``.perfbench_out/``.  Exit status 0 means every result checked out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

# Cold imports per run; setup_s is their median.
SETUP_REPEATS = 3
CLI_REPEATS = 3
# Units of work in a traced run and its replay: fixed, so that per-layer
# counts repeat exactly between runs of the same code.
TRACE_UNITS = {"derive_sweep": 20, "chain_walk": 1, "norm_census": 1, "pair_oracle": 1}
# Each run must end within 180 s.
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "ok_frac": "1",
    "work_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "check_per_s": "1/s",
}

# Per-layer metrics of a traced run; "computed" figures are derived from
# call arguments (array sizes), not measured.
PER_LAYER_UNITS = {
    "import.total_s": "s",
    "import.scipy_s": "s",
    "cli.cold_start_s": "s",
    "derivation.derive_chain.calls": "count",
    "derivation.derive_chain.self_s": "s",
    "derivation.verify_chain.calls": "count",
    "derivation.verify_chain.busy_s": "s",
    "derivation.verify_chain.per_chain": "count",
    "derivation.final_constant.busy_s": "s",
    "derivation.format_certificate.busy_s": "s",
    "derivation.parse_certificate.busy_s": "s",
    "derivation.borderline.count": "count",
    "interp.classify_triple.calls": "count",
    "interp.classify_triple.busy_s": "s",
    "interp.classify_triple.hit_ratio": "1",
    "testfn.jet.calls": "count",
    "testfn.jet.busy_s": "s",
    "testfn.jet.points": "count",
    "testfn.jet.coef_points": "count",
    "testfn.jet.per_walk": "count",
    "taylor.mul.calls": "count",
    "taylor.mul.busy_s": "s",
    "derivation.xnorm.per_walk": "count",
    "derivation.evaluate_chain.self_s": "s",
    "derivation.dilation_sweep.self_s": "s",
    "norms.lp_norm.self_s": "s",
    "norms.sup_norm.self_s": "s",
    "norms.lp_norm_midpoint_oracle.self_s": "s",
    "norms.grid_too_coarse.count": "count",
    "norms.refine_rounds": "count",
    "norms.oracle_disagree.count": "count",
    "norms.holder_seminorm.calls": "count",
    "norms.holder_seminorm.self_s": "s",
    "norms.pairs": "count",
    "norms.pair_bytes_computed": "B",
    "norms.brute_force_holder.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "1",
}


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def _env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _run(cmd: list[str], deadline: float, what: str) -> subprocess.CompletedProcess:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"out of time before {what}")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{what} did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"{what} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc


def _child(args: list[str], deadline: float, what: str) -> dict:
    proc = _run([sys.executable, str(HERE / "child.py"), *args], deadline, what)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{what} printed nothing")
    return json.loads(lines[-1])


_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import gninterp; "
    "print(time.perf_counter() - t)"
)


def _cold_import_s(deadline: float) -> float:
    proc = _run([sys.executable, "-c", _IMPORT_PROBE], deadline, "cold import")
    return float(proc.stdout.strip().splitlines()[-1])


def _import_profile(deadline: float) -> tuple[float, float]:
    """Total ``import gninterp`` time and the part spent importing scipy, from -X importtime."""
    proc = _run([sys.executable, "-X", "importtime", "-c", "import gninterp"], deadline, "import profile")
    rows = []  # (depth, module, cumulative seconds), children before parents
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), int(cumulative) / 1e6))
    total = sum(cum for depth, name, cum in rows if name == "gninterp")
    scipy_s = 0.0
    for i, (depth, name, cum) in enumerate(rows):
        if name.split(".")[0] != "scipy":
            continue
        parent = next((r[1] for r in rows[i + 1:] if r[0] < depth), "")
        if parent.split(".")[0] != "scipy":
            scipy_s += cum
    return total, scipy_s


def _cli_cold_start_s(deadline: float) -> float:
    cmd = [sys.executable, "-m", "gninterp", "params", "--n", "3", "--k", "2", "--l", "1",
           "--p", "2", "--r", "-3", "--theta", "1/2"]
    t0 = time.perf_counter()
    _run(cmd, deadline, "CLI cold start")
    return time.perf_counter() - t0


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "gninterp").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _git_hash() -> str | None:
    """HEAD of the checkout, read from .git directly; None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _provenance(args, child: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "versions": child["versions"],
        "git": _git_hash(),
        "source_sha256": _source_digest(),
        "thread_pins": THREAD_PINS,
        "ops_per_run": child["ops"],
        "units_per_run": child["units"],
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(args, deadline: float) -> tuple[dict, dict, dict]:
    """Returns (child result, metrics, extra details) for one run."""
    base = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if not args.trace:
        res = _child(base, deadline, "workload run")
        setups = [_cold_import_s(deadline) for _ in range(SETUP_REPEATS)]
        figures = {
            "setup_s": statistics.median(setups),
            "peak_rss_mib": res["peak_rss_mib"],
            "ok_frac": 1 - (res["failed"] + res["unsolved"] + res["disagree"]) / res["attempted"],
            "work_per_s": res["work_per_s"],
            "op_p50_ms": res["op_p50_ms"],
            "op_p90_ms": res["op_p90_ms"],
            "check_per_s": res["check_per_s"],
        }
        metrics = {name: _metric(figures[name], unit) for name, unit in END_TO_END_UNITS.items()}
        return res, metrics, {"setup_samples_s": setups}

    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    units = ["--units", str(TRACE_UNITS[args.workload])]
    traced = _child(base + units + ["--trace", "--spans", str(spans)], deadline, "traced run")
    replay = _child(base + units, deadline, "untraced replay")
    if replay["failed"]:
        traced["failed"] += replay["failed"]
        traced["wrong"] += replay["wrong"]
    import_total, import_scipy = _import_profile(deadline)
    cli = statistics.median(_cli_cold_start_s(deadline) for _ in range(CLI_REPEATS))
    layers = dict(traced["layers"])
    layers["import.total_s"] = import_total
    layers["import.scipy_s"] = import_scipy
    layers["cli.cold_start_s"] = cli
    layers["trace.overhead_s"] = traced["timed_s"] - replay["timed_s"]
    layers["trace.overhead_frac"] = layers["trace.overhead_s"] / replay["timed_s"]
    metrics = {name: _metric(layers[name], unit) for name, unit in PER_LAYER_UNITS.items()}
    return traced, metrics, {"spans_file": str(spans.relative_to(ROOT)), "replay_timed_s": replay["timed_s"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="gninterp benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "gninterp" / "__init__.py").is_file():
        print(f"error: no gninterp sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        res, metrics, extra = measure(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not res["gninterp_file"].startswith(str(SRC)):
        print(f"error: imported gninterp from {res['gninterp_file']}, not {SRC}", file=sys.stderr)
        return 1

    provenance = _provenance(args, res)
    correct = res["failed"] == 0
    result = {
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**result, "provenance": provenance, "details": {**res, **extra}}, indent=1) + "\n")

    for problem in res["wrong"]:
        print(f"wrong: {problem}")
    for note in res["notes"]:
        print(f"oracle disagrees: {note}")
    print(
        f"{args.workload} seed {args.seed}: {res['ops']} ops in {res['units']} units, "
        f"{res['attempted']} checked, {res['failed']} wrong, {res['unsolved']} unsolved, "
        f"{res['disagree']} disagreeing with the oracle; "
        f"timed {res['timed_s']:.2f} s of {res['wall_s']:.2f} s"
    )
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
