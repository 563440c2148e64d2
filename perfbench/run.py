"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload table1-cold --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the verifier is imported from its
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` the run wraps every layer's entry points and reports the
per-layer metrics instead, and writes its spans to
``.perfbench/traces/`` as Chrome trace-event JSON.  Every run also writes
its full record, rows and seed included, to ``.perfbench/results/``.

The exit code is 0 for a correct run, 1 when a verdict is wrong (the
result line is still printed, with ``"correct": false``) and 2 when the
run could not be made at all (no result line).
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedSampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups per run: this process's own plus fresh child processes; the
#: reported ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Least wall time between two speed samples during a set-up (longer than
#: in the timed phase: a set-up is timed as a whole, and it runs thrice).
SETUP_PROBE_INTERVAL_S = 1.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set up, tear down and print only the set-up time (used for "
        "the extra set-up samples)",
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_checkout():
    """Put the checkout's ``src/`` first on the path and import from it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no verifier sources under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}")
    import workloads

    return workloads


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
        "workloads": {w["name"] for w in spec["workloads"]},
    }


def percentile(values, share: float) -> float:
    """Inclusive linear-interpolation percentile (``share`` in 0..1)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def setup_sample(args) -> float:
    """One set-up in a fresh child process, timed by the child."""
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--setup-only",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=150
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up sample failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def end_to_end_metrics(result, setup_samples, peak_rss_mb) -> dict:
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": result.wall_s,
        "peak_rss_mb": peak_rss_mb,
        "sequents_proved": result.sequents_proved,
        "classes_verified": result.classes_verified,
        "proved_share": result.proved_share,
        "latency_p50_ms": percentile(result.latencies_s, 0.5) * 1000.0,
        "latency_p90_ms": percentile(result.latencies_s, 0.9) * 1000.0,
    }


def per_layer_metrics(tracer, result, span_cost: float) -> dict:
    counters = tracer.counters
    layer = result.layer
    offered = counters.get("vcgen.assumptions.offered", 0.0)
    lookups = layer["cache_hits"] + layer["cache_misses"]
    metrics = {
        "frontend.loader.load_s": tracer.busy("frontend.loader.load"),
        "frontend.loader.calls": tracer.calls("frontend.loader.load"),
        "frontend.lower.busy_s": tracer.busy("frontend.lower"),
        "gcl.desugar.busy_s": tracer.busy("gcl.desugar"),
        "vcgen.generate.busy_s": tracer.busy("vcgen.generate"),
        "vcgen.sequents": counters.get("vcgen.sequents", 0),
        "vcgen.assumptions.busy_s": tracer.busy("vcgen.assumptions"),
        "vcgen.assumptions.kept_ratio": (
            counters.get("vcgen.assumptions.kept", 0.0) / offered if offered else 0.0
        ),
        "logic.terms.allocated": layer["terms_allocated"],
        "logic.terms.interned_hits": layer["terms_interned_hits"],
        "provers.cache.key.busy_s": tracer.busy("provers.cache.key"),
        "provers.cache.hits": layer["cache_hits"],
        "provers.cache.misses": layer["cache_misses"],
        "provers.cache.hit_ratio": layer["cache_hits"] / lookups if lookups else 0.0,
        "provers.cache.store.load_s": tracer.busy("provers.cache.store.load"),
        "provers.cache.store.save_s": tracer.busy("provers.cache.store.save"),
        "provers.cache.store.saves": tracer.calls("provers.cache.store.save"),
        "provers.cache.store.bytes": layer.get("store_bytes", 0),
    }
    for prover in ("smt", "sets", "fol"):
        attempts = counters.get(f"provers.{prover}.attempts", 0)
        proved = counters.get(f"provers.{prover}.proved", 0)
        metrics[f"provers.{prover}.attempts"] = attempts
        metrics[f"provers.{prover}.proved"] = proved
        metrics[f"provers.{prover}.timeouts"] = counters.get(
            f"provers.{prover}.timeouts", 0
        )
        metrics[f"provers.{prover}.busy_s"] = tracer.busy(f"provers.{prover}.prove")
        metrics[f"provers.{prover}.win_ratio"] = proved / attempts if attempts else 0.0
    handler_ms = layer.get("handler_ms", [])
    overhead_ms = layer.get("http_overhead_ms", [])
    metrics.update(
        {
            "provers.dispatch.overshoot_max": counters.get(
                "provers.dispatch.overshoot_max", 0.0
            ),
            "provers.smt.prepare_s": tracer.busy("provers.smt.prepare"),
            "provers.smt.quant_s": tracer.busy("provers.smt.quant"),
            "provers.smt.sat_s": tracer.busy("provers.smt.sat"),
            "provers.smt.sat_calls": tracer.calls("provers.smt.sat"),
            "provers.smt.theory_s": tracer.busy("provers.smt.theory"),
            "provers.smt.theory_calls": tracer.calls("provers.smt.theory"),
            "verifier.incremental.record_s": tracer.busy(
                "verifier.incremental.record"
            ),
            "verifier.engine.self_s": tracer.self_time("verifier.engine.verify_class"),
            "verifier.daemon.handler_ms_p50": percentile(handler_ms, 0.5),
            "verifier.http.overhead_ms_p50": percentile(overhead_ms, 0.5),
            "verifier.http.overhead_ms_p90": percentile(overhead_ms, 0.9),
            "verifier.admission.peak_depth": layer.get("admission_peak_depth", 0),
            "verifier.admission.rejected": layer.get("admission_rejected", 0),
            "trace.wall_s": result.wall_s,
            "trace.spans": len(tracer.spans),
            "trace.overhead_s": len(tracer.spans) * span_cost,
        }
    )
    return metrics


def labelled(values: dict, units: dict) -> dict:
    """``values`` in the declared order with units; exactly the declared set."""
    if set(values) != set(units):
        missing = sorted(set(units) - set(values))
        extra = sorted(set(values) - set(units))
        raise RuntimeError(f"metric set mismatch: missing {missing}, extra {extra}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def run(args, workloads, declared, sampler: SpeedSampler, began: float) -> int:
    """Set up, time and check one workload; ``began`` is when the set-up
    (verifier imports included) started, on ``sampler``'s clock."""
    if args.workload not in workloads.WORKLOADS or args.workload not in declared[
        "workloads"
    ]:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds, ROOT)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    try:
        workload.setup(sampler, tracer)
        ready = time.monotonic()
        sampler.stop()
        setup_s = sampler.seconds(began, ready)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = workload.run()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        workload.check(result)
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.teardown()

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "raw_wall_s": result.raw_wall_s,
        "cpu_s": result.cpu_s,
        "speed": result.layer["speed"],
        "evaluator_checked": result.layer.get("evaluator_checked"),
        "rows": result.rows,
        "latencies_ms": [
            [label, latency * 1000.0]
            for label, latency in zip(result.latency_labels, result.latencies_s)
        ],
        "problems": result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
    }
    if tracer is None:
        samples = [setup_s] + [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
        record["setup_samples_s"] = samples
        values = end_to_end_metrics(result, samples, peak_rss_mb)
        units = declared["end_to_end"]
    else:
        from tracing import calibrate_span_cost

        trace_path = (
            ROOT / ".perfbench" / "traces" / f"{args.workload}-seed{args.seed}.json"
        )
        tracer.write_chrome_trace(trace_path)
        record["trace_file"] = str(trace_path.relative_to(ROOT))
        values = per_layer_metrics(tracer, result, calibrate_span_cost())
        units = declared["per_layer"]
    metrics = labelled(values, units)
    record["metrics"] = metrics
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )

    correct = not result.problems
    for row in result.rows:
        print(row)
    for problem in result.problems:
        print(f"WRONG: {problem}")
    print(
        f"{args.workload} seed={args.seed} trace={args.trace} "
        f"wall_s={result.wall_s:.3f} raw_wall_s={result.raw_wall_s:.3f} "
        f"sequents={result.sequents_proved}/"
        f"{result.sequents_total} classes_verified={result.classes_verified} "
        f"evaluator_checked={result.layer.get('evaluator_checked', '-')} "
        f"operations={result.attempted} failed={result.failed}"
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    # Set-up is timed in reference-speed seconds too, so it gets a speed
    # sampler of its own (the timed phase starts another).
    sampler = SpeedSampler(interval=SETUP_PROBE_INTERVAL_S)
    try:
        declared = declared_metrics()
        sampler.start()
        began = time.monotonic()
        workloads = import_checkout()
        return run(args, workloads, declared, sampler, began)
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    except Exception:  # noqa: BLE001 - report and fail without a result line
        traceback.print_exc()
        return 2
    finally:
        sampler.stop()


if __name__ == "__main__":
    sys.exit(main())
