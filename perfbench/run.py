"""ambiprob benchmark: closed-loop workloads with checked answers.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload exact-run --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload dsl-eval --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --smoke

One client issues one op at a time in this process (a closed loop with a
single worker); each op starts when the previous one has returned. Ops are
issued in rounds (see `workloads.py`); a new round starts only if the rounds
so far predict that it ends within `--seconds`, and at least one round runs.

`--trace 0` reports the end-to-end metrics, with times rescaled to a
reference machine speed (`machine.py`); the times as measured are printed
beside them. `--trace 1` runs one round twice
per op, once plain and once with every public function of the package wrapped
(`tracer.py`), and reports the per-layer metrics and the tracing overhead.
`--smoke` runs every workload's ops at tiny sizes, traced, and checks the
answers and that the per-layer self times add up to the traced op time.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 6  # fresh-process set-ups per run; with the run's own, 7 behind setup_s
PIN_EVERY = 8  # ops between re-choosing the CPU to run on

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mb": "MiB",
}


def load_program():
    """Import ambiprob from this checkout's src/, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "ambiprob", "__init__.py")):
        sys.exit(f"perfbench: no ambiprob sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import ambiprob
    import ambiprob.cli  # noqa: F401

    if os.path.dirname(os.path.dirname(os.path.abspath(ambiprob.__file__))) != SRC:
        sys.exit(f"perfbench: imported ambiprob from {ambiprob.__file__}, not {SRC}")


sys.path.insert(0, HERE)
from machine import REF_SECONDS, pin_quietest_cpu, reference, rescale  # noqa: E402
from ops import BAD, KNOWN, OK, execute  # noqa: E402
from tracer import METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, Sizes, round_ops, warmup_op  # noqa: E402

PROC_DIR = os.path.join(SRC, "ambiprob", "procs")


def set_up(workload: str, seed: int, sizes: Sizes):
    """Import the program, build the first round and issue the warm-up op.
    Returns (first round, warm-up outcome, set-up seconds, the same rescaled).
    Set-up time runs from process start to the end of the warm-up op, less the
    time spent choosing a CPU and timing the reference."""
    start = time.perf_counter()
    pin_quietest_cpu()
    ref = reference()
    own = time.perf_counter() - start
    load_program()
    first = round_ops(workload, seed, 0, sizes, PROC_DIR)
    warm = execute(warmup_op(workload, PROC_DIR))
    raw = time.perf_counter() - T_START - own
    return first, warm, raw, raw * REF_SECONDS / ref


def probe_setup(workload: str, seed: int) -> tuple[float, float] | None:
    """(raw, rescaled) set-up time of a fresh process, or None if its warm-up
    op failed (the run's own warm-up check reports that); this one waits for it."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        return None
    raw, scaled = proc.stdout.split()[-2:]
    return float(raw), float(scaled)


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile of a non-empty list."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_rounds(workload, seed, sizes, first, seconds):
    """Closed loop over whole rounds. Returns ([(op, outcome)], the reference
    timing taken before each op, set-up probe times). The probes run between
    ops spread over the first round, so the setup_s median samples the
    machine across the run, not in one burst."""
    done, refs, setups = [], [], []
    probe_at = {len(first) * k // SETUP_PROBES for k in range(SETUP_PROBES)}
    began = time.perf_counter()
    index, ops = 0, first
    while True:
        for i, op in enumerate(ops):
            if index == 0 and i in probe_at and (probe := probe_setup(workload, seed)):
                setups.append(probe)
            if i % PIN_EVERY == 0:
                pin_quietest_cpu()
            gc.collect()  # the reference then runs on the heap the op will start from
            refs.append(reference())
            done.append((op, execute(op)))
        index += 1
        elapsed = time.perf_counter() - began
        if elapsed + elapsed / index > seconds:
            return done, refs, setups
        ops = round_ops(workload, seed, index, sizes, PROC_DIR)


def run_traced(ops, tracer):
    """Each op once plain and once traced, alternating which goes first.
    Returns (plain outcomes, traced outcomes)."""
    plain, traced = [], []
    for i, op in enumerate(ops):
        if i % PIN_EVERY == 0:
            pin_quietest_cpu()
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.begin_op(i)
                tracer.install()
                try:
                    traced.append(execute(op))
                finally:
                    tracer.remove()
            else:
                plain.append(execute(op))
    return plain, traced


def verdict(pairs):
    """(correct, attempted, failed, failure lines) over [(op, outcome)]."""
    failed = [(op, o) for op, o in pairs if o.status != OK]
    correct = all(o.status != BAD for _, o in pairs)
    lines = [f"  {'known defect' if o.status == KNOWN else 'FAILED'}: {op.label}: {o.reason}"
             for op, o in failed]
    return correct, len(pairs), len(failed), lines


def e2e_metrics(lat: list[float], setups: list[float]) -> dict[str, tuple[float, int]]:
    """name -> (value, sample count) from op latencies and set-up times."""
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "ops_per_s": (len(lat) / sum(lat), len(lat)),
        "op_p50_s": (quantile(lat, 0.5), len(lat)),
        "op_p90_s": (quantile(lat, 0.9), len(lat)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def trace_report(plain, traced, tracer):
    """(per-layer metrics, missing names, balanced, summary line). Balanced
    means the spans' self times account for the traced op time: the time in
    traced ops outside every span is wrapper bookkeeping, so it may not exceed
    the tracing cost, measured (noisy) or estimated per call."""
    untraced_wall = sum(o.latency for o in plain)
    traced_wall = sum(o.latency for o in traced)
    out_bytes = sum(o.out_bytes for o in traced)
    metrics, missing, accounted = tracer.metrics(traced_wall, untraced_wall, out_bytes)
    overhead = traced_wall - untraced_wall
    wrappers = tracer.wrapper_seconds()
    unaccounted = traced_wall - accounted
    balanced = 0 <= unaccounted <= max(overhead, wrappers)
    line = (f"self times {accounted:.3f}s of traced op time {traced_wall:.3f}s; "
            f"unaccounted {unaccounted * 1e3:.2f}ms {'within' if balanced else 'EXCEEDS'} "
            f"the tracing cost (measured {overhead * 1e3:.1f}ms, "
            f"estimated {wrappers * 1e3:.1f}ms)")
    return {k: (v, METRICS[k][0]) for k, v in metrics.items()}, missing, balanced, line


def emit(workload, correct, attempted, failed, metrics, notes=None):
    """Human-readable lines, then the JSON result as the last line."""
    for name, (value, unit, *_) in metrics.items():
        note = f" ({notes[name]})" if notes and name in notes else ""
        print(f"{workload}  {name} = {value:.6g} {unit}{note}")
    print(f"{workload}  failed_frac = {failed / attempted:.6g} ({failed}/{attempted} ops)")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, *_) in metrics.items()},
    }))


def main_workload(args):
    sizes = Sizes()
    first, warm, raw_setup, scaled_setup = set_up(args.workload, args.seed, sizes)
    notes = None
    checked = [(warmup_op(args.workload, PROC_DIR), warm)]  # checked, not counted
    if args.trace:
        tracer = Tracer()
        plain, traced = run_traced(first, tracer)
        pairs = list(zip(first, plain))
        checked += zip(first, traced)
        metrics, missing, _, summary = trace_report(plain, traced, tracer)
        print(f"{args.workload}  {summary}")
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        tracer.dump(os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.jsonl"))
        for name in missing:
            print(f"{args.workload}  {name} missing: the program no longer exposes it")
    else:
        pairs, refs, setups = run_rounds(args.workload, args.seed, sizes, first, args.seconds)
        setups.append((raw_setup, scaled_setup))
        raw_lat = [o.latency for _, o in pairs]
        raw = e2e_metrics(raw_lat, [r for r, _ in setups])
        scaled = e2e_metrics(rescale(raw_lat, refs), [s for _, s in setups])
        metrics = {k: (v, E2E_UNITS[k]) for k, (v, _) in scaled.items()}
        notes = {k: f"n={n}" if k == "peak_rss_mb" else f"n={n}; as timed: {raw[k][0]:.6g}"
                 for k, (_, n) in scaled.items()}
        print(f"{args.workload}  reference loop: median {statistics.median(refs) * 1e3:.3f} ms "
              f"over {len(refs)} timings; times below are rescaled to {REF_SECONDS * 1e3:g} ms")
    correct, _, _, lines = verdict(pairs + checked)
    _, attempted, failed, _ = verdict(pairs)
    for line in lines:
        print(line)
    emit(args.workload, correct, attempted, failed, metrics, notes)


def main_smoke():
    """Every workload at tiny sizes, traced: answers pass (known defects aside),
    self times add up, and every BENCHMARK.json metric is produced."""
    load_program()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    want_e2e = {m["name"] for m in spec["end_to_end"]}
    want_layer = {m["name"] for m in spec["per_layer"]}
    sizes = Sizes.tiny()
    ok = {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    if not ok:
        print("smoke: BENCHMARK.json workloads differ from the benchmark's")
    for workload in WORKLOADS:
        ops = round_ops(workload, 0, 0, sizes, PROC_DIR)
        tracer = Tracer()
        plain, traced = run_traced(ops, tracer)
        correct, attempted, failed, lines = verdict(list(zip(ops, plain)) + list(zip(ops, traced)))
        e2e = e2e_metrics([o.latency for o in plain], [0.0])
        layer, missing, balanced, summary = trace_report(plain, traced, tracer)
        known = sum(o.status == KNOWN for o in plain)
        good = (correct and set(e2e) >= want_e2e and set(layer) >= want_layer and not missing
                and balanced)
        ok &= good
        for line in lines:
            print(line)
        print(f"smoke {workload}: {'ok' if good else 'FAILED'}  ops={attempted // 2} "
              f"known-defect failures={known} missing={missing}; {summary}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description="ambiprob benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny self-check of every workload")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        return main_smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        _, warm, raw, scaled = set_up(args.workload, args.seed, Sizes())
        if warm.status != OK:
            sys.exit(f"perfbench: warm-up op failed: {warm.reason}")
        print(raw, scaled)
        return 0
    main_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
