"""Reference-normalized benchmark of the triway CLI.

    python3 bench/run.py --workload {genie-block,gap-ensemble,report-mix} \
        --seed N --seconds S --trace {0,1}

Runs a fixed, seeded list of operations through `triway.cli.main(argv)` in
this process, with stdout captured, and checks every output.  The number of
operations is fixed by --seconds and the workload's planned op time, so the
attempted and failed counts repeat exactly.  Each CLI call is timed between two
samples of the reference computation (see reference.py) and scaled by their
mean.  --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics of a traced pass (see tracer.py) and its overhead against an untraced
pass of the same operations.  The last stdout line is one JSON object; the
full record, with raw wall times, goes to bench/out/.

triway is imported from src/ of the checkout this file sits in; without it the
benchmark exits 1.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one process, one thread: stays below a 2-core machine's nproc

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5  # this process plus four child processes


def _import_triway():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import triway.cli
    except ImportError as exc:
        sys.exit(f"bench: cannot import triway from {ROOT / 'src'}: {exc}")
    if Path(triway.__file__).resolve().parent.parent != ROOT / "src":
        sys.exit(f"bench: triway was imported from {triway.__file__}, not from {ROOT / 'src'}")
    return triway.cli


# name, unit, better, kind, span names; kinds: calls, ms (inclusive), self_ms,
# bytes (recorded result sizes), peak_mb (tracemalloc), stdout, overhead
PER_LAYER = [
    ("cli.main.calls", "count", "lower", "calls", ["cli.main"]),
    ("cli.main.self_ms", "ms", "lower", "self_ms", ["cli.main"]),
    ("cli.build_parser.ms", "ms", "lower", "ms", ["cli.build_parser"]),
    ("cli.stdout_bytes", "bytes", "lower", "stdout", []),
    ("model.make_config.ms", "ms", "lower", "ms", ["model.make_config"]),
    ("model.validate.calls", "count", "lower", "calls", ["model.validate"]),
    ("model.validate.ms", "ms", "lower", "ms", ["model.validate"]),
    ("model.canonicalize.calls", "count", "lower", "calls", ["model.canonicalize"]),
    ("model.canonicalize.ms", "ms", "lower", "ms", ["model.canonicalize"]),
    ("rng.default_rng.calls", "count", "lower", "calls", ["rng.default_rng"]),
    ("rng.default_rng.ms", "ms", "lower", "ms", ["rng.default_rng"]),
    ("bounds.cap.calls", "count", "lower", "calls", ["bounds.cap"]),
    ("bounds.cutset_bounds.calls", "count", "lower", "calls", ["bounds.cutset_bounds"]),
    ("bounds.sum_capacity_interval.calls", "count", "lower", "calls", ["bounds.sum_capacity_interval"]),
    ("bounds.sum_capacity_interval.ms", "ms", "lower", "ms", ["bounds.sum_capacity_interval"]),
    ("bounds.bound_report.ms", "ms", "lower", "ms", ["bounds.bound_report"]),
    ("bounds.dof_estimate.ms", "ms", "lower", "ms", ["bounds.dof_estimate"]),
    ("region.build_region.ms", "ms", "lower", "ms", ["region.build_region"]),
    ("region.max_weighted_sum.calls", "count", "lower", "calls", ["region.max_weighted_sum"]),
    ("region.max_weighted_sum.ms", "ms", "lower", "ms", ["region.max_weighted_sum"]),
    ("experiments.gap_ensemble.self_ms", "ms", "lower", "self_ms", ["experiments.gap_ensemble"]),
    ("experiments.sweep_snr.self_ms", "ms", "lower", "self_ms", ["experiments.sweep_snr"]),
    ("experiments.find_crossover.ms", "ms", "lower", "ms", ["experiments.find_crossover"]),
    ("experiments.export_report.ms", "ms", "lower", "ms", ["experiments.export_report"]),
    ("experiments.export_report.bytes", "bytes", "lower", "bytes", ["experiments.export_report"]),
    ("sim.random_encoders.ms", "ms", "lower", "ms", ["sim.random_encoders"]),
    ("sim.normalize_power.ms", "ms", "lower", "ms", ["sim.normalize_power"]),
    ("sim.expected_block_power.ms", "ms", "lower", "ms", ["sim.expected_block_power"]),
    ("sim.simulate_network.self_ms", "ms", "lower", "self_ms", ["sim.simulate_network"]),
    ("sim.genie_reconstruct.ms", "ms", "lower", "ms",
     ["sim.genie_reconstruct_lemma1", "sim.genie_reconstruct_lemma2"]),
    ("sim.trace_to_csv.ms", "ms", "lower", "ms", ["sim.trace_to_csv"]),
    ("sim.simulate_pnc_relay.ms", "ms", "lower", "ms", ["sim.simulate_pnc_relay"]),
    ("sim.estimate_p2p_mi.ms", "ms", "lower", "ms", ["sim.estimate_p2p_mi"]),
    ("sim.normalize_power.peak_mb", "MB", "lower", "peak_mb", ["sim.normalize_power"]),
    ("sim.simulate_network.peak_mb", "MB", "lower", "peak_mb", ["sim.simulate_network"]),
    ("trace.overhead_ratio", "ratio", "lower", "overhead", []),
]


class Harness:
    """Runs operations, times each CLI call against the reference, checks outputs."""

    def __init__(self, cli, reference, tracer=None):
        self.cli, self.reference, self.tracer = cli, reference, tracer
        self.correct = True
        self.errors: list[str] = []
        self.faults: list[str] = []

    def call(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t = time.perf_counter()
            rc = self.cli.main(argv)
            dt = time.perf_counter() - t
        return rc, buf.getvalue(), dt

    def run(self, ops) -> dict:
        from oracle import CheckError
        from workloads import KnownFault

        rec = {key: [] for key in ("norm_ms", "raw_ms", "ref_ms", "call_norm_ms", "call_raw_ms",
                                   "call_ref_ms", "stdout_bytes", "layers")}
        rec["attempted"] = rec["failed"] = 0
        for op in ops:
            outputs, norm, raw, refs, layer = [], [], [], [], {}
            before = self.reference.sample_ms()
            for call in op.calls:
                if self.tracer:
                    self.tracer.reset()
                    self.tracer.active = True
                rc, text, dt = self.call(call.argv)
                if self.tracer:
                    self.tracer.active = False
                after = self.reference.sample_ms()
                refs.append(0.5 * (before + after))
                scale = self.reference.nominal_ms / refs[-1]
                norm.append(dt * 1e3 * scale)
                raw.append(dt * 1e3)
                before = after
                if self.tracer:
                    _fold(layer, self.tracer, scale)
                outputs.append((call, rc, text))
            for call, rc, text in outputs:  # checks run outside the timed calls
                rec["attempted"] += 1
                try:
                    if rc != 0:
                        raise CheckError(f"exit code {rc}")
                    call.check(text)
                except KnownFault as exc:
                    rec["failed"] += 1
                    self.faults.append(f"{' '.join(call.argv)}: {exc}")
                except (CheckError, KeyError, IndexError, TypeError, ValueError) as exc:
                    rec["failed"] += 1
                    self.correct = False
                    self.errors.append(f"{' '.join(call.argv)}: {type(exc).__name__}: {exc}")
            rec["call_norm_ms"].append(norm)
            rec["call_raw_ms"].append(raw)
            rec["call_ref_ms"].append(refs)
            rec["norm_ms"].append(sum(norm))
            rec["raw_ms"].append(sum(raw))
            rec["ref_ms"].append(statistics.median(refs))
            rec["stdout_bytes"].append(sum(len(text) for _, _, text in outputs))
            rec["layers"].append(layer)
        return rec


_NO_SPAN = (0, 0.0, 0.0, 0)  # calls, inclusive ms, self ms, result bytes


def _fold(layer: dict, tracer, scale: float) -> None:
    """Add one call's spans to the op's totals, times scaled to normalized ms."""
    for name, (calls, total, self_ns) in tracer.stats.items():
        row = layer.setdefault(name, list(_NO_SPAN))
        row[0] += calls
        row[1] += total * 1e-6 * scale
        row[2] += self_ns * 1e-6 * scale
    for name, size in tracer.sizes.items():
        layer.setdefault(name, list(_NO_SPAN))[3] += size


def _setup(cli, workload) -> None:
    """Warm-up: one tiny op, so first-call costs land in set-up, not in op times."""
    for call in workload.operations(0, 1, size="tiny")[0].calls:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(call.argv)


def _setup_seconds(ref, t_setup: float) -> tuple[float, float]:
    ms = statistics.median(ref.sample_ms() for _ in range(5))
    return t_setup * ref.nominal_ms / ms, ms


def _child_setups(args, count: int) -> list[dict]:
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0", "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def _layer_metrics(rec: dict, peaks: dict, overhead: float) -> dict:
    """Per-op means of counts and bytes, per-op medians of times, run maxima of peaks."""
    ops = rec["layers"]

    def per_op(spans, col):
        return [sum(op.get(s, _NO_SPAN)[col] for s in spans) for op in ops]

    metrics = {}
    for name, unit, _, kind, spans in PER_LAYER:
        if kind == "calls":
            value = statistics.fmean(per_op(spans, 0))
        elif kind == "ms":
            value = statistics.median(per_op(spans, 1))
        elif kind == "self_ms":
            value = statistics.median(per_op(spans, 2))
        elif kind == "bytes":
            value = statistics.fmean(per_op(spans, 3))
        elif kind == "stdout":
            value = statistics.fmean(rec["stdout_bytes"])
        elif kind == "peak_mb":
            value = max(peaks.get(s, 0) for s in spans) / 1e6
        else:
            value = overhead
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()

    cli = _import_triway()
    import reference
    import workloads

    lp_checks: list = []
    table = workloads.workloads(lp_checks)
    if args.workload not in table:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {sorted(table)}")
    workload = table[args.workload]
    ops = workload.operations(args.seed, workload.op_count(args.seconds))
    _setup(cli, workload)
    t_setup = time.perf_counter() - _T0
    ref = reference.Reference(workload.reference)
    setup_s, setup_ref = _setup_seconds(ref, t_setup)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_s": t_setup, "ref_ms": setup_ref}))
        return 0

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "ops": len(ops), "reference": ref.kind,
              "nominal_ref_ms": ref.nominal_ms}
    harness = Harness(cli, ref)
    if args.trace == 0:
        rec = harness.run(ops)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        import tracer as tracing

        base = ops[:max(3, len(ops) // 3)]  # the untraced baseline for the overhead ratio
        plain = harness.run(base)
        tr = tracing.Tracer()
        tr.install()
        harness.tracer = tr
        rec = harness.run(ops)
        tr.memory = True  # peaks come from a separate pass: tracemalloc slows every allocation
        tracemalloc.start()
        harness.run(ops[:1])
        tracemalloc.stop()
        tr.uninstall()
        peaks = dict(tr.peaks)
        overhead = statistics.median(rec["norm_ms"][:len(base)]) / statistics.median(plain["norm_ms"])
        record["untraced_norm_ms"] = plain["norm_ms"]
        record["edges"] = {f"{a}>{b}": n for (a, b), n in sorted(tr.edges.items())}
        record["peaks_mb"] = {k: v / 1e6 for k, v in sorted(peaks.items())}
    try:
        workloads.check_lps(lp_checks)
    except workloads.CheckError as exc:
        harness.correct = False
        harness.errors.append(f"region LP: {exc}")

    p50_norm = statistics.median(rec["norm_ms"])
    work_per_op = ops[0].work
    if args.trace == 0:
        children = _child_setups(args, SETUP_REPEATS - 1)
        setups = [setup_s] + [c["setup_s"] for c in children]
        metrics = {
            "work_per_s": {"value": work_per_op / (p50_norm / 1e3), "unit": "1/s"},
            "op_p50_ms": {"value": p50_norm, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
        record["setup_s_all"] = setups
        record["setup_raw_s_all"] = [t_setup] + [c["raw_s"] for c in children]
    else:
        metrics = _layer_metrics(rec, peaks, overhead)
    record.update(norm_ms=rec["norm_ms"], raw_ms=rec["raw_ms"], ref_ms=rec["ref_ms"],
                  call_norm_ms=rec["call_norm_ms"], call_raw_ms=rec["call_raw_ms"],
                  call_ref_ms=rec["call_ref_ms"],
                  metrics=metrics, errors=harness.errors, faults=sorted(set(harness.faults)),
                  work_unit=workload.unit, work_per_op=work_per_op)

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    raw_p50 = statistics.median(rec["raw_ms"])
    print(f"{args.workload}: {len(ops)} ops of {work_per_op} {workload.unit}, seed {args.seed}")
    print(f"  op time p50: {p50_norm:.3f} ms normalized, {raw_p50:.3f} ms raw; "
          f"{ref.kind} reference p50 {statistics.median(rec['ref_ms']):.4f} ms (nominal {ref.nominal_ms} ms)")
    if args.trace == 0:
        print(f"  setup raw: {', '.join(f'{s:.3f}' for s in record['setup_raw_s_all'])} s")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  attempted {rec['attempted']} CLI calls, failed {rec['failed']}")
    for line in sorted(set(harness.faults)):
        print(f"  known fault: {line}")
    for line in harness.errors[:20]:
        print(f"  CHECK FAILED {line}")
    print(json.dumps({"correct": harness.correct, "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
