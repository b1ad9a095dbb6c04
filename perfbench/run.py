"""theta-lab benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's ops until their summed reference time (see
speed_probe) reaches S seconds, or their wall time 2 S, checks every
answer with the benchmark's own oracle (outside the timed region) and
prints the metrics: a readable block, then one JSON object as the last
line.

--trace 0 gives the end-to-end metrics.  Timings are reported in
reference time and, ungated, in raw wall-clock time.
--trace 1 alternates untraced ops with ops traced by wrappers around the
program's public functions (tracer.py), and gives the per-layer metrics.  --fault plants a wrong answer, so every workload must
then report failures (see selfcheck.py).  The program is imported from
src/ next to this directory; without it the run exits with code 2.
"""
from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("audit", "cyclotomic", "jacobian", "enumerate")
SETUP_REPEATS = 3  # this process plus two set-up-only children (median)
MIN_BEYOND = 10  # samples beyond the reported tail percentile
PROBE_EVERY = 0.05  # seconds between speed probes
RAW_CAP = 2  # a run stops at this many times --seconds of wall time
REF_S = 0.00046  # seconds the reference work takes on an idle 2-vCPU Xeon VM


def load_program():
    """Import thetalab from ROOT/src and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import thetalab
    except ImportError as exc:
        print(f"error: thetalab is not importable from {ROOT / 'src'}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if Path(thetalab.__file__).resolve().parent.parent != (ROOT / "src").resolve():
        print(f"error: thetalab was imported from {thetalab.__file__}", file=sys.stderr)
        raise SystemExit(2)


def make_workload(name, seed, fault):
    """Set up a workload: its constructor makes the inputs and warms up.

    A workload's ops(in_process) yields (run, check) pairs made lazily:
    run() calls the program, check(result, exception) judges the outcome.
    Optional: peak_rss_kb(), import_ms(), and a domain_errors count.
    """
    if name == "audit":
        from audit import Audit as cls
    elif name == "cyclotomic":
        from cyclotomic import Cyclotomic as cls
    elif name == "jacobian":
        from jacobian import Jacobian as cls
    else:
        from enumeration import Enumeration as cls
    return cls(random.Random(f"{name}:{seed}"), ROOT, fault)


def cpu_seconds():
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _reference_work():
    """Small-int and dict work like the F_p layers, then Fraction work like Q(zeta)."""
    acc, seen = 0, {}
    for i in range(1500):
        x = i * 7919 % 1009
        seen[x] = seen.get(x, 0) + 1
        acc += x * x % 13
    q = Fraction(0)
    for i in range(1, 60):
        q = q * Fraction(i, i + 7) + Fraction(1, i)
    return acc, q


def speed_probe():
    """Best of three timings of _reference_work, in seconds.

    On a shared virtual machine the vCPU speed can drift by 1.6x over
    seconds to minutes (seen on a 2-vCPU Xeon VM), for program and
    benchmark alike.  A timing scaled by REF_S / probe, with probes taken
    around it, is in reference seconds: what it would have been had the
    reference work taken REF_S.  That cancels most of the drift.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_work()
        best = min(best, time.perf_counter() - t0)
    return best


class Phase:
    """Latency, CPU time, speed scale and outcome of each op of a timed run."""

    def __init__(self):
        self.latency, self.cpu, self.scale, self.traced = [], [], [], []
        self.failed, self.errors = 0, []

    def run(self, ops, seconds, stop_wall, tracer=None):
        """Run ops until their reference time adds up to `seconds`, or their
        wall time to RAW_CAP times that.

        A speed probe runs between ops every PROBE_EVERY seconds; each op
        gets the scale of the mean of the probes around it.  A fixed amount
        of work per run keeps order statistics such as the tail and
        size-dependent figures such as peak RSS independent of the drift.
        With a tracer, a fixed pseudo-random half of the ops is traced (a
        regular pattern would line up with the workloads' own cycles), and
        only the op itself, not the making of inputs or the check.
        """
        busy = ref_busy = 0.0
        pending = 0
        before = speed_probe()
        probed = time.perf_counter()
        pick = random.Random(0)
        for run, check in ops:
            traced = tracer is not None and pick.random() < 0.5
            if traced:
                tracer.op += 1
                tracer.resume()
            c0 = cpu_seconds()
            t0 = time.perf_counter()
            try:
                out, exc = run(), None
            except Exception as e:  # an op that raises is judged by its check
                out, exc = None, e
            dt = time.perf_counter() - t0
            if traced:
                tracer.pause()
            self.traced.append(traced)
            self.cpu.append(cpu_seconds() - c0)
            self.latency.append(dt)
            pending += 1
            try:
                ok = check(out, exc)
            except Exception:
                ok = False
                self.errors.append(traceback.format_exc())
            if not ok:
                self.failed += 1
                if exc is not None:
                    self.errors.append("".join(traceback.format_exception(exc)))
            busy += dt
            ref_busy += dt * REF_S / before
            done = (ref_busy >= seconds or busy >= RAW_CAP * seconds
                    or time.monotonic() > stop_wall)
            if done or time.perf_counter() - probed >= PROBE_EVERY:
                after = speed_probe()
                self.scale += [2 * REF_S / (before + after)] * pending
                before, probed, pending = after, time.perf_counter(), 0
            if done:
                break
        return self

    @property
    def ops(self):
        return len(self.latency)

    def ref_latency(self):
        return [t * s for t, s in zip(self.latency, self.scale)]

    def ref_cpu(self):
        return [t * s for t, s in zip(self.cpu, self.scale)]


def tail(latency):
    """(value, percentile) of the highest percentile that has at least
    MIN_BEYOND samples above it; the maximum when there are too few."""
    ordered = sorted(latency)
    n = len(ordered)
    index = max(0, n - 1 - MIN_BEYOND)
    return ordered[index], 100.0 * index / (n - 1) if n > 1 else 100.0


def child_setup(name, seed):
    """(raw, reference) set-up seconds of a fresh process."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--setup-only"], cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=120)
    return tuple(json.loads(out.stdout.decode().strip().splitlines()[-1])["setup"])


def peak_rss_kb(workload):
    if hasattr(workload, "peak_rss_kb"):
        return workload.peak_rss_kb()
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def end_to_end(phase, rss_kb, setups):
    """The gated metrics in reference time, and the same figures raw."""
    n = phase.ops

    def timing(latency, cpu, prefix):
        value, pct = tail(latency)
        return {
            f"{prefix}ops_per_s": (n / sum(latency), "op/s"),
            f"{prefix}op_p50_ms": (statistics.median(latency) * 1e3, "ms"),
            f"{prefix}op_tail_ms": (value * 1e3, "ms"),
            f"{prefix}cpu_ms_per_op": (sum(cpu) / n * 1e3, "ms"),
        }, pct
    metrics, pct = timing(phase.ref_latency(), phase.ref_cpu(), "ref_")
    metrics["peak_rss_mb"] = (rss_kb / 1024, "MB")
    metrics["setup_s"] = (statistics.median(ref for _, ref in setups), "s")
    raw, raw_pct = timing(phase.latency, phase.cpu, "")
    raw["failed_frac"] = (phase.failed / n, "1")
    raw["peak_rss_mb"] = metrics["peak_rss_mb"]
    raw["setup_s"] = (statistics.median(r for r, _ in setups), "s")
    notes = [
        f"ref_op_tail_ms is p{pct:.2f} and op_tail_ms p{raw_pct:.2f} of {n} ops "
        f"({min(MIN_BEYOND, n - 1)} beyond)",
        f"speed scale REF_S/probe: median {statistics.median(phase.scale):.4f}, "
        f"range {min(phase.scale):.4f}..{max(phase.scale):.4f}",
        "setup_s is the median of (raw s, reference s): "
        + ", ".join(f"({r:.4f}, {ref:.4f})" for r, ref in setups),
        "raw wall-clock figures, not gated: "
        + ", ".join(f"{k} = {v} {u}" for k, (v, u) in raw.items()),
    ]
    return metrics, notes


def per_layer(tr, ops, import_ms, domain_errors, overhead):
    from tracer import LAYERS
    per_op = lambda key: tr.calls.get(key, 0) / ops
    per_call = tr.per_call_ms
    self_ms = lambda layer: tr.self_ns.get(layer, 0) / ops / 1e6
    render = [tr.calls.get(k, 0) for k in ("report.render_text", "report.rows_to_json")]
    render_ns = tr.total_ns.get("report.render_text", 0) + tr.total_ns.get("report.rows_to_json", 0)
    m = {
        "cli.import_ms": (import_ms, "ms"),
        "cli.main_ms": (per_call("cli.main"), "ms"),
        "report.build_ms": (per_call("report.build_report"), "ms"),
        "report.render_ms": (render_ns / sum(render) / 1e6 if sum(render) else 0.0, "ms"),
        "verlinde.p2_calls": (per_op("verlinde.verlinde_p2"), "1/op"),
        "verlinde.p2_ms": (per_call("verlinde.verlinde_p2"), "ms"),
        "verlinde.s_factor_calls": (per_op("verlinde.s_factor"), "1/op"),
        "verlinde.s_factor_ms": (per_call("verlinde.s_factor"), "ms"),
        "hilbert.fit_calls": (per_op("hilbert.fit_hilbert"), "1/op"),
        "hilbert.fit_ms": (per_call("hilbert.fit_hilbert"), "ms"),
        "lefschetz.self_ms": (self_ms("lefschetz"), "ms/op"),
        "bundles.self_ms": (self_ms("bundles"), "ms/op"),
        "exact.cyclo_sin_calls": (per_op("exact.cyclo_sin"), "1/op"),
        "exact.mul_calls": (per_op("exact.__mul__"), "1/op"),
        "exact.inverse_calls": (per_op("exact.inverse"), "1/op"),
        "exact.zeta_calls": (per_op("exact.zeta"), "1/op"),
        "exact.promote_calls": (per_op("exact.promote"), "1/op"),
        "exact.cyclo_sin_ms": (per_call("exact.cyclo_sin"), "ms"),
        "exact.mul_ms": (per_call("exact.__mul__"), "ms"),
        "exact.inverse_ms": (per_call("exact.inverse"), "ms"),
        "exact.self_ms": (self_ms("exact"), "ms/op"),
        "polys.mul_calls": (per_op("polys.__mul__"), "1/op"),
        "polys.divmod_calls": (per_op("polys.__divmod__"), "1/op"),
        "polys.xgcd_calls": (per_op("polys.xgcd"), "1/op"),
        "polys.self_ms": (self_ms("polys"), "ms/op"),
        "fields.mul_calls": (per_op("fields.mul"), "1/op"),
        "fields.sqrt_calls": (per_op("fields.sqrt"), "1/op"),
        "fields.sqrt_ms": (per_call("fields.sqrt"), "ms"),
        "hyperelliptic.cantor_add_calls": (per_op("hyperelliptic.cantor_add"), "1/op"),
        "hyperelliptic.cantor_add_us": (per_call("hyperelliptic.cantor_add") * 1e3, "us"),
        "hyperelliptic.scalar_mul_ms": (per_call("hyperelliptic.scalar_mul"), "ms"),
        "hyperelliptic.theta_int_ms": (per_call("hyperelliptic.theta_translate_intersection"), "ms"),
        "hyperelliptic.enumerate_cold_ms": (per_call("hyperelliptic.enumerate_cold"), "ms"),
        "hyperelliptic.enumerate_warm_ms": (per_call("hyperelliptic.enumerate_warm"), "ms"),
        "hyperelliptic.curve_points_ms": (per_call("hyperelliptic.curve_points"), "ms"),
        "hyperelliptic.two_torsion_ms": (per_call("hyperelliptic.two_torsion"), "ms"),
        "hyperelliptic.self_ms": (self_ms("hyperelliptic"), "ms/op"),
        "hyperelliptic.domain_error_calls": (domain_errors, "1/op"),
        "trace.overhead_frac": (overhead, "1"),
    }
    notes = ["self time per op, ms: " + ", ".join(f"{l}={self_ms(l):.4f}" for l in LAYERS)]
    if tr.missing:
        notes.append("not found in the program, reported as 0: " + ", ".join(tr.missing))
    return m, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fault", action="store_true", help="plant a wrong answer")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    before = speed_probe()
    t0 = time.perf_counter()
    load_program()
    workload = make_workload(args.workload, args.seed, args.fault)
    raw = time.perf_counter() - t0
    setups = [(raw, raw * 2 * REF_S / (before + speed_probe()))]
    if args.setup_only:
        print(json.dumps({"setup": setups[0]}))
        return 0

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} fault={int(args.fault)}")
    ops = workload.ops(in_process=bool(args.trace))
    stop_wall = time.monotonic() + (RAW_CAP + 1) * args.seconds + 30
    if args.trace:
        from tracer import Tracer
        tr = Tracer()
        tr.install()
        tr.pause()
        phase = Phase().run(ops, args.seconds, stop_wall, tracer=tr)
        ref = phase.ref_latency()
        plain = [t for t, traced in zip(ref, phase.traced) if not traced]
        traced = [t for t, traced in zip(ref, phase.traced) if traced]
        overhead = 1 - (len(traced) / sum(traced)) / (len(plain) / sum(plain)) \
            if traced and plain else 0.0
        import_ms = workload.import_ms() if hasattr(workload, "import_ms") else 0.0
        domain_errors = getattr(workload, "domain_errors", 0) / phase.ops
        metrics, notes = per_layer(tr, max(1, len(traced)), import_ms, domain_errors, overhead)
        out = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        tr.write(out)
        notes.append(f"{len(traced)} traced and {len(plain)} untraced ops; "
                     f"{len(tr.spans)} spans written to {out.relative_to(ROOT)}")
    else:
        phase = Phase().run(ops, args.seconds, stop_wall)
        rss_kb = peak_rss_kb(workload)  # before the set-up children run
        for _ in range(SETUP_REPEATS - 1):
            setups.append(child_setup(args.workload, args.seed))
        metrics, notes = end_to_end(phase, rss_kb, setups)

    attempted, failed = phase.ops, phase.failed
    for text in phase.errors[:3]:
        print(text, file=sys.stderr)
    notes.append(f"attempted={attempted} failed={failed} failed_frac={failed / attempted} (1)")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
