"""Benchmark runner for serpentseg.

One workload, one fresh process, a closed loop (one client, one op at a
time, no extra threads):

    python3 bench/run.py --workload infer-256 --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
ops with per-layer spans (see ``spans.py``) and reports the per-layer
metrics, after a few untraced ops that give the tracing overhead. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
details (environment, tail percentile, positive shares, set-up samples).

Every workload and both modes, with tables by metric name:

    python3 bench/run.py --all --seed 0 --seconds 25

The program is imported from ``src/`` of the checkout this file sits in;
without it, run.py exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_out"
SETUP_CHILDREN = 2      # set-up probes in fresh processes, besides the run's own set-up
TAIL_BEYOND = 10        # samples that must lie beyond the reported tail latency
UNTRACED_SHARE = 1 / 3  # of --seconds, in a traced run, spent on untraced ops
CHILD_TIMEOUT_S = 170

E2E_UNITS = {"setup_s": "s", "items_per_s": "items/s", "op_ms_p50": "ms",
             "op_ms_tail": "ms", "peak_rss_mib": "MiB", "ok_frac": "ratio"}


def _require_program() -> None:
    if not (SRC / "serpentseg" / "__init__.py").is_file():
        print(f"bench: no program at {SRC / 'serpentseg'}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


# -- environment -------------------------------------------------------------------

def _blas_threads():
    """Thread count of the OpenBLAS bundled with numpy; None if not found."""
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("lib*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": _blas_threads(),
            "nproc": os.cpu_count(), "cpu": _cpu_model(), "commit": _git_commit(),
            "seed": seed}


# -- measurement ---------------------------------------------------------------------

class Tally:
    """Ops attempted and failed; an op fails if it raises or its check fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what)
        return ok


def attempt(wl, st, item, tally: Tally, check, mark=None) -> tuple[float, bool]:
    """Run and time one op, then check its output outside the timed region."""
    t0 = perf_counter()
    try:
        out = wl.op(st, item, mark)
    except Exception as exc:  # a raising op is a failed op; the loop goes on
        return perf_counter() - t0, tally.add(False, f"{type(exc).__name__}: {exc}")
    dt = perf_counter() - t0
    try:
        ok = bool(check(out))
    except Exception as exc:  # a check that cannot read the output fails the op
        ok, what = False, f"check {type(exc).__name__}: {exc}"
    else:
        what = "output check failed"
    return dt, tally.add(ok, what)


def run_loop(wl, st, pool, seconds: float, tally: Tally) -> tuple[list[float], int]:
    """Closed loop over the pool for ``seconds``. Returns op latencies (s)
    and items finished."""
    latencies, items, i = [], 0, 0
    end = perf_counter() + seconds
    while perf_counter() < end:
        item = pool[i % len(pool)]
        i += 1
        dt, ok = attempt(wl, st, item, tally, lambda out, it=item: wl.valid(it, out))
        latencies.append(dt)
        items += wl.items_per_op if ok else 0
    return latencies, items


def tracing_overhead(untraced: list[float], traced: list[float], n_items: int) -> float:
    """Median over pool items of (traced / untraced median latency) - 1; both
    loops start at item 0, so op j ran item j % n_items."""
    def by_item(lat):
        groups: dict[int, list[float]] = {}
        for j, dt in enumerate(lat):
            groups.setdefault(j % n_items, []).append(dt)
        return groups
    base, tr = by_item(untraced), by_item(traced)
    return statistics.median(statistics.median(tr[k]) / statistics.median(base[k])
                             for k in base if k in tr) - 1.0


def tail_latency(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile that has
    at least TAIL_BEYOND samples beyond it; the maximum if there are too few."""
    s = sorted(samples)
    k = len(s) - TAIL_BEYOND
    if k < 1:
        return s[-1], 100.0, 0
    return s[k - 1], 100.0 * k / len(s), TAIL_BEYOND


def timed_setup(wl, checks):
    """Set-up: import, construct, one warm-up op on the first check input.
    Inputs are made before the clock starts. Returns (state, output, seconds)."""
    t0 = perf_counter()
    st = wl.setup()
    out = wl.op(st, checks[0])
    return st, out, perf_counter() - t0


def setup_and_check(wl, refs: dict, tally: Tally):
    """Set up, then check the warm-up output and run the other check inputs
    against the stored references. Returns (state, set-up seconds)."""
    checks = wl.check_inputs()
    st, out, setup_s = timed_setup(wl, checks)
    tally.add(wl.valid(checks[0], out) and wl.matches_reference(0, out, refs),
              "reference check 0 failed")
    for i, item in enumerate(checks[1:], start=1):
        attempt(wl, st, item, tally,
                lambda out, i=i, it=item: wl.valid(it, out) and wl.matches_reference(i, out, refs))
    return st, setup_s


def _child(args: list[str], timeout: float) -> list[str]:
    """Run this script in a fresh process; its standard output lines."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"bench child {args} exited with code {proc.returncode}")
    return proc.stdout.strip().splitlines()


def memory_probe(wl, st, item, tally: Tally) -> dict:
    """tracemalloc figures (MiB, relative to the op's start) for one op:
    forward peak, memory still held after forward (the tape) and backward peak."""
    marks = []

    def mark():
        marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        attempt(wl, st, item, tally, lambda out: wl.valid(item, out), mark)
        end = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    fwd, bwd_peak = (marks[0], end[1]) if marks else (end, base)
    mib = 2.0 ** 20
    return {"fwd_peak_mib": (fwd[1] - base) / mib, "after_fwd_mib": (fwd[0] - base) / mib,
            "bwd_peak_mib": (bwd_peak - base) / mib}


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result line, detail line)."""
    from spans import Tracer
    from workloads import WORKLOADS, load_references

    wl = WORKLOADS[name]
    refs = load_references()[name]
    pool = wl.make_pool(seed)
    setup_samples = [] if trace else [
        float(_child(["--setup-probe", "--workload", name], CHILD_TIMEOUT_S)[-1])
        for _ in range(SETUP_CHILDREN)]
    tally = Tally()
    st, own_setup = setup_and_check(wl, refs, tally)
    setup_samples.append(own_setup)
    detail = {"workload": name, "env": environment(seed), "seconds": seconds,
              "positive_share": wl.shares(pool), "setup_samples_s": setup_samples}

    if not trace:
        lat, items = run_loop(wl, st, pool, seconds, tally)
        tail, pct, beyond = tail_latency(lat)
        metrics = {"setup_s": statistics.median(setup_samples),
                   "items_per_s": items / sum(lat),
                   "op_ms_p50": 1e3 * statistics.median(lat),
                   "op_ms_tail": 1e3 * tail,
                   "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                   "ok_frac": 1.0 - tally.failed / tally.attempted}
        units = E2E_UNITS
        detail["op_ms_tail"] = {"percentile": pct, "samples": len(lat), "beyond": beyond}
    else:
        from spans import LAYER_METRICS
        base_lat, _ = run_loop(wl, st, pool, seconds * UNTRACED_SHARE, tally)
        tracer = Tracer(getattr(st, "model", None))
        tracer.install()
        try:
            lat, _ = run_loop(wl, st, pool, seconds * (1 - UNTRACED_SHARE), tally)
        finally:
            tracer.uninstall()
        mem = memory_probe(wl, st, pool[0], tally) if wl.uses_model else {}
        run_info = {"op_s": sum(lat) / len(lat),
                    "overhead_frac": tracing_overhead(base_lat, lat, len(pool)),
                    "reconcile_frac": tracer.covered() / sum(lat)}
        metrics = tracer.layer_metrics(len(lat), mem, run_info)
        units = {k: v[0] for k, v in LAYER_METRICS.items()}
        trace_file = TRACE_DIR / f"trace-{name}-seed{seed}.jsonl.gz"
        tracer.write(trace_file)
        detail.update(traced_ops=len(lat), untraced_ops=len(base_lat),
                      trace_file=str(trace_file.relative_to(ROOT)))

    detail.update(attempted=tally.attempted, failed=tally.failed,
                  fail_frac=tally.failed / tally.attempted, errors=tally.errors)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return result, detail


# -- one command for every workload ------------------------------------------------------

def _run_child(args: list[str]) -> tuple[dict, dict]:
    lines = _child(args, timeout=900)
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def run_all(seed: int, seconds: float) -> int:
    from spans import LAYER_METRICS
    from workloads import WORKLOADS
    ok = True
    for name in WORKLOADS:
        common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
        e2e, det = _run_child(common + ["--trace", "0"])
        layers, tdet = _run_child(common + ["--trace", "1"])
        ok &= e2e["correct"] and layers["correct"]
        tail = det["op_ms_tail"]
        print(f"\n== {name}  seed {seed}, {seconds:g} s; attempted {det['attempted']}, "
              f"failed {det['failed']} (fail_frac {det['fail_frac']:g})")
        for k, m in e2e["metrics"].items():
            note = (f"  p{tail['percentile']:.1f} of {tail['samples']} samples, "
                    f"{tail['beyond']} beyond" if k == "op_ms_tail" else "")
            print(f"  {k:<16}{m['value']:>12.4f} {m['unit']}{note}")
        lm = layers["metrics"]
        op_s = lm["trace.op_s"]["value"]
        print(f"  per layer, per op (traced op {op_s:.4f} s, overhead "
              f"{100 * lm['trace.overhead_frac']['value']:+.1f}%, reconcile "
              f"{lm['trace.reconcile_frac']['value']:.3f}; spans in {tdet['trace_file']})")
        for k in LAYER_METRICS:
            v, unit = lm[k]["value"], lm[k]["unit"]
            if v == 0 or k.startswith("trace."):
                continue
            share = f"{100 * v / op_s:6.1f}%" if unit == "s" else ""
            print(f"    {k:<44}{v:>12.4f} {unit:<6}{share}")
    env = det["env"]
    print("\nenv: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="every workload, both modes")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _require_program()
    if args.all:
        return run_all(args.seed, args.seconds)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.setup_probe:
        wl = WORKLOADS[args.workload]
        print(repr(timed_setup(wl, wl.check_inputs())[2]))
        return 0
    result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
