"""Benchmark for ``symleak analyze`` on four generated program families.

Usage:
  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 bench/run.py [--seed N] [--seconds S]      (every workload)

One run generates the workload's program from the seed (``gen.py``),
runs one untimed warm-up analysis, then starts one fresh
``symleak analyze`` process after another, one at a time, until
``--seconds`` have passed.  A fresh process per sample matters: the
expression interning table and the interval memo survive across calls
in one process, so repeating in-process would time a warmed program.

Every sample is checked against the brute-force oracle's verdict for
the program (``expected.json``, written by ``oracle.py``): it fails if
it crashes, times out, exits 2 or 3, reports ``complete: false``, if
its exit code or leak-site set differs from the oracle's, or if a leak
is not ``replay_confirmed``.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics, the medians over the run's samples:
  analyze_s    wall time of one analyze process, from spawn to exit
  setup_s      interpreter start and ``import symleak.cli``, up to the
               call into ``cli.main``
  peak_rss_mb  peak RSS of that process less its file-backed pages
               (``child.peak_anon_kb``)
Both times are scaled by the machine's speed at that moment: the
set-up part by a reference process (``REF_PROCESS``), the rest by a
calibration loop (``CALIBRATION_REF_S``).  With ``--trace 1`` traced
and untraced samples alternate, and the JSON holds the per-layer
metrics of ``child.layers`` (medians over traced samples, unscaled),
the report's leak count, and ``trace.overhead_s``, the traced minus the
untraced median raw ``analyze_s``.  Without ``--workload`` every workload runs
and each metric prints as one ``workload metric value unit`` row, with
``failed_frac`` and, for ``analyze_s``, the highest percentile that has
at least ten samples beyond it.  The sample count, that percentile and
the raw (unscaled) medians also go to stderr.  Each failed sample's
reasons print on stdout, one line each, before the result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen

CHILD = Path(__file__).resolve().parent / "child.py"
SAMPLE_TIMEOUT_S = 60

# The speed of a shared 2-core virtual machine drifts by 10-30% over
# minutes, with the neighbours' load.  A fixed pure-Python loop timed
# just before and just after each sample measures the speed at that
# moment.  The loop reacts about twice as strongly as an analysis does:
# regressing log sample time on log loop time over 7 sets of runs of all
# four workloads gave slopes of 0.26-0.79, median 0.5.  So the part of a
# sample after set-up is scaled by the square root of the loop's median
# time on the machine the bounds were set on (a 2-vCPU Intel Xeon at
# 2.1 GHz) over its time around the sample.
CALIBRATION_LOOPS = 100_000
CALIBRATION_REF_S = 0.0381
SPEED_EXPONENT = 0.5
# Process start and imports drift apart from the loop: between two sets
# of runs 20 minutes apart, median set-up time rose 27-32% while the
# loop's speed factor stayed the same.  So set-up is scaled instead by a
# process doing most of the same work, timed from spawn to exit just
# before each sample: REF_PROCESS_S over its time.  REF_PROCESS_S is its
# median on the machine above.  Raw medians go to stderr.
REF_PROCESS = ("-c", "import numpy")
REF_PROCESS_S = 0.187

END_TO_END = {"analyze_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_per_check")):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"


class BenchError(Exception):
    pass


def calibrate() -> float:
    """Seconds for a fixed loop of tuple-keyed dict updates, the kind of
    work expression interning does."""
    t0 = time.perf_counter()
    d: dict[tuple[int, int], int] = {}
    for i in range(CALIBRATION_LOOPS):
        k = (i & 1023, i >> 10 & 7)
        d[k] = d.get(k, 0) + 1
    return time.perf_counter() - t0


def ref_process() -> float:
    """Seconds from spawn to exit of the reference process."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *REF_PROCESS],
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    _, status, _ = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise BenchError(f"reference process {REF_PROCESS} exited {code}")
    return elapsed


@dataclass
class Sample:
    analyze_s: float
    setup_s: float | None = None
    peak_rss_mb: float = 0.0
    failures: list[str] = field(default_factory=list)
    leaks: int = 0
    layers: dict[str, float] | None = None
    # Scale factors for set-up (reference process) and for the rest
    # (calibration loop); 1.0 when not calibrated.
    setup_speed: float = 1.0
    speed: float = 1.0

    def scaled(self) -> tuple[float, float]:
        """(analyze_s, setup_s) at the reference speed."""
        setup = self.setup_s or 0.0
        scaled_setup = setup * self.setup_speed
        return (scaled_setup + (self.analyze_s - setup) * self.speed,
                scaled_setup)


def run_once(w: gen.Workload, prog: Path, exp: dict, traced: bool) -> Sample:
    report = gen.WORK / "report.json"
    timing = gen.WORK / "timing.json"
    errlog = gen.WORK / "stderr.txt"
    for stale in (report, timing):
        stale.unlink(missing_ok=True)
    cmd = [sys.executable, str(CHILD), str(timing), "1" if traced else "0",
           "--", "analyze", str(prog), *w.cache_flags, "--out", str(report)]
    env = gen.symleak_env()
    with open(errlog, "wb") as err:
        spawned_at = time.monotonic()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(SAMPLE_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, _ = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    s = Sample(wall)
    if code < 0:
        s.failures.append(f"killed by signal {-code}"
                          + (" (timeout)" if wall >= SAMPLE_TIMEOUT_S else ""))
    elif code not in (0, 1):
        s.failures.append(f"exit {code}")
    if not timing.exists() or not report.exists():
        s.failures.append("no report")
        return _with_stderr(s, errlog)
    t = json.loads(timing.read_text())
    s.setup_s = t["main_at"] - spawned_at
    s.peak_rss_mb = t["peak_anon_kb"] / 1024
    doc = json.loads(report.read_text())
    sites = sorted({leak["site"] for leak in doc["leaks"]})
    s.leaks = len(doc["leaks"])
    if doc["complete"] is not True:
        s.failures.append("complete is false")
    if code != exp["exit"]:
        s.failures.append(f"exit {code}, oracle says {exp['exit']}")
    if sites != exp["sites"]:
        s.failures.append(f"sites {sites}, oracle says {exp['sites']}")
    if not all(leak.get("replay_confirmed") is True for leak in doc["leaks"]):
        s.failures.append("a leak is not replay_confirmed")
    if traced:
        s.layers = t.get("layers")
        spans = t.get("spans", {})
        st = doc["stats"]
        solver_spans = spans.get("solver.check", 0) + spans.get("solver.divergence", 0)
        for what, got, want in (
                ("solver spans", solver_spans, st["solver_calls"]),
                ("divergence spans", spans.get("explorer.divergence", 0), st["leak_checks"]),
                ("replay spans", spans.get("oracle.replay", 0), s.leaks)):
            if got != want:
                s.failures.append(f"{what} {got} != report's {want}")
        if s.layers is None:
            s.failures.append("traced run recorded no layers")
    return _with_stderr(s, errlog)


def _with_stderr(s: Sample, errlog: Path) -> Sample:
    """Add the end of the child's stderr to a failed sample's reasons."""
    err = errlog.read_text(errors="replace")[-400:].strip()
    if s.failures and err:
        s.failures.append("stderr: " + err)
    return s


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile that has at least ten samples beyond it, as
    (percentile, value); the minimum when there are ten or fewer."""
    xs = sorted(values)
    k = max(0, len(xs) - 11)
    return 100 * (k + 1) / len(xs), xs[k]


def measure(w: gen.Workload, seed: int, seconds: float, trace: bool,
            expected: dict) -> tuple[dict, list[Sample], list[Sample]]:
    text = w.program(seed)
    exp = expected.get(gen.instance_key(w.name, seed))
    if exp is None or exp["sha256"] != gen.digest(text):
        raise BenchError(f"no oracle verdict for {w.name} seed {seed}; "
                         "run bench/oracle.py")
    gen.WORK.mkdir(exist_ok=True)
    prog = gen.WORK / f"{w.name}-{seed}.ir"
    prog.write_text(text)
    plain: list[Sample] = []
    traced: list[Sample] = []
    try:
        run_once(w, prog, exp, False)  # warm-up: bytecode and file caches
        start = time.perf_counter()
        while not plain or time.perf_counter() - start < seconds:
            before = calibrate()
            ref_s = ref_process()
            s = run_once(w, prog, exp, False)
            loop_s = (before + calibrate()) / 2
            s.speed = (CALIBRATION_REF_S / loop_s) ** SPEED_EXPONENT
            s.setup_speed = REF_PROCESS_S / ref_s
            plain.append(s)
            if trace:
                traced.append(run_once(w, prog, exp, True))
    finally:
        prog.unlink()
    samples = plain + traced
    if trace:
        ok = [s.layers for s in traced if s.layers is not None] or [{}]
        metrics = {n: statistics.median(d[n] for d in ok) for n in ok[0]}
        metrics["cli.reports"] = statistics.median(s.leaks for s in traced)
        metrics["trace.overhead_s"] = (
            statistics.median(s.analyze_s for s in traced)
            - statistics.median(s.analyze_s for s in plain))
        metrics = {n: {"value": v, "unit": _unit(n)} for n, v in metrics.items()}
    else:
        setups = [s.scaled()[1] for s in plain if s.setup_s is not None] or [0.0]
        metrics = {
            "analyze_s": statistics.median(s.scaled()[0] for s in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(s.peak_rss_mb for s in plain),
        }
        metrics = {n: {"value": v, "unit": END_TO_END[n]} for n, v in metrics.items()}
    failed = sum(1 for s in samples if s.failures)
    result = {"correct": failed == 0, "attempted": len(samples),
              "failed": failed, "metrics": metrics}
    return result, plain, traced


def summarize(name: str, result: dict, plain: list[Sample]) -> tuple[float, float]:
    """Print the run's sample count, raw medians and failed count to
    stderr; return the ``analyze_s`` tail as (percentile, value)."""
    pct, value = tail([s.scaled()[0] for s in plain])
    raw = statistics.median(s.analyze_s for s in plain)
    raw_setup = statistics.median(s.setup_s or 0.0 for s in plain)
    speed = statistics.median(s.speed for s in plain)
    setup_speed = statistics.median(s.setup_speed for s in plain)
    print(f"{name}: {len(plain)} untraced samples, analyze_s p{pct:.0f} "
          f"= {value:.4f} s, raw medians analyze_s {raw:.4f} s at speed "
          f"{speed:.3f}, setup_s {raw_setup:.4f} s at speed {setup_speed:.3f}, "
          f"failed {result['failed']}/{result['attempted']}", file=sys.stderr)
    return pct, value


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        gen.symleak_env()
        expected = json.loads(gen.EXPECTED.read_text())
        names = [args.workload] if args.workload else list(gen.WORKLOADS)
        for name in names:
            result, plain, traced = measure(gen.WORKLOADS[name], args.seed,
                                            args.seconds, bool(args.trace),
                                            expected)
            pct, value = summarize(name, result, plain)
            for i, s in enumerate(plain + traced):
                for f in s.failures:
                    print(f"FAILED {name} seed {args.seed} sample {i}: {f}")
            if args.workload:
                print(json.dumps(result))
                continue
            rows = [(m, v["value"], v["unit"]) for m, v in result["metrics"].items()]
            if not args.trace:
                rows.append((f"analyze_s.p{pct:.0f}", value, "s"))
            rows.append(("failed_frac", result["failed"] / result["attempted"],
                         "ratio"))
            for m, v, unit in rows:
                print(f"{name:20} {m:36} {v:.6g} {unit}")
    except (BenchError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        for f in ("report.json", "timing.json", "stderr.txt"):
            (gen.WORK / f).unlink(missing_ok=True)
        try:
            gen.WORK.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
