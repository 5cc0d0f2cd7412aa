"""The padicforms benchmark: one command, three workloads, and a traced run.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from `src/`. The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end ones of the named workload; with `--trace 1` one traced round of
every workload gives the per-layer metrics, and the spans are written as
NDJSON under `.perfbench/`. See perfbench/README.md.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 5          # set-up is timed this many times per run
HARD_STOP_S = 140         # no new round starts after this much wall time

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("item_p50_s", "s"),
              ("item_tail_s", "s"), ("peak_rss_mb", "MB"))


def _parse(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up the workload, print 'ready' and exit (used to time set-up)")
    return ap.parse_args(argv)


def percentile(values, q):
    """Nearest-rank q-th percentile: at least (100 - q)% of values lie at or above it."""
    ordered = sorted(values)
    rank = -(-q * len(ordered) // 100)
    return ordered[max(rank, 1) - 1]


class Tally:
    """Attempted and failed operations, and why they failed."""

    def __init__(self, failure_type):
        self.failure_type = failure_type
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.errors: dict[str, int] = {}

    def call(self, workload, item, count=True):
        """(seconds, output) of one timed call, or None if the program raised."""
        self.attempted += count
        try:
            start = time.perf_counter()
            out = workload.run(item)
            return time.perf_counter() - start, out
        except Exception as exc:
            self._fail(count, f"{type(exc).__name__}: {exc}")
            return None

    def judge(self, workload, item, out, count=True):
        """Check one output; a wrong output also makes the run incorrect."""
        try:
            workload.check(item, out)
        except self.failure_type as exc:
            self.correct = False
            self._fail(count, f"wrong output on {item.key}: {exc}")
        except Exception as exc:
            self._fail(count, f"{type(exc).__name__}: {exc}")

    def _fail(self, count, why):
        self.failed += count
        self.errors[why] = self.errors.get(why, 0) + 1


def _round_order(items, seed, index):
    order = list(items)
    random.Random(seed * 1_000_003 + index).shuffle(order)
    return order


def _time_setup(args) -> float:
    """Seconds from starting a fresh process to its workload being set up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    try:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def measure(args, workloads_mod, refs_mod) -> dict:
    """Whole rounds until --seconds of item time and the workload's item floor."""
    wl = workloads_mod.WORKLOADS[args.workload](args.seed, refs_mod.Bernoulli())
    tally = Tally(workloads_mod.Failure)
    times, rounds, setups, by_key = [], [], [], {}
    wall_start = time.perf_counter()
    while True:
        round_s = 0.0
        for item in _round_order(wl.items, args.seed, len(rounds)):
            timed = tally.call(wl, item)
            if timed is not None:
                times.append(timed[0])
                by_key.setdefault(item.key, []).append(timed[0])
                round_s += timed[0]
                tally.judge(wl, item, timed[1])
        rounds.append(round_s)
        if len(setups) < SETUP_PROBES:
            setups.append(_time_setup(args))
        enough = sum(rounds) >= args.seconds and len(times) >= wl.min_items
        if enough or time.perf_counter() - wall_start > HARD_STOP_S:
            break
    while len(setups) < SETUP_PROBES:
        setups.append(_time_setup(args))
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(rounds),
        "item_p50_s": statistics.median(times),
        "item_tail_s": percentile(times, wl.percentile),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {"rounds": rounds, "items": len(times), "setups": setups,
              "tail_percentile": wl.percentile, "errors": tally.errors, "item_s": by_key}
    return _result(tally, values, dict(END_TO_END), detail)


def traced(args, workloads_mod, refs_mod) -> dict:
    """One traced round of every workload, the named one first."""
    import spans

    names = [args.workload] + [n for n in workloads_mod.WORKLOADS if n != args.workload]
    bern = refs_mod.Bernoulli()
    built = [workloads_mod.WORKLOADS[n](args.seed, bern) for n in names]
    tally = Tally(workloads_mod.Failure)
    rec = spans.Recorder()
    restore = spans.install(rec)
    round_s = {}
    try:
        for wl in built:
            count = wl is built[0]   # attempted and failed describe the named workload
            round_s[wl.name] = 0.0
            for item in _round_order(wl.items, args.seed, 0):
                span = rec.open("item", workload=wl.name, key=item.key)
                try:
                    timed = tally.call(wl, item, count)
                finally:
                    rec.close(span)
                if timed is None:
                    continue
                round_s[wl.name] += timed[0]
                rec.active = False   # checks call the program too; keep them out
                try:
                    tally.judge(wl, item, timed[1], count)
                finally:
                    rec.active = True
        micro = spans.padic_microbench(args.seed)
    finally:
        restore()
    values = spans.layer_metrics(rec, micro)
    summary = {"workload": args.workload, "seed": args.seed, "traced_round_s": round_s,
               "spans": len(rec.spans), "errors": tally.errors}
    OUT_DIR.mkdir(exist_ok=True)
    rec.write_ndjson(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.ndjson", summary)
    return _result(tally, values, dict(spans.LAYER_METRICS), summary)


def _result(tally, values, units, detail) -> dict:
    return {"correct": tally.correct and tally.attempted > 0,
            "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in units},
            "detail": detail}


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "padicforms" / "__init__.py").is_file():
        print(f"perfbench: the program's source is missing: {src / 'padicforms'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import refs
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed, refs.Bernoulli())
        print("ready", flush=True)
        return 0
    try:
        result = (traced if args.trace else measure)(args, workloads, refs)
    except Exception:
        traceback.print_exc()
        return 1
    detail = result.pop("detail")
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(dict(result, detail=detail), indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
