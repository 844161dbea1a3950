"""thinsets benchmark: seeded CLI jobs, timed end to end, traced per layer.

One process, one client, closed loop: each job is one call of
thinsets.cli.run with a generated config, sent only after the previous
one returned, and each writes its report to a temporary directory under
.bench_work/ at the repository root.

  python3 bench/run.py --workload lattice --seed 0 --seconds 30 --trace 0
      one run; the last stdout line is the JSON result
  python3 bench/run.py --all --seed 0 --seconds 30
      every workload in turn, each in its own process, printing every
      end-to-end metric with its unit and the oracle's fail_frac
  python3 bench/run.py --compare DIR_A DIR_B
      medians and quartiles of two result sets saved with --save DIR,
      labelled agree, regress or unresolved by the bounds in
      BENCHMARK.json
  python3 bench/run.py --write-expected
      rewrite bench/expected.json, the answer table for seed 0

See bench/README.md for the workloads, metrics and layer map.
"""

from __future__ import annotations

import argparse
import gc
import glob
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
EXPECTED = os.path.join(HERE, "expected.json")

sys.path.insert(0, HERE)
import workloads  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

SETUP_REPEATS = 3
MIN_JOBS = 100        # so that 10 latency samples lie beyond p90
LIMIT_S = 150         # stop a run that is still short of MIN_JOBS here
TRACE_JOBS = {"lattice": 60, "digit": 44, "tower": 98}
PROBE_REF_S = 0.001   # probe time that defines the reference speed
PROBE_WINDOW = 5      # probes on each side of a job in its speed estimate


def _probe():
    """Seconds taken by a fixed pure-Python task (Fraction and int
    arithmetic, a dict, JSON encoding) that does not use thinsets.

    Shared hosts change speed by up to 2x within seconds, for CPU time as
    much as for wall time.  Timings are therefore scaled to the speed at
    which this probe takes PROBE_REF_S, measured next to each job.
    """
    t0 = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 400):
        acc += Fraction(i % 7 + 1, i % 13 + 2)
        table[i] = (i << 40) // 3
    json.dumps(table)
    return time.perf_counter() - t0


def _normalize(seconds, probes):
    """Scale each timing by the median probe time around it."""
    out = []
    for i, t in enumerate(seconds):
        near = probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1]
        out.append(t * PROBE_REF_S / statistics.median(near))
    return out


def _fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    """Import thinsets from this checkout's src/, fresh each time."""
    for name in [m for m in sys.modules
                 if m.split(".")[0] in ("thinsets", "mpmath")]:
        del sys.modules[name]
    pkg = importlib.import_module("thinsets")
    importlib.import_module("thinsets.cli")
    if os.path.dirname(os.path.dirname(os.path.abspath(pkg.__file__))) != SRC:
        _fail(f"thinsets imported from {pkg.__file__}, not from {SRC}")
    return pkg


def _run_job(pkg, job, out_dir):
    """One CLI call; returns (seconds, exit code or None, report, error)."""
    t0 = time.perf_counter()
    try:
        code, path = pkg.cli.run(job["command"], job["config"],
                                 out_dir=out_dir, prec=job["prec"],
                                 cap=workloads.CAP,
                                 log_convention=job["log_convention"])
    except Exception as ex:  # a raising job is a failed job; keep going
        return time.perf_counter() - t0, None, {}, \
            f"{type(ex).__name__}: {ex}"
    dt = time.perf_counter() - t0
    with open(path) as fh:
        report = json.load(fh)
    return dt, code, report, None


class Oracle:
    """Per-job verdicts: raised, refused (exit 2 on a valid job), wrong
    answer, or ok.  All but ok are failures; only a wrong answer makes
    the run incorrect."""

    def __init__(self, table):
        self.table = table
        self.attempted = 0
        self.raised = 0
        self.refused = 0
        self.wrong = 0
        self.problems = []
        self.answers = {}

    def judge(self, job, code, report, error):
        self.attempted += 1
        if error is not None:
            self.raised += 1
            problems = [error]
        elif workloads.refused(job, code, report):
            self.refused += 1
            problems = [f"refused: {report['error']}"]
        else:
            problems = workloads.check(job, code, report, self.table)
            self.wrong += bool(problems)
            self.answers[job["id"]] = workloads.answer(job, report)
        if problems and len(self.problems) < 20 and \
                job["id"] not in {p["id"] for p in self.problems}:
            self.problems.append({"id": job["id"], "kind": job["kind"],
                                  "problems": problems})

    @property
    def failed(self):
        return self.raised + self.refused + self.wrong


def _setup(workload, seed, out_dir):
    """Import, generate the configs, run one untimed warm-up job; timed
    SETUP_REPEATS times, the last import is the one used."""
    times, probes = [], []
    for _ in range(SETUP_REPEATS):
        probes.append(_probe())
        t0 = time.perf_counter()
        pkg = _import_package()
        jobs = workloads.generate(workload, seed)
        warm = workloads.warmup_job(workload)
        _, code, report, error = _run_job(pkg, warm, out_dir)
        times.append(time.perf_counter() - t0)
        if error or workloads.check(warm, code, report, {}):
            _fail(f"warm-up job failed: {error or report.get('error')}")
    return pkg, jobs, _normalize(times, probes)


def _shares(values):
    """Share of each value, or of each decade when there are many."""
    out = {}
    for v in values:
        if isinstance(v, str) or len(set(values)) <= 8:
            key = str(v)
        elif v == 0:
            key = "0"
        else:
            k = len(str(int(v))) - 1
            key = f"1e{k}..1e{k + 1}"
        out[key] = out.get(key, 0) + 1
    return {k: round(c / len(values), 4) for k, c in sorted(out.items())}


def _inputs(ran, answers):
    """Input properties of the jobs a run executed: job kinds, the
    generators' properties (terms per point, precision bits, triple
    sums, ...) and survivors per window job."""
    props = {"job_kind": [j["kind"] for j in ran]}
    for j in ran:
        for key, value in j["props"].items():
            props.setdefault(key, []).append(value)
        if j["command"] == "window" and answers.get(j["id"]) is not None:
            props.setdefault("survivors", []).append(answers[j["id"]])
    return {k: _shares(v) for k, v in props.items()}


def _git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def _env(pkg):
    import mpmath
    return {"git_sha": _git_sha(), "python": platform.python_version(),
            "mpmath": mpmath.__version__, "thinsets": pkg.__version__,
            "nproc": os.cpu_count()}


def timed_run(seconds, pkg, jobs, out_dir, oracle):
    """Whole passes over the job cycle until `seconds` have gone by, so
    every run sees the cycle's exact mix."""
    latencies, probes, ran = [], [], []
    start = time.perf_counter()
    while True:
        for job in jobs:
            gc.collect()
            probes.append(_probe())
            dt, code, report, error = _run_job(pkg, job, out_dir)
            latencies.append(dt)
            ran.append(job)
            oracle.judge(job, code, report, error)
        elapsed = time.perf_counter() - start
        if elapsed >= LIMIT_S or \
                (elapsed >= seconds and len(latencies) >= MIN_JOBS):
            break
    raw = statistics.quantiles(latencies, n=10)
    latencies = _normalize(latencies, probes)
    deciles = statistics.quantiles(latencies, n=10)
    metrics = {"jobs_per_s": len(latencies) / sum(latencies),
               "job_p50_ms": 1000 * deciles[4],
               "job_p90_ms": 1000 * deciles[8],
               "ok_frac": 1 - oracle.failed / oracle.attempted}
    host = {"probe_median_ms": 1000 * statistics.median(probes),
            "raw_job_p50_ms": 1000 * raw[4], "raw_job_p90_ms": 1000 * raw[8]}
    return metrics, ran, len(latencies), host


def traced_run(workload, seconds, pkg, jobs, out_dir, oracle):
    """Untraced passes over a fixed job list for about seconds/2, then
    the same passes traced; per-layer metrics are per pass.  The list is
    the workload's reference jobs plus the start of its cycle."""
    trace_jobs = workloads.references(workload) + jobs[:TRACE_JOBS[workload]]

    def one_pass(tracer=None):
        times, probes = [], []
        for i, job in enumerate(trace_jobs):
            gc.collect()
            probes.append(_probe())
            if tracer:
                tracer.job = i
            dt, code, report, error = _run_job(pkg, job, out_dir)
            times.append(dt)
            oracle.judge(job, code, report, error)
        return _normalize(times, probes), probes

    untraced, ref_ms, passes = 0.0, [], 0
    while passes == 0 or untraced < seconds / 2:
        times = one_pass()[0]
        untraced += sum(times)
        ref_ms += [1000 * t for t, j in zip(times, trace_jobs)
                   if j["reference"]]
        passes += 1
    tracer = Tracer()
    tracer.install(pkg)
    traced, probes = 0.0, []
    try:
        for _ in range(passes):
            times, p = one_pass(tracer)
            traced += sum(times)
            probes += p
    finally:
        tracer.uninstall()
    # self times are scaled like latencies, by the traced passes' speed
    metrics = tracer.metrics(passes, PROBE_REF_S / statistics.median(probes))
    metrics["trace.overhead_frac"] = traced / untraced - 1
    metrics["reference.job_ms"] = statistics.mean(ref_ms) if ref_ms else 0.0
    os.makedirs(WORK, exist_ok=True)
    span_path = os.path.join(WORK, f"spans-{workload}.jsonl")
    tracer.write_spans(span_path)
    total_self = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    shares = {layer: round(metrics[f"{layer}.self_s"] / total_self, 4)
              for layer in LAYERS}
    return metrics, trace_jobs * passes, shares, span_path


def _use_src():
    if not os.path.isfile(os.path.join(SRC, "thinsets", "__init__.py")):
        _fail(f"no thinsets package under {SRC}")
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)


def single(args):
    _use_src()
    table = {}
    if os.path.exists(EXPECTED):
        with open(EXPECTED) as fh:
            table = json.load(fh)
    oracle = Oracle(table)
    with tempfile.TemporaryDirectory(dir=WORK) as out_dir:
        pkg, jobs, setup_times = _setup(args.workload, args.seed, out_dir)
        gc.freeze()
        extra = {}
        if args.trace:
            metrics, ran, shares, span_path = traced_run(
                args.workload, args.seconds, pkg, jobs, out_dir, oracle)
            extra = {"layer_self_share": shares, "span_file": span_path}
        else:
            metrics, ran, n, host = timed_run(args.seconds, pkg, jobs,
                                              out_dir, oracle)
            metrics["setup_s"] = statistics.median(setup_times)
            metrics["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
            extra = {"samples": {"job_latency": n,
                                 "setup": len(setup_times)},
                     "host_speed": host}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": oracle.wrong == 0,
        "attempted": oracle.attempted,
        "failed": oracle.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  fail_frac=oracle.failed / oracle.attempted,
                  raised=oracle.raised, refused=oracle.refused,
                  wrong=oracle.wrong,
                  problems=oracle.problems,
                  inputs=_inputs(ran, oracle.answers),
                  env=_env(pkg), **extra)
    if args.save:
        os.makedirs(args.save, exist_ok=True)
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        with open(os.path.join(args.save, name), "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
    print(f"# {args.workload} seed {args.seed}: {oracle.attempted} jobs, "
          f"fail_frac {record['fail_frac']:.4f} "
          f"({oracle.raised} raised, {oracle.refused} refused, "
          f"{oracle.wrong} wrong)")
    for p in oracle.problems[:5]:
        print(f"#   {p['kind']} {p['id']}: {'; '.join(p['problems'])}")
    if args.trace:
        print("# layer self-time shares: " + ", ".join(
            f"{k} {v:.1%}" for k, v in extra["layer_self_share"].items()))
    print(json.dumps(result))


def run_all(args):
    """Every workload for one seed, each in its own process; prints each
    metric with its unit and sample count, and the oracle's fail_frac."""
    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        save = args.save or tmp
        print(f"{'workload':8} {'metric':26} {'value':>12} {'unit':6} n")
        for w in workloads.WORKLOADS:
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", w, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--save", save]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                sys.exit(proc.returncode)
            path = os.path.join(save, f"{w}-seed{args.seed}-trace"
                                      f"{args.trace}.json")
            with open(path) as fh:
                rec = json.load(fh)
            n = rec.get("samples", {})
            counts = {"setup_s": n.get("setup"), "peak_rss_mb": 1,
                      "ok_frac": rec["attempted"]}
            for name, m in rec["metrics"].items():
                count = counts.get(name, n.get("job_latency", ""))
                print(f"{w:8} {name:26} {m['value']:12.6g} {m['unit']:6} "
                      f"{count}")
            print(f"{w:8} {'fail_frac':26} {rec['fail_frac']:12.6g} "
                  f"{'1':6} {rec['attempted']}  ({rec['raised']} raised, "
                  f"{rec['refused']} refused, {rec['wrong']} wrong; "
                  f"correct={rec['correct']})")


def _load(directory):
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            rec = json.load(fh)
        if not rec.get("trace"):
            runs.append(rec)
    return runs


def compare(args):
    """Median and quartiles per (metric, workload) on each side."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    a, b = _load(args.compare[0]), _load(args.compare[1])
    print(f"{'workload':8} {'metric':12} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34}  spreadA spreadB  label")
    for w in workloads.WORKLOADS:
        for m in declared["end_to_end"]:
            name, bound = m["name"], m["bound"]
            va = [r["metrics"][name]["value"] for r in a if r["workload"] == w]
            vb = [r["metrics"][name]["value"] for r in b if r["workload"] == w]
            if len(va) < 2 or len(vb) < 2:
                continue
            qa = statistics.quantiles(va, n=4)
            qb = statistics.quantiles(vb, n=4)
            ma, mb = statistics.median(va), statistics.median(vb)
            sa, sb = (qa[2] - qa[0]) / ma, (qb[2] - qb[0]) / mb
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (mb - ma) / ma
            all_better = (max(vb) < min(va)) if sign == 1 \
                else (min(vb) > max(va))
            if name != "setup_s" and max(sa, sb) > bound and not all_better:
                label = "unresolved"
            elif worse > bound:
                label = "regress"
            else:
                label = "agree"
            print(f"{w:8} {name:12} "
                  f"{ma:12.5g} [{qa[0]:9.5g}, {qa[2]:9.5g}] "
                  f"{mb:12.5g} [{qb[0]:9.5g}, {qb[2]:9.5g}]  "
                  f"{sa:7.3f} {sb:7.3f}  {label} (bound {bound})")


def write_expected():
    """Run each workload's reference jobs and whole cycle at seed 0 and
    store their answers."""
    _use_src()
    table = {}
    pkg = _import_package()
    with tempfile.TemporaryDirectory(dir=WORK) as out_dir:
        for w in workloads.WORKLOADS:
            oracle = Oracle({})
            for job in workloads.references(w) + workloads.generate(w, 0):
                _, code, report, error = _run_job(pkg, job, out_dir)
                oracle.judge(job, code, report, error)
            table.update((k, v) for k, v in oracle.answers.items()
                         if v is not None)
    with open(EXPECTED, "w") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(table)} answers written to {EXPECTED}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="directory for the full result record")
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar="DIR")
    ap.add_argument("--write-expected", action="store_true")
    args = ap.parse_args()
    if args.compare:
        compare(args)
    elif args.all:
        run_all(args)
    elif args.write_expected:
        write_expected()
    elif args.workload:
        single(args)
    else:
        ap.error("give --workload, --all, --compare or --write-expected")


if __name__ == "__main__":
    main()
