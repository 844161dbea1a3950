"""Check that two checkouts write the same reports for the benchmark jobs.

    python tools/report_diff.py run CHECKOUT OUT.jsonl [--seeds 0 1 2 3]
    python tools/report_diff.py diff A.jsonl B.jsonl

`run` imports thinsets from CHECKOUT/src and the job generators from
this repository's bench/workloads.py, read only.  It runs every job of
the given seeds on the lattice, digit and tower workloads, plus the
lattice reference job, through that checkout's cli.run.  It writes one
JSON line per job: a key (workload, seed, position, job id), the exit
code, the sha256 of the report text without its timestamp line, and the
report itself without the timestamp.  A job that raises gets exit null
and the error instead of a report.

`diff` prints the keys whose lines differ or exist on one side only, and
exits 1 if there are any.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("lattice", "digit", "tower")


def _load_workloads():
    sys.dont_write_bytecode = True  # leave bench/ as it is
    path = os.path.join(ROOT, "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _load_cli(checkout):
    src = os.path.join(os.path.abspath(checkout), "src")
    sys.path.insert(0, src)
    cli = importlib.import_module("thinsets.cli")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"report_diff: thinsets imported from {cli.__file__}, "
                 f"not from {src}")
    return cli


def _jobs(workloads, seeds):
    for job in workloads.references("lattice"):
        yield "lattice:reference", job
    for name in WORKLOADS:
        for seed in seeds:
            for job in workloads.generate(name, seed):
                yield f"{name}:{seed}", job


def _run_job(cli, cap, job, out_dir):
    try:
        code, path = cli.run(job["command"], job["config"], out_dir=out_dir,
                             prec=job["prec"], cap=cap,
                             log_convention=job["log_convention"])
    except Exception as ex:  # a raising job is recorded, not fatal
        return {"exit": None, "error": f"{type(ex).__name__}: {ex}"}
    with open(path) as fh:
        text = "".join(line for line in fh
                       if not line.startswith('  "timestamp": '))
    report = json.loads(text)
    return {"exit": code,
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "report": report}


def run(checkout, out_path, seeds):
    workloads = _load_workloads()
    cli = _load_cli(checkout)
    count = 0
    with tempfile.TemporaryDirectory() as tmp, open(out_path, "w") as out:
        position = {}
        for group, job in _jobs(workloads, seeds):
            i = position[group] = position.get(group, -1) + 1
            entry = {"key": f"{group}:{i}:{job['id']}"}
            entry.update(_run_job(cli, workloads.CAP, job, tmp))
            out.write(json.dumps(entry, sort_keys=True) + "\n")
            count += 1
    print(f"{count} reports written to {out_path}")
    return 0


def _digests(path):
    """key -> sha256 of the whole line, so large files stay cheap."""
    out = {}
    with open(path) as fh:
        for line in fh:
            key = json.loads(line)["key"]
            out[key] = hashlib.sha256(line.encode()).hexdigest()
    return out


def diff(path_a, path_b):
    a, b = _digests(path_a), _digests(path_b)
    differ = sorted(k for k in a.keys() & b.keys() if a[k] != b[k])
    only_a, only_b = sorted(a.keys() - b.keys()), sorted(b.keys() - a.keys())
    for key in differ:
        print(f"differs: {key}")
    for key in only_a:
        print(f"only in {path_a}: {key}")
    for key in only_b:
        print(f"only in {path_b}: {key}")
    print(f"{len(a.keys() & b.keys())} jobs in both, {len(differ)} differ, "
          f"{len(only_a) + len(only_b)} on one side only")
    return 1 if differ or only_a or only_b else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_run = sub.add_parser("run", help="run the jobs on one checkout")
    p_run.add_argument("checkout", help="directory holding src/thinsets")
    p_run.add_argument("out", help="JSON-lines file to write")
    p_run.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3])
    p_diff = sub.add_parser("diff", help="compare two run files")
    p_diff.add_argument("a")
    p_diff.add_argument("b")
    args = parser.parse_args(argv)
    if args.mode == "run":
        return run(args.checkout, args.out, args.seeds)
    return diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
