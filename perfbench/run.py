"""The ainfinity benchmark: one workload, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the library from `src`.
Every sample is a fresh single-threaded child process (child.py), started
one after another, that generates its input from the seed, times one call
of `ainfinity.cli.main` and passes the correctness gate below.

--trace 0 runs samples for S seconds (at least MIN_SAMPLES) and reports the
median of each end-to-end metric:

    wall_s       seconds of the timed `cli.main` call
    peak_rss_mb  peak resident memory of the child (ru_maxrss)
    setup_s      child start to the timed call: interpreter, import,
                 generating and writing the input document
    checks_ok    `check.*.nonzero=0` lines (transfer), or corpus instances
                 that passed (selftest)

--trace 1 alternates untraced and traced samples for S seconds, then makes
one cProfile counting pass, and reports per span `<layer>.<fn>.calls`,
`.total_s` and `.self_s` (medians over traced samples), plus
`coalgebra.lift.entries`, `fields.ops`, `trace.coverage`,
`trace.overhead_frac` and `fail_frac`.  A traced sample must print the
same report, byte for byte, as the untraced one.

The last line of stdout is the JSON result; the lines before it record the
environment and each metric's sample count and range.
"""

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

MIN_SAMPLES = 3
BUDGET_S = 170          # the whole run, set-up and samples, must end by then


def git_sha():
    """HEAD of the checkout, read from .git directly; "unknown" outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Sampler:
    """Starts child runs one at a time and applies the correctness gate."""

    def __init__(self, workload, seed, workdir, deadline):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.threads = 0

    def run(self, mode):
        """One child run; its result dict if it passed the gate, else None."""
        self.attempted += 1
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        argv = [sys.executable, os.path.join(BENCH, "child.py"),
                self.workload.name, str(self.seed), mode]
        # a fresh directory per sample: rewriting a file that a previous
        # sample wrote can stall on writeback of the old contents
        cwd = tempfile.mkdtemp(dir=self.workdir)
        spawned = time.monotonic()
        try:
            proc = subprocess.run(argv, cwd=cwd, env=env, text=True,
                                  capture_output=True,
                                  timeout=max(1.0, self.deadline - spawned))
        except subprocess.TimeoutExpired:
            return self.fail(mode, ["timed out"])
        finally:
            shutil.rmtree(cwd, ignore_errors=True)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            return self.fail(mode, ["child exited %d without a result: %s"
                                    % (proc.returncode, proc.stderr[-2000:])])
        result["setup_s"] = result["setup_end"] - spawned
        self.threads = max(self.threads, result["threads"])
        problems = gate(self.workload, result)
        if problems:
            return self.fail(mode, problems)
        return result

    def fail(self, mode, problems):
        self.failed += 1
        for problem in problems:
            sys.stderr.write("gate: %s (%s, seed %d): %s\n"
                             % (self.workload.name, mode, self.seed, problem))
        return None

    def more(self, started, seconds, have):
        now = time.monotonic()
        if now > self.deadline - 10 or self.failed >= MIN_SAMPLES:
            return False
        return now - started < seconds or have < MIN_SAMPLES


def gate(workload, result):
    """Problems with one run's output; an empty list means it passed.  Sets
    result["checks_ok"]."""
    problems = []
    if result["code"] != 0:
        problems.append("exit code %r" % result["code"])
    machine = result["report"].split("\n---\n")[0].splitlines()
    if not machine or machine[0] != "status=ok":
        problems.append("report does not start with status=ok")
    keys = dict(line.split("=", 1) for line in machine if "=" in line)
    residuals = {k: v for k, v in keys.items() if k.endswith(".nonzero")}
    problems += ["%s=%s" % (k, v) for k, v in residuals.items() if v != "0"]
    if workload.corpus is None:
        if not residuals:
            problems.append("no residual was checked")
        if "both" in workload.argv and keys.get("compare.status") != "exact":
            problems.append("compare.status=%s" % keys.get("compare.status"))
        if keys.get("output.products") != workload.products:
            problems.append("output.products=%s, expected %s"
                            % (keys.get("output.products"), workload.products))
        if result["output_sha256"] != workload.digest:
            problems.append("output document sha256 %s, expected %s"
                            % (result["output_sha256"], workload.digest))
        result["checks_ok"] = sum(v == "0" for k, v in residuals.items()
                                  if k.startswith("check."))
    else:
        expected = "%d/%d" % (workload.corpus, workload.corpus)
        if keys.get("passed") != expected:
            problems.append("passed=%s, expected %s"
                            % (keys.get("passed"), expected))
        result["checks_ok"] = sum(v == "ok" for k, v in keys.items()
                                  if k.startswith("instance.")
                                  and k.endswith(".status"))
    return problems


def summarise(name, values, unit):
    print("%-44s median=%.6g min=%.6g max=%.6g n=%d %s"
          % (name, statistics.median(values), min(values), max(values),
             len(values), unit))
    return {"value": statistics.median(values), "unit": unit}


def measure_end_to_end(sampler, seconds):
    samples = []
    started = time.monotonic()
    while sampler.more(started, seconds, len(samples)):
        result = sampler.run("plain")
        if result is not None:
            samples.append(result)
    if not samples:
        return None
    return {
        "wall_s": summarise("wall_s", [r["wall_s"] for r in samples], "s"),
        "peak_rss_mb": summarise(
            "peak_rss_mb", [r["maxrss_kb"] / 1024.0 for r in samples], "MB"),
        "setup_s": summarise("setup_s", [r["setup_s"] for r in samples], "s"),
        "checks_ok": summarise(
            "checks_ok", [r["checks_ok"] for r in samples], "count"),
    }


def measure_layers(sampler, seconds):
    from spans import SPAN_NAMES
    plain, traced = [], []
    started = time.monotonic()
    while sampler.more(started, seconds, min(len(plain), len(traced))):
        base = sampler.run("plain")
        run = sampler.run("trace")
        if base is None or run is None:
            continue
        if run["report"] != base["report"]:
            sampler.fail("trace", ["traced report differs from untraced"])
            continue
        plain.append(base)
        traced.append(run)
    counted = sampler.run("count")
    if not traced or counted is None:
        return None
    metrics = {}
    for name in SPAN_NAMES:
        for stat, unit in (("calls", "count"), ("total_s", "s"),
                           ("self_s", "s")):
            key = "%s.%s" % (name, stat)
            metrics[key] = summarise(key, [r["spans"][name][stat]
                                           for r in traced], unit)
    metrics["coalgebra.lift.entries"] = summarise(
        "coalgebra.lift.entries", [r["lift_entries"] for r in traced], "count")
    metrics["fields.ops"] = summarise("fields.ops", [counted["field_ops"]],
                                      "count")
    metrics["trace.coverage"] = summarise(
        "trace.coverage", [r["covered_s"] / r["wall_s"] for r in traced],
        "ratio")
    overhead = (statistics.median(r["wall_s"] for r in traced)
                / statistics.median(r["wall_s"] for r in plain) - 1)
    metrics["trace.overhead_frac"] = summarise("trace.overhead_frac",
                                               [overhead], "ratio")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    if not os.path.isfile(os.path.join(SRC, "ainfinity", "cli.py")):
        sys.stderr.write("no library source at %s; run from the root of a "
                         "checkout\n" % SRC)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.stderr.write("unknown workload %r; choose from %s\n"
                         % (args.workload, ", ".join(WORKLOADS)))
        return 2
    workload = WORKLOADS[args.workload]
    # byte-compile first, so that no sample's set-up pays for it
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(BENCH, quiet=1, maxlevels=0)

    scratch = os.path.join(BENCH, ".work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        sampler = Sampler(workload, args.seed, workdir, deadline)
        if args.trace:
            metrics = measure_layers(sampler, args.seconds)
        else:
            metrics = measure_end_to_end(sampler, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if metrics is None:
        sys.stderr.write("no run of %s passed the gate\n" % workload.name)
        return 1
    if args.trace:
        metrics["fail_frac"] = summarise(
            "fail_frac", [sampler.failed / sampler.attempted], "ratio")
    print("env " + json.dumps({
        "workload": workload.name, "field": workload.field, "seed": args.seed,
        "nproc": os.cpu_count(), "python": sys.version.split()[0],
        "git_sha": git_sha(), "processes": 1, "threads": sampler.threads,
        "samples": "one fresh child process per sample, run one at a time",
    }, sort_keys=True))
    print(json.dumps({
        "correct": sampler.failed == 0,
        "attempted": sampler.attempted,
        "failed": sampler.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
