"""Benchmark of minaff, measured from outside the program.

Run from the repository root (stdlib only; the program comes from ``src``):

    python3 perfbench/run.py --workload demazure-cli --seed 1 --seconds 60 --trace 0

Workloads (BENCHMARK.json records why each was chosen):

  demazure-cli    six ``char``/``decomp`` cases, a fresh ``python -m minaff``
                  process each
  symplectic-cli  six ``sam`` cases, a fresh process each

A pass runs every case of the workload once, in an order shuffled by
``--seed``, each case starting when the previous one has finished (one
client, closed loop).  After the first pass, each further pass runs the
cases that are expected to end within ``--seconds``, until none is; it
starts with the cases that have the fewest samples, longest first, so that
the longest case, which weighs most in wall_s and table_s_p90, gets another
sample before the short ones do.  Every case runs in a fresh process, so it
starts from cold ``lru_cache``s.  MINAFF_TIMING and MINAFF_THREADS are
removed from the environment of every child.  Probes are spread over the
timed loop: a block before each case, two plus one per started
``PROBE_EVERY_S`` seconds the case is expected to take, and one block after
the last case.  A probe is a fresh ``python -m minaff --version`` process,
whose time is the set-up time, and a fresh interpreter running
``REFERENCE``, a fixed piece of work that does not use minaff.

A shared host's speed swings by 1.4-1.6x in episodes of seconds to a
minute, so a run's samples would show the episodes they fell into.  Each
sample's times are therefore divided by its host factor: the median
``REFERENCE`` time of the two probe blocks on either side of the sample,
over ``REFERENCE_NOMINAL_S``; each set-up time is divided by the factor of
its own probe.  The metrics are seconds on a host that runs ``REFERENCE``
in that time.  One factor for the whole run, from all its probes, left
spreads up to 0.25 between runs when the host was busy, against about 0.1
for the factor of the neighbouring probes.  A case's latency is then the
median of its scaled samples, and setup_s the median of the scaled set-up
times.  The record keeps the raw metrics and the run's overall factor.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every case
twice, untraced and then traced by ``worker.py``, which wraps minaff's public
functions (see ``tracer.py``).  It prints the per-layer metrics of the traced
runs and the tracing overhead, and it fails a traced output that differs from
the untraced one.  Wrappers that could not be installed and counts that
failed to be taken are reported as ``trace.unwrapped`` and
``trace.measure_errors``, so a renamed function does not pass for a gain.
Without ``--workload`` every workload runs in turn.

Every case's stdout is checked against the sha256 recorded in
``expected.json``.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  The full record, with the machine,
every pass and the spans, goes to ``perfbench/results/``.

Self-tests: ``python3 -m unittest discover -s perfbench``.
Rewrite expected.json, only when outputs are meant to change:
``python3 perfbench/record.py``.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import namedtuple

import cases
import tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH)
SRC = os.path.join(REPO, "src")
WORKER = os.path.join(BENCH, "worker.py")
RESULTS = os.path.join(BENCH, "results")
PY = sys.executable

CASES = {"demazure-cli": cases.DEMAZURE_CLI, "symplectic-cli": cases.SYMPLECTIC_CLI}
WORKLOADS = tuple(CASES)

# (name, unit, better) of every end-to-end metric.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("table_s_p50", "s", "lower"),
    ("table_s_p90", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

DEFAULT_SECONDS = 60  # run_seconds of BENCHMARK.json
PROBE_EVERY_S = 2.0
# Dict updates keyed by small integer tuples, the operation that dominates
# minaff's passes, in a fresh interpreter like every case.
REFERENCE = "d = {}\nfor i in range(60000):\n    k = (i % 7, i % 11, i % 13, i % 17)\n    d[k] = d.get(k, 0) + i\n"
REFERENCE_NOMINAL_S = 0.07  # about its median time on a quiet 2-vCPU Xeon VM, Python 3.11
TIME_METRICS = ("wall_s", "cpu_s", "table_s_p50", "table_s_p90", "setup_s")
HARD_LIMIT_S = 170  # any child still running then is killed, so a run ends within 180 s

Proc = namedtuple("Proc", "code out wall cpu rss_mb")


class ProgramMissing(Exception):
    pass


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in ("MINAFF_TIMING", "MINAFF_THREADS")}
    env["PYTHONPATH"] = SRC
    return env


ENV = child_env()


def minaff_cmd(argv):
    return [PY, "-m", "minaff", *argv]


def spawn(cmd, deadline):
    """Run ``cmd`` to its end; stdout is captured, stderr passes through.

    Returns its exit code, stdout, wall time, and user+sys CPU time and
    peak RSS from its own rusage.  It is killed at ``deadline``
    (``time.monotonic``).
    """
    start = time.perf_counter()
    p = subprocess.Popen(cmd, cwd=REPO, env=ENV, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    lock = threading.Lock()
    exited = threading.Event()

    def kill():
        with lock:
            if not exited.is_set():
                os.kill(p.pid, signal.SIGKILL)

    timer = threading.Timer(max(0.0, deadline - time.monotonic()), kill)
    timer.start()
    status = None
    try:
        out = p.stdout.read()
        # Wait without reaping first, so the timer never signals a reused pid.
        os.waitid(os.P_PID, p.pid, os.WEXITED | os.WNOWAIT)
        with lock:
            exited.set()
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
        p.stdout.close()
        if status is None:
            os.kill(p.pid, signal.SIGKILL)
            p.wait()
    p.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    return Proc(p.returncode, out, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def cli_ok(proc, argv, expected):
    """A CLI case passes on exit 0 with the stdout digest recorded for it."""
    want = expected["cli"].get(cases.cli_key(argv))
    return proc.code == 0 and want is not None and cases.digest(proc.out) == want


# Running a case gives a sample: the untraced process's wall, cpu and
# rss_mb, the tables attempted and failed, and in a traced run the traced
# process's wall, its per-layer metrics and its spans.


def cli_sample(argv, expected, deadline, trace):
    proc = spawn(minaff_cmd(argv), deadline)
    ok = cli_ok(proc, argv, expected)
    sample = {
        "wall": proc.wall,
        "cpu": proc.cpu,
        "rss_mb": proc.rss_mb,
        "attempted": 1,
        "failed": int(not ok),
    }
    if trace:
        traced = spawn([PY, WORKER, *argv], deadline)
        record = json.loads(traced.out) if traced.code == 0 else {"code": None, "stdout": "", "spans": []}
        same = record["code"] == proc.code and cases.digest(record["stdout"]) == cases.digest(proc.out)
        sample["attempted"] += 1
        sample["failed"] += not (ok and same)
        add_trace(sample, traced, record)
    return sample


def add_trace(sample, traced, record):
    """Store a traced process's wall time, spans and per-layer metrics."""
    unwrapped = record.get("unwrapped", [])
    layers = tracer.layer_metrics(record["spans"])
    layers["trace.unwrapped"] = len(unwrapped)
    sample.update(traced_wall=traced.wall, layers=layers, unwrapped=unwrapped, spans=record["spans"])


def timed_samples(seconds, orders, run_case, probe=None):
    """({case key: samples}, probe results): every case once, then, pass
    after pass, each case that is expected to end within ``seconds``, until
    none is; later passes run the cases with the fewest samples first, the
    longest of them first.  ``probe``, when given, runs in a block before
    each case, two plus one per started ``PROBE_EVERY_S`` of the case's
    expected time, and in one more block after the last case; each sample
    keeps in "probes" the results of the two blocks on either side of it.
    A case's expected time is the median time of its samples, its probe
    block included."""
    start = time.monotonic()
    samples, probes, last = {}, [], None

    def expected(key):
        return statistics.median(s["elapsed"] for s in samples[key]) if key in samples else 0.0

    def probe_block(key):
        block = [probe() for _ in range(2 + int(expected(key) // PROBE_EVERY_S))]
        probes.extend(block)
        if last is not None:
            last["probes"] += block
        return block

    for order in orders:
        ran = False
        if samples:
            order = sorted(order, key=lambda item: (len(samples[item[0]]), -expected(item[0])))
        for key, case in order:
            if key in samples and time.monotonic() - start + expected(key) > seconds:
                continue
            t = time.monotonic()
            before = probe_block(key) if probe is not None else []
            sample = run_case(case)
            sample["elapsed"] = time.monotonic() - t
            sample["probes"] = list(before)
            samples.setdefault(key, []).append(sample)
            last_key, last = key, sample
            ran = True
        if not ran:
            if probe is not None:
                probe_block(last_key)
            return samples, probes


def probe_host(deadline):
    """(set-up, reference): wall times of a fresh ``python -m minaff
    --version`` process and of a fresh interpreter running REFERENCE."""
    setup = spawn(minaff_cmd(["--version"]), deadline)
    if setup.code != 0:
        raise ProgramMissing("python -m minaff --version failed")
    reference = spawn([PY, "-c", REFERENCE], deadline)
    if reference.code != 0:
        raise RuntimeError("the reference job failed")
    return setup.wall, reference.wall


def check_program(deadline):
    """Refuse to run without the program; the first start also writes its bytecode."""
    if not os.path.isfile(os.path.join(SRC, "minaff", "__init__.py")):
        raise ProgramMissing(f"no minaff package under {SRC}")
    proc = spawn(minaff_cmd(["--version"]), deadline)
    if proc.code != 0 or not proc.out.startswith(b"minaff "):
        raise ProgramMissing("python -m minaff --version failed")


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def host_factor(probes):
    """Median REFERENCE time of ``probes`` over REFERENCE_NOMINAL_S."""
    return statistics.median(reference for _, reference in probes) / REFERENCE_NOMINAL_S


def end_to_end_metrics(samples, probes):
    """(metrics, raw metrics, host factor) of one pass.  Each time of a
    sample is divided by the host factor of the probes next to it, and each
    set-up time by that of its own probe; a case's latency is then the
    median of its scaled samples."""

    def estimate(host):
        table_s = sorted(statistics.median(s["wall"] / host(s) for s in case) for case in samples.values())
        return {
            "wall_s": sum(table_s),
            "cpu_s": sum(statistics.median(s["cpu"] / host(s) for s in case) for case in samples.values()),
            "table_s_p50": statistics.median(table_s),
            "table_s_p90": percentile(table_s, 90),
        }

    raw = estimate(lambda s: 1.0)
    metrics = estimate(lambda s: host_factor(s["probes"]))
    raw["setup_s"] = statistics.median(setup for setup, _ in probes)
    metrics["setup_s"] = statistics.median(setup / host_factor([(setup, ref)]) for setup, ref in probes)
    raw["peak_rss_mb"] = metrics["peak_rss_mb"] = max(
        statistics.median(s["rss_mb"] for s in case) for case in samples.values()
    )
    order = [name for name, _, _ in END_TO_END]
    return {k: metrics[k] for k in order}, {k: raw[k] for k in order}, host_factor(probes)


def per_layer_metrics(samples):
    """Per-layer metrics of one pass, summed over the cases' median samples;
    trace.unwrapped is the largest count of any sample."""
    m = dict.fromkeys((name for name, _, _ in tracer.PER_LAYER), 0)
    for case in samples.values():
        for name in m:
            m[name] += statistics.median(s["layers"].get(name, 0) for s in case)
        m["trace.overhead_s"] += statistics.median(s["traced_wall"] - s["wall"] for s in case)
    m["trace.unwrapped"] = max(s["layers"]["trace.unwrapped"] for case in samples.values() for s in case)
    return tracer.finish_pass(m)


def machine():
    return {
        "git_commit": git_commit(),
        "src_sha256": tree_digest(SRC),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_1m": os.getloadavg()[0],
    }


def git_commit():
    if not os.path.isdir(os.path.join(REPO, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def tree_digest(root):
    """sha256 over the relative paths and contents of the .py files under ``root``."""
    parts = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as f:
                    parts.append(os.path.relpath(path, root).encode() + b"\0" + f.read())
    return cases.digest(b"\0\0".join(parts))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_workload(workload, seed, seconds, trace, deadline):
    """Measure one workload; returns its record and the unit of each metric."""
    check_program(deadline)
    info = machine()
    expected = cases.load_expected()
    orders = ([(cases.cli_key(a), a) for a in o] for o in cases.pass_orders(CASES[workload], seed))
    samples, probes = timed_samples(
        seconds,
        orders,
        lambda argv: cli_sample(argv, expected, deadline, trace),
        None if trace else lambda: probe_host(deadline),
    )
    raw, host = None, None
    if trace:
        metrics = per_layer_metrics(samples)
        units = {name: unit for name, unit, _ in tracer.PER_LAYER}
    else:
        metrics, raw, host = end_to_end_metrics(samples, probes)
        units = {name: unit for name, unit, _ in END_TO_END}
    attempted = sum(s["attempted"] for case in samples.values() for s in case)
    failed = sum(s["failed"] for case in samples.values() for s in case)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": info,
        "probe_fields": ["setup", "reference"],
        "probes": probes,
        "host_factor": host,
        "raw_metrics": raw,
        "samples": {k: [{f: v for f, v in s.items() if f != "spans"} for s in case] for k, case in samples.items()},
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if trace:
        record["span_fields"] = ["name", "start", "end", "parent", "case", "attrs"]
        record["spans"] = [s["spans"] for case in samples.values() for s in case]
    return record, units


def report(record, units):
    workload, metrics, failed, attempted = (record[k] for k in ("workload", "metrics", "failed", "attempted"))
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{workload}-seed{record['seed']}-trace{record['trace']}.json")
    with open(path, "w") as f:
        json.dump(record, f)
    counts = [len(case) for case in record["samples"].values()]
    print(f"{workload}: {len(counts)} cases, {min(counts)}-{max(counts)} samples each, "
          f"record in {os.path.relpath(path, REPO)}")
    unwrapped = sorted({f for case in record["samples"].values() for s in case for f in s.get("unwrapped", [])})
    if unwrapped:
        print(f"  not traced, missing from the program: {', '.join(unwrapped)}")
    raw = record["raw_metrics"] or {}
    if record["host_factor"] is not None:
        print(f"  host factor {record['host_factor']:.4f} from {len(record['probes'])} probes")
    for name, value in metrics.items():
        unscaled = f"  (raw {raw[name]:.6f})" if name in TIME_METRICS and name in raw else ""
        print(f"  {name:<34} {value:>16.6f} {units[name]}{unscaled}")
    print(f"  {'fail_rate':<34} {failed / attempted:>16.6f} ({failed} of {attempted} tables)")


def main(argv=None):
    parser = argparse.ArgumentParser(description="Benchmark of minaff; see the module docstring.")
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload; all when omitted")
    parser.add_argument("--seed", type=int, default=0, help="shuffles the case order of each pass")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + HARD_LIMIT_S
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in workloads:
            if not args.workload:
                deadline = time.monotonic() + HARD_LIMIT_S
            record, units = run_workload(workload, args.seed, args.seconds, args.trace, deadline)
            report(record, units)
            prefix = f"{workload}." if not args.workload else ""
            for name, value in record["metrics"].items():
                result["metrics"][prefix + name] = {"value": value, "unit": units[name]}
            result["attempted"] += record["attempted"]
            result["failed"] += record["failed"]
    except ProgramMissing as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
