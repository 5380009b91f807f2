"""fedcal benchmark: end-to-end metrics of whole federations, per-layer trace.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere inside a source checkout; it reads ``src/`` and
``perfbench/`` and writes only under ``.bench_out/``. Every federation
runs in a fresh child process through ``fedcal.cli.main(["run", ...])``.

Each run starts its child processes one after the other:

* ``timed``: the workload's federations, one per fedcal seed derived from
  ``--seed``. ``--seconds`` fixes how many seeds, never a clock, so two
  commits always measure the same inputs. With ``--trace 1`` this child
  is traced (see tracer.py).
* ``--trace 0``: ``repeat`` reruns the first seed at the workload's check
  thread count. Its artifacts must equal the timed child's byte for byte.
* ``--trace 1``: ``untraced`` reruns the first seeds without tracing, which
  checks that tracing leaves the artifacts alone and measures the tracing
  overhead; where the check thread count differs, ``threads`` reruns the
  first seed traced at that count, the one trace of the thread path.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A result file under ``.bench_out/results/`` records the environment, every
run, every check and the details behind each metric.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402  (the benchmark's own module, next to this file)

# seconds_per_seed: rough wall time one seed adds to a run on a 2-core x86
# box (large-graph runs its seed twice); it only turns --seconds into a
# fixed seed count.
WORKLOADS = {
    "homophilic": {
        "config": "homophilic.cfg",      # configs/benchmark.cfg as committed
        "rounds": 12,
        "ablate": [],
        "threads": 1,
        "check_threads": 2,
        "setup_repeats": 1,
        "seconds_per_seed": 4.5,
    },
    "large-graph": {
        "config": "large-graph.cfg",
        "rounds": None,
        "ablate": ["structural"],
        "threads": 1,
        "check_threads": 1,
        "setup_repeats": 2,
        "seconds_per_seed": 40.0,
    },
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "steps_per_s": "1/s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "final_mean_test": "accuracy",
}

ARTIFACTS = ("history.csv", "summary.json", "config.resolved")
CHILD_DEADLINE_S = 170.0
# seeds rerun untraced by a traced run: enough for the overhead and the
# byte check, few enough to keep a traced homophilic run near 90 s
UNTRACED_SEEDS = 3


def fedcal_seeds(seed: int, count: int) -> list:
    """Federation seeds of one benchmark run; the first is --seed itself."""
    return [seed + 7919 * i for i in range(count)]


def workload_config(spec: dict) -> str:
    """Config text of the workload: the file, with its rounds overridden."""
    with open(os.path.join(HERE, "workloads", spec["config"]), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if spec["rounds"] is not None:
        lines = [f"federation.rounds = {spec['rounds']}"
                 if ln.startswith("federation.rounds") else ln for ln in lines]
    return "\n".join(lines) + "\n"


def run_child(name, workdir, config_path, seeds, threads, ablate, trace,
              setup_repeats, deadline):
    """Run one child process; returns its report, or None if it failed."""
    spec = {
        "src": os.path.join(ROOT, "src"),
        "config": config_path,
        "seeds": seeds,
        "threads": threads,
        "ablate": ablate,
        "trace": trace,
        "setup_repeats": setup_repeats,
        "out_root": os.path.join(workdir, name),
        "report": os.path.join(workdir, f"{name}.json"),
    }
    spec_path = os.path.join(workdir, f"{name}.spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    log_path = os.path.join(workdir, f"{name}.log")
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), spec_path],
            stdout=log, stderr=subprocess.STDOUT, cwd=workdir,
        )
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            rc = "timeout"
        finally:
            # also on SIGTERM (raised as SystemExit below): no child outlives us
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if rc != 0 or not os.path.exists(spec["report"]):
        print(f"child {name} failed ({rc}); see {log_path}", file=sys.stderr)
        return None
    with open(spec["report"], encoding="utf-8") as fh:
        report = json.load(fh)
    report["name"] = name
    report["threads"] = threads
    return report


def artifact_digest(out_dir: str) -> dict:
    """sha256 of every deterministic artifact of one federation run."""
    names = list(ARTIFACTS)
    models = os.path.join(out_dir, "models")
    if os.path.isdir(models):
        names += [os.path.join("models", n) for n in sorted(os.listdir(models))]
    digest = {}
    for name in names:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                digest[name] = hashlib.sha256(fh.read()).hexdigest()
    return digest


def check_run(record: dict) -> str:
    """Empty string if one run's outputs are complete and consistent."""
    rounds, clients = record["rounds"], record["clients"]
    if record["rc"] != 0:
        return f"exit code {record.get('rc')}: {record.get('error', '')}"
    out = record["out"]
    try:
        with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        with open(os.path.join(out, "history.csv"), encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
    except (OSError, ValueError) as exc:
        return f"unreadable artifacts: {exc}"
    if len(rows) != rounds * clients:
        return f"history has {len(rows)} rows, expected {rounds * clients}"
    models = os.path.join(out, "models")
    if sorted(os.listdir(models)) != sorted(f"client_{i}.txt" for i in range(clients)):
        return "models/ does not hold one dump per client"
    final = [float(r[6]) for r in rows if int(r[0]) == rounds - 1]
    if rounds and final != summary["per_client_test"]:
        return "summary.json test metrics differ from the last history round"
    if not 0.0 <= summary["mean_test"] <= 1.0:
        return f"mean_test {summary['mean_test']} outside [0, 1]"
    return ""


def check_children(children: dict) -> list:
    """Problems in the children's runs; marks every run ok or not.

    Every federation must finish with complete, consistent artifacts, and
    every rerun of a seed must reproduce the timed run's bytes.
    """
    problems = []
    for c in children.values():
        for r in c["runs"]:
            problem = check_run(r)
            r["ok"] = not problem
            if problem:
                problems.append(f"{c['name']} seed {r['seed']}: {problem}")
                continue
            with open(os.path.join(r["out"], "summary.json"), encoding="utf-8") as fh:
                r["mean_test"] = json.load(fh)["mean_test"]
            r["digest"] = artifact_digest(r["out"])
    reference = {r["seed"]: r.get("digest") for r in children.get("timed", {"runs": []})["runs"]}
    for c in children.values():
        if c["name"] == "timed":
            continue
        for r in c["runs"]:
            if r["ok"] and r["digest"] != reference.get(r["seed"]):
                r["ok"] = False
                problems.append(f"{c['name']} seed {r['seed']}: artifacts differ from the "
                                "timed run's")
    return problems


def environment(child_env: dict, config_text: str, seed: int) -> dict:
    """What a result depends on besides the benchmark's own code."""
    commit = None
    try:
        if not os.path.isdir(os.path.join(ROOT, ".git")):
            raise FileNotFoundError("not a git checkout")
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    src_hash = hashlib.sha256()
    src_dir = os.path.join(ROOT, "src", "fedcal")
    for name in sorted(os.listdir(src_dir)):
        if name.endswith(".py"):
            with open(os.path.join(src_dir, name), "rb") as fh:
                src_hash.update(name.encode() + b"\0" + fh.read())
    return {
        "git_commit": commit,
        "source_sha256": src_hash.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version,
        **child_env,
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "seed": seed,
        "config_text": config_text,
    }


def end_to_end(timed: list) -> tuple:
    """End-to-end metrics from the untraced children at the workload's threads."""
    runs = [r for child in timed for r in child["runs"] if r["ok"]]
    setups = [s for child in timed for s in child["extra_setup_s"]]
    setups += [r["setup_s"] for r in runs]
    metrics = {
        "setup_s": statistics.median(setups),
        "steps_per_s": sum(r["steps"] for r in runs) / sum(r["loop_s"] for r in runs),
        "run_s": statistics.median(r["run_s"] for r in runs),
        "peak_rss_mb": statistics.median(child["peak_rss_mb"] for child in timed),
        "final_mean_test": statistics.mean(r["mean_test"] for r in runs),
    }
    details = {
        "setup_s": {"readings": len(setups), "min": min(setups), "max": max(setups)},
        "run_s": {"samples": len(runs), "min": min(r["run_s"] for r in runs),
                  "max": max(r["run_s"] for r in runs)},
        "steps_per_s": {"steps": sum(r["steps"] for r in runs),
                        "loop_s": sum(r["loop_s"] for r in runs)},
    }
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fedcal", "cli.py")):
        print(f"error: no fedcal source tree at {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + CHILD_DEADLINE_S
    spec = WORKLOADS[args.workload]
    trace = bool(args.trace)
    count = max(1, round(args.seconds / spec["seconds_per_seed"]))
    seeds = fedcal_seeds(args.seed, count)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = os.path.join(ROOT, ".bench_out", tag)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    config_text = workload_config(spec)
    config_path = os.path.join(workdir, "workload.cfg")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(config_text)
    threads, check_threads = spec["threads"], spec["check_threads"]
    same_threads = check_threads == threads

    def child(name, child_seeds, child_threads, child_trace, repeats):
        return run_child(name, workdir, config_path, child_seeds, child_threads,
                         spec["ablate"], child_trace, repeats, deadline)

    repeats = spec["setup_repeats"]
    if trace:
        plan = [("timed", seeds, threads, True, 0),
                ("untraced", seeds[:UNTRACED_SEEDS], threads, False, 0)]
        if not same_threads:
            plan.append(("threads", seeds[:1], check_threads, True, 0))
    else:
        plan = [("timed", seeds, threads, False, repeats),
                ("repeat", seeds[:1], check_threads, False, repeats if same_threads else 0)]
    attempted = sum(len(p[1]) for p in plan)
    children = {}
    for name, *rest in plan:
        report = child(name, *rest)
        if report is not None:
            children[name] = report

    problems = check_children(children)
    completed = [r for c in children.values() for r in c["runs"]]
    failed = attempted - len(completed) + sum(not r["ok"] for r in completed)

    timed = children.get("timed")
    metrics, details, units = {}, {}, {}
    if timed is not None and any(r["ok"] for r in timed["runs"]):
        if trace:
            metrics, details = _per_layer(timed, children.get("threads"), threads)
            untraced = children.get("untraced")
            if untraced is not None:
                plain = {r["seed"]: r["run_s"] for r in untraced["runs"]}
                details["tracing_overhead_s"] = statistics.median(
                    r["run_s"] - plain[r["seed"]] for r in timed["runs"] if r["seed"] in plain)
            details["span_file"] = os.path.join(workdir, "timed.json")
            units = tracer.PER_LAYER_UNITS
        else:
            sources = [timed] + ([children["repeat"]]
                                 if same_threads and "repeat" in children else [])
            metrics, details = end_to_end(sources)
            units = END_TO_END_UNITS

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "fedcal_seeds": seeds,
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "problems": problems,
        "env": environment(timed["env"] if timed else {}, config_text, args.seed),
        "runs": [{k: v for k, v in r.items() if k != "digest"} | {"child": c["name"]}
                 for c in children.values() for r in c["runs"]],
        "metrics": metrics,
        "details": details,
    }
    results_dir = os.path.join(ROOT, ".bench_out", "results")
    os.makedirs(results_dir, exist_ok=True)
    result_path = os.path.join(results_dir, f"{tag}.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {attempted} "
          f"federations, {failed} failed (failed_frac {failed / attempted:.3f})")
    for problem in problems:
        print(f"  check failed: {problem}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:>14.6g} {units[name]}")
    if "tracing_overhead_s" in details:
        print(f"  tracing overhead {details['tracing_overhead_s']:.3f} s "
              "(median over the rerun seeds of traced minus untraced run_s)")
    print(f"  result file {result_path}")
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def _per_layer(timed, thread_child, threads):
    spans = timed["spans"]
    artifact_bytes = sum(
        os.path.getsize(os.path.join(dirpath, f))
        for r in timed["runs"] for dirpath, _, files in os.walk(r["out"]) for f in files
    )
    stats = tracer.fedsim_timings(spans, threads)
    efficiency_threads = threads
    if thread_child is not None:
        efficiency_threads = thread_child["threads"]
        stats["parallel_efficiency"] = tracer.fedsim_timings(
            thread_child["spans"], efficiency_threads)["parallel_efficiency"]
    metrics, details = tracer.layer_metrics(
        spans, timed["counts"], timed["setup_peak_alloc_mb"], artifact_bytes, stats)
    details["parallel_efficiency_threads"] = efficiency_threads
    details["graph_sizes"] = timed["graph_sizes"]
    return metrics, details


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    sys.exit(main())
