"""One benchmark child: a fresh process that runs fedcal federations.

    python3 perfbench/child.py SPEC.json

SPEC names the source tree, the workload config, the federation seeds,
the thread count, the ablations, whether to trace, how many extra
set-ups to time per seed, and where to write artifacts and the report.
Every federation runs the way a user runs one, through
``fedcal.cli.main(["run", ...])``; the report (JSON) holds per-seed wall
times, set-up readings, the process's peak resident memory and, when
traced, the spans and counts of the run.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import tracemalloc

import numpy
import scipy


def _timed(fn, sink):
    """Wrap fn so that the wall time of every call is appended to sink."""
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append(time.perf_counter() - start)
    return wrapper


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.abspath(spec["src"]))
    from fedcal import cli, fedsim

    raw = cli.parse_config_file(spec["config"])
    run_cfg = cli.build_run_config(raw)
    ablate = tuple(spec["ablate"])

    tracer = None
    setup_times, loop_times = [], []
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
    else:
        # two wrappers per federation: enough to split set-up from the round loop
        fedsim.setup_federation = _timed(fedsim.setup_federation, setup_times)
        cli.run_federation = _timed(cli.run_federation, loop_times)

    runs, extra_setups, peak_alloc_mb, graph_sizes = [], [], [], []
    for seed in spec["seeds"]:
        fed = run_cfg.federation_config(seed=seed, ablate=ablate)
        for _ in range(spec["setup_repeats"]):
            start = time.perf_counter()
            fedsim.setup_federation(fed)
            extra_setups.append(time.perf_counter() - start)
        if tracer is not None:
            tracemalloc.start()
            _, _, _, g = fedsim.setup_federation(fed)
            peak_alloc_mb.append(tracemalloc.get_traced_memory()[1] / 2 ** 20)
            tracemalloc.stop()
            graph_sizes.append([g.num_nodes, g.num_edges])
            tracer.install()

        out = os.path.join(spec["out_root"], f"seed{seed}")
        argv = ["run", "--config", spec["config"], "--seed", str(seed),
                "--threads", str(spec["threads"]), "--out", out]
        for name in ablate:
            argv += ["--ablate", name]
        record = {"seed": seed, "out": out, "rounds": fed.rounds,
                  "clients": fed.num_clients,
                  "steps": fed.num_clients * fed.rounds * fed.local_epochs}
        start = time.perf_counter()
        try:
            record["rc"] = cli.main(argv)
        except Exception as exc:          # reported, and counted as a failed run
            record["rc"] = -1
            record["error"] = f"{type(exc).__name__}: {exc}"
        record["run_s"] = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
        elif record["rc"] == 0:
            record["setup_s"] = setup_times[-1]
            record["loop_s"] = loop_times[-1] - setup_times[-1]
        runs.append(record)

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    report = {
        "env": {"numpy": numpy.__version__, "scipy": scipy.__version__,
                "blas": f"{blas.get('name')} {blas.get('version')}",
                "blas_config": blas.get("openblas configuration")},
        "runs": runs,
        "extra_setup_s": extra_setups,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        report.update(spans=tracer.spans, counts=tracer.counts,
                      setup_peak_alloc_mb=peak_alloc_mb, graph_sizes=graph_sizes)
    with open(spec["report"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
