"""Outside-in tracing of a fedcal run.

The tracer rebinds public names of the fedcal modules to timing wrappers,
so nothing under ``src/`` changes. Every wrapped call becomes a span
(name, start, end, parent, thread) on a per-thread stack; hot numeric
helpers are counted without a span. Spans stay in memory and are written
out once, at the end of the run, together with the per-layer summary.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import threading
import time
from collections import Counter, defaultdict

# (module, attribute, span name, names the same function is also bound to)
_SPANS = [
    ("fedcal.fedsim", "setup_federation", "fedsim.setup", []),
    ("fedcal.fedsim", "generate_sbm", "graph.generate", []),
    ("fedcal.fedsim", "split_masks", "graph.split", []),
    ("fedcal.fedsim", "partition_nonoverlapping", "graph.partition", []),
    ("fedcal.fedsim", "partition_overlapping", "graph.partition", []),
    ("fedcal.fedsim", "run_client_round", "fedsim.client_round", []),
    ("fedcal.fedsim", "forward", "model.forward", [("fedcal.model", "forward")]),
    ("fedcal.fedsim", "total_loss", "model.total_loss", []),
    ("fedcal.fedsim", "sgd_step", "model.sgd_step", []),
    ("fedcal.fedsim", "class_means", "semantic.class_means", []),
    ("fedcal.fedsim", "procrustes", "semantic.procrustes", []),
    ("fedcal.model", "semantic_loss", "semantic.loss", []),
    ("fedcal.fedsim", "sinkhorn_match", "structural.sinkhorn", []),
    ("fedcal.fedsim", "radial_sequences_from_rings", "structural.radial",
     [("fedcal.structural", "radial_sequences_from_rings")]),
    ("fedcal.model", "structural_loss_ego", "structural.loss_ego", []),
    ("fedcal.fedsim", "refine_all_anchors", "refine.anchors", []),
    ("fedcal.fedsim", "update_template", "refine.templates", []),
    ("fedcal.fedsim", "template_objective", "refine.objective", []),
    ("fedcal.cli", "cmd_run", "cli.run", []),
    ("fedcal.cli", "run_federation", "fedsim.run", []),
    ("fedcal.cli", "evaluate", "cli.evaluate", []),
]

# class methods, shared by every client's aggregator
_METHOD_SPANS = [
    ("fedcal.graph", "HopAggregator", "__init__", "graph.hop_aggregator"),
    ("fedcal.graph", "HopAggregator", "rings", "graph.rings"),
    ("fedcal.graph", "HopAggregator", "backward", "graph.backward"),
]

# called too often for a span each: counted only
_COUNTS = [
    ("fedcal.structural", "l2_normalize_rows", "numerics.l2_normalize_calls"),
    ("fedcal.semantic", "svd", "numerics.svd_calls"),
]


class Tracer:
    """Span recorder with one call stack per thread."""

    def __init__(self):
        # [name, start, end, parent, thread, attrs, cpu_s]; cpu_s is the
        # calling thread's CPU time, which excludes waiting for the GIL
        self.spans = []
        self.counts = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fn, attrs_of=None):
        """Wrap fn so that every call records one span named name."""
        spans = self.spans
        stack_of = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            record = [name, 0.0, 0.0, stack[-1] if stack else -1,
                      threading.get_ident(), None, 0.0]
            with self._lock:
                index = len(spans)
                spans.append(record)
            stack.append(index)
            cpu = time.thread_time()
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                record[6] = time.thread_time() - cpu
                stack.pop()
            if attrs_of is not None:
                record[5] = attrs_of(args, kwargs, result)
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts
        lock = self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with lock:
                counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Rebind the fedcal names listed above; undone by uninstall()."""
        for module, attr, name, aliases in _SPANS:
            owner = importlib.import_module(module)
            wrapped = self.span(name, getattr(owner, attr), _ATTRS.get(name))
            self._rebind(owner, attr, wrapped)
            for alias_module, alias_attr in aliases:
                self._rebind(importlib.import_module(alias_module), alias_attr, wrapped)
        for module, cls_name, attr, name in _METHOD_SPANS:
            cls = getattr(importlib.import_module(module), cls_name)
            self._rebind(cls, attr, self.span(name, getattr(cls, attr)))
        for module, attr, name in _COUNTS:
            owner = importlib.import_module(module)
            self.counts.setdefault(name, 0)
            self._rebind(owner, attr, self.counter(name, getattr(owner, attr)))

    def uninstall(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


def _sinkhorn_attrs(args, kwargs, matching):
    return {"iterations": int(matching.iterations), "converged": bool(matching.converged)}


def _round_attrs(args, kwargs, result):
    round_idx = kwargs["round_idx"] if "round_idx" in kwargs else args[4]
    return {"round": int(round_idx)}


# span name -> what to record from a call's arguments and result
_ATTRS = {"structural.sinkhorn": _sinkhorn_attrs, "fedsim.client_round": _round_attrs}


def self_times(spans):
    """Per-span duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def tail_percentile(values):
    """(value, percentile, n): the highest listed percentile with at least
    ten samples beyond it; the median when there are too few samples."""
    n = len(values)
    if n == 0:
        return 0.0, 50.0, 0
    pct = next((p for p in (99.9, 99.0, 95.0, 90.0, 75.0) if n * (100.0 - p) / 100.0 >= 10),
               50.0)
    return _percentile(values, pct), pct, n


def _percentile(values, pct):
    """Linear interpolation between the closest ranks (numpy's default)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def fedsim_timings(spans, threads):
    """Client-round and round times, server time and parallel efficiency.

    Parallel efficiency is the client rounds' CPU time over threads times
    the wall time of the client phases: a thread waiting for the
    interpreter lock does no work, so it does not count as busy.
    """
    client_ms, round_ms = [], []
    busy = phase = server = 0.0
    for run in (s for s in spans if s[0] == "fedsim.run"):
        # spans are in call order, so a round's refine spans follow its clients
        rounds, current = {}, None
        for s in spans:
            if not run[1] <= s[1] <= run[2]:
                continue
            if s[0] == "fedsim.client_round":
                current = s[5]["round"]
                rounds.setdefault(current, ([], []))[0].append(s)
            elif s[0].startswith("refine.") and current is not None:
                rounds[current][1].append(s)
        for clients, servers in rounds.values():
            start = min(c[1] for c in clients)
            client_ms += [(c[2] - c[1]) * 1e3 for c in clients]
            round_ms.append((max(c[2] for c in clients + servers) - start) * 1e3)
            busy += sum(c[6] for c in clients)
            phase += max(c[2] for c in clients) - start
            server += sum(s[2] - s[1] for s in servers)
    return {
        "client_round_ms": client_ms,
        "round_ms": round_ms,
        "server_s": server,
        "parallel_efficiency": busy / (threads * phase) if phase > 0 else 0.0,
    }


def layer_metrics(spans, counts, peak_alloc_mb, artifact_bytes, fedsim_stats):
    """Per-layer metrics of one traced child (totals over its federations).

    Returns (metrics, details): metrics maps each per-layer name to a
    number; details keeps what belongs beside a value, such as the
    percentile and sample count of each tail.
    """
    total, self_total, calls = defaultdict(float), defaultdict(float), Counter()
    for s, own_s in zip(spans, self_times(spans)):
        total[s[0]] += s[2] - s[1]
        self_total[s[0]] += own_s
        calls[s[0]] += 1

    sk = [s[5] for s in spans if s[0] == "structural.sinkhorn"]
    iters = [a["iterations"] for a in sk]
    steps = calls["model.sgd_step"]
    evaluate_s = total["cli.evaluate"]
    client_tail = tail_percentile(fedsim_stats["client_round_ms"])
    round_tail = tail_percentile(fedsim_stats["round_ms"])
    metrics = {
        "structural.sinkhorn_calls": len(sk),
        "structural.sinkhorn_s": total["structural.sinkhorn"],
        "structural.sinkhorn_iters_mean": sum(iters) / len(iters) if iters else 0.0,
        "structural.sinkhorn_iters_max": max(iters, default=0),
        "structural.sinkhorn_converged_ratio":
            sum(a["converged"] for a in sk) / len(sk) if sk else 0.0,
        "structural.sinkhorn_ms_per_iter":
            total["structural.sinkhorn"] * 1e3 / sum(iters) if iters else 0.0,
        "structural.radial_calls": calls["structural.radial"],
        "structural.radial_s": total["structural.radial"],
        "structural.loss_ego_s": total["structural.loss_ego"],
        "structural.loss_ego_self_s": self_total["structural.loss_ego"],
        "model.forward_calls": calls["model.forward"],
        "model.forwards_per_step": calls["model.forward"] / steps if steps else 0.0,
        "model.forward_s": total["model.forward"],
        "model.total_loss_calls": calls["model.total_loss"],
        "model.total_loss_s": total["model.total_loss"],
        "model.total_loss_self_s": self_total["model.total_loss"],
        "model.sgd_step_s": total["model.sgd_step"],
        "graph.generate_s": total["graph.generate"],
        "graph.split_s": total["graph.split"],
        "graph.partition_s": total["graph.partition"],
        "graph.hop_aggregator_s": total["graph.hop_aggregator"],
        "graph.setup_peak_alloc_mb": max(peak_alloc_mb, default=0.0),
        "graph.rings_calls": calls["graph.rings"],
        "graph.rings_s": total["graph.rings"],
        "graph.backward_s": total["graph.backward"],
        "semantic.procrustes_calls": calls["semantic.procrustes"],
        "semantic.procrustes_s": total["semantic.procrustes"],
        "semantic.class_means_s": total["semantic.class_means"],
        "semantic.loss_s": total["semantic.loss"],
        "refine.anchors_s": total["refine.anchors"],
        "refine.templates_s": total["refine.templates"],
        "refine.objective_s": total["refine.objective"],
        "fedsim.client_round_ms_p50": _median(fedsim_stats["client_round_ms"]),
        "fedsim.client_round_ms_tail": client_tail[0],
        "fedsim.round_ms_p50": _median(fedsim_stats["round_ms"]),
        "fedsim.round_ms_tail": round_tail[0],
        "fedsim.server_s": fedsim_stats["server_s"],
        "fedsim.parallel_efficiency": fedsim_stats["parallel_efficiency"],
        "numerics.l2_normalize_calls": counts.get("numerics.l2_normalize_calls", 0),
        "numerics.svd_calls": counts.get("numerics.svd_calls", 0),
        "cli.evaluate_s": evaluate_s,
        "cli.artifacts_s": total["cli.run"] - total["fedsim.run"] - evaluate_s,
        "cli.artifact_bytes": artifact_bytes,
    }
    details = {
        "fedsim.client_round_ms_tail": {"percentile": client_tail[1], "samples": client_tail[2]},
        "fedsim.round_ms_tail": {"percentile": round_tail[1], "samples": round_tail[2]},
        "sinkhorn_iterations_total": sum(iters),
        "sinkhorn_unconverged": len(sk) - sum(a["converged"] for a in sk),
        "gradient_steps": steps,
    }
    return metrics, details


def _median(values):
    return statistics.median(values) if values else 0.0


# name -> (unit, better, end-to-end metric it should move, workload where it should)
PER_LAYER = {
    "structural.sinkhorn_calls": ("count", "lower", "steps_per_s, run_s", "homophilic"),
    "structural.sinkhorn_s": ("s", "lower", "steps_per_s, run_s", "homophilic"),
    "structural.sinkhorn_iters_mean": ("iters", "lower", "steps_per_s, run_s", "homophilic"),
    "structural.sinkhorn_iters_max": ("iters", "lower", "steps_per_s, run_s", "homophilic"),
    "structural.sinkhorn_converged_ratio": ("ratio", "higher", "steps_per_s, run_s",
                                            "homophilic"),
    "structural.sinkhorn_ms_per_iter": ("ms/iter", "lower", "steps_per_s, run_s",
                                        "homophilic"),
    "structural.radial_calls": ("count", "lower", "steps_per_s, run_s", "homophilic"),
    "structural.radial_s": ("s", "lower", "steps_per_s, run_s", "homophilic"),
    "structural.loss_ego_s": ("s", "lower", "steps_per_s, run_s", "homophilic"),
    "structural.loss_ego_self_s": ("s", "lower", "steps_per_s, run_s", "homophilic"),
    "model.forward_calls": ("count", "lower", "steps_per_s", "large-graph"),
    "model.forwards_per_step": ("ratio", "lower", "steps_per_s", "large-graph"),
    "model.forward_s": ("s", "lower", "steps_per_s", "large-graph"),
    "model.total_loss_calls": ("count", "lower", "steps_per_s", "large-graph"),
    "model.total_loss_s": ("s", "lower", "steps_per_s", "large-graph"),
    "model.total_loss_self_s": ("s", "lower", "steps_per_s", "large-graph"),
    "model.sgd_step_s": ("s", "lower", "steps_per_s", "large-graph"),
    "graph.generate_s": ("s", "lower", "setup_s, peak_rss_mb", "large-graph"),
    "graph.split_s": ("s", "lower", "setup_s", "large-graph"),
    "graph.partition_s": ("s", "lower", "setup_s", "large-graph"),
    "graph.hop_aggregator_s": ("s", "lower", "setup_s", "large-graph"),
    "graph.setup_peak_alloc_mb": ("MB", "lower", "peak_rss_mb", "large-graph"),
    "graph.rings_calls": ("count", "lower", "steps_per_s", "large-graph"),
    "graph.rings_s": ("s", "lower", "steps_per_s", "large-graph"),
    "graph.backward_s": ("s", "lower", "steps_per_s", "large-graph"),
    "semantic.procrustes_calls": ("count", "lower", "steps_per_s", "large-graph"),
    "semantic.procrustes_s": ("s", "lower", "steps_per_s", "large-graph"),
    "semantic.class_means_s": ("s", "lower", "steps_per_s", "large-graph"),
    "semantic.loss_s": ("s", "lower", "steps_per_s", "large-graph"),
    "refine.anchors_s": ("s", "lower", "steps_per_s", "homophilic"),
    "refine.templates_s": ("s", "lower", "steps_per_s", "homophilic"),
    "refine.objective_s": ("s", "lower", "steps_per_s", "homophilic"),
    "fedsim.client_round_ms_p50": ("ms", "lower", "steps_per_s", "homophilic"),
    "fedsim.client_round_ms_tail": ("ms", "lower", "steps_per_s", "homophilic"),
    "fedsim.round_ms_p50": ("ms", "lower", "steps_per_s", "homophilic"),
    "fedsim.round_ms_tail": ("ms", "lower", "steps_per_s", "homophilic"),
    "fedsim.server_s": ("s", "lower", "steps_per_s", "homophilic"),
    "fedsim.parallel_efficiency": ("ratio", "higher", "steps_per_s", "homophilic"),
    "numerics.l2_normalize_calls": ("count", "lower", "steps_per_s", "homophilic"),
    "numerics.svd_calls": ("count", "lower", "steps_per_s", "homophilic"),
    "cli.evaluate_s": ("s", "lower", "run_s", "homophilic, large-graph"),
    "cli.artifacts_s": ("s", "lower", "run_s", "homophilic, large-graph"),
    "cli.artifact_bytes": ("bytes", "lower", "run_s", "homophilic, large-graph"),
}
PER_LAYER_UNITS = {name: row[0] for name, row in PER_LAYER.items()}
