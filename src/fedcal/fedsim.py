"""Federated round loop: broadcast, local training, reports, refinement.

Each round the server broadcasts the current anchors and templates;
every client recomputes its calibration rotation and template matching,
freezes them, runs a few full-batch gradient epochs on the combined
objective, and uploads manifold statistics only (calibrated class
means, per-class losses, radial sequences, the matching matrix, scalar
metrics). The server then refines the anchors and templates behind a
barrier. Models are fully personalized: no parameter averaging happens
anywhere, the only thing exchanged is manifold statistics.

Every random draw flows through a generator seeded by (config seed,
purpose tag, client id, round), so histories are bitwise reproducible
no matter how many worker threads execute the clients.
"""

from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .graph import (
    Graph,
    HopAggregator,
    generate_sbm,
    load_graph,
    partition_nonoverlapping,
    partition_overlapping,
    split_masks,
)
from .model import ModelParams, forward, init_params, lr_schedule, sgd_step, total_loss
from .refine import (
    RefineConfig,
    config_key,
    key_of,
    SemanticReport,
    StructuralReport,
    gram_drift,
    refine_all_anchors,
    template_objective,
    update_template,
)
from .semantic import (
    class_means,
    construct_etf,
    procrustes,
    semantic_per_class_loss,
)
from .structural import (
    init_templates,
    radial_sequences_from_rings,
    sample_structural_batch,
    sinkhorn_match,
)

__all__ = [
    "DatasetSpec",
    "FederationConfig",
    "ClientState",
    "RoundRecord",
    "HistoryRow",
    "FederationResult",
    "FederationError",
    "build_dataset",
    "setup_federation",
    "run_client_round",
    "run_federation",
    "evaluate",
    "export_history",
    "import_history",
    "records_to_rows",
    "export_embeddings",
]

# fixed sub-stream tags so seeds never collide across purposes
_TAG_DATA, _TAG_SPLIT, _TAG_PART, _TAG_TEMPL, _TAG_ANCH = 101, 102, 103, 104, 105
_TAG_INIT, _TAG_BATCH = 300, 301


class FederationError(RuntimeError):
    pass


@dataclass
class DatasetSpec:
    """Where the root graph comes from: a seeded generator or three files."""

    kind: str = config_key("dataset.kind", "synthetic")      # "synthetic" | "files"
    nodes: int = config_key("dataset.nodes", 600)
    p_in: float = config_key("dataset.p_in", 0.1)
    p_out: float = config_key("dataset.p_out", 0.01)
    feat_dim: int = config_key("dataset.feat_dim", 16)
    feat_sep: float = config_key("dataset.feat_sep", 1.0)
    edges_path: str = config_key("dataset.edges", None)
    features_path: str = config_key("dataset.features", None)
    labels_path: str = config_key("dataset.labels", None)
    train_ratio: float = config_key("split.train", 0.2)
    val_ratio: float = config_key("split.val", 0.4)
    test_ratio: float = config_key("split.test", 0.4)

    def __post_init__(self):
        if self.kind not in ("synthetic", "files"):
            raise ValueError(f"dataset.kind must be synthetic or files, got {self.kind!r}")
        if self.kind == "files":
            missing = [key_of(self, name) for name in ("edges_path", "features_path",
                                                       "labels_path")
                       if getattr(self, name) is None]
            if missing:
                raise ValueError(f"dataset.kind = files needs {', '.join(missing)}")
        else:
            # (lower, upper) per generator setting; NaN fails every comparison
            for name, lo, hi in (("nodes", 1, np.inf), ("feat_dim", 1, np.inf),
                                 ("p_in", 0.0, 1.0), ("p_out", 0.0, 1.0),
                                 ("feat_sep", 0.0, np.inf)):
                value = getattr(self, name)
                if not (lo <= value <= hi and np.isfinite(value)):
                    raise ValueError(f"{key_of(self, name)} must be finite and in "
                                     f"[{lo}, {hi}], got {value}")
        # a zero ratio seats no node, and every round reads all three splits
        ratios = (self.train_ratio, self.val_ratio, self.test_ratio)
        if not all(r > 0 for r in ratios) or not sum(ratios) <= 1.0 + 1e-12:
            raise ValueError(f"split.train, split.val and split.test must be positive "
                             f"ratios summing to at most 1, got {ratios}")


@dataclass
class FederationConfig:
    num_clients: int = config_key("federation.clients", 5)
    rounds: int = config_key("federation.rounds", 60)
    local_epochs: int = config_key("federation.local_epochs", 3)
    embed_dim: int = config_key("federation.embed_dim", 8)
    num_classes: int = config_key("federation.classes", 2)
    batch_nodes: int = config_key("federation.batch_nodes", 64)  # sampled per client per round
    num_templates: int = config_key("federation.templates", 4)
    lr0: float = config_key("train.lr0", 0.05)
    lr_decay_steps: float = config_key("train.lr_decay_steps", 200.0)
    sinkhorn_epsilon: float = config_key("sinkhorn.epsilon", 0.05)
    sinkhorn_iters: int = config_key("sinkhorn.max_iters", 500)
    sinkhorn_tol: float = config_key("sinkhorn.tol", 1e-6)
    refine: RefineConfig = field(default_factory=RefineConfig)
    seed: int = config_key("federation.seed", 0)
    partition_mode: str = config_key("partition.mode", "non-overlapping")
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    task_metric: str = config_key("federation.metric", "accuracy")   # "accuracy" | "auc"
    semantic_enabled: bool = True
    structural_enabled: bool = True
    refine_enabled: bool = True

    def __post_init__(self):
        for name in ("num_clients", "local_epochs", "embed_dim", "batch_nodes",
                     "num_templates", "sinkhorn_iters"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{key_of(self, name)} must be >= 1, got {value}")
        for name in ("lr0", "lr_decay_steps", "sinkhorn_epsilon", "sinkhorn_tol"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{key_of(self, name)} must be > 0, got {value}")
        if not np.isfinite(self.lr0):
            raise ValueError(f"train.lr0 must be finite, got {self.lr0}")
        if self.num_classes < 2:
            raise ValueError(f"federation.classes must be >= 2, got {self.num_classes}")
        for name in ("rounds", "seed"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{key_of(self, name)} must be >= 0, got {value}")
        if self.embed_dim < self.num_classes:
            raise ValueError(f"federation.embed_dim must be >= federation.classes, "
                             f"got {self.embed_dim} < {self.num_classes}")
        if self.task_metric not in ("accuracy", "auc"):
            raise ValueError(f"federation.metric must be accuracy or auc, "
                             f"got {self.task_metric!r}")
        if self.task_metric == "auc" and self.num_classes != 2:
            raise ValueError(f"federation.metric = auc needs federation.classes = 2, "
                             f"got {self.num_classes}")
        if self.partition_mode not in ("non-overlapping", "overlapping"):
            raise ValueError(f"partition.mode must be non-overlapping or overlapping, "
                             f"got {self.partition_mode!r}")
        overlapping = self.partition_mode == "overlapping"
        if overlapping and self.num_clients > 1 and self.num_clients % 5:
            raise ValueError(f"partition.mode = overlapping needs federation.clients = 1 "
                             f"or a multiple of 5, got {self.num_clients}")
        parts = self.num_clients // 5 if overlapping else self.num_clients
        if self.dataset.kind == "synthetic" and self.dataset.nodes < parts:
            raise ValueError(f"dataset.nodes must be >= {parts}, got {self.dataset.nodes}")
        # mean-scaled costs are at most B * Q, so this bounds every -cost / epsilon
        bound = self.batch_nodes * self.num_templates / self.sinkhorn_epsilon
        if self.structural_enabled and bound == np.inf:
            raise ValueError(f"sinkhorn.epsilon = {self.sinkhorn_epsilon!r} overflows "
                             f"federation.batch_nodes * federation.templates / epsilon")


@dataclass
class ClientState:
    """Everything one client owns; never visible to other clients."""

    client_id: int
    graph: Graph
    agg: HopAggregator
    params: ModelParams
    rotation: np.ndarray = None         # (d, d) calibration of the last round


@dataclass
class RoundRecord:
    round_idx: int
    ce: list
    sem: list
    stru: list
    val: list
    test: list
    drift: float
    gw_objectives: list

    @property
    def gw_objective_mean(self) -> float:
        return float(np.mean(self.gw_objectives)) if self.gw_objectives else 0.0

    @property
    def mean_test(self) -> float:
        return float(np.mean(self.test))


@dataclass
class HistoryRow:
    """One CSV line of the run history (per round, per client).

    The fields, in order, are the CSV's columns: ints written as they
    are, floats as shortest round-trip reprs.
    """

    round: int
    client_id: int
    ce_loss: float
    sem_loss: float
    str_loss: float
    val_metric: float
    test_metric: float
    anchor_gram_drift: float
    gw_objective_mean: float


@dataclass
class FederationResult:
    records: list
    clients: list
    anchors: np.ndarray                 # (d, C)
    templates: np.ndarray               # (Q, 2, d)
    sinkhorn_calls: int = 0             # client-rounds that ran a Sinkhorn matching
    sinkhorn_unconverged: int = 0       # of those, the ones stopped at max_iters


def build_dataset(cfg: FederationConfig) -> Graph:
    """Root graph with stratified masks, derived deterministically from cfg."""
    spec = cfg.dataset
    if spec.kind == "synthetic":
        g = generate_sbm(
            spec.nodes, cfg.num_classes, spec.p_in, spec.p_out,
            spec.feat_dim, spec.feat_sep, seed=(cfg.seed, _TAG_DATA),
        )
    else:
        g = load_graph(
            spec.edges_path, spec.features_path, spec.labels_path,
            num_classes=cfg.num_classes,
        )
    return split_masks(g, ratios=(spec.train_ratio, spec.val_ratio, spec.test_ratio),
                       seed=(cfg.seed, _TAG_SPLIT))


def setup_federation(cfg: FederationConfig):
    """(clients, anchors, templates, root graph) at round zero."""
    g = build_dataset(cfg)
    if cfg.num_clients == 1:
        parts = [g]
    elif cfg.partition_mode == "non-overlapping":
        parts = partition_nonoverlapping(g, cfg.num_clients, seed=(cfg.seed, _TAG_PART))
    else:
        parts = partition_overlapping(g, cfg.num_clients, seed=(cfg.seed, _TAG_PART))
    _check_client_splits(cfg, g, parts)
    clients = []
    for i, part in enumerate(parts):
        params = init_params(
            part.feat_dim, cfg.embed_dim, cfg.num_classes,
            seed=(cfg.seed, _TAG_INIT, i),
        )
        clients.append(ClientState(i, part, HopAggregator(part), params))
    anchors = construct_etf(cfg.num_classes, cfg.embed_dim, seed=(cfg.seed, _TAG_ANCH))
    templates = init_templates(cfg.num_templates, cfg.embed_dim,
                               seed=(cfg.seed, _TAG_TEMPL))
    return clients, anchors, templates, g


def _check_client_splits(cfg: FederationConfig, g: Graph, parts):
    """Reject, before any round, a client whose loss or metrics cannot be taken.

    Every round reads each client's labeled train nodes (class means),
    val and test nodes (metrics); auc also needs both classes in val and test.
    """
    size = (f"dataset.nodes = {cfg.dataset.nodes}" if cfg.dataset.kind == "synthetic"
            else f"the graph's {g.num_nodes} nodes")
    for i, part in enumerate(parts):
        for split, mask in (("train", part.train_mask), ("val", part.val_mask),
                            ("test", part.test_mask)):
            y = part.labels[mask & (part.labels >= 0)]
            if len(y) == 0:
                fault = "no labeled node"
            elif cfg.task_metric == "auc" and split != "train" and len(np.unique(y)) < 2:
                fault = "a single class, so federation.metric = auc is undefined"
            else:
                continue
            raise ValueError(f"client {i}'s {split} split holds {fault}: {size} is too "
                             f"small for federation.clients = {cfg.num_clients}")


@dataclass
class ClientRoundResult:
    params: ModelParams
    rotation: np.ndarray
    semantic_report: SemanticReport
    structural_report: StructuralReport    # None when the structural term is off
    ce: float
    sem: float
    stru: float
    val_metric: float
    test_metric: float
    epoch_losses: list


def run_client_round(state: ClientState, anchors: np.ndarray,
                     templates: np.ndarray, cfg: FederationConfig,
                     round_idx: int) -> ClientRoundResult:
    """One client's full round; pure in state, safe to run concurrently."""
    g = state.graph
    params = state.params

    batch = None
    if cfg.structural_enabled:
        batch = sample_structural_batch(
            g, cfg.batch_nodes, seed=(cfg.seed, _TAG_BATCH, state.client_id, round_idx)
        )
    train = np.flatnonzero(g.train_mask)        # the losses read rings on train and batch
    local = state.agg.restrict(train if batch is None else np.union1d(train, batch))

    cache = forward(params, g, local)
    p, present = class_means(cache.ego, g.labels, g.train_mask, cfg.num_classes)
    rotation = procrustes(p, present, anchors)

    matching = None
    if cfg.structural_enabled:
        radials = radial_sequences_from_rings(cache.hop1, cache.hop2, batch)
        matching = sinkhorn_match(
            radials, templates, epsilon=cfg.sinkhorn_epsilon,
            max_iters=cfg.sinkhorn_iters, tol=cfg.sinkhorn_tol,
        )

    loss_anchors = anchors if cfg.semantic_enabled else None
    loss_templates = templates if cfg.structural_enabled else None
    epoch_losses = []
    for epoch in range(cfg.local_epochs):
        t = round_idx * cfg.local_epochs + epoch
        total, _, grads = total_loss(
            params, g, loss_anchors, rotation, loss_templates, matching, batch, local
        )
        epoch_losses.append(total)
        params = sgd_step(params, grads, lr_schedule(t, cfg.lr0, cfg.lr_decay_steps))

    final_cache = forward(params, g, state.agg)
    final_total, (ce, sem, stru), _ = total_loss(
        params, g, loss_anchors, rotation, loss_templates, matching, batch, local
    )
    epoch_losses.append(final_total)

    final_p, final_present = class_means(final_cache.ego, g.labels, g.train_mask,
                                         cfg.num_classes)
    k = rotation @ final_p
    k[:, ~final_present] = 0.0
    per_class = semantic_per_class_loss(
        final_cache.ego, g.labels, g.train_mask, rotation, anchors
    )
    semantic_report = SemanticReport(
        k=k, present_mask=final_present, per_class_loss=per_class
    )
    structural_report = None
    if cfg.structural_enabled:
        final_radials = radial_sequences_from_rings(
            final_cache.hop1, final_cache.hop2, batch
        )
        structural_report = StructuralReport(radials=final_radials, matching=matching)

    val = _metric_from_logits(final_cache.logits, g, "val", cfg.task_metric)
    test = _metric_from_logits(final_cache.logits, g, "test", cfg.task_metric)
    return ClientRoundResult(
        params=params, rotation=rotation,
        semantic_report=semantic_report, structural_report=structural_report,
        ce=ce, sem=sem, stru=stru, val_metric=val, test_metric=test,
        epoch_losses=epoch_losses,
    )


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based float64 ranks of x, each run of equal values given its mean rank.

    The ranks are exact halves, so they equal SciPy's average-method ranks
    bit for bit; as there, any NaN makes every rank NaN.
    """
    order = np.argsort(x)
    xs = x[order]
    if xs[-1] != xs[-1]:                         # NaN sorts last
        return np.full(len(x), np.nan)
    start = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    end = np.r_[start[1:], len(xs)]
    ranks = np.empty(len(x))
    ranks[order] = np.repeat((start + 1 + end) / 2.0, end - start)
    return ranks


def _metric_from_logits(logits, g: Graph, split: str, metric: str) -> float:
    """Accuracy or AUC of the logits on the split's labelled nodes.

    AUC is the Mann-Whitney statistic of the positive-class probability,
    computed from its average ranks (``_average_ranks``).
    """
    mask = g.val_mask if split == "val" else g.test_mask
    idx = np.nonzero(mask & (g.labels >= 0))[0]
    if len(idx) == 0:
        raise RuntimeError(f"{split} split is empty")
    y = g.labels[idx]
    if metric == "accuracy":
        pred = logits[idx].argmax(axis=1)
        return float((pred == y).mean())
    if metric == "auc":
        if logits.shape[1] != 2:
            raise RuntimeError("auc needs a binary task")
        pos = y == 1
        n_pos = int(pos.sum())
        n_neg = len(y) - n_pos
        if n_pos == 0 or n_neg == 0:
            raise RuntimeError(f"{split} split holds a single class; auc undefined")
        z = logits[idx]
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        p1 = e[:, 1] / e.sum(axis=1)
        ranks = _average_ranks(p1)
        return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
    raise ValueError(f"unknown metric {metric!r}")


def evaluate(state: ClientState, split: str, metric: str = "accuracy") -> float:
    """Validation or test metric of one client's current model."""
    if split not in ("val", "test"):
        raise ValueError(f"split must be 'val' or 'test', got {split!r}")
    cache = forward(state.params, state.graph, state.agg)
    return _metric_from_logits(cache.logits, state.graph, split, metric)


def run_federation(cfg: FederationConfig, threads: int = 1) -> FederationResult:
    """Full federated run; deterministic for a seed at any thread count."""
    workers = min(threads, cfg.num_clients)
    if workers <= 1:
        return _run_rounds(cfg, map)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return _run_rounds(cfg, pool.map)


def _run_rounds(cfg: FederationConfig, map_clients) -> FederationResult:
    clients, anchors, templates, _ = setup_federation(cfg)
    records = []
    unconverged = 0
    for round_idx in range(cfg.rounds):
        def one(state):
            try:
                return run_client_round(state, anchors, templates, cfg, round_idx)
            except Exception as exc:
                raise FederationError(
                    f"client {state.client_id} failed at round {round_idx}: {exc}"
                ) from exc

        results = list(map_clients(one, clients))

        for state, res in zip(clients, results):
            state.params = res.params
            state.rotation = res.rotation

        sem_reports = [r.semantic_report for r in results]
        str_reports = [r.structural_report for r in results]
        unconverged += sum(not r.matching.converged for r in str_reports if r is not None)

        if cfg.refine_enabled:
            anchors, drift = refine_all_anchors(anchors, sem_reports, cfg.refine)
        else:
            drift = gram_drift(anchors)

        gw_objectives = []
        if cfg.structural_enabled:
            if cfg.refine_enabled:
                templates = np.stack([update_template(q, str_reports, templates)
                                      for q in range(cfg.num_templates)])
            gw_objectives = [template_objective(str_reports, q, templates[q])
                             for q in range(cfg.num_templates)]

        records.append(RoundRecord(
            round_idx=round_idx,
            ce=[r.ce for r in results],
            sem=[r.sem for r in results],
            stru=[r.stru for r in results],
            val=[r.val_metric for r in results],
            test=[r.test_metric for r in results],
            drift=drift,
            gw_objectives=gw_objectives,
        ))
    calls = cfg.rounds * len(clients) if cfg.structural_enabled else 0
    return FederationResult(records=records, clients=clients,
                            anchors=anchors, templates=templates,
                            sinkhorn_calls=calls, sinkhorn_unconverged=unconverged)


_HISTORY_COLUMNS = [f.name for f in fields(HistoryRow)]


def records_to_rows(records) -> list:
    rows = []
    for rec in records:
        for cid in range(len(rec.ce)):
            rows.append(HistoryRow(
                round=rec.round_idx,
                client_id=cid,
                ce_loss=float(rec.ce[cid]),
                sem_loss=float(rec.sem[cid]),
                str_loss=float(rec.stru[cid]),
                val_metric=float(rec.val[cid]),
                test_metric=float(rec.test[cid]),
                anchor_gram_drift=float(rec.drift),
                gw_objective_mean=rec.gw_objective_mean,
            ))
    return rows


def export_history(records, path):
    """Write the run history CSV (floats as shortest round-trip reprs)."""
    rows = records_to_rows(records)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_HISTORY_COLUMNS)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in astuple(row)])


def import_history(path) -> list:
    """Parse a history CSV back into HistoryRow values (bit-exact floats).

    A missing or wrong header, a row with the wrong field count and an
    unparsable field each raise ValueError naming path:line.
    """
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}:1: empty file, expected a history header")
        if header != _HISTORY_COLUMNS:
            raise ValueError(f"{path}:1: unexpected history header {header}")
        for parts in reader:
            where = f"{path}:{reader.line_num}"
            if len(parts) != len(_HISTORY_COLUMNS):
                raise ValueError(f"{where}: expected {len(_HISTORY_COLUMNS)} fields, "
                                 f"got {len(parts)}")
            try:
                rows.append(HistoryRow(*(int(p) if f.type in (int, "int") else float(p)
                                         for f, p in zip(fields(HistoryRow), parts))))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
    return rows


def export_embeddings(state: ClientState, path):
    """CSV of calibrated ego-embeddings: node id, label, then d columns."""
    cache = forward(state.params, state.graph, state.agg)
    r = state.rotation if state.rotation is not None else np.eye(cache.ego.shape[1])
    calibrated = cache.ego @ r.T
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["node_id", "label"] + [f"e_{j}" for j in range(calibrated.shape[1])]
        )
        for i in range(state.graph.num_nodes):
            writer.writerow(
                [int(state.graph.node_ids[i]), int(state.graph.labels[i])]
                + [repr(float(x)) for x in calibrated[i]]
            )
