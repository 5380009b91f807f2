"""Federated round loop: broadcast, local training, reports, refinement.

Each round the server broadcasts the current anchors and templates;
every client recomputes its calibration rotation and template matching,
freezes them and runs a few full-batch gradient epochs on the combined
objective. Its round ends in four parts (``ClientRoundResult``): the
params and rotation it keeps, the upload, scalar metrics, and whether its
matching converged. The upload is manifold statistics only, as two tuples
of plain arrays: calibrated class means with per-class losses, and
radial sequences with their assignment matrix. The metrics go to the
history and the convergence flag to the console tally; the server reads
neither. Behind a barrier, ``server_step`` stacks the round's uploads
position by position into two pools (``semantic_pool``,
``structural_pool``) once and refines the anchors and templates from
those arrays alone.
Models are fully personalized: no parameter averaging happens anywhere,
the only thing exchanged is manifold statistics.

Every random draw flows through a generator seeded by (config seed,
purpose tag, client id, round), bar the template index q alone seeding
``refine.update_template``'s axis for coincident mean rows. The clients
of a round run one after another in client-id order, in the calling
thread, so histories are bitwise reproducible.
"""

from __future__ import annotations

import csv
import os
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .graph import (
    Graph,
    HopAggregator,
    generate_sbm,
    load_graph,
    partition_nonoverlapping,
    partition_overlapping,
    read_text,
    split_masks,
)
from .model import ModelParams, forward, init_params, lr_schedule, sgd_step, total_loss
from .refine import (
    construct_etf,
    gram_drift,
    init_templates,
    intra_distances,
    refine_all_anchors,
    template_objective,
    update_template,
)
from .semantic import (
    class_means,
    procrustes,
    semantic_per_class_loss,
)
from .structural import radial_sequences_from_rings, sinkhorn_match

__all__ = [
    "FederationConfig",
    "ClientState",
    "HistoryRow",
    "FederationResult",
    "FederationError",
    "kind_fields",
    "build_dataset",
    "setup_federation",
    "sample_structural_batch",
    "run_client_round",
    "semantic_pool",
    "structural_pool",
    "server_step",
    "run_federation",
    "evaluate",
    "export_history",
    "import_history",
    "export_embeddings",
]

# fixed sub-stream tags so seeds never collide across purposes
_TAG_DATA, _TAG_SPLIT, _TAG_PART, _TAG_TEMPL, _TAG_ANCH = 101, 102, 103, 104, 105
_TAG_INIT, _TAG_BATCH = 300, 301


class FederationError(RuntimeError):
    pass


# Each FederationConfig field that a config key sets declares the key, its
# check and the dataset kind it belongs to, so the CLI's schema, its
# key-to-field mapping and every single-key check are read from the field.
def config_key(key: str, default, rule=None, only=None):
    """A dataclass field that the config key ``key`` sets, ``default`` when unset.

    ``rule`` is the ``(test, wording)`` pair every value must pass. ``only``
    names the one ``dataset.kind`` that reads the key: its rule is checked
    under that kind alone. The dataset paths declare ``only="files"`` and no
    rule, for they are checked as a group.
    """
    return field(default=default, metadata={"key": key, "rule": rule, "only": only})


def kind_fields(kind: str) -> list:
    """The FederationConfig fields read only under ``dataset.kind = kind``."""
    return [f for f in fields(FederationConfig) if f.metadata.get("only") == kind]


_INTP_MAX = int(np.iinfo(np.intp).max)       # the largest array dimension numpy takes

# The rules that several keys share. The tests only compare, so NaN fails
# each one and an int beyond int64 is compared exactly.
_AT_LEAST_1 = (lambda v: v >= 1, ">= 1")
_AT_LEAST_0 = (lambda v: v >= 0, ">= 0")
_DIMENSION = (lambda v: 1 <= v <= _INTP_MAX, f"in [1, {_INTP_MAX}]")
_PROBABILITY = (lambda v: 0 <= v <= 1, "in [0, 1]")


# what a field annotated int or float takes, and what its error calls it
_NUMBER_TYPES = {"int": ((int, np.integer), "an integer"),
                 "float": ((int, float, np.integer, np.floating), "a number")}


def _one_of(*choices):
    return (lambda v: v in choices, " or ".join(choices))


def _accuracy(logits, y, split: str) -> float:
    """Share of the rows whose largest logit is at their label."""
    return float((logits.argmax(axis=1) == y).mean())


def _auc(logits, y, split: str) -> float:
    """Mann-Whitney U / (n_pos * n_neg) of the positive-class probability
    p1, from exact pair counts: each positive scores 2 per lower and 1 per
    tied negative, so the integer total is 2U. NaN gives NaN."""
    if logits.shape[1] != 2:
        raise RuntimeError("auc needs a binary task")
    pos = y == 1
    n_pos = int(pos.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise RuntimeError(f"{split} split holds a single class; auc undefined")
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    p1 = e[:, 1] / e.sum(axis=1)
    if np.isnan(p1).any():
        return float("nan")
    neg = np.sort(p1[~pos])
    wins = (np.searchsorted(neg, p1[pos], "left")
            + np.searchsorted(neg, p1[pos], "right"))
    return float(wins.sum() / (2 * n_pos * n_neg))


# every task metric by its federation.metric name: the scorer of a split's
# logits and labels
_METRICS = {"accuracy": _accuracy, "auc": _auc}


@dataclass
class FederationConfig:
    """One run's settings: each field but the three ``*_enabled`` flags,
    which ``--ablate`` clears, is set by the config key in its metadata."""

    num_clients: int = config_key("federation.clients", 5, _AT_LEAST_1)
    rounds: int = config_key("federation.rounds", 60, _AT_LEAST_0)
    local_epochs: int = config_key("federation.local_epochs", 3, _AT_LEAST_1)
    embed_dim: int = config_key("federation.embed_dim", 8, _DIMENSION)
    num_classes: int = config_key("federation.classes", 2, (lambda v: v >= 2, ">= 2"))
    # nodes sampled per client per round
    batch_nodes: int = config_key("federation.batch_nodes", 64, _DIMENSION)
    num_templates: int = config_key("federation.templates", 4, _DIMENSION)
    lr0: float = config_key("train.lr0", 0.05, (lambda v: 0 < v < np.inf, "finite and > 0"))
    lr_decay_steps: float = config_key("train.lr_decay_steps", 200.0, (lambda v: v > 0, "> 0"))
    seed: int = config_key("federation.seed", 0, _AT_LEAST_0)
    partition_mode: str = config_key("partition.mode", "non-overlapping",
                                     _one_of("non-overlapping", "overlapping"))
    task_metric: str = config_key("federation.metric", "accuracy", _one_of(*_METRICS))
    # where the root graph comes from: a seeded generator or three files
    dataset_kind: str = config_key("dataset.kind", "synthetic", _one_of("synthetic", "files"))
    nodes: int = config_key("dataset.nodes", 600, _DIMENSION, only="synthetic")
    p_in: float = config_key("dataset.p_in", 0.1, _PROBABILITY, only="synthetic")
    p_out: float = config_key("dataset.p_out", 0.01, _PROBABILITY, only="synthetic")
    feat_dim: int = config_key("dataset.feat_dim", 16, _DIMENSION, only="synthetic")
    feat_sep: float = config_key("dataset.feat_sep", 1.0,
                                 (lambda v: 0 <= v < np.inf, "finite and >= 0"),
                                 only="synthetic")
    edges_path: str = config_key("dataset.edges", None, only="files")
    features_path: str = config_key("dataset.features", None, only="files")
    labels_path: str = config_key("dataset.labels", None, only="files")
    semantic_enabled: bool = True
    structural_enabled: bool = True
    refine_enabled: bool = True

    def __post_init__(self):
        synthetic = self.dataset_kind == "synthetic"
        for f in fields(self):
            rule, value = f.metadata.get("rule"), getattr(self, f.name)
            if f.metadata.get("only") not in (None, self.dataset_kind):
                continue
            # f.type is the annotation's text; a bool is an int to isinstance
            if f.type in _NUMBER_TYPES:
                types, noun = _NUMBER_TYPES[f.type]
                if isinstance(value, bool) or not isinstance(value, types):
                    raise ValueError(f"{f.metadata['key']} must be {noun}, got {value!r}")
            if rule and not rule[0](value):
                raise ValueError(f"{f.metadata['key']} must be {rule[1]}, got {value!r}")
        paths = {f.metadata["key"]: getattr(self, f.name) for f in kind_fields("files")}
        given = [key for key, path in paths.items() if path is not None]
        if synthetic and given:
            raise ValueError(f"{given[0]} is read only under dataset.kind = files, "
                             f"not synthetic")
        missing = [key for key, path in paths.items() if path is None]
        if not synthetic and missing:
            raise ValueError(f"dataset.kind = files needs {', '.join(missing)}")
        if self.embed_dim < self.num_classes:
            raise ValueError(f"federation.embed_dim must be >= federation.classes, "
                             f"got {self.embed_dim} < {self.num_classes}")
        if self.task_metric == "auc" and self.num_classes != 2:
            raise ValueError(f"federation.metric = auc needs federation.classes = 2, "
                             f"got {self.num_classes}")
        overlapping = self.partition_mode == "overlapping"
        if overlapping and self.num_clients % 5:
            raise ValueError(f"partition.mode = overlapping needs federation.clients to be "
                             f"a multiple of 5, got {self.num_clients}")
        parts = self.num_clients // 5 if overlapping else self.num_clients
        if synthetic and self.nodes < parts:
            raise ValueError(f"dataset.nodes must be >= {parts}, got {self.nodes}")
        # the rate only falls, so the last step's must still be > 0; no run
        # reaches step _INTP_MAX, and a step past float range would overflow
        last = self.rounds * self.local_epochs - 1
        if last >= 0 and not lr_schedule(min(last, _INTP_MAX), float(self.lr0),
                                         float(self.lr_decay_steps)) > 0:
            raise ValueError(f"train.lr0 = {self.lr0!r} and train.lr_decay_steps = "
                             f"{self.lr_decay_steps!r} give a learning rate of 0 by step {last}")


@dataclass
class ClientState:
    """Everything one client owns; never visible to other clients."""

    client_id: int
    graph: Graph
    agg: HopAggregator
    params: ModelParams
    rotation: np.ndarray                # (d, d) last round's calibration, identity at setup


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
    """A finished run: its history, the clients' final state, the final
    global manifolds and the Sinkhorn tally. Both counts are read from the
    client rounds' ``ClientRoundResult.converged``, so a run without the
    structural term counts 0 of 0."""

    records: list                       # HistoryRow per client per round, as in history.csv
    clients: list
    anchors: np.ndarray                 # (d, C)
    templates: np.ndarray               # (Q, 2, d)
    sinkhorn_calls: int = 0             # client-rounds that ran a Sinkhorn matching
    sinkhorn_unconverged: int = 0       # of those, the ones stopped at the iteration cap


def build_dataset(cfg: FederationConfig) -> Graph:
    """Root graph with stratified masks, derived deterministically from cfg.

    A dataset file that is missing or not a regular file raises ValueError
    naming its key before any file is read.
    """
    if cfg.dataset_kind == "synthetic":
        g = generate_sbm(
            cfg.nodes, cfg.num_classes, cfg.p_in, cfg.p_out,
            cfg.feat_dim, cfg.feat_sep, seed=(cfg.seed, _TAG_DATA),
        )
    else:
        for f in kind_fields("files"):
            path = getattr(cfg, f.name)
            if not os.path.isfile(path):
                raise ValueError(f"{f.metadata['key']} = {path}: no such regular file")
        g = load_graph(
            cfg.edges_path, cfg.features_path, cfg.labels_path,
            num_classes=cfg.num_classes,
        )
    return split_masks(g, seed=(cfg.seed, _TAG_SPLIT))


def setup_federation(cfg: FederationConfig):
    """(clients, anchors, templates, root graph) at round zero."""
    g = build_dataset(cfg)
    if cfg.partition_mode == "non-overlapping":
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
        clients.append(ClientState(i, part, HopAggregator(part), params,
                                   np.eye(cfg.embed_dim)))
    anchors = construct_etf(cfg.num_classes, cfg.embed_dim, seed=(cfg.seed, _TAG_ANCH))
    templates = init_templates(cfg.num_templates, cfg.embed_dim,
                               seed=(cfg.seed, _TAG_TEMPL))
    return clients, anchors, templates, g


def _check_client_splits(cfg: FederationConfig, g: Graph, parts):
    """Reject, before any round, a client whose loss or metrics cannot be taken.

    Every round reads each client's labeled train nodes (class means),
    val and test nodes (metrics); auc also needs both classes in val and test.
    """
    size = (f"dataset.nodes = {cfg.nodes}" if cfg.dataset_kind == "synthetic"
            else f"the graph's {g.num_nodes} nodes")
    for i, part in enumerate(parts):
        for split, mask in (("train", part.train_mask), ("val", part.val_mask),
                            ("test", part.test_mask)):
            y = part.labels[mask]
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
    """One client's round in four parts, split by who may read them.

    ``upload`` is all the server reads: ``((k, present, per_class_loss),
    (radials, f))``, the second tuple ``None`` when the structural term is
    off. Each is a plain array, float64 unless noted:

    - ``k`` (d, C): column c is rotation @ the class-c mean, zero if absent;
    - ``present`` (C,) bool: the classes among the client's train labels;
    - ``per_class_loss`` (C,): mean anchor loss per class, zero if absent;
    - ``radials`` (B, 2, d): the batch's radial sequences, from the
      closing forward;
    - ``f`` (B, Q): the matching that the round's losses read;

    where B = min(batch_nodes, client nodes).
    """

    local: tuple        # (params, rotation): written back into the ClientState
    upload: tuple       # the arrays above
    metrics: tuple      # (ce, sem, stru, val_metric, test_metric) floats, in HistoryRow order
    converged: bool | None  # the matching's, for the console tally; None if none ran


def sample_structural_batch(g: Graph, batch_size: int, seed) -> np.ndarray:
    """Uniform sample of batch_size nodes without replacement (all if fewer)."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    rng = np.random.default_rng(seed)
    size = min(batch_size, g.num_nodes)
    return rng.choice(g.num_nodes, size=size, replace=False)


def run_client_round(state: ClientState, anchors: np.ndarray,
                     templates: np.ndarray, cfg: FederationConfig,
                     round_idx: int) -> ClientRoundResult:
    """One client's full round. It leaves ``state`` as it found it, bar
    ``HopAggregator.restrict``'s cache of the client aggregator's last
    restriction (``state.agg._last``), its one write.

    Only ``upload`` leaves the client for the server (``server_step``);
    ``local`` stays with the client, ``metrics`` goes to the history and
    ``converged`` to the run's Sinkhorn tally.
    """
    g = state.graph
    params = state.params

    batch = None
    if cfg.structural_enabled:
        batch = sample_structural_batch(
            g, cfg.batch_nodes, seed=(cfg.seed, _TAG_BATCH, state.client_id, round_idx)
        )
    train = np.flatnonzero(g.train_mask)        # the losses read rings on train and batch
    labels = g.labels[train]
    local = state.agg.restrict(train if batch is None else np.union1d(train, batch))

    cache = forward(params, g, local)
    p, present = class_means(cache.ego[train], labels, cfg.num_classes)
    rotation = procrustes(p, present, anchors)

    semantic = (rotation, anchors) if cfg.semantic_enabled else None
    structural = converged = None
    if cfg.structural_enabled:
        radials = radial_sequences_from_rings(cache.rings[batch])
        matching = sinkhorn_match(radials, templates)
        structural = (matching.f, batch, templates)
        converged = matching.converged

    for epoch in range(cfg.local_epochs):
        t = round_idx * cfg.local_epochs + epoch
        _, _, grads = total_loss(params, g, local, forward(params, g, local), train,
                                 semantic, structural)
        params = sgd_step(params, grads, lr_schedule(t, cfg.lr0, cfg.lr_decay_steps))

    final_cache = forward(params, g, state.agg)
    _, (ce, sem, stru), _ = total_loss(params, g, local, forward(params, g, local), train,
                                       semantic, structural)

    final_ego = final_cache.ego[train]
    k = rotation @ class_means(final_ego, labels, cfg.num_classes)[0]
    k[:, ~present] = 0.0                        # the labels, so present, never change
    per_class = semantic_per_class_loss(final_ego, labels, rotation, anchors)
    structural_upload = None
    if cfg.structural_enabled:
        structural_upload = (radial_sequences_from_rings(final_cache.rings[batch]), matching.f)

    val = _metric_from_logits(final_cache.logits, g, "val", cfg.task_metric)
    test = _metric_from_logits(final_cache.logits, g, "test", cfg.task_metric)
    # float() keeps numpy scalars out, whose repr would change the CSV
    return ClientRoundResult(
        local=(params, rotation),
        upload=((k, present, per_class), structural_upload),
        metrics=tuple(float(m) for m in (ce, sem, stru, val, test)),
        converged=converged,
    )


def _metric_from_logits(logits, g: Graph, split: str, metric: str) -> float:
    """The metric named by a _METRICS key on the split's nodes, all labeled."""
    mask = g.val_mask if split == "val" else g.test_mask
    y = g.labels[mask]
    if len(y) == 0:
        raise RuntimeError(f"{split} split is empty")
    return _METRICS[metric](logits[mask], y, split)


def evaluate(state: ClientState, split: str, metric: str = "accuracy") -> float:
    """Validation or test metric of one client's current model."""
    if split not in ("val", "test"):
        raise ValueError(f"split must be 'val' or 'test', got {split!r}")
    if metric not in _METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    cache = forward(state.params, state.graph, state.agg)
    return _metric_from_logits(cache.logits, state.graph, split, metric)


def semantic_pool(uploads):
    """The clients' ``(k, present, per_class_loss)`` stacked position by
    position in client order, of shapes (R, d, C), (R, C) and (R, C) for R
    clients."""
    if not uploads:
        raise ValueError("need at least one semantic upload")
    return tuple(np.stack(arrays) for arrays in zip(*uploads))


def structural_pool(uploads):
    """The clients' ``(radials, f)`` concatenated position by position in
    client order as ``(f, alphas, rows)``, of shapes (N, Q), (N,) and
    (N, 2, d) for N radials in all."""
    rows, f = (np.concatenate(arrays) for arrays in zip(*uploads))
    return f, intra_distances(rows), rows


def server_step(anchors: np.ndarray, templates: np.ndarray, uploads, refine: bool):
    """The server's half of a round: (anchors, templates, drift, gw_mean).

    ``uploads`` holds each client's ``ClientRoundResult.upload`` in
    client-id order; besides them the server reads only the current
    anchors and templates and whether to refine them. The structural term
    ran if the uploads carry its arrays. Each half of the uploads is
    pooled once (``semantic_pool``, ``structural_pool``) and the refine
    functions read the pools. ``drift`` is the refined anchors'
    ``gram_drift`` and ``gw_mean`` the mean GW objective of the refined
    templates, 0.0 when the structural term is off.
    """
    if refine:
        anchors = refine_all_anchors(anchors, semantic_pool([sem for sem, _ in uploads]))
    drift = gram_drift(anchors)

    gw_mean = 0.0
    if uploads[0][1] is not None:
        structural = structural_pool([stru for _, stru in uploads])
        if refine:
            templates = np.stack([update_template(q, structural, templates)
                                  for q in range(len(templates))])
        gw_mean = float(np.mean([template_objective(structural, q, templates[q])
                                 for q in range(len(templates))]))
    return anchors, templates, drift, gw_mean


def run_federation(cfg: FederationConfig) -> FederationResult:
    """Full federated run, each round's clients in client-id order;
    deterministic for a seed."""
    clients, anchors, templates = setup_federation(cfg)[:3]   # no round reads the root graph
    records = []
    converged = []
    # a floating-point overflow, invalid operation or division by zero fails
    # the round it happens in, naming the client or the server
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for round_idx in range(cfg.rounds):
            results = []
            for state in clients:
                try:
                    results.append(run_client_round(state, anchors, templates, cfg, round_idx))
                except Exception as exc:
                    raise FederationError(
                        f"client {state.client_id} failed at round {round_idx}: {exc}"
                    ) from exc
                state.params, state.rotation = results[-1].local

            converged += [res.converged for res in results if res.converged is not None]
            try:
                anchors, templates, drift, gw_mean = server_step(
                    anchors, templates, [res.upload for res in results], cfg.refine_enabled)
            except Exception as exc:
                raise FederationError(f"server failed at round {round_idx}: {exc}") from exc

            records += [HistoryRow(round_idx, state.client_id, *res.metrics, drift, gw_mean)
                        for state, res in zip(clients, results)]
    return FederationResult(records=records, clients=clients,
                            anchors=anchors, templates=templates,
                            sinkhorn_calls=len(converged),
                            sinkhorn_unconverged=converged.count(False))


_HISTORY_COLUMNS = [f.name for f in fields(HistoryRow)]


def export_history(rows, path):
    """Write HistoryRow values as the run history CSV (floats as shortest
    round-trip reprs)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_HISTORY_COLUMNS)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in astuple(row)])


def import_history(path) -> list:
    """Parse a history CSV back into HistoryRow values (bit-exact floats).

    A missing or wrong header, a row with the wrong field count, an
    unparsable field and a byte that is not UTF-8 each raise ValueError
    naming path:line; a directory raises one naming path.
    """
    rows = []
    reader = csv.reader(read_text(path, newline=""))
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
    calibrated = cache.ego @ state.rotation.T
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
