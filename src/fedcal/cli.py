"""Command-line entry point.

Commands:
  gen-data   write a seeded synthetic graph as edges/features/labels files
  run        execute a federated run, writing history.csv, summary.json,
             per-client model dumps and (optionally) embedding CSVs
  eval       recompute metrics from a finished run's saved models and check
             them against its summary.json
  report     aggregate several history CSVs into a mean/std table

Configs are flat text files, one ``section.key = value`` per line, ``#``
starting a comment line. Unknown keys are rejected. Each key but output.*
is declared, with its default, on the one FederationConfig field it sets;
the README lists them all.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
from dataclasses import fields
from functools import partial
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .fedsim import (
    FederationConfig,
    FederationError,
    build_dataset,
    evaluate,
    export_embeddings,
    export_history,
    import_history,
    kind_fields,
    run_federation,
    setup_federation,
)
from .graph import data_lines, edge_homophily, parse_row, read_text, save_graph_files
from .model import ModelParams

__all__ = ["main", "parse_config_file", "build_run_config", "save_params", "load_params"]

# what --ablate may disable, in the order summary.json records them
_MECHANISMS = ("semantic", "structural", "refinement")


def _parse_bool(s: str) -> bool:
    if s.lower() in ("true", "1", "yes"):
        return True
    if s.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


# the FederationConfig fields that a config key sets
_KEYED_FIELDS = [f for f in fields(FederationConfig) if "key" in f.metadata]


def _parser(default):
    """The parser of a key whose default is ``default``; None stands for a path."""
    if default is None:
        return str
    return _parse_bool if isinstance(default, bool) else type(default)


# key -> (parser, default); None default means "no entry unless given"
_CONFIG_SCHEMA = {
    **{f.metadata["key"]: (_parser(f.default), f.default) for f in _KEYED_FIELDS},
    "output.dir": (str, "out"),
    "output.embeddings": (_parse_bool, False),
}


def parse_config_file(path) -> dict:
    """Flat ``key = value`` file -> raw string dict; unknown keys are errors."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"config file not found: {path}")
    raw = {}
    for lineno, line in data_lines(path):
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_SCHEMA:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in raw:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


class RunConfig:
    """Parsed, validated configuration for one run."""

    def __init__(self, values: dict):
        self.values = values

    def __getitem__(self, key):
        return self.values[key]

    def federation_config(self, seed=None, ablate=()) -> FederationConfig:
        settings = {f.name: self.values[f.metadata["key"]] for f in _KEYED_FIELDS}
        if seed is not None:
            settings["seed"] = int(seed)
        return FederationConfig(
            **settings,
            semantic_enabled="semantic" not in ablate,
            structural_enabled="structural" not in ablate,
            refine_enabled="refinement" not in ablate,
        )


def _cast(key: str, caster, text: str):
    try:
        return caster(text)
    except ValueError as exc:
        raise ValueError(f"bad value for {key}: {exc}")


def build_run_config(raw: dict) -> RunConfig:
    """Every key's value, from raw or its default. Under dataset.kind = files a
    generator key is rejected when given and None, so left unrecorded, when not."""
    values = {key: _cast(key, caster, raw[key]) if key in raw else default
              for key, (caster, default) in _CONFIG_SCHEMA.items()}
    if values["dataset.kind"] == "files":
        for f in kind_fields("synthetic"):
            key = f.metadata["key"]
            if key in raw:
                raise ValueError(f"{key} is read only under dataset.kind = synthetic, "
                                 f"not files")
            values[key] = None
    return RunConfig(values)


def write_resolved_config(cfg: RunConfig, path):
    """Persist every key explicitly so a run can be replayed byte-for-byte."""
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(_CONFIG_SCHEMA):
            value = cfg.values[key]
            if value is None:
                continue
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, float):
                value = repr(value)
            fh.write(f"{key} = {value}\n")


def _param_blocks(params: ModelParams):
    """(name, shape header, 2-D array) per array, in the one order a dump holds."""
    for name in ("w_ego", "w_cls", "b_cls"):
        arr = np.atleast_2d(getattr(params, name))
        yield name, f"shape {name} {arr.shape[0]} {arr.shape[1]}", arr


def save_params(params: ModelParams, path):
    """Self-describing text dump: named shapes followed by row-major values."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# fedcal-params 1\n")
        for _, header, arr in _param_blocks(params):
            fh.write(header + "\n")
            for row in arr:
                fh.write(" ".join(repr(float(x)) for x in row) + "\n")


def load_params(path, like: ModelParams) -> ModelParams:
    """Read a ``save_params`` dump of arrays shaped as ``like``'s.

    Only that layout is accepted: the magic line, then w_ego, w_cls and
    b_cls in order, each under the header ``like`` would get and followed
    by its rows of finite values, and nothing after. Anything else, a byte
    that is not UTF-8 included, raises ValueError naming path:line; a
    directory, one naming path.
    """
    lines = [ln.rstrip("\n") for ln in read_text(path)]
    if not lines or lines[0] != "# fedcal-params 1":
        raise ValueError(f"{path}:1: not a fedcal parameter dump")
    arrays, i = {}, 1                          # i indexes the next unread line
    for name, header, arr in _param_blocks(like):
        found = lines[i] if i < len(lines) else "end of file"
        if found != header:
            raise ValueError(f"{path}:{i + 1}: malformed shape header {found!r}, "
                             f"expected {header!r}")
        rows, cols = arr.shape
        block = lines[i + 1:i + 1 + rows]
        if len(block) < rows:
            raise ValueError(f"{path}:{len(lines)}: array {name} ends after "
                             f"{len(block)} of {rows} rows")
        values = []
        for lineno, text in enumerate(block, start=i + 2):
            values += parse_row(path, lineno, text, float, cols, f"array {name}")
        arrays[name] = np.array(values).reshape(getattr(like, name).shape)
        i += 1 + rows
    if i < len(lines):
        raise ValueError(f"{path}:{i + 1}: unexpected line after array b_cls")
    return ModelParams(**arrays)


def _check_dir(path, setting):
    if not (os.path.isdir(path) and os.access(path, os.W_OK | os.X_OK)):
        raise ValueError(f"{setting}: {path} is not a writable directory")


def _check_not_empty(setting, value):
    """Reject an empty path, which would otherwise mean the working directory."""
    if not value:
        raise ValueError(f"{setting} is empty, expected a path")


def _out_dir(args, cfg) -> str:
    """--out or output.dir, rejected before any work if it is empty, or unless
    it is, or its nearest existing ancestor is, a writable directory; creates
    nothing."""
    setting = "--out" if args.out is not None else "output.dir"
    out = args.out if args.out is not None else cfg["output.dir"]
    _check_not_empty(setting, out)
    path = os.path.abspath(out)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    _check_dir(path, f"{setting} = {out}")
    return out


def cmd_gen_data(args) -> int:
    cfg = build_run_config(parse_config_file(args.config))
    if cfg["dataset.kind"] != "synthetic":
        raise ValueError("gen-data needs dataset.kind = synthetic")
    fed = cfg.federation_config(seed=args.seed)
    out = _out_dir(args, cfg)
    paths = [os.path.join(out, name) for name in ("edges.txt", "features.txt", "labels.txt")]
    _check_regular_files(paths)
    g = build_dataset(fed)
    os.makedirs(out, exist_ok=True)
    _replace(paths, partial(save_graph_files, g))
    print(f"nodes={g.num_nodes} edges={g.num_edges} homophily={edge_homophily(g):.4f}")
    return 0


# the files a run writes into its output directory besides its per-client ones
_RUN_FILES = ("history.csv", "config.resolved", "summary.json")
# (subdirectory, name pattern) of the per-client files: model dumps, embeddings
_PER_CLIENT = (("models", r"client_(0|[1-9][0-9]*)\.txt"),
               ("", r"embeddings_(0|[1-9][0-9]*)\.csv"))


def _per_client_files(out) -> list:
    """Every path in out named as a run names its per-client files."""
    found = []
    for sub, pattern in _PER_CLIENT:
        folder = os.path.join(out, sub)
        if os.path.isdir(folder):
            found += [os.path.join(folder, name) for name in sorted(os.listdir(folder))
                      if re.fullmatch(pattern, name)]
    return found


def _check_regular_files(paths):
    """Reject the first of paths that exists and is not a regular file."""
    for path in paths:
        if os.path.exists(path) and not os.path.isfile(path):
            raise ValueError(f"{path}: exists and is not a regular file")


def _check_artifact_paths(out):
    """Reject an existing out whose models/ is not a directory, or where a
    run's file names hold anything but a regular file."""
    if not os.path.isdir(out):
        return
    models = os.path.join(out, "models")
    if os.path.exists(models) and not os.path.isdir(models):
        raise ValueError(f"{models}: exists and is not a directory")
    _check_regular_files([os.path.join(out, name) for name in _RUN_FILES]
                         + _per_client_files(out))


def _replace(paths, write):
    """Write paths by ``write(*tmps)`` to temporary names beside them, then
    move each over its path once all are written; the temporary files are
    gone whether or not that succeeds."""
    tmps = [os.path.join(os.path.dirname(p), f".{os.path.basename(p)}.tmp") for p in paths]
    try:
        write(*tmps)
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise


def _write_summary(summary, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_run(args) -> int:
    """Run one federation into out, which then holds that run alone.

    summary.json is removed before and written after every other artifact,
    so it is present only beside a finished run's files; per-client files
    this run does not write are deleted.
    """
    if args.threads < 1:
        raise ValueError(f"--threads must be >= 1, got {args.threads}")
    cfg = build_run_config(parse_config_file(args.config))
    ablate = tuple(m for m in _MECHANISMS if m in (args.ablate or ()))
    fed = cfg.federation_config(seed=args.seed, ablate=ablate)
    out = _out_dir(args, cfg)
    _check_artifact_paths(out)
    result = run_federation(fed)

    resolved = dict(cfg.values)
    resolved["federation.seed"] = fed.seed
    if fed.dataset_kind == "files":               # so eval reads them from any directory
        resolved.update({f.metadata["key"]: os.path.abspath(getattr(fed, f.name))
                         for f in kind_fields("files")})
    per_val = [evaluate(c, "val", fed.task_metric) for c in result.clients]
    per_test = [evaluate(c, "test", fed.task_metric) for c in result.clients]
    summary = {
        "rounds": fed.rounds,
        "clients": fed.num_clients,
        "metric": fed.task_metric,
        "ablate": list(ablate),
        "per_client_val": per_val,
        "per_client_test": per_test,
        "mean_val": float(np.mean(per_val)),
        "mean_test": float(np.mean(per_test)),
    }
    writers = {
        os.path.join(out, "history.csv"): partial(export_history, result.records),
        os.path.join(out, "config.resolved"): partial(write_resolved_config,
                                                      RunConfig(resolved)),
    }
    for client in result.clients:
        writers[os.path.join(out, "models", f"client_{client.client_id}.txt")] = partial(
            save_params, client.params)
        if cfg["output.embeddings"]:
            writers[os.path.join(out, f"embeddings_{client.client_id}.csv")] = partial(
                export_embeddings, client)

    os.makedirs(os.path.join(out, "models"), exist_ok=True)
    summary_path = os.path.join(out, "summary.json")
    if os.path.exists(summary_path):
        os.remove(summary_path)
    for path in _per_client_files(out):
        if path not in writers:
            os.remove(path)
    for path, write in writers.items():
        _replace([path], write)
    _replace([summary_path], partial(_write_summary, summary))
    print(f"run complete: mean_test={summary['mean_test']:.4f}, sinkhorn unconverged "
          f"{result.sinkhorn_unconverged}/{result.sinkhorn_calls} -> {out}")
    return 0


def _recorded_metrics(summary_path, split) -> list:
    """The per-client metrics of split that summary.json records, [] if none."""
    try:
        summary = json.load(read_text(summary_path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{summary_path}: not JSON ({exc})") from None
    recorded = summary.get(f"per_client_{split}") if isinstance(summary, dict) else None
    return recorded if isinstance(recorded, list) else []


def cmd_eval(args) -> int:
    """Recompute each client's metric from its saved model. Without --config,
    a value other than the one summary.json records is an exit 1 naming the
    client and split: the models or the dataset changed since the run."""
    summary_path = os.path.join(args.model_dir, "summary.json")
    if not os.path.isfile(summary_path):
        raise FileNotFoundError(f"{args.model_dir}: no summary.json, its run did not finish")
    config_path = args.config or os.path.join(args.model_dir, "config.resolved")
    cfg = build_run_config(parse_config_file(config_path))
    fed = cfg.federation_config()
    clients, _, _, _ = setup_federation(fed)
    metrics = []
    for client in clients:
        dump = os.path.join(args.model_dir, "models", f"client_{client.client_id}.txt")
        client.params = load_params(dump, client.params)
        metrics.append(evaluate(client, args.split, fed.task_metric))
    if args.config is None:
        recorded = _recorded_metrics(summary_path, args.split)
        for cid, (value, want) in enumerate(zip_longest(metrics, recorded)):
            if value != want:
                raise FederationError(
                    f"client {cid} {args.split} {fed.task_metric} is {value} from the "
                    f"saved models, but {summary_path} records {want}")
    for cid, value in enumerate(metrics):
        print(f"client {cid} {args.split} {fed.task_metric}: {value:.6f}")
    print(f"mean {args.split} {fed.task_metric}: {float(np.mean(metrics)):.6f}")
    return 0


def cmd_report(args) -> int:
    if args.out is not None:                     # a file, in a directory that exists
        _check_not_empty("--out", args.out)
        if os.path.isdir(args.out):
            raise ValueError(f"--out = {args.out}: is a directory, not a file")
        _check_dir(os.path.dirname(os.path.abspath(args.out)), f"--out = {args.out}")
    lines = []
    finals = []
    width = max(len(p) for p in args.histories)
    lines.append(f"{'history':<{width}}  final_test_mean  final_test_std")
    for path in args.histories:
        rows = import_history(path)
        if not rows:
            lines.append(f"{path:<{width}}  {'n/a':>15}  {'n/a':>14}")
            continue
        last = max(r.round for r in rows)
        tests = [r.test_metric for r in rows if r.round == last]
        finals.append(float(np.mean(tests)))
        lines.append(
            f"{path:<{width}}  {np.mean(tests):>15.4f}  {np.std(tests):>14.4f}"
        )
    if finals:
        lines.append(
            f"{'aggregate':<{width}}  {np.mean(finals):>15.4f}  {np.std(finals):>14.4f}"
        )
    text = "\n".join(lines) + "\n"
    if args.out is not None:
        _replace([args.out], lambda tmp: Path(tmp).write_text(text, encoding="utf-8"))
    else:
        sys.stdout.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedcal",
        description="Deterministic federated graph-learning simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic dataset to disk")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("run", help="execute a federated run")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--ablate", action="append",
                   choices=_MECHANISMS,
                   help="disable one mechanism (repeatable)")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted and checked (>= 1), but starts no thread: "
                        "clients always run one after another")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="recompute metrics from saved models")
    p.add_argument("--model-dir", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--split", choices=["val", "test"], default="test")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="aggregate history CSVs")
    p.add_argument("histories", nargs="+")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FederationError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
