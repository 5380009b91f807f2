"""Command-line entry point.

Commands:
  gen-data   write a seeded synthetic graph as edges/features/labels files
  run        execute a federated run, writing history.csv, summary.json,
             per-client model dumps and (optionally) embedding CSVs
  eval       recompute metrics from a finished run's saved models
  report     aggregate several history CSVs into a mean/std table

Configs are flat text files, one ``section.key = value`` per line, ``#``
starting a comment line. Unknown keys are rejected. Each key but output.*
is declared, with its default, on the FederationConfig, DatasetSpec or
RefineConfig field it sets; the README lists them all.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from .fedsim import (
    DatasetSpec,
    FederationConfig,
    FederationError,
    build_dataset,
    evaluate,
    export_embeddings,
    export_history,
    import_history,
    run_federation,
    setup_federation,
)
from .graph import edge_homophily, save_graph_files
from .model import ModelParams
from .refine import RefineConfig

__all__ = ["main", "parse_config_file", "build_run_config", "save_params", "load_params"]


def _parse_bool(s: str) -> bool:
    if s.lower() in ("true", "1", "yes"):
        return True
    if s.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _keyed_fields(config_class):
    """The fields of a config dataclass that a config key sets."""
    return [f for f in fields(config_class) if "key" in f.metadata]


def _parser(default):
    """The parser of a key whose default is ``default``; None stands for a path."""
    if default is None:
        return str
    return _parse_bool if isinstance(default, bool) else type(default)


# key -> (parser, default); None default means "no entry unless given"
_CONFIG_SCHEMA = {
    **{f.metadata["key"]: (_parser(f.default), f.default)
       for config_class in (FederationConfig, DatasetSpec, RefineConfig)
       for f in _keyed_fields(config_class)},
    "output.dir": (str, "out"),
    "output.embeddings": (_parse_bool, False),
}

# retired key -> (parser, last default), the one value old config files may hold
_RETIRED_KEYS = {"refine.eps": (float, 1e-8), "refine.gw_lr": (float, 1.0),
                 "refine.gw_iters": (int, 200)}


def parse_config_file(path) -> dict:
    """Flat ``key = value`` file -> raw string dict; unknown keys are errors."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"config file not found: {path}")
    raw = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_SCHEMA and key not in _RETIRED_KEYS:
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

    def _keyed(self, config_class) -> dict:
        """config_class's keyed fields, each holding its key's value."""
        return {f.name: self.values[f.metadata["key"]] for f in _keyed_fields(config_class)}

    def federation_config(self, seed=None, ablate=()) -> FederationConfig:
        dataset = DatasetSpec(**self._keyed(DatasetSpec))
        settings = self._keyed(FederationConfig)
        if seed is not None:
            settings["seed"] = int(seed)
        return FederationConfig(
            **settings,
            refine=RefineConfig(**self._keyed(RefineConfig)),
            dataset=dataset,
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
    for key, (caster, last) in _RETIRED_KEYS.items():
        if key in raw and _cast(key, caster, raw[key]) != last:
            raise ValueError(f"{key} is retired and accepts only {last!r}, got {raw[key]!r}")
    return RunConfig({key: _cast(key, caster, raw[key]) if key in raw else default
                      for key, (caster, default) in _CONFIG_SCHEMA.items()})


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
    by its rows, and nothing after. Anything else raises ValueError naming
    path:line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
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
            try:
                row = [float(x) for x in text.split()]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: array {name}: {exc}") from None
            if len(row) != cols:
                raise ValueError(f"{path}:{lineno}: array {name} row has {len(row)} "
                                 f"values, expected {cols}")
            values += row
        arrays[name] = np.array(values).reshape(getattr(like, name).shape)
        i += 1 + rows
    if i < len(lines):
        raise ValueError(f"{path}:{i + 1}: unexpected line after array b_cls")
    return ModelParams(**arrays)


def _check_dir(path, setting):
    if not (os.path.isdir(path) and os.access(path, os.W_OK | os.X_OK)):
        raise ValueError(f"{setting}: {path} is not a writable directory")


def _out_dir(args, cfg) -> str:
    """--out or output.dir, rejected before any work unless it is, or its
    nearest existing ancestor is, a writable directory; creates nothing."""
    out = args.out or cfg["output.dir"]
    path = os.path.abspath(out)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    _check_dir(path, f"{'--out' if args.out else 'output.dir'} = {out}")
    return out


def cmd_gen_data(args) -> int:
    cfg = build_run_config(parse_config_file(args.config))
    if cfg["dataset.kind"] != "synthetic":
        raise ValueError("gen-data needs dataset.kind = synthetic")
    fed = cfg.federation_config(seed=args.seed)
    out = _out_dir(args, cfg)
    g = build_dataset(fed)
    os.makedirs(out, exist_ok=True)
    save_graph_files(
        g,
        os.path.join(out, "edges.txt"),
        os.path.join(out, "features.txt"),
        os.path.join(out, "labels.txt"),
    )
    print(f"nodes={g.num_nodes} edges={g.num_edges} homophily={edge_homophily(g):.4f}")
    return 0


def cmd_run(args) -> int:
    if args.threads < 1:
        raise ValueError(f"--threads must be >= 1, got {args.threads}")
    cfg = build_run_config(parse_config_file(args.config))
    ablate = tuple(args.ablate or ())
    fed = cfg.federation_config(seed=args.seed, ablate=ablate)
    out = _out_dir(args, cfg)
    result = run_federation(fed, threads=args.threads)
    os.makedirs(out, exist_ok=True)
    os.makedirs(os.path.join(out, "models"), exist_ok=True)

    export_history(result.records, os.path.join(out, "history.csv"))
    resolved = dict(cfg.values)
    resolved["federation.seed"] = fed.seed
    write_resolved_config(RunConfig(resolved), os.path.join(out, "config.resolved"))

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
    with open(os.path.join(out, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

    for client in result.clients:
        save_params(
            client.params, os.path.join(out, "models", f"client_{client.client_id}.txt")
        )
        if cfg["output.embeddings"]:
            export_embeddings(
                client, os.path.join(out, f"embeddings_{client.client_id}.csv")
            )
    print(f"run complete: mean_test={summary['mean_test']:.4f}, sinkhorn unconverged "
          f"{result.sinkhorn_unconverged}/{result.sinkhorn_calls} -> {out}")
    return 0


def cmd_eval(args) -> int:
    config_path = args.config or os.path.join(args.model_dir, "config.resolved")
    cfg = build_run_config(parse_config_file(config_path))
    fed = cfg.federation_config()
    clients, _, _, _ = setup_federation(fed)
    metrics = []
    for client in clients:
        dump = os.path.join(args.model_dir, "models", f"client_{client.client_id}.txt")
        if not os.path.exists(dump):
            raise FileNotFoundError(f"missing model dump: {dump}")
        client.params = load_params(dump, client.params)
        metrics.append(evaluate(client, args.split, fed.task_metric))
    for cid, value in enumerate(metrics):
        print(f"client {cid} {args.split} {fed.task_metric}: {value:.6f}")
    print(f"mean {args.split} {fed.task_metric}: {float(np.mean(metrics)):.6f}")
    return 0


def cmd_report(args) -> int:
    if args.out:                                 # a file, in a directory that exists
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
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
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
                   choices=["semantic", "structural", "refinement"],
                   help="disable one mechanism (repeatable)")
    p.add_argument("--threads", type=int, default=1)
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
    except (FederationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
