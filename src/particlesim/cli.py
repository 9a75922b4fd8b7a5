"""Command-line entry point: dataset generation, training, rollout,
evaluation, verification suites, and benchmarks.

One JSON config file with dotted-key overrides; every run writes the config
sections it read, resolved, to config.json next to its outputs.  Exit codes:
0 success, 2 bad arguments, 3 verification failure (an oracle suite, or
analytic MACs differing from the tape's in `bench`), 4 divergence (of
training, or a non-finite score for report.json, or of the reference world
that gen-data steps), 5 I/O error (a dataset without validation rollouts
included, for train, eval and rollout, and a norm_stats.json with a
non-finite entry or a std below particles.STD_FLOOR).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .nn import ModelConfig, check_field_types
from . import particles as P
from .worlds import (WorldSpec, RolloutDataset, generate_dataset, write_dataset,
                     read_dataset, BlowUpError, MetadataError, TruncationError, ChecksumError)
from .attention import build_model
from .training import (TrainConfig, fit, one_step_eval, constant_velocity_eval,
                       rollout, DivergenceError, check_history)
from . import tensor as T
from . import bench as B
from . import verify as V

EXIT_OK = 0
EXIT_BAD_ARGS = 2
EXIT_VERIFY_FAIL = 3
EXIT_DIVERGED = 4
EXIT_IO = 5

# the world's defaults are WorldSpec's and the training defaults TrainConfig's
DEFAULT_CONFIG = {
    "dataset": {
        "n_frames": 50,
        "train_rollouts": 200,
        "valid_rollouts": 20,
        "seed": 0,
    },
    "model": {
        "backbone": "tie",
        "d": 64,
        "heads": 4,
        "blocks": 2,
        "mlp_hidden": 128,
        "n_abstract": 0,
        "normalized_attention": True,
        "radius": 0.1,
        "history": 1,
        "precision": "f32",
    },
    "bench": {
        "n": 512,
        "e_values": [2000, 4000, 8000, 16000],
        "d": 128,
        "blocks": 4,
        "heads": 4,
        "trials": 5,
    },
}

# value types of the dataset keys that are not WorldSpec fields, and of the bench keys
_DATASET_EXTRA = {"train_rollouts": "int", "valid_rollouts": "int", "seed": "int",
                  "n_frames": "int"}
_BENCH_TYPES = {"n": "int", "e_values": "tuple[int, ...]", "d": "int", "blocks": "int",
                "heads": "int", "trials": "int"}
_WORLD_FIELDS = {f.name for f in dataclasses.fields(WorldSpec)}
# the keys each config section may hold; d_in is derived from the dataset
# (`_model_config`), so a config may not set it
_SECTION_KEYS = {
    "dataset": _WORLD_FIELDS | _DATASET_EXTRA.keys(),
    "model": {f.name for f in dataclasses.fields(ModelConfig)} - {"d_in"},
    "train": {f.name for f in dataclasses.fields(TrainConfig)},
    "bench": _BENCH_TYPES.keys(),
}


class BadConfig(ValueError):
    pass


def _deep_merge(base: dict, extra: dict) -> dict:
    out = {k: dict(v) if isinstance(v, dict) else v for k, v in base.items()}
    for k, v in extra.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = v
    return out


def _validate(config: dict):
    for section, body in config.items():
        if section not in _SECTION_KEYS:
            raise BadConfig(f"unknown config section {section!r}")
        for key in body:
            if key not in _SECTION_KEYS[section]:
                raise BadConfig(f"unknown {section} key {key!r}")
    check_field_types(_DATASET_EXTRA, config.get("dataset", {}))
    bench = {**DEFAULT_CONFIG["bench"], **config.get("bench", {})}
    check_field_types(_BENCH_TYPES, bench)
    for key, least in (("n", 1), ("d", 1), ("heads", 1), ("blocks", 1), ("trials", 5)):
        if bench[key] < least:
            raise BadConfig(f"bench.{key} must be >= {least}, got {bench[key]}")
    if not bench["e_values"]:
        raise BadConfig("bench.e_values must name at least one pair count")
    if min(bench["e_values"]) < 0:
        raise BadConfig(f"bench.e_values must all be >= 0, got {bench['e_values']}")
    if bench["d"] % bench["heads"]:
        raise BadConfig(f"bench.heads ({bench['heads']}) must divide bench.d ({bench['d']})")


def _parse_override(text: str):
    if "=" not in text:
        raise BadConfig(f"override {text!r} must look like section.key=value")
    key, raw = text.split("=", 1)
    parts = key.split(".")
    if len(parts) != 2:
        raise BadConfig(f"override key {key!r} must be section.key")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return parts[0], parts[1], value


def _read_config(path) -> dict:
    """The config in JSON file `path`; BadConfig naming the file unless it
    holds a JSON object of objects."""
    with open(path) as f:
        try:
            config = json.load(f)
        except json.JSONDecodeError as e:
            raise BadConfig(f"malformed config {path}: {e}") from e
    if not isinstance(config, dict):
        raise BadConfig(f"config {path} is not a JSON object")
    for section, body in config.items():
        if not isinstance(body, dict):
            raise BadConfig(f"config {path}: section {section!r} is not an object")
    return config


def load_config(args) -> dict:
    """Defaults, then --config, then each --set in order."""
    config = DEFAULT_CONFIG
    if args.config:
        try:
            user = _read_config(args.config)
        except FileNotFoundError as e:
            raise BadConfig(f"config file not found: {args.config}") from e
        config = _deep_merge(config, user)
    for text in args.set or []:
        section, key, value = _parse_override(text)
        config = _deep_merge(config, {section: {key: value}})
    _validate(config)
    return config


def snapshot_config(config: dict, out_dir):
    """config.json in out_dir: the sections the run read, as it used them."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.json"), "w") as f:
        json.dump(config, f, indent=2)


def _model_config(mcfg: dict, ds: RolloutDataset) -> ModelConfig:
    check_field_types(ModelConfig, mcfg)  # before history enters d_in
    model_cfg = ModelConfig(**mcfg, d_in=P.input_dim(mcfg.get("history", 1), ds.d_a))
    if model_cfg.n_abstract not in (0, ds.spec.k):
        raise BadConfig(f"n_abstract must be 0 or the material count {ds.spec.k}")
    if model_cfg.n_abstract and model_cfg.backbone == "gnn":
        raise BadConfig("abstract particles require an attention backbone")
    check_history(ds, model_cfg.history)
    return model_cfg


def cmd_gen_data(args) -> int:
    config = load_config(args)
    dscfg = config["dataset"]
    spec = WorldSpec(**{k: v for k, v in dscfg.items() if k in _WORLD_FIELDS})
    ds = generate_dataset(spec, dscfg["train_rollouts"], dscfg["valid_rollouts"],
                          dscfg["n_frames"], seed=dscfg["seed"])
    snapshot_config({"dataset": {**dataclasses.asdict(spec),
                                 **{k: dscfg[k] for k in _DATASET_EXTRA}}}, args.out)
    write_dataset(ds, os.path.join(args.out, "dataset"))
    print(f"wrote {len(ds.train)} train / {len(ds.valid)} valid rollouts to {args.out}/dataset")
    return EXIT_OK


def _read_dataset_with_valid(path) -> RolloutDataset:
    """A dataset that train, eval and rollout can score: one with no
    validation rollouts would only yield NaN losses and reports."""
    ds = read_dataset(path)
    if not ds.valid:
        raise MetadataError(f"dataset {path} has an empty 'valid' split: "
                            "train, eval and rollout score the validation rollouts")
    return ds


def _write_report(payload: dict, out_dir):
    """report.json in strict JSON; a non-finite score means the model diverged."""
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError as e:
        raise DivergenceError(f"report holds a non-finite score ({e})") from e
    with open(os.path.join(out_dir, "report.json"), "w") as f:
        f.write(text)


def cmd_train(args) -> int:
    config = load_config(args)
    ds = _read_dataset_with_valid(args.data)
    model_cfg = _model_config(config["model"], ds)
    train_cfg = TrainConfig(**config.get("train", {}))
    model = build_model(model_cfg, seed=train_cfg.seed)
    snapshot_config({"model": config["model"], "train": dataclasses.asdict(train_cfg)},
                    args.out)
    history, _stats = fit(model, ds, train_cfg, out_dir=args.out)
    if history:
        last = history[-1]
        print(f"trained {len(history)} epochs; final train {last['train_loss']:.6f} "
              f"valid {last['valid_loss']:.6f}")
    return EXIT_OK


def _restore_model(model_dir, ds: RolloutDataset):
    """The trained model, the `model` and `train` sections of its config.json
    (the only ones read), and its normalization stats."""
    path = os.path.join(model_dir, "config.json")
    config = _read_config(path)
    _validate(config)
    for section in ("model", "train"):
        if section not in config:
            raise BadConfig(f"config {path} has no {section!r} section")
    model_cfg = _model_config(config["model"], ds)
    model = build_model(model_cfg, seed=int(config["train"].get("seed", 0)))
    params = T.load_checkpoint(os.path.join(model_dir, "final.manifest.json"),
                               os.path.join(model_dir, "final.blob.bin"))
    model.load_params(params)
    stats_path = os.path.join(model_dir, "norm_stats.json")
    stats = P.load_norm_stats(stats_path)
    width = 6 + ds.d_a  # position, velocity, attributes
    if stats.mean.shape != (width,) or stats.std.shape != (width,):
        raise OSError(f"normalization stats {stats_path} have mean/std of shapes "
                      f"{stats.mean.shape}/{stats.std.shape}; the dataset has {width} channels")
    return model, {section: config[section] for section in ("model", "train")}, stats


def cmd_eval(args) -> int:
    ds = _read_dataset_with_valid(args.data)
    model, config, stats = _restore_model(args.model_dir, ds)
    snapshot_config(config, args.out)
    report = one_step_eval(model, ds, stats, max_samples=args.samples, seed=0)
    baseline = constant_velocity_eval(ds, history=model.cfg.history,
                                      max_samples=args.samples, seed=0)
    payload = {"one_step": report.to_json(),
               "constant_velocity_baseline": baseline.to_json()}
    _write_report(payload, args.out)
    print(f"one-step M3SE {report.m3se_mean:.6e} +/- {report.m3se_std:.6e} "
          f"(baseline {baseline.m3se_mean:.6e})")
    return EXIT_OK


def cmd_rollout(args) -> int:
    ds = _read_dataset_with_valid(args.data)
    model, config, stats = _restore_model(args.model_dir, ds)
    snapshot_config(config, args.out)
    n_steps = args.steps or (ds.n_frames - model.cfg.history)
    reports = []
    for i in range(min(args.count, len(ds.valid))):
        out_bin = os.path.join(args.out, f"rollout_{i:03d}.bin")
        _, report = rollout(model, ds, stats, i, n_steps, out_path=out_bin)
        reports.append(report.to_json())
    means = [r["m3se_mean"] for r in reports]
    _write_report({"rollouts": reports,
                   "m3se_mean": float(np.mean(means)),
                   "m3se_std": float(np.std(means))}, args.out)
    print(f"rollout M3SE {np.mean(means):.6e} over {len(reports)} trajectories")
    return EXIT_OK


def cmd_bench(args) -> int:
    config = load_config(args)
    bcfg = config["bench"]
    snapshot_config({"bench": bcfg}, args.out)
    profiles = []
    mismatch = False
    for backbone in ("tie", "vanilla", "gnn"):
        cfg = ModelConfig(backbone=backbone, d_in=9, d=bcfg["d"], heads=bcfg["heads"],
                          blocks=bcfg["blocks"], normalized_attention=True, precision="f32")
        for e in bcfg["e_values"]:
            prof = B.time_iteration(cfg, bcfg["n"], e, trials=bcfg["trials"])
            profiles.append(prof)
            print(f"{backbone:8s} N={prof.n} E={prof.e} macs={prof.measured_macs} "
                  f"wall={prof.wall_ms_median:.2f}ms fwd={prof.fwd_ms_median:.2f}ms "
                  f"minor_faults={prof.minor_faults}"
                  + ("" if prof.slots_per_pair is None
                     else f" slots_per_pair={prof.slots_per_pair:.3f}"))
            if prof.analytic_macs != prof.measured_macs:
                print(f"{backbone} N={prof.n} E={prof.e}: analytic MACs {prof.analytic_macs} "
                      f"!= measured {prof.measured_macs}", file=sys.stderr)
                mismatch = True
    B.write_bench_csv(profiles, os.path.join(args.out, "bench.csv"))
    return EXIT_VERIFY_FAIL if mismatch else EXIT_OK


def cmd_verify(args) -> int:
    results = V.run_all(fast=args.fast)
    ok = True
    for name, passed, detail in results:
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
        ok = ok and passed
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def _int_at_least(minimum: int):
    """An argparse type for ints >= `minimum`; argparse exits 2 naming the option."""
    def parse(text: str) -> int:
        if int(text) < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {text}")
        return int(text)
    parse.__name__ = "int"  # argparse names the type when int() fails
    return parse


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand declares exactly the options its cmd_* reads."""
    parser = argparse.ArgumentParser(prog="particlesim",
                                     description="learned particle simulation engine")
    sub = parser.add_subparsers(dest="command", required=True)
    shared = {
        "--config": dict(help="JSON config file"),
        "--set": dict(action="append", metavar="SECTION.KEY=VALUE", help="config override"),
        "--out": dict(required=True, help="output directory"),
        "--data": dict(required=True, help="dataset directory"),
        "--model-dir": dict(required=True, help="output directory of a train run"),
    }

    def command(name, func, help_text, *options):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        for option in options:
            p.add_argument(option, **shared[option])
        return p

    command("gen-data", cmd_gen_data, "generate a synthetic dataset", "--config", "--set", "--out")

    command("train", cmd_train, "train a model", "--config", "--set", "--out", "--data")

    p = command("eval", cmd_eval, "one-step evaluation of a trained model",
                "--out", "--data", "--model-dir")
    p.add_argument("--samples", type=_int_at_least(1), default=200)

    p = command("rollout", cmd_rollout, "recursive rollout evaluation",
                "--out", "--data", "--model-dir")
    p.add_argument("--steps", type=_int_at_least(0), default=0, help="0: the full rollout")
    p.add_argument("--count", type=_int_at_least(1), default=5)

    command("bench", cmd_bench, "cost model and timing benchmark", "--config", "--set", "--out")

    p = command("verify", cmd_verify, "run the oracle verification suites")
    p.add_argument("--fast", action="store_true", help="reduced suite sizes")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_BAD_ARGS if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except DivergenceError as e:
        print(f"training diverged: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    except BlowUpError as e:
        print(f"reference world blew up: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    except (MetadataError, TruncationError, ChecksumError, OSError) as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    except (BadConfig, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_ARGS


if __name__ == "__main__":
    sys.exit(main())
