"""Command-line surface: synth | zeroshot | train | eval | sweep | ablate.

Reports are append-only line-delimited JSON. Exit codes: 0 success, 2 usage,
3 validation/codec, 4 numeric failure, 5 I/O. A key=value config file can
set any optional flag of the subcommand; explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, fields
# unused here: kept importable only for perfbench's instrument() and its test
from concurrent.futures import ThreadPoolExecutor  # noqa: F401

import numpy as np

from . import dataio, model as model_mod, trainer
from .caches import VISUAL_MODES, build_textual_cache, build_visual_cache
from .conditionnet import init_condition_net
from .errors import AtcError, EvaluationError, UsageError, ValidationError
from .model import AtcModel
from .numerics import Rng


def _parse_activation(value: str) -> tuple[str, float]:
    """`linear`, `tip` (gamma 1) or `tip:<gamma>`."""
    if value == "linear":
        return "linear", 1.0
    name, colon, gamma = value.partition(":")
    if name == "tip":
        try:
            return "tip", float(gamma) if colon else 1.0
        except ValueError:
            raise UsageError(f"bad tip gamma in {value!r}") from None
    raise UsageError(f"unknown activation {value!r}")


def _read_config_file(path) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8-sig") as f:
            text = f.read()
    except UnicodeDecodeError as exc:
        raise UsageError(
            f"{path}: not UTF-8 text (byte {exc.start})") from None
    out = {}
    for lineno, line in enumerate(text.split("\n"), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _parse(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """Parse argv. Each --config pair naming an optional flag of the subcommand
    is parsed as `--flag=value` ahead of argv's own flags, so argparse converts
    and checks it as typed, and an explicit flag, parsed later, wins."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.config:
        cfg = _read_config_file(args.config)
        (commands,) = [a for a in parser._actions if a.dest == "command"]
        flags = [f"{a.option_strings[0]}={cfg[a.dest]}"
                 for a in commands.choices[args.command]._actions
                 if a.option_strings and not a.required and a.nargs != 0
                 and a.dest in cfg]
        at = argv.index(args.command) + 1
        args = parser.parse_args(argv[:at] + flags + argv[at:])
    return args


def _emit(record: dict, report_path) -> None:
    line = json.dumps(record, sort_keys=True, allow_nan=False)
    if report_path:
        with open(report_path, "a") as f:
            f.write(line + "\n")
    print(line)


def _accuracy(logits: np.ndarray, labels: np.ndarray) -> dict:
    total = int(labels.size)
    if not np.isfinite(logits).all():
        raise EvaluationError("a fused logit is not finite")
    correct = int(np.sum(np.argmax(logits, axis=1) == labels))
    return {"accuracy": correct / total, "correct": correct, "total": total}


def evaluate_queries(m: AtcModel, queries: np.ndarray,
                     labels: np.ndarray) -> dict:
    """Accuracy of the fused head over a query set."""
    f1, f2, _ = model_mod.branches(m, queries)
    return _accuracy(model_mod.fuse(f1, f2, m.alpha, m.beta, m.logit_scale),
                     labels)


def _read_input(path, role: str, text=None) -> dataio.EmbeddingSet:
    """Read an embedding file, which must carry the `role` tag. A support or
    query file must also have the `text` set's dim and class names (a label
    means the same class in both), and a query file at least one row."""
    es = dataio.read_embeddings(path)
    if es.role != role:
        raise ValidationError(f"{path}: role tag is {es.role!r}, expected "
                              f"{role!r}")
    if text is None:
        return es
    if es.dim != text.dim:
        raise ValidationError(f"dim mismatch: text {text.dim} vs {role} "
                              f"{es.dim}")
    if es.class_names != text.class_names:
        raise ValidationError(
            f"{path}: class names differ from the text file's "
            f"({es.num_classes} classes vs {text.num_classes})")
    if role == "query" and not es.labels.size:
        raise ValidationError("query set has no rows")
    return es


# the checkpoint config keys that rebuild the support episode
_EPISODE = {"episode_seed": int, "episode_shots": int, "episode_views": int}


def _build_model(hyper: dict, text, support, seed, index=None) -> AtcModel:
    """The head that `hyper` (keyed and typed like trainer.HYPER) describes,
    around the text set and the support episode: the support set's rows, or
    its rows `index` without a copy."""
    trainer.check_types(hyper, trainer.HYPER, "hyper")
    if text.dim != hyper["dim"]:
        raise ValidationError(
            f"checkpoint dim {hyper['dim']} != embedding dim {text.dim}")
    textual = build_textual_cache(text, renormalize=hyper["renorm_text"])
    visual = build_visual_cache(support, text.num_classes,
                                hyper["visual_mode"], hyper["renorm_visual"],
                                index)
    net = init_condition_net(text.dim, hyper["chunk_count"],
                             hyper["hidden_size"], Rng(seed).child(1000))
    return AtcModel(textual, visual, net, **{
        f.name: hyper[f.name] for f in fields(AtcModel) if f.name in hyper})


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--shots", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch-size", type=int, default=0)
    p.add_argument("--weight-decay", type=float, default=0.0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--scale", type=float, default=100.0)
    p.add_argument("--renorm", choices=["on", "off"], default="on")
    p.add_argument("--activation", type=_parse_activation, default="linear")
    p.add_argument("--visual-mode", choices=VISUAL_MODES, default="biases")
    p.add_argument("--shuffle", choices=["on", "off"], default="on")
    p.add_argument("--leave-self-out", choices=["on", "off"], default="off")
    p.add_argument("--chunk-count", type=int, default=8)
    p.add_argument("--hidden-size", type=int, default=64)
    p.set_defaults(adaptive_text=True)


def _train_once(args, keys) -> int:
    """Train (and save), then emit the run's record, with `keys(ckpt)` the
    command's own keys and the query file's scores. That file is read and
    checked before training."""
    start = time.time()
    text = _read_input(args.text, "text")
    support = _read_input(args.support, "support", text)
    query = _read_input(args.query, "query", text) if args.query else None
    # training's queries are the episode's rows, gathered once; the file's
    # rows are not held through training
    idx = dataio.sample_episode(support.labels, args.shots, args.seed)
    episode = dataio.EmbeddingSet(support.features[idx], support.labels[idx],
                                  support.class_names, support.role)
    del support
    activation, gamma = args.activation
    renorm = args.renorm == "on"
    hyper = {"alpha": args.alpha, "beta": args.beta, "logit_scale": args.scale,
             "activation": activation, "tip_gamma": gamma,
             "adaptive_text": args.adaptive_text, "renorm_text": renorm,
             "renorm_visual": renorm, "visual_mode": args.visual_mode,
             "dim": text.dim, "chunk_count": args.chunk_count,
             "hidden_size": args.hidden_size}
    m = _build_model(hyper, text, episode, args.seed)
    cfg = trainer.TrainConfig(
        epochs=args.epochs, batch_size=args.batch_size,
        learning_rate=args.lr, weight_decay=args.weight_decay,
        seed=args.seed, shuffle=args.shuffle == "on",
        leave_self_out=args.leave_self_out == "on")
    ckpt = trainer.train(m, episode.features, episode.labels, cfg)
    ckpt.config.update(episode_shots=args.shots, episode_seed=args.seed,
                       episode_views=1)
    if args.ckpt:
        trainer.save_checkpoint(ckpt, args.ckpt)
    del text, episode   # held to the record, they leave the heap ~4 MB higher
    record = {**keys(ckpt), "seed": args.seed, "epochs": ckpt.metrics,
              "wall_clock": time.time() - start}
    if query is not None:
        record["eval"] = evaluate_queries(m, query.features, query.labels)
    _emit(record, args.report)
    return 0


def _rebuild_from_checkpoint(ckpt: trainer.Checkpoint, text_path, support_path,
                             alpha=None, beta=None):
    """The checkpoint's model around the embedding files, and the text set."""
    config = {"episode_views": 1, **ckpt.config}
    trainer.check_types(config, _EPISODE, "config")
    if config["episode_views"] != 1:
        raise ValidationError(
            f"episode_views must be 1, got {config['episode_views']}")
    text = _read_input(text_path, "text")
    support = _read_input(support_path, "support", text)
    seed = config["episode_seed"]
    # no episode copy: the cache's blocks gather the file's rows themselves
    index = dataio.sample_episode(support.labels, config["episode_shots"],
                                  seed)
    hyper = {**ckpt.hyper,
             "alpha": ckpt.hyper["alpha"] if alpha is None else alpha,
             "beta": ckpt.hyper["beta"] if beta is None else beta}
    m = _build_model(hyper, text, support, seed, index)
    trainer.apply_checkpoint(m, ckpt)
    return m, text


def cmd_synth(args) -> int:
    cfg = dataio.SynthConfig(args.classes, args.dim, args.shots, args.queries,
                             args.sigma, args.text_noise, args.seed)
    sets = dataio.synth_dataset(cfg)
    os.makedirs(args.out, exist_ok=True)
    paths = {}
    for role, es in sets.items():
        path = os.path.join(args.out, f"{role}.ate")
        dataio.write_embeddings(es, path)
        paths[role] = path
    _emit({"command": "synth", "config": asdict(cfg), "paths": paths,
           "seed": args.seed}, args.report)
    return 0


def cmd_zeroshot(args) -> int:
    start = time.time()
    text = _read_input(args.text, "text")
    query = _read_input(args.query, "query", text)
    logits = model_mod.zero_shot_logits(text.features, query.features)
    _emit({"command": "zeroshot", "text": args.text, "query": args.query,
           **_accuracy(logits, query.labels),
           "wall_clock": time.time() - start}, args.report)
    return 0


def cmd_train(args) -> int:
    return _train_once(args, lambda ckpt: {
        "command": "train", "ckpt": args.ckpt, "config": ckpt.config})


def cmd_eval(args) -> int:
    start = time.time()
    ckpt = trainer.load_checkpoint(args.ckpt)
    m, text = _rebuild_from_checkpoint(ckpt, args.text, args.support,
                                       alpha=args.alpha, beta=args.beta)
    # every file is read and checked before one walk scores all their rows
    qs = [_read_input(qpath, "query", text) for qpath in args.query]
    f1, f2, _ = model_mod.branches(m, np.concatenate([q.features for q in qs]))
    logits = model_mod.fuse(f1, f2, m.alpha, m.beta, m.logit_scale)
    ends = np.cumsum([q.labels.size for q in qs])
    for qpath, q, part in zip(args.query, qs, np.split(logits, ends[:-1])):
        _emit({"command": "eval", "ckpt": args.ckpt, "query": qpath,
               "alpha": m.alpha, "beta": m.beta, **_accuracy(part, q.labels),
               "wall_clock": time.time() - start}, args.report)
    return 0


def cmd_sweep(args) -> int:
    if not all(abs(v) <= sys.float_info.max for v in args.values):
        raise UsageError("sweep values must be finite")
    ckpt = trainer.load_checkpoint(args.ckpt)
    m, text = _rebuild_from_checkpoint(ckpt, args.text, args.support)
    query = _read_input(args.query, "query", text)
    # alpha and beta only scale the branch scores, so one scoring pass
    # serves every value
    f1, f2, _ = model_mod.branches(m, query.features)
    results = []
    for value in args.values:
        alpha = value if args.param == "alpha" else 1.0
        beta = value if args.param == "beta" else 1.0
        logits = model_mod.fuse(f1, f2, alpha, beta, m.logit_scale)
        results.append((value, alpha, beta,
                        _accuracy(logits, query.labels)))
    best = max(results, key=lambda r: r[3]["accuracy"])[0]
    for value, alpha, beta, result in results:
        _emit({"command": "sweep", "param": args.param, "value": value,
               "alpha": alpha, "beta": beta, "best": value == best,
               **result}, args.report)
    return 0


# the setting each ablation mode overrides; later modes win
_ABLATE_MODES = {"fixed-text": ("adaptive_text", False),
                 "adaptive-text": ("adaptive_text", True),
                 "fixed-visual": ("visual_mode", "fixed"),
                 "linear-visual": ("visual_mode", "linear"),
                 "bias-visual": ("visual_mode", "biases")}


def cmd_ablate(args) -> int:
    for mode in args.mode:
        setattr(args, *_ABLATE_MODES[mode])
    return _train_once(args, lambda ckpt: {
        "command": "ablate", "modes": args.mode,
        "adaptive_text": args.adaptive_text, "visual_mode": args.visual_mode})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atc",
        description="Two-branch few-shot head over precomputed embeddings")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--report")
        p.add_argument("--config")

    p = sub.add_parser("synth", help="generate synthetic embedding files")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--shots", type=int, default=16)
    p.add_argument("--queries", type=int, default=50)
    p.add_argument("--sigma", type=float, default=0.35)
    p.add_argument("--text-noise", type=float, default=0.15)
    p.add_argument("--seed", type=int, default=7)
    common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("zeroshot", help="cosine argmax baseline")
    p.add_argument("--text", required=True)
    p.add_argument("--query", required=True)
    common(p)
    p.set_defaults(func=cmd_zeroshot)

    p = sub.add_parser("train", help="train the two-branch head")
    p.add_argument("--text", required=True)
    p.add_argument("--support", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--query")
    _add_train_flags(p)
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--text", required=True)
    p.add_argument("--support", required=True)
    p.add_argument("--query", action="append", required=True)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="sweep alpha or beta, other pinned at 1")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--text", required=True)
    p.add_argument("--support", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--param", choices=["alpha", "beta"], required=True)
    p.add_argument("--values", type=lambda s: [float(v) for v in s.split(",")],
                   required=True)
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("ablate", help="train and evaluate a cache variant")
    p.add_argument("--text", required=True)
    p.add_argument("--support", required=True)
    p.add_argument("--query")
    p.add_argument("--ckpt")
    p.add_argument("--mode", action="append", choices=_ABLATE_MODES,
                   required=True)
    _add_train_flags(p)
    common(p)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    try:
        args = _parse(build_parser(), argv)
        return args.func(args)
    except SystemExit as exc:
        return 2 if exc.code else 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except EvaluationError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except AtcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 5


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
