"""Command-line surface: synth | zeroshot | train | eval | sweep | ablate |
gradcheck.

Reports are append-only line-delimited JSON. Exit codes: 0 success, 2 usage,
3 validation/codec, 4 numeric failure, 5 I/O. A key=value config file can
set any optional flag of the subcommand; explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import dataio, model as model_mod, trainer
from .caches import VISUAL_MODES, build_textual_cache, build_visual_cache
from .conditionnet import init_condition_net
from .errors import AtcError, EvaluationError, UsageError, ValidationError
from .model import AtcModel, loss_and_grads, batch_loss, trainables
from .numerics import Rng, grad_check


def _parse_bool(value: str) -> bool:
    v = value.strip().lower()
    if v in ("on", "true", "1", "yes"):
        return True
    if v in ("off", "false", "0", "no"):
        return False
    raise UsageError(f"expected on/off, got {value!r}")


def _parse_activation(value: str) -> tuple[str, float]:
    if value == "linear":
        return "linear", 1.0
    if value.startswith("tip"):
        gamma = 1.0
        if ":" in value:
            try:
                gamma = float(value.split(":", 1)[1])
            except ValueError:
                raise UsageError(f"bad tip gamma in {value!r}") from None
        return "tip", gamma
    raise UsageError(f"unknown activation {value!r}")


def _read_config_file(path) -> dict[str, str]:
    out = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key = value")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _parse(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """Parse argv. A --config file's pairs become defaults of the invoked
    subcommand's optional flags, then argv is parsed again, so argparse
    converts them with each flag's type and explicit flags still win."""
    args = parser.parse_args(argv)
    if args.config:
        cfg = _read_config_file(args.config)
        (commands,) = [a for a in parser._actions if a.dest == "command"]
        sub = commands.choices[args.command]
        flags = [a for a in sub._actions
                 if a.option_strings and not a.required and a.dest in cfg]
        sub.set_defaults(**{a.dest: cfg[a.dest] for a in flags})
        args = parser.parse_args(argv)
        # argparse checks choices on the command line only, not on defaults
        for a in flags:
            value = getattr(args, a.dest)
            if a.choices is not None and value not in a.choices:
                raise UsageError(
                    f"argument {'/'.join(a.option_strings)}: invalid choice: "
                    f"{value!r} (choose from "
                    f"{', '.join(map(repr, a.choices))})")
    return args


def _emit(record: dict, report_path) -> None:
    line = json.dumps(record, sort_keys=True)
    if report_path:
        with open(report_path, "a") as f:
            f.write(line + "\n")
    print(line)


def _eval_threads() -> int:
    raw = os.environ.get("ATC_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        raise UsageError(
            f"ATC_THREADS must be an integer, got {raw!r}") from None
    return min(max(1, threads), os.cpu_count() or 1)


def _score(m: AtcModel, queries: np.ndarray):
    """Both branch scores (f1, f2) for a query set; chunked across
    ATC_THREADS workers (the model is read-only while scoring), which share
    one copy of the effective visual rows."""
    threads = _eval_threads()
    if threads == 1 or queries.shape[0] < 2 * threads:
        return model_mod.branches(m, queries)[:2]
    rows = model_mod.visual_rows(m.visual)
    chunks = np.array_split(np.arange(queries.shape[0]), threads)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(
            lambda sel: model_mod.branches(m, queries[sel], rows=rows)[:2],
            chunks))
    f1s, f2s = zip(*parts)
    return np.concatenate(f1s), np.concatenate(f2s)


def _accuracy(logits: np.ndarray, labels: np.ndarray) -> dict:
    total = int(labels.size)
    if total == 0:
        raise ValidationError("query set has no rows")
    correct = int(np.sum(np.argmax(logits, axis=1) == labels))
    return {"accuracy": correct / total, "correct": correct, "total": total}


def evaluate_queries(m: AtcModel, queries: np.ndarray,
                     labels: np.ndarray) -> dict:
    """Accuracy of the fused head over a query set."""
    f1, f2 = _score(m, queries)
    return _accuracy(model_mod.fuse(f1, f2, m.alpha, m.beta, m.logit_scale),
                     labels)


def _load_pair(text_path, support_path):
    text = dataio.read_embeddings(text_path)
    support = dataio.read_embeddings(support_path)
    if text.dim != support.dim:
        raise ValidationError(
            f"dim mismatch: text {text.dim} vs support {support.dim}")
    return text, support


def _episode(support: dataio.EmbeddingSet, shots: int,
             seed: int) -> dataio.EmbeddingSet:
    idx = dataio.sample_episode(support.labels,
                                dataio.EpisodeSpec(shots, seed))
    return dataio.EmbeddingSet(support.features[idx], support.labels[idx],
                               support.class_names, support.role)


# the trainer.model_hyper keys: AtcModel fields, then what builds its parts
_MODEL_KEYS = ("alpha", "beta", "logit_scale", "activation", "tip_gamma",
               "adaptive_text")
_PART_KEYS = ("dim", "renorm_text", "renorm_visual", "visual_mode",
              "chunk_count", "hidden_size")


def _require(section: dict, keys, name: str) -> None:
    missing = [k for k in keys if k not in section]
    if missing:
        raise ValidationError(f"checkpoint {name} lacks "
                              f"{', '.join(map(repr, missing))}")


def _build_model(hyper: dict, text, episode, seed: int) -> AtcModel:
    """The head that `hyper` (keyed like trainer.model_hyper) describes,
    around the text set and the support episode."""
    for key in ("alpha", "beta", "logit_scale", "tip_gamma"):
        if not math.isfinite(hyper[key]):
            raise ValidationError(f"{key} must be finite, got {hyper[key]}")
    if text.dim != hyper["dim"]:
        raise ValidationError(
            f"checkpoint dim {hyper['dim']} != embedding dim {text.dim}")
    textual = build_textual_cache(text, renormalize=hyper["renorm_text"])
    visual = build_visual_cache(episode, text.num_classes,
                                mode=hyper["visual_mode"],
                                renormalize=hyper["renorm_visual"])
    net = init_condition_net(text.dim, hyper["chunk_count"],
                             hyper["hidden_size"], Rng(seed).child(1000))
    return AtcModel(textual, visual, net,
                    **{k: hyper[k] for k in _MODEL_KEYS})


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
    p.add_argument("--activation", default="linear")
    p.add_argument("--visual-mode", choices=VISUAL_MODES, default="biases")
    p.add_argument("--shuffle", choices=["on", "off"], default="on")
    p.add_argument("--leave-self-out", choices=["on", "off"], default="off")
    p.add_argument("--chunk-count", type=int, default=8)
    p.add_argument("--hidden-size", type=int, default=64)


def _train_once(args, adaptive_text: bool):
    text, support = _load_pair(args.text, args.support)
    episode = _episode(support, args.shots, args.seed)
    activation, gamma = _parse_activation(args.activation)
    renorm = _parse_bool(args.renorm)
    hyper = {"alpha": args.alpha, "beta": args.beta, "logit_scale": args.scale,
             "activation": activation, "tip_gamma": gamma,
             "adaptive_text": adaptive_text, "renorm_text": renorm,
             "renorm_visual": renorm, "visual_mode": args.visual_mode,
             "dim": text.dim, "chunk_count": args.chunk_count,
             "hidden_size": args.hidden_size}
    m = _build_model(hyper, text, episode, args.seed)
    cfg = trainer.TrainConfig(
        epochs=args.epochs, batch_size=args.batch_size,
        learning_rate=args.lr, weight_decay=args.weight_decay,
        seed=args.seed, shuffle=_parse_bool(args.shuffle),
        leave_self_out=_parse_bool(args.leave_self_out))
    ckpt = trainer.train(m, episode.features, episode.labels, cfg)
    ckpt.config.update(episode_shots=args.shots, episode_seed=args.seed,
                       episode_views=1)
    if args.ckpt:
        trainer.save_checkpoint(ckpt, args.ckpt)
    return m, ckpt


def _rebuild_from_checkpoint(ckpt: trainer.Checkpoint, text_path, support_path,
                             alpha=None, beta=None) -> AtcModel:
    _require(ckpt.hyper, _MODEL_KEYS + _PART_KEYS, "hyper")
    _require(ckpt.config, ("episode_seed", "episode_shots"), "config")
    text, support = _load_pair(text_path, support_path)
    seed = int(ckpt.config["episode_seed"])
    # older checkpoints may record episode_views > 1 (rows per class = product)
    shots = (int(ckpt.config["episode_shots"])
             * int(ckpt.config.get("episode_views", 1)))
    hyper = {**ckpt.hyper,
             "alpha": ckpt.hyper["alpha"] if alpha is None else alpha,
             "beta": ckpt.hyper["beta"] if beta is None else beta}
    m = _build_model(hyper, text, _episode(support, shots, seed), seed)
    trainer.apply_checkpoint(m, ckpt)
    return m


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
    text = dataio.read_embeddings(args.text)
    query = dataio.read_embeddings(args.query)
    if text.dim != query.dim:
        raise ValidationError(f"dim mismatch: text {text.dim} vs query {query.dim}")
    logits = model_mod.zero_shot_logits(text.features, query.features)
    _emit({"command": "zeroshot", "text": args.text, "query": args.query,
           **_accuracy(logits, query.labels),
           "wall_clock": time.time() - start}, args.report)
    return 0


def cmd_train(args) -> int:
    start = time.time()
    m, ckpt = _train_once(args, adaptive_text=True)
    record = {"command": "train", "ckpt": args.ckpt, "seed": args.seed,
              "config": ckpt.config, "epochs": ckpt.metrics,
              "wall_clock": time.time() - start}
    if args.query:
        query = dataio.read_embeddings(args.query)
        record["eval"] = evaluate_queries(m, query.features, query.labels)
    _emit(record, args.report)
    return 0


def cmd_eval(args) -> int:
    start = time.time()
    ckpt = trainer.load_checkpoint(args.ckpt)
    m = _rebuild_from_checkpoint(ckpt, args.text, args.support,
                                 alpha=args.alpha, beta=args.beta)
    for qpath in args.query:
        query = dataio.read_embeddings(qpath)
        result = evaluate_queries(m, query.features, query.labels)
        _emit({"command": "eval", "ckpt": args.ckpt, "query": qpath,
               "alpha": m.alpha, "beta": m.beta, **result,
               "wall_clock": time.time() - start}, args.report)
    return 0


def cmd_sweep(args) -> int:
    if not args.values:
        raise UsageError("sweep needs at least one value")
    ckpt = trainer.load_checkpoint(args.ckpt)
    query = dataio.read_embeddings(args.query)
    m = _rebuild_from_checkpoint(ckpt, args.text, args.support)
    # alpha and beta only scale the branch scores, so one scoring pass
    # serves every value
    f1, f2 = _score(m, query.features)
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
    start = time.time()
    args.adaptive_text = True
    for mode in args.mode:
        if mode not in _ABLATE_MODES:
            raise UsageError(f"unknown ablation mode {mode!r}")
        setattr(args, *_ABLATE_MODES[mode])
    m, ckpt = _train_once(args, adaptive_text=args.adaptive_text)
    record = {"command": "ablate", "modes": args.mode, "seed": args.seed,
              "adaptive_text": args.adaptive_text,
              "visual_mode": args.visual_mode,
              "epochs": ckpt.metrics, "wall_clock": time.time() - start}
    if args.query:
        query = dataio.read_embeddings(args.query)
        record["eval"] = evaluate_queries(m, query.features, query.labels)
    _emit(record, args.report)
    return 0


def run_full_gradcheck(seed: int, renorm: bool, activation: str = "linear",
                       gamma: float = 1.0, eps: float = 1e-4,
                       tol: float = 1e-4):
    """Finite-difference check of the whole trainable surface on a small
    synthetic episode."""
    cfg = dataio.SynthConfig(num_classes=3, dim=16, shots=2,
                             queries_per_class=2, sigma=0.3, seed=seed)
    sets = dataio.synth_dataset(cfg)
    textual = build_textual_cache(sets["text"], renormalize=renorm)
    visual = build_visual_cache(sets["support"], cfg.num_classes,
                                mode="biases", renormalize=renorm)
    net = init_condition_net(cfg.dim, chunk_count=4, hidden_size=6,
                             rng=Rng(seed).child(1))
    # nonzero starting point so every gate parameter sees gradient
    rng = Rng(seed).child(2)
    np.copyto(net.W_out, 0.05 * rng.normal(net.W_out.shape))
    np.copyto(visual.biases, 0.05 * rng.normal(visual.biases.shape))
    m = AtcModel(textual, visual, net, logit_scale=5.0, activation=activation,
                 tip_gamma=gamma)
    queries = sets["query"].features
    targets = sets["query"].labels

    params = {k: v.copy() for k, v in trainables(m).items()}
    _, analytic = loss_and_grads(m, queries, targets)

    def fn(p):
        model_mod.set_tensors(m, p)
        return batch_loss(m, queries, targets)

    try:
        report = grad_check(fn, params, analytic, eps=eps, tol=tol)
    finally:
        model_mod.set_tensors(m, params)
    return report


def cmd_gradcheck(args) -> int:
    renorm = _parse_bool(args.renorm)
    activation, gamma = _parse_activation(args.activation)
    report = run_full_gradcheck(args.seed, renorm, activation, gamma)
    print(report.summary())
    _emit({"command": "gradcheck", "seed": args.seed, "renorm": args.renorm,
           "activation": args.activation, "passed": report.passed,
           "worst": {g.name: g.max_rel_err for g in report.groups.values()}},
          args.report)
    return 0 if report.passed else 4


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
    p.add_argument("--mode", action="append", required=True)
    _add_train_flags(p)
    common(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--renorm", choices=["on", "off"], default="on")
    p.add_argument("--activation", default="linear")
    common(p)
    p.set_defaults(func=cmd_gradcheck)

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
