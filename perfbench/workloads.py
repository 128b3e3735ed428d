"""The three workloads: their inputs (made from the seed through atc's public
API), their op mix (argument lists for `atc.cli.main`) and what each op's
report must say.

Each op writes a JSONL report; `summarize` reduces its records to the values
the correctness gate compares (correct/total counts, epoch losses).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

import atc
from atc import caches, conditionnet, dataio, model, trainer

# Synth noise is per coordinate, so the paper default (0.35) leaves d=512
# queries near chance. At d=512 the benchmark uses 0.2 (text noise in the same
# proportion), where accuracy is mid-range: many queries sit near a decision
# boundary, so the exact correct-count pins notice a changed model.
_D512_NOISE = (0.2, 0.2 * 0.15 / 0.35)


@dataclass(frozen=True)
class Scale:
    classes: int
    dim: int
    shots: int
    queries_per_class: int
    sigma: float = 0.35
    text_noise: float = 0.15
    query_files: int = 0          # wide-eval: files written from the queries
    query_rows: int = 0           # rows per query file


@dataclass(frozen=True)
class Op:
    kind: str                     # train | eval | sweep
    argv: tuple
    records: int                  # JSONL records the op must append
    work: int                     # rows x epochs | queries | sweep values
    rows: int = 0                 # query rows per eval/sweep record


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    atc_threads: int
    setup_reps: int
    full: Scale
    tiny: Scale


WORKLOADS = {w.name: w for w in (
    Workload(
        "paper-train",
        "paper scale (c=10, d=64): the LSTM condition net does most of the "
        "work and the textual tensor is tiny",
        atc_threads=1, setup_reps=7,
        full=Scale(10, 64, 16, 50),
        tiny=Scale(4, 16, 4, 5)),
    Workload(
        "mid-train",
        "c=100, d=512 write path: (B,c,d) textual fwd/bwd and Adam over "
        "1600x512 visual biases dominate; the LSTM is ~5%",
        atc_threads=1, setup_reps=5,
        full=Scale(100, 512, 16, 1, *_D512_NOISE),
        tiny=Scale(6, 32, 4, 1)),
    Workload(
        "wide-eval",
        "c=1000 forward-only read path: visual renorm, one-hot, codecs, "
        "episode sampling, per-value sweep rebuilds and the eval thread pool",
        atc_threads=2, setup_reps=3,
        full=Scale(1000, 512, 16, 1, *_D512_NOISE, query_files=4,
                   query_rows=64),
        tiny=Scale(20, 32, 4, 1, query_files=4, query_rows=8)),
)}

SWEEP_VALUES = "0,0.5,1,1.5,2"


def _synth(scale: Scale, seed: int) -> dict[str, dataio.EmbeddingSet]:
    return dataio.synth_dataset(dataio.SynthConfig(
        scale.classes, scale.dim, scale.shots, scale.queries_per_class,
        scale.sigma, scale.text_noise, seed))


def _write_checkpoint(sets, scale: Scale, seed: int, path: str) -> None:
    """A checkpoint with seeded nonzero `net.W_out` and `visual.biases`, so
    eval measures the nonzero-shift and nonzero-bias paths."""
    textual = caches.build_textual_cache(sets["text"])
    visual = caches.build_visual_cache(sets["support"], scale.classes)
    net = conditionnet.init_condition_net(scale.dim, 8, 64,
                                          atc.Rng(seed).child(1000))
    rng = atc.Rng(seed).child(2000)
    np.copyto(net.W_out, 0.01 * rng.child(0).normal(net.W_out.shape))
    np.copyto(visual.biases, 0.01 * rng.child(1).normal(visual.biases.shape))
    m = model.AtcModel(textual, visual, net)
    ckpt = trainer.Checkpoint(
        trainer.checkpoint_tensors(m), trainer.model_hyper(m),
        {"episode_shots": scale.shots, "episode_seed": seed,
         "episode_views": 1}, [])
    trainer.save_checkpoint(ckpt, path)


def make_inputs(w: Workload, scale: Scale, seed: int, work: str) -> None:
    """Write the workload's input files into `work`: same seed, same bytes."""
    os.makedirs(work, exist_ok=True)
    sets = _synth(scale, seed)
    dataio.write_embeddings(sets["text"], os.path.join(work, "text.ate"))
    dataio.write_embeddings(sets["support"], os.path.join(work, "support.ate"))
    if w.name == "paper-train":
        dataio.write_embeddings(sets["query"], os.path.join(work, "query.ate"))
    if w.name == "wide-eval":
        q = sets["query"]
        rng = atc.Rng(seed).child(3000)
        for i in range(scale.query_files):
            idx = np.sort(rng.child(i).sample_without_replacement(
                q.features.shape[0], scale.query_rows))
            dataio.write_embeddings(
                dataio.EmbeddingSet(q.features[idx], q.labels[idx],
                                    q.class_names, "query"),
                os.path.join(work, f"query{i}.ate"))
        _write_checkpoint(sets, scale, seed, os.path.join(work, "model.atck"))


def ops(w: Workload, scale: Scale, work: str) -> list[Op]:
    """One round of the workload's op mix, without the --report flag."""
    p = lambda name: os.path.join(work, name)
    pair = ("--text", p("text.ate"), "--support", p("support.ate"))
    episode_rows = scale.classes * scale.shots
    if w.name == "paper-train":
        queries = scale.classes * scale.queries_per_class
        return [
            Op("train", ("train", *pair, "--ckpt", p("model.atck"),
                         "--shots", str(scale.shots), "--epochs", "20",
                         "--lr", "3e-5", "--seed", "7",
                         "--query", p("query.ate")),
               records=1, work=episode_rows * 20, rows=queries),
            Op("eval", ("eval", "--ckpt", p("model.atck"), *pair,
                        "--query", p("query.ate")),
               records=1, work=queries, rows=queries),
        ]
    if w.name == "mid-train":
        # --leave-self-out keeps the loss informative for the gate: without
        # it each row finds itself in the visual cache and the loss rounds
        # to ~1e-15. The cost is one (B, rows) mask per batch.
        return [Op("train", ("train", *pair, "--ckpt", p("model.atck"),
                             "--shots", str(scale.shots), "--epochs", "2",
                             "--lr", "1e-3", "--leave-self-out", "on"),
                   records=1, work=episode_rows * 2)]
    files = [a for i in range(scale.query_files)
             for a in ("--query", p(f"query{i}.ate"))]
    values = len(SWEEP_VALUES.split(","))
    return [
        Op("eval", ("eval", "--ckpt", p("model.atck"), *pair, *files),
           records=scale.query_files,
           work=scale.query_files * scale.query_rows, rows=scale.query_rows),
        Op("sweep", ("sweep", "--ckpt", p("model.atck"), *pair,
                     "--query", p("query0.ate"), "--param", "alpha",
                     "--values", SWEEP_VALUES),
           records=values, work=values, rows=scale.query_rows),
    ]


def summarize(op: Op, records: list[dict]) -> dict:
    """The values the gate compares, after checking the records' shape and
    internal consistency. Raises ValueError when a record is malformed."""
    if len(records) != op.records:
        raise ValueError(f"{len(records)} records, expected {op.records}")
    counts = []
    for r in records:
        if r.get("command") != op.kind:
            raise ValueError(f"record command {r.get('command')!r}")
        result = r.get("eval", r) if op.kind == "train" else r
        if "correct" not in result:
            continue
        correct, total = int(result["correct"]), int(result["total"])
        if total != op.rows or not 0 <= correct <= total:
            raise ValueError(f"correct/total {correct}/{total}, "
                             f"expected total {op.rows}")
        counts.append([correct, total])
    out = {"counts": counts}
    if op.kind == "train":
        epochs = records[0]["epochs"]
        losses = [e["loss"] for e in epochs]
        if not all(math.isfinite(x) for x in losses):
            raise ValueError(f"non-finite epoch loss in {losses}")
        out["losses"] = losses
        out["train_accuracy"] = epochs[-1]["accuracy"]
    if op.kind == "sweep":
        out["values"] = [r["value"] for r in records]
    return out


# Losses below LOSS_ATOL are compared absolutely: there the mean loss counts
# rows whose log-sum-exp rounded 1 + 1e-16 up, which rounding order decides.
LOSS_RTOL = 1e-7
LOSS_ATOL = 1e-12


def matches(got: dict, want: dict) -> bool:
    """Exact on counts, accuracies and sweep values; every epoch's loss (the
    final one included) within LOSS_RTOL. Earlier epochs are pinned too
    because at c=100 the final loss is down at rounding level."""
    if got.keys() != want.keys():
        return False
    for k, v in want.items():
        if k == "losses":
            if len(got[k]) != len(v) or not all(
                    math.isclose(g, x, rel_tol=LOSS_RTOL, abs_tol=LOSS_ATOL)
                    for g, x in zip(got[k], v)):
                return False
        elif got[k] != v:
            return False
    return True
