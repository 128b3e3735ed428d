"""Acceptance suite. One test per criterion; each prints a pass/fail line."""

import numpy as np

from atc import dataio, trainer
from atc.caches import build_textual_cache, build_visual_cache
from atc.cli import main
from atc.conditionnet import init_condition_net
from atc.model import (AtcModel, _text_branch, _visual_scores, loss_and_grads,
                       predict_batch, zero_shot_logits)
from atc.numerics import Rng
from oracles import (check_gradients, shift_model, shifted_text_scores,
                     visual_scores)

# Pinned from the first verified run of the default generator
# (n=10, dim=64, k=16, queries=50, sigma=0.35, text_noise=0.15, seed=7)
# with TrainConfig(epochs=20, lr=3e-5, batch_size=32, leave_self_out=True,
# seed=7). Tolerance: +/- 0.5 accuracy points.
PIN_ZEROSHOT = 0.612
PIN_UNTRAINED = 0.752
PIN_TRAINED = 0.758
PIN_TOL = 0.005

A5_TRAIN = dict(epochs=20, learning_rate=3e-5, batch_size=32,
                leave_self_out=True, seed=7)


def _build(sets, adaptive=True, alpha=1.0, beta=1.0):
    textual = build_textual_cache(sets["text"])
    visual = build_visual_cache(sets["support"], sets["text"].num_classes)
    net = init_condition_net(sets["text"].dim, 8, 64, Rng(7).child(1000))
    return AtcModel(textual, visual, net, alpha=alpha, beta=beta,
                    adaptive_text=adaptive)


def _accuracy(m, query_set):
    preds = predict_batch(m, query_set.features)
    return float(np.mean(preds == query_set.labels))


def _report(name, ok, detail):
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


def test_a1_reduction_identity():
    cfg = dataio.SynthConfig(queries_per_class=100)   # 1000 queries
    sets = dataio.synth_dataset(cfg)
    m = _build(sets, alpha=0.0, beta=1.0)
    preds = predict_batch(m, sets["query"].features)
    zs = np.argmax(zero_shot_logits(sets["text"].features,
                                    sets["query"].features), axis=1)
    disagreements = int(np.sum(preds != zs))
    _report("A1", disagreements == 0,
            f"{disagreements} disagreements over {preds.size} queries")


def _a2_model(seed, renorm, activation, gamma):
    """A small synthetic head, with `W_out` and the visual biases started
    off zero so every gate parameter sees gradient, and its query set."""
    cfg = dataio.SynthConfig(num_classes=3, dim=16, shots=2,
                             queries_per_class=2, sigma=0.3, seed=seed)
    sets = dataio.synth_dataset(cfg)
    textual = build_textual_cache(sets["text"], renormalize=renorm)
    visual = build_visual_cache(sets["support"], cfg.num_classes,
                                mode="biases", renormalize=renorm)
    net = init_condition_net(cfg.dim, chunk_count=4, hidden_size=6,
                             rng=Rng(seed).child(1))
    rng = Rng(seed).child(2)
    np.copyto(net.W_out, 0.05 * rng.normal(net.W_out.shape))
    np.copyto(visual.biases, 0.05 * rng.normal(visual.biases.shape))
    m = AtcModel(textual, visual, net, logit_scale=5.0, activation=activation,
                 tip_gamma=gamma)
    return m, sets["query"].features, sets["query"].labels


def test_a2_gradient_suite():
    worst = 0.0
    for seed in range(5):
        for renorm in (True, False):
            for activation, gamma in (("linear", 1.0), ("tip", 2.0)):
                report = check_gradients(
                    *_a2_model(seed, renorm, activation, gamma),
                    eps=1e-4, tol=1e-4)
                worst = max(worst, max(g.max_rel_err
                                       for g in report.groups.values()))
                assert report.passed, (seed, renorm, activation,
                                       report.summary())
    _report("A2", worst < 1e-4,
            f"worst rel err {worst:.3e} over 5 seeds x renorm x activation")


def test_a3_branch_oracle():
    worst = 0.0
    rng = Rng(33)
    for trial in range(100):
        n = 2 + trial % 4            # <= 5 classes
        k = 1 + trial % 4            # <= 4 shots
        dim = 4 + 2 * (trial % 7)    # <= 16 dims
        sets = dataio.synth_dataset(dataio.SynthConfig(
            num_classes=n, dim=dim, shots=k, queries_per_class=1,
            sigma=0.4, seed=trial))
        cache = build_visual_cache(sets["support"], n)
        np.copyto(cache.biases, 0.2 * rng.normal(cache.biases.shape))
        m = AtcModel(build_textual_cache(sets["text"]), cache,
                     init_condition_net(dim, 1, 2, Rng(trial)))
        f = rng.normal(dim)
        f /= np.linalg.norm(f)
        f1 = _visual_scores(m, f[None, :], None, True)[0][0]
        expected = visual_scores(f, cache.support + cache.biases,
                                 sets["support"].labels, n)
        worst = max(worst, float(np.max(np.abs(f1 - expected))))
    _report("A3", worst < 1e-12,
            f"max |matrix - double loop| = {worst:.3e} over 100 instances")


def test_a4_degeneracy_law():
    # renorm OFF: logit deltas constant across classes, net grads vanish
    sets = dataio.synth_dataset(dataio.SynthConfig(
        num_classes=4, dim=16, shots=2, queries_per_class=4, seed=5))
    textual = build_textual_cache(sets["text"], renormalize=False)
    F = sets["query"].features
    s = Rng(6).normal(16)
    shifted = _text_branch(shift_model(textual.class_texts, s,
                                       renormalize=False), F, True)[0]
    deltas = shifted - F @ textual.class_texts.T
    spread = float(np.max(np.max(deltas, axis=1) - np.min(deltas, axis=1)))

    visual = build_visual_cache(sets["support"], 4, renormalize=False)
    net = init_condition_net(16, 4, 8, Rng(5).child(9))
    np.copyto(net.W_out, 0.1 * Rng(8).normal(net.W_out.shape))
    m = AtcModel(textual, visual, net)
    _, grads, _ = loss_and_grads(m, sets["query"].features,
                                 sets["query"].labels)
    net_grad = max(float(np.max(np.abs(g))) for k, g in grads.items()
                   if k.startswith("net."))

    # renorm ON: a constructed bias flips the argmax
    q = np.array([[0.6, 0.8]])
    s_flip = np.array([-0.4, 0.8])
    base_arg = int(np.argmax(_text_branch(shift_model(np.eye(2), np.zeros(2)),
                                          q, True)[0]))
    new_f2 = _text_branch(shift_model(np.eye(2), s_flip), q, True)[0][0]
    new_arg = int(np.argmax(new_f2))
    flipped = (base_arg == 1 and new_arg == 0 and np.max(np.abs(
        new_f2 - shifted_text_scores(q[0], np.eye(2), s_flip))) < 1e-12)

    ok = spread < 1e-10 and net_grad <= 1e-10 and flipped
    _report("A4", ok, f"delta spread {spread:.2e}, net grad {net_grad:.2e}, "
                      f"renorm-on argmax flip {flipped}")


def test_a5_learning_property():
    sets = dataio.synth_dataset(dataio.SynthConfig())
    query = sets["query"]
    zs = float(np.mean(np.argmax(
        zero_shot_logits(sets["text"].features, query.features), axis=1)
        == query.labels))
    untrained = _accuracy(_build(sets), query)

    m = _build(sets)
    ckpt = trainer.train(m, sets["support"].features, sets["support"].labels,
                         trainer.TrainConfig(**A5_TRAIN))
    trained = _accuracy(m, query)
    losses = [e["loss"] for e in ckpt.metrics[:5]]
    decreasing = all(losses[i + 1] < losses[i] for i in range(4))

    ok = (trained >= zs and trained >= untrained and decreasing
          and abs(zs - PIN_ZEROSHOT) <= PIN_TOL
          and abs(untrained - PIN_UNTRAINED) <= PIN_TOL
          and abs(trained - PIN_TRAINED) <= PIN_TOL)
    _report("A5", ok,
            f"trained {trained:.3f} >= zeroshot {zs:.3f}, "
            f">= untrained {untrained:.3f}, loss decreasing {decreasing}, "
            f"pins ({PIN_ZEROSHOT}, {PIN_UNTRAINED}, {PIN_TRAINED}) +/- {PIN_TOL}")


def test_a6_ablation_trend():
    # lr raised so the bias network actually moves during training
    cfg = dict(A5_TRAIN, learning_rate=3e-4)
    means = {}
    for adaptive in (True, False):
        accs = []
        for seed in range(10):
            sets = dataio.synth_dataset(dataio.SynthConfig(seed=100 + seed))
            m = _build(sets, adaptive=adaptive)
            trainer.train(m, sets["support"].features,
                          sets["support"].labels, trainer.TrainConfig(**cfg))
            accs.append(_accuracy(m, sets["query"]))
        means[adaptive] = float(np.mean(accs))
    diff = means[True] - means[False]
    ok = means[True] >= means[False] - 0.005
    _report("A6", ok, f"adaptive mean {means[True]:.4f} vs fixed "
                      f"{means[False]:.4f} (diff {diff:+.4f} >= -0.005)")


def test_a7_determinism_and_codecs(tmp_path):
    d = tmp_path
    for sub in ("a", "b"):
        assert main(["synth", "--out", str(d / sub), "--classes", "4",
                     "--dim", "16", "--shots", "3", "--queries", "4",
                     "--seed", "13"]) == 0
    same_files = all(
        (d / "a" / f"{r}.ate").read_bytes() == (d / "b" / f"{r}.ate").read_bytes()
        for r in ("text", "support", "query"))

    blobs = []
    for sub in ("a", "b"):
        ckpt = d / f"{sub}.atck"
        assert main(["train", "--text", str(d / "a" / "text.ate"),
                     "--support", str(d / "a" / "support.ate"),
                     "--ckpt", str(ckpt), "--shots", "3", "--seed", "4",
                     "--epochs", "3"]) == 0
        blobs.append(ckpt.read_bytes())
    same_ckpt = blobs[0] == blobs[1]

    back = trainer.load_checkpoint(d / "a.atck")
    trainer.save_checkpoint(back, d / "rt.atck")
    round_trip = (d / "rt.atck").read_bytes() == blobs[0]

    emb = dataio.read_embeddings(d / "a" / "text.ate")
    dataio.write_embeddings(emb, d / "rt.ate")
    emb_round_trip = (d / "rt.ate").read_bytes() == \
        (d / "a" / "text.ate").read_bytes()

    bad = d / "bad.ate"
    bad.write_bytes(b"XXXX" + bytes(40))
    exit_code = main(["zeroshot", "--text", str(bad), "--query", str(bad)])
    bad_ckpt = d / "bad.atck"
    bad_ckpt.write_bytes(blobs[0][:20])
    exit_code2 = main(["eval", "--ckpt", str(bad_ckpt),
                       "--text", str(d / "a" / "text.ate"),
                       "--support", str(d / "a" / "support.ate"),
                       "--query", str(d / "a" / "query.ate")])

    ok = (same_files and same_ckpt and round_trip and emb_round_trip
          and exit_code == 3 and exit_code2 == 3)
    _report("A7", ok,
            f"files {same_files}, ckpt {same_ckpt}, round trips "
            f"{round_trip}/{emb_round_trip}, corrupt exits {exit_code},{exit_code2}")


def test_a8_sweep_harness(tmp_path):
    import json
    d = tmp_path
    assert main(["synth", "--out", str(d), "--classes", "4", "--dim", "16",
                 "--shots", "3", "--queries", "6", "--seed", "17"]) == 0
    ckpt = d / "m.atck"
    assert main(["train", "--text", str(d / "text.ate"),
                 "--support", str(d / "support.ate"), "--ckpt", str(ckpt),
                 "--shots", "3", "--seed", "2", "--epochs", "3"]) == 0
    sweep_rep = d / "sweep.jsonl"
    assert main(["sweep", "--ckpt", str(ckpt), "--text", str(d / "text.ate"),
                 "--support", str(d / "support.ate"),
                 "--query", str(d / "query.ate"), "--param", "alpha",
                 "--values", "0,0.5,1,1.5,2", "--report", str(sweep_rep)]) == 0
    eval_rep = d / "eval.jsonl"
    assert main(["eval", "--ckpt", str(ckpt), "--text", str(d / "text.ate"),
                 "--support", str(d / "support.ate"),
                 "--query", str(d / "query.ate"),
                 "--report", str(eval_rep)]) == 0
    with open(sweep_rep) as f:
        records = [json.loads(line) for line in f]
    with open(eval_rep) as f:
        eval_acc = json.loads(f.readline())["accuracy"]
    betas_pinned = all(r["beta"] == 1.0 for r in records)
    at_one = [r for r in records if r["value"] == 1.0][0]
    ok = (len(records) == 5 and betas_pinned
          and at_one["accuracy"] == eval_acc)
    _report("A8", ok, f"{len(records)} records, beta pinned {betas_pinned}, "
                      f"alpha=1 accuracy {at_one['accuracy']} == eval {eval_acc}")
