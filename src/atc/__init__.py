"""Two-branch few-shot classification head over precomputed embeddings:
a learnable visual cache fused with an instance-adaptive textual cache."""

from .caches import (TextualCache, VisualCache, build_textual_cache,
                     build_visual_cache)
from .conditionnet import (ConditionNetParams, condition_backward,
                           condition_forward, init_condition_net)
from .dataio import (EmbeddingSet, SynthConfig, read_embeddings,
                     sample_episode, synth_dataset, write_embeddings)
from .model import (AtcModel, fuse, loss_and_grads, predict_batch,
                    predictions, zero_shot_logits)
from .numerics import Rng, l2_normalize_rows, seed_child
from .trainer import (Checkpoint, TrainConfig, adam_step, load_checkpoint,
                      save_checkpoint, train)

__all__ = [n for n in dir() if not n.startswith("_")]
