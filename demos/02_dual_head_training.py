#!/usr/bin/env python3
"""Training the dual-head evidential MLP on an open-set blob dataset.

Builds a synthetic pool whose unlabeled half mixes known and unknown
classes, trains with the evidential loss plus the alternating
agreement/disagreement epochs, and shows how the resulting uncertainty
scores separate the unknown-class examples the oracle would reject.
"""

import numpy as np

from openset_al import (
    BlobSpec,
    Pool,
    TrainConfig,
    data_uncertainty,
    discrepancy_score,
    distribution_uncertainty,
    evaluate_accuracy,
    forward,
    init_model,
    make_blobs,
    train_cycle,
)

spec = BlobSpec(num_known=4, num_unknown=4, dim=16, per_class=250, seed=0)
split = make_blobs(spec, r=0.5)
x_lab, y_lab = split.labeled_arrays()
x_unl = split.unlabeled_features()
unknown = split.unknown_unlabeled_mask()

print(f"pools: labeled={len(split.labeled_ids)}  unlabeled={len(split.unlabeled_ids)} "
      f"({unknown.sum()} unknown)  test={len(split.ids(Pool.TEST))}")

cfg = TrainConfig(seed=0)
model = init_model(spec.dim, split.num_classes, hidden_widths=cfg.hidden_widths,
                   seed=0, head_init_scale=cfg.head_init_scale)
print(f"\ntraining: {cfg.epochs} evidential epochs (lr {cfg.lr}, milestones "
      f"{cfg.lr_milestones}), then {cfg.discrepancy_epochs} alternating "
      "agreement/disagreement epochs on the unlabeled pool ...")
train_cycle(model, x_lab, y_lab, x_unl, cfg, rng=np.random.default_rng(0))

x_test, y_test = split.test_arrays()
print(f"test accuracy on known classes: {evaluate_accuracy(model, x_test, y_test):.3f}")

a1, a2 = forward(model, x_unl)
avg = 0.5 * (a1 + a2)
u_data = data_uncertainty(avg)
u_dist = distribution_uncertainty(avg)
s_dis = discrepancy_score(a1, a2)

print("\nscore means over the unlabeled pool")
print("=" * 56)
print(f"{'score':20s} {'known-class':>14s} {'unknown-class':>14s}")
for name, vals in (("expected entropy", u_data),
                   ("mutual information", u_dist),
                   ("head discrepancy", s_dis)):
    print(f"{name:20s} {vals[~unknown].mean():14.4f} {vals[unknown].mean():14.4f}")

print("""
The expected entropy separates the two populations cleanly: unknown
clusters get no label support, so the KL regularizer keeps their
evidence flat and their predictions high-entropy.  The raw head
discrepancy runs the other way at this scale; the label evidence of
confident known examples is exponentially large, so even a small
relative disagreement between the heads dominates the L2 distance.
The selection stage therefore leans on the entropy split, with the
discrepancy kept as a subordinate term.""")
