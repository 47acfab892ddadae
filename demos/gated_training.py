"""
Sequential training with per-task gates: learn three tasks, harm none.

Each gated layer owns one trainable embedding row per task; the sigmoid of
(scale * embedding) gates the layer's units while the task trains. Once a
task is finalized, its mask is stored binarized and the task runs on that
stored mask; the units it claims join the cumulative mask, and gradient
hooks stop later tasks from touching the weights it claimed.

Run with:  python3 demos/gated_training.py
"""

import numpy as np

from taskgate import (HATLinear, ReLU, Sequential, TrainerConfig, evaluate,
                      init_embeddings, task_indexed_linear, train_task)
from taskgate.data import continual_tasks

TASKS = 3
rng = np.random.default_rng(0)

# Three linearly separable binary problems in a shared 12-dim input space.
tasks = continual_tasks(TASKS, rng, dim=12, train_n=400, test_n=200)

model = Sequential(
    HATLinear(12, 24, TASKS, "l1", np.random.default_rng(1)),
    ReLU(),
    HATLinear(24, 24, TASKS, "l2", np.random.default_rng(2)),
    ReLU(),
    task_indexed_linear(24, 2, TASKS, "head", np.random.default_rng(3)),
)
init_embeddings(model.maskers(), "ones")

# Small batches give the annealing many steps inside its soft region each
# epoch, which is what lets the capacity penalty actually close gates.
cfg = TrainerConfig(task_count=TASKS, epochs=6, batch_size=8, seed=0,
                    reg_lambda=0.6, momentum=0.5)

# ---------------------------------------------------------------------------
# Train the tasks one after another. After each one, re-evaluate everything
# trained so far: the numbers for earlier tasks must not move.

history = {}
for t in range(TASKS):
    train_task(model, tasks[t].train, t, cfg)
    row = [evaluate(model, tasks[c].test, c) for c in range(t + 1)]
    history[t] = row
    cells = "  ".join(f"task{c}={acc:.4f}" for c, acc in enumerate(row))
    print(f"after training task {t}:  {cells}")

for c in range(TASKS - 1):
    drift = abs(history[TASKS - 1][c] - history[c][c])
    print(f"task {c} accuracy drift across later training: {drift:.17f}")

# ---------------------------------------------------------------------------
# Capacity accounting. The first task pays full price for every unit it
# claims, so it ends up frugal; later tasks reuse claimed units for free
# (reading a protected unit costs nothing) and only pay for fresh ones.

for masker in model.maskers():
    used = int(masker.cumulative_mask.sum())
    total = masker.cumulative_mask.size
    per_task = {t: int(m.sum()) for t, m in sorted(masker.stored_task_masks.items())}
    print(f"{masker.layer_tag}: {used}/{total} units claimed overall, "
          f"per-task claims {per_task}")
