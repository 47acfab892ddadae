"""Synthetic datasets for the benchmark experiments.

Both generators return plain numpy arrays: features float64, labels int64.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["TOY_TEACHER", "TaskData", "continual_tasks", "toy_dataset"]

# the toy target depends on features 0-2 only; 3 and 4 are pure noise
TOY_TEACHER = np.array([1.0, -2.0, 1.5])
TOY_USEFUL = (0, 1, 2)
TOY_USELESS = (3, 4)


def toy_dataset(n: int, rng: np.random.Generator):
    """Five standard-normal features; the label reads the first three, plus noise."""
    x = rng.standard_normal((n, 5))
    margin = x[:, :3] @ TOY_TEACHER + 0.1 * rng.standard_normal(n)
    return x, (margin > 0).astype(np.int64)


@dataclass
class TaskData:
    train: tuple  # (x, y)
    test: tuple


def _two_clusters(n: int, center: np.ndarray, rng: np.random.Generator):
    """Balanced two-class sample: unit-variance clusters at +/- center."""
    half = n // 2
    x = np.vstack([rng.standard_normal((half, center.size)) - center,
                   rng.standard_normal((n - half, center.size)) + center])
    y = np.array([0] * half + [1] * (n - half), dtype=np.int64)
    order = rng.permutation(n)
    return x[order], y[order]


def continual_tasks(task_count: int, rng: np.random.Generator, dim: int = 16,
                    separation: float = 6.0, train_n: int = 1000,
                    test_n: int = 400) -> list:
    """One two-class problem per task, each along its own random direction.

    Cluster means sit `separation` apart, so with unit variance the classes
    are cleanly separable and chance level is exactly one half.
    """
    tasks = []
    for _ in range(task_count):
        direction = rng.standard_normal(dim)
        direction /= np.linalg.norm(direction)
        center = direction * (separation / 2.0)
        tasks.append(TaskData(train=_two_clusters(train_n, center, rng),
                              test=_two_clusters(test_n, center, rng)))
    return tasks
