"""Golden bytes of the command line's default outputs.

Pins the SHA-256 of every file that `taskgate continual`, `taskgate forget`
and `taskgate toy-init --repeats 3` write at their defaults, of the files
`continual --init gaussian` followed by `forget` write, and of a short conv
run's logits and leaves. A speed-up must leave all of them unchanged. A change that alters a default output on
purpose updates its hash here and says in CHANGES.md what changed and why.

The hashes were taken with Python 3.11, numpy 2.4.6 and OpenBLAS 0.3.31 on
x86-64. Another BLAS build or CPU kernel may round matrix products
differently and so fail every case here while the other tests pass.
"""

import hashlib

import numpy as np
import pytest

from taskgate import cli, layers, training
from taskgate import tensor as ops
from taskgate.payload import HATPayload

GOLDEN = {
    "continual_matrix.csv":
        "a64410a9a773a35dc356f3be0a7f1efa92adea2ff167ac0f8a5043920c376600",
    "continual_matrix.md":
        "99e53bb983a8a269d909c86e74da9be0d9d67dfafbf4f26b0184a5c148fb55a7",
    "continual.ckpt":
        "d3d7d143a63cc8bf0bc72f1d33452904a62950589fd06e3177318e22f81c094c",
    "forget_row.csv":
        "be3a961f53677a24c37070f97d8a63b06942dba287043c9e3fb9923301dbe3b8",
    "forget_row.md":
        "451fd9969b19d54dc823e41887a0402ab0c61fdd2ac8f6f965b56c8c55058620",
    "forget_report.txt":
        "0c279212190ff958435983829d2b4b2acc782f2b1720547cb5652600986a5bce",
    "toy_metrics.csv":
        "3289869421dbeaf13420330d0c788b0077c5474622006ba87fc002f44804bb06",
    "toy_summary.md":
        "30efb229059815fc6b0fdc3fe788eb1d6accae8b5bd3e9f4702095b53c20aee0",
}


# `continual --init gaussian` then `forget`: the one run of the command line
# whose forget zeroes trunk weights (l1 weights=32 biases=2)
GOLDEN_GAUSSIAN = {
    "continual_matrix.csv":
        "33d1dd39862a14642a125e972204687db76cc7318c92f33383fa096ab5d955aa",
    "continual_matrix.md":
        "9558d1d72e6c7f6d5f1e3758ea03fc85313dd765a70f99b8cba74e3b24cbebb2",
    "continual.ckpt":
        "b2618a48b8d7ac6090856392514ac60bff67db47eeb11cdaf709f83e5c2be762",
    "forget_row.csv":
        "32090674312349ffb511e3c10a2e6aca32b39d1938313576d5fcef281f5125b0",
    "forget_row.md":
        "4247a81bef83e429d2cab9cc0f5f0439b4d1dbc89673e8534a35ce060657a018",
    "forget_report.txt":
        "c2917111fef4e63a0384157ce8d1f3822e69b2cef5b6648f94b873969557a20d",
}


def _run(out, *argvs):
    for argv in argvs:
        assert cli.main(argv + ["--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("golden"), ["continual"], ["forget"],
                ["toy-init", "--repeats", "3"])


@pytest.fixture(scope="module")
def gaussian_outputs(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("golden_gaussian"),
                ["continual", "--init", "gaussian"], ["forget"])


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_default_output_bytes(outputs, name):
    assert _digest(outputs / name) == GOLDEN[name], f"{name} changed"


@pytest.mark.parametrize("name", sorted(GOLDEN_GAUSSIAN))
def test_gaussian_init_output_bytes(gaussian_outputs, name):
    assert _digest(gaussian_outputs / name) == GOLDEN_GAUSSIAN[name], f"{name} changed"


# conv(3->4, pad 1) -> ReLU -> conv(4->8, stride 2, pad 1) -> ReLU -> flatten
# -> task-indexed head on 3x12x12 images, 2 tasks of 64 samples, one epoch
# at batch 32: every task's logits on its test images, then every leaf. Its
# convolutions are BLAS products too, so the caveat above holds here as well.
GOLDEN_CONV = "67a2be1dbe4ff4815bc8b355a53c9681b4921a1efec9fb69561c24a81eb3d3fe"


def _conv_run():
    rng = np.random.default_rng(2026)
    count, shape = 2, (3, 12, 12)
    model = layers.Sequential(
        layers.HATConv2d(3, 4, 3, count, "conv1", rng, padding=1),
        layers.ReLU(),
        layers.HATConv2d(4, 8, 3, count, "conv2", rng, stride=2, padding=1),
        layers.ReLU(),
        lambda x: ops.reshape(x, (x.shape[0], -1)),
        layers.task_indexed_linear(8 * 6 * 6, 2, count, "head", rng),
    )
    training.init_embeddings(model.maskers(), "ones")
    cfg = training.TrainerConfig(task_count=count, s_max=400.0, schedule="cosine",
                                 init="ones", lr=0.05, momentum=0.5, reg_lambda=0.075,
                                 epochs=1, batch_size=32, seed=3)
    tests = []
    for t in range(count):
        template = rng.standard_normal(shape)
        y = rng.permutation(np.arange(96) % 2)
        x = (rng.standard_normal((96,) + shape)
             + (2 * y - 1).reshape(-1, 1, 1, 1) * 0.15 * template)
        training.train_task(model, (x[:64], y[:64]), t, cfg)
        tests.append(x[64:])
    digest = hashlib.sha256()
    for t, x in enumerate(tests):
        logits = model.forward(HATPayload(ops.Tensor(x), task=t)).masked_data().data
        digest.update(np.ascontiguousarray(logits).tobytes())
    seen = set()
    for t in range(count):
        for leaf in model.task_parameters(t):
            if id(leaf) not in seen:
                seen.add(id(leaf))
                digest.update(np.ascontiguousarray(leaf.data).tobytes())
    return digest.hexdigest()


def test_conv_run_bytes():
    assert _conv_run() == GOLDEN_CONV, "conv logits or leaves changed"
