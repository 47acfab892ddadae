"""Golden bytes of the command line's default outputs.

Pins the SHA-256 of every file that `taskgate continual`, `taskgate forget`
and `taskgate toy-init --repeats 3` write at their defaults, and of the
files `continual --init gaussian` followed by `forget` write. A speed-up must
leave all of them unchanged. A change that alters a default output on
purpose updates its hash here and says in CHANGES.md what changed and why.

The hashes were taken with Python 3.11, numpy 2.4.6 and OpenBLAS 0.3.31 on
x86-64. Another BLAS build or CPU kernel may round matrix products
differently and so fail every case here while the other tests pass.
"""

import hashlib

import pytest

from taskgate import cli

GOLDEN = {
    "continual_matrix.csv":
        "a64410a9a773a35dc356f3be0a7f1efa92adea2ff167ac0f8a5043920c376600",
    "continual_matrix.md":
        "99e53bb983a8a269d909c86e74da9be0d9d67dfafbf4f26b0184a5c148fb55a7",
    "continual.ckpt":
        "642f6d4b2173b42b77e17c27ecd83caf977ba0c6a4cd499248ba492f0e29de5b",
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
# whose forget zeroes trunk weights (l1 weights=48 biases=3)
GOLDEN_GAUSSIAN = {
    "continual_matrix.csv":
        "6a3ebc77ca0eac7b2208175b20441add80a08ac2fec2953305020150516e2ec1",
    "continual_matrix.md":
        "2122b267b982777d37a98467160627afd78e8d16cc1409c1e1f11f18c2e7c43b",
    "continual.ckpt":
        "536232c1f6a6f7fb15de98a21b09387bc73669249e0427c3d2c1f237142e19c5",
    "forget_row.csv":
        "a6c27ca49cbceb943e75bc58fcfde68e3a7464abce4c7ef7a9f6110126393f9a",
    "forget_row.md":
        "c4286dc8bd8413ef80a5895625d8c2e1c980c08d50723212607b3699898c59d7",
    "forget_report.txt":
        "ce08a3c7325946c27d6dd27c51de6e84370c17dab4375452eb1dd1a3ebdb710f",
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
