"""Golden bytes of the command line's default outputs.

Pins the SHA-256 of every file that `taskgate continual`, `taskgate forget`
and `taskgate toy-init --repeats 3` write at their defaults. A speed-up must
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


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    for argv in (["continual"], ["forget"], ["toy-init", "--repeats", "3"]):
        assert cli.main(argv + ["--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_default_output_bytes(outputs, name):
    digest = hashlib.sha256((outputs / name).read_bytes()).hexdigest()
    assert digest == GOLDEN[name], f"{name} changed"
