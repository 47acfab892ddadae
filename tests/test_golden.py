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
