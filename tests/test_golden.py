"""Golden stdout digests of a fixed command set.

Every Monte Carlo command runs in csv and json at --threads 1 and 2, next to
site-vacancy at n = 300 and the oracle up to n = 8; the set takes about 0.3 s
in process. A change that moves draws or bytes updates DIGESTS in the same
commit and says which entries moved and why. numpy does not promise stable
streams across releases, so the table holds only for the numpy version and
bit generator it was recorded with, and another numpy fails the test instead
of skipping it.
"""
import hashlib

import numpy as np
import pytest

from pagepark.cli import main
from pagepark.core import SeedSpec

NUMPY = "2.4.6"
BIT_GENERATOR = "PCG64DXSM"

MONTE_CARLO = {
    "density-convergence": ["--n-list", "10,100,1000", "--replicas", "1000"],
    "density-curve": ["--replicas", "20000"],
    "trials": ["--n-list", "100,1000", "--replicas", "40"],
    "autocovariance": ["--k-list", "0,1,2,3,34", "--replicas", "20000"],
}
EXACT = {
    "site-vacancy": ["--n", "300"],
    "oracle": ["--n", "2,3,4,5,6,7,8"],
}

# sha256 of stdout, by command and format
DIGESTS = {
    ("density-convergence", "csv"): "a01b4c414c9aefe8ebcd312ad5a626c292f9a6ebc2834db9f0c2b86be996605a",
    ("density-convergence", "json"): "13f9ada5768b91e22e2546546078ef223643e1f5454868845ac965b524cebe83",
    ("density-curve", "csv"): "ece1d98aeb96b50aafbcbed05c7188dea06b435e8911e1ae24fe8e997edfd6b5",
    ("density-curve", "json"): "90cb5a56c6033a05229c996b0e9c08f5fb1295076aed073ed614082a171ee869",
    ("trials", "csv"): "7c75661ac8289a873fe349b9fe086a17bc3a33634e84b21b88a7aa4b62c4aa6f",
    ("trials", "json"): "0253af0e58b9868804015d24538fd91a861ce6d85b1ebd6800eb18cc06723d33",
    ("autocovariance", "csv"): "a75824d187f15c6fc430beb49f31e6f7d218bf15bed9b6144357c26128aeb101",
    ("autocovariance", "json"): "bc38a21be4771af8b565c79412359a3097909e8d81f8cc180af0de162db6fb03",
    ("site-vacancy", "csv"): "95a80a79351ea2441d97fff3de26e48696fba2e73695ec6a016391b02f1dc21d",
    ("site-vacancy", "json"): "e951178227ad4d1c239e361e97af551d19237a76a3b47271c5733c6ac9a121e8",
    ("oracle", "json"): "008538397544bee9e84c35441384e5fc491406f8052df4fbc7c8b0db3211fd77",
}


def _stdout(argv, capsys) -> str:
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, argv
    return out


def test_recorded_numpy_and_bit_generator():
    assert np.__version__ == NUMPY, f"digests recorded with numpy {NUMPY}, running numpy {np.__version__}"
    got = type(SeedSpec(0).generator().bit_generator).__name__
    assert got == BIT_GENERATOR, f"digests recorded with {BIT_GENERATOR}, streams now come from {got}"


@pytest.mark.parametrize("command, fmt", sorted(DIGESTS))
def test_stdout_digest(command, fmt, capsys):
    test_recorded_numpy_and_bit_generator()
    if command in EXACT:
        out = _stdout([command, *EXACT[command], "--format", fmt], capsys)
    else:
        out, threaded = (
            _stdout([command, *MONTE_CARLO[command], "--format", fmt, "--threads", t], capsys) for t in ("1", "2")
        )
        assert threaded == out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[command, fmt]
