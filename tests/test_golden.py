"""Golden stdout digests of a fixed command set.

Every Monte Carlo case runs in csv and json with the usable CPU count
patched to 1 and 2 (so the line kernels run serial and on a pool), next to
site-vacancy at n = 300 and the oracle up to n = 8; the set takes about 0.4 s
in process. A change that moves draws or bytes updates DIGESTS in the same
commit and says which entries moved and why. numpy does not promise stable
streams across releases, so the table holds only for the numpy version and
bit generator it was recorded with, and another numpy fails the test instead
of skipping it.
"""
import hashlib

import numpy as np
import pytest

from pagepark import core
from pagepark.cli import main
from pagepark.core import SeedSpec

NUMPY = "2.4.6"
BIT_GENERATOR = "PCG64DXSM"

# argv by case name; a name is its command unless the command has two cases
MONTE_CARLO = {
    "density-convergence": ["density-convergence", "--n-list", "10,100,1000", "--replicas", "1000"],
    # a row on each side of finite._TURNING_MARKS: M of the n = 5000 row is
    # counted from its turning points, of the n = 100 row by the parity pass
    "density-convergence-long": ["density-convergence", "--n-list", "100,5000", "--replicas", "200"],
    "density-curve": ["density-curve", "--replicas", "20000"],
    "trials": ["trials", "--n-list", "100,1000", "--replicas", "40"],
    "autocovariance": ["autocovariance", "--k-list", "0,1,2,3,34", "--replicas", "20000"],
}
EXACT = {
    "site-vacancy": ["site-vacancy", "--n", "300"],
    "oracle": ["oracle", "--n", "2,3,4,5,6,7,8"],
}

# sha256 of stdout, by case and format
DIGESTS = {
    ("density-convergence", "csv"): "13b58bded2382996dabc0aa089c185d3635372fbd71605be704cc2b4ea1b1704",
    ("density-convergence", "json"): "61b4ead69b584fafe02787dc048fc5b4ef6f801971f50692540137173401b812",
    ("density-convergence-long", "csv"): "4942437e4cca6245e6de916a81320cbbb5f1bcb2d81e6f02d26209269052712c",
    ("density-convergence-long", "json"): "e412ecf022888b51b98c445f925d8ba9b25e1b571850922afea99934ee22f630",
    ("density-curve", "csv"): "ece1d98aeb96b50aafbcbed05c7188dea06b435e8911e1ae24fe8e997edfd6b5",
    ("density-curve", "json"): "90cb5a56c6033a05229c996b0e9c08f5fb1295076aed073ed614082a171ee869",
    ("trials", "csv"): "fd386d1f0252b90f46e3dd3e4ef726712bff986fe88800d40b8c763f333d12f7",
    ("trials", "json"): "2558683ab5a2d0ffe1e428b748e2d7709ccc8c1ac7e7cac8188c9cfbf4fcef22",
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


@pytest.mark.parametrize("case, fmt", sorted(DIGESTS))
def test_stdout_digest(case, fmt, capsys, monkeypatch):
    test_recorded_numpy_and_bit_generator()
    if case in EXACT:
        out = _stdout([*EXACT[case], "--format", fmt], capsys)
    else:
        outs = []
        for cpus in (1, 2):
            monkeypatch.setattr(core, "usable_cpus", lambda: cpus)
            outs.append(_stdout([*MONTE_CARLO[case], "--format", fmt], capsys))
        out, pooled = outs
        assert pooled == out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[case, fmt]
