"""`scripts/digest_outputs.py`, the bit-for-bit check between two checkouts,
prints the same digests on two runs of one checkout."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "digest_outputs.py"


def test_digest_script_runs_small_and_repeats():
    runs = [
        subprocess.run([sys.executable, str(SCRIPT), "--small"], capture_output=True, text=True, check=True).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    rows = [line.split() for line in runs[0].splitlines()]
    names = [name for _, name in rows]
    assert len(names) == len(set(names)) > 100
    assert all(len(digest) == 64 for digest, _ in rows)
    for expected in ("disc/bridge=0/survival_snapshots", "box3/bridge=1/fleming_viot_run", "scale1d/_exit_mc", "measures/histogram_from_samples"):
        assert expected in names
    chain = [name for name in names if name.startswith("chain/")]
    assert {"chain/dense5/qsd_spectral", "chain/dense40/check_condition_A_prime"} <= set(chain)
    assert all(name.startswith(("chain/dense5/", "chain/dense40/")) for name in chain)  # n <= 40
    cli = [name for name in names if name.startswith("cli/")]
    assert cli == ["cli/configs/finite_verify_sym2.cfg", "cli/configs/simulate_bm.cfg"]
