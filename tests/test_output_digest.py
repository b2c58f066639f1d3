"""scripts/output_digest.py prints the same records on every run."""

import subprocess
import sys
from pathlib import Path

from ergokit import ensemble

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_digest.py"


def test_two_runs_print_identical_records(tmp_path):
    # side by side, each into its own file so neither waits on a full pipe
    paths = [tmp_path / f"run{i}.txt" for i in range(2)]
    runs = []
    for path in paths:
        with open(path, "w") as out:
            runs.append(subprocess.Popen([sys.executable, str(SCRIPT)], stdout=out,
                                         stderr=subprocess.PIPE, text=True))
    for run in runs:
        _, err = run.communicate(timeout=600)
        assert run.returncode == 0, err
    first, second = (path.read_text() for path in paths)
    assert first == second
    lines = first.splitlines()
    assert len(lines) > 4000
    assert all(len(line.split(" ")) == 2 for line in lines)
    assert any(line.startswith("cli.qutrit.curve.csv ") for line in lines)
    # the largest feasible n per d, from the byte budget alone
    limits = dict(line.split(" ") for line in lines if line.startswith("limit."))
    assert set(limits) == {"limit.table_bytes_per_row",
                           *(f"limit.d{d}.largest_n" for d in (3, 4, 6, 8))}
    for d in (3, 4, 6, 8):
        n = int(limits[f"limit.d{d}.largest_n"])
        assert ensemble._table_error(n, d) is None
        assert ensemble._table_error(n + 1, d) is not None
