"""The traced run's counts repeat exactly for a given seed.

    python3 -m pytest perfbench/test_counts.py

Later changes cite these counts (automorphisms yielded, subgroups,
canonical_form calls, expansions made versus kept, tries per decision) as
counts, so two runs with the same seed must report the same values.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"


def traced_counts(workload, seed):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=300,
        cwd=RUN.parent.parent)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"], out.stderr
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] != "s"}


@pytest.mark.parametrize("workload", ["corpus-quotients", "beyond-cap",
                                      "cover-decisions", "subgroup-lattice"])
def test_counts_repeat_for_a_seed(workload):
    first = traced_counts(workload, 7)
    assert any(first.values())
    assert first == traced_counts(workload, 7)
