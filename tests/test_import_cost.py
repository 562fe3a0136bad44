"""Import-cost guard.

scipy.sparse.csgraph and scipy.sparse.linalg each add about 9 MB of
resident memory and over 0.1 s to a process that imports them.  A solve
needs neither, so importing gifsdim and solving must leave both unloaded.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROGRAM = """
import sys
import gifsdim
from gifsdim.scenarios import cf_system, moran_system

cantor = moran_system([1 / 3, 1 / 3], offsets=[0.0, 2 / 3], name="cantor")
for system in (cantor, cf_system(letters=(1, 2))):
    res = gifsdim.bowen_dimension(system, s_tol=1e-3)
    assert res.s_lower <= res.s_upper
print(sorted(name for name in ("scipy.sparse.csgraph", "scipy.sparse.linalg")
             if name in sys.modules))
"""


def test_solve_loads_no_csgraph_or_sparse_linalg():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", PROGRAM], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]", out.stderr
