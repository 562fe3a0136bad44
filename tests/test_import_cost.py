"""Import-cost guard.

numpy is gifsdim's only runtime dependency.  Importing scipy.sparse alone
adds about 0.2 s and 20 MB of resident memory to a process, more than a
typical solve costs, so importing gifsdim, solving and running a
truncation ladder must leave every scipy module unloaded.  A solve also
calls no numpy.linalg function: the first LAPACK call adds about 1.3 MB
of resident memory, and the ladder's chain elimination (gifsdim.chains)
solves its small Perron problems without one.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROGRAM = """
import sys

import numpy

def scipy_modules():
    return sorted(name for name in sys.modules
                  if name == "scipy" or name.startswith("scipy."))

linalg_calls = []

def recording(name, function):
    def wrapper(*args, **kwargs):
        linalg_calls.append(name)
        return function(*args, **kwargs)
    return wrapper

for name in dir(numpy.linalg):
    function = getattr(numpy.linalg, name)
    if callable(function) and not isinstance(function, type):
        setattr(numpy.linalg, name, recording(name, function))

import gifsdim
from gifsdim.pressure import PotentialSpec, truncation_ladder
from gifsdim.scenarios import cf_system, moran_system
print("import", scipy_modules())

cantor = moran_system([1 / 3, 1 / 3], offsets=[0.0, 2 / 3], name="cantor")
for system in (cantor, cf_system(letters=(1, 2))):
    res = gifsdim.bowen_dimension(system, s_tol=1e-3)
    assert res.s_lower <= res.s_upper
print("solve", scipy_modules())

ladder = truncation_ladder(cf_system(), PotentialSpec(1.5), (5, 10))
assert ladder[-1].scope == "full"
print("ladder", scipy_modules())

res = gifsdim.bowen_dimension(gifsdim.ladder_system(), s_tol=1e-3)
assert res.s_lower <= res.s_upper
print("linalg", linalg_calls)
"""


def test_import_and_solve_load_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", PROGRAM], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split("\n")[:4] == [
        "import []", "solve []", "ladder []", "linalg []"], out.stdout + out.stderr
