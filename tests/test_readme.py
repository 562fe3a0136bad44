"""README's python examples run as written and do what their text says.

Claims covered:
  * the Cantor bracket holds log 2 / log 3
  * the gaussian(5) solve stops at state_cap
  * the Layout block names exactly the package's modules
"""

import math
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)


def _run(block):
    scope = {}
    exec(compile(block, str(README), "exec"), scope)
    return scope


def test_readme_examples_hold_what_they_claim(capsys):
    cantor, gaussian = _python_blocks()
    res = _run(cantor)["res"]
    assert res.s_lower <= math.log(2) / math.log(3) <= res.s_upper
    assert capsys.readouterr().out.split() == [str(res.s_lower), str(res.s_upper)]
    assert _run(gaussian)["res"].stop_reason == "state_cap"


def test_the_layout_block_names_every_module():
    block = re.search(r"## Layout\n\n```\nsrc/gifsdim/\n(.*?)```", README.read_text(), re.DOTALL)
    named = [line.split()[0] for line in block.group(1).splitlines()]
    assert sorted(named) == sorted(p.name for p in (ROOT / "src" / "gifsdim").glob("*.py"))
    assert len(set(named)) == len(named)
