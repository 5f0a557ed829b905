"""The README's library quick tour runs, and computes what its comments say."""

import re
from pathlib import Path


def test_quick_tour_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    names = {}
    exec(re.search(r"```python\n(.*?)```", readme, re.S).group(1), names)
    ob, L, ac, q = names["ob"], names["L"], names["ac"], names["q"]
    assert L["N5"].is_modular is False and ob.eval_law("LM0", ac).holds is True
    assert ob.find_right_adjoint(names["c"]).values == ac.right.values == (1, 2)
    assert all(report.holds for report in ob.is_principal(q, q.lattice.index("(2)")))
