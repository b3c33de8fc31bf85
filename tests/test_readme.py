import math
import re
from pathlib import Path


def test_library_example_runs(capsys):
    """README's `python` block runs as printed and prints SCR_ES > 0 and a
    critical shock delta* in (0, 1)."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.MULTILINE | re.DOTALL)
    exec(compile(block, "README.md", "exec"), {"__name__": "readme_example"})
    scr_es, delta_star = map(float, capsys.readouterr().out.split())
    assert math.isfinite(scr_es) and scr_es > 0
    assert math.isfinite(delta_star) and 0 < delta_star < 1
