import importlib
import math
import re
from pathlib import Path

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_library_example_runs(capsys):
    """README's `python` block runs as printed and prints SCR_ES > 0 and a
    critical shock delta* in (0, 1)."""
    (block,) = re.findall(r"^```python\n(.*?)^```$", README, flags=re.MULTILINE | re.DOTALL)
    exec(compile(block, "README.md", "exec"), {"__name__": "readme_example"})
    scr_es, delta_star = map(float, capsys.readouterr().out.split())
    assert math.isfinite(scr_es) and scr_es > 0
    assert math.isfinite(delta_star) and 0 < delta_star < 1


def test_quoted_block_constants_match_the_code():
    """Every `module.CONSTANT` (value) README quotes is the code's value."""
    quoted = re.findall(r"`(\w+)\.([A-Z_]+)`\s*\((\d+)\)", README)
    assert {f"{m}.{name}" for m, name, _ in quoted} >= {
        "forecast.BLOCK", "forecast.DRAW_CHUNK", "explain.BLOCK"}
    for module, name, value in quoted:
        code = getattr(importlib.import_module(f"mortlab.{module}"), name)
        assert code == int(value), f"README quotes {module}.{name} as {value}, code has {code}"
