"""The README's documented Python workflow runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_python_block_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start, Python", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["state"].dimension_m == 4
