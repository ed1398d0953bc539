"""README's Python examples run as written.

Every ```python block of README.md is executed, in order, in one namespace,
so a name or signature the README promises cannot go without a failing test.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.DOTALL | re.MULTILINE)


def test_readme_python_blocks_run():
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert blocks, "README.md has no python code block"
    namespace: dict = {"__name__": "readme"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
