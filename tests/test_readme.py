"""Every fenced ``python`` block of README.md runs as written."""

import os
import re

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def test_readme_python_blocks_run():
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:  # each in a namespace of its own
        exec(compile(block, "README.md", "exec"), {})
