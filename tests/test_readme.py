"""The code examples of README.md run as written."""

import re

from conftest import TESTS_DIR


def test_readme_python_blocks_run():
    text = (TESTS_DIR.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
