"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block, "no python block under '## Library'"
    namespace: dict = {}
    exec(compile(block.group(1), str(README), "exec"), namespace)
    assert namespace["reports"]
