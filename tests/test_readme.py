"""The Python blocks of README.md run, in order, in one namespace, so a
renamed function or a changed default in the quickstart fails here."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) >= 2  # the quickstart and the prepared record
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
