"""The README's library examples run against the package's exports."""

import re
from pathlib import Path

import qauthsim

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_and_exports_resolve():
    text = README.read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:  # later blocks use names the earlier ones bound
        exec(compile(block, str(README), "exec"), namespace)
    assert set(re.findall(r"\bqa\.(\w+)", text)) <= set(qauthsim.__all__)
    assert all(hasattr(qauthsim, name) for name in qauthsim.__all__)
