"""README.md's Python examples run as written and print what their comments say."""

import re
from pathlib import Path

import geocert as gc

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    namespace = {}
    try:
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    finally:
        gc.unregister_atom("half_trace")
    printed = capsys.readouterr().out.splitlines()
    expected = [m.group(1) for b in blocks for m in re.finditer(r"^print\(.*\)\s*# (.*)$", b, re.M)]
    assert printed == expected
