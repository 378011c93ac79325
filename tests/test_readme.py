"""The README's library example runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope: dict = {}
    exec(compile(code, str(README), "exec"), scope)
    assert scope["report"].result == "excluded"
    assert scope["res"].status == "in_window"
