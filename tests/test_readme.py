"""The README's library example runs against the current API, and its
Public API list names exactly the package's exports."""

import re
from pathlib import Path

import robinaudit

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope: dict = {}
    exec(compile(code, str(README), "exec"), scope)
    assert scope["report"].result == "excluded"
    assert scope["res"].status == "in_window"


def test_public_api_is_listed():
    # adding or dropping an export means editing the README's list too
    text = README.read_text(encoding="utf-8")
    section = text.split("\n### Public API\n", 1)[1].split("\n#", 1)[0]
    listed = re.findall(r"^- `(\w+)`", section, re.M)
    assert len(listed) == len(set(listed))
    assert set(listed) == set(robinaudit.__all__) - {"__version__"}
