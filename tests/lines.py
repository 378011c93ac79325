"""Line tracer: run the Tier-1 tests in this process and list every line of
src/robinaudit that they never execute.

    python tests/lines.py                 # the whole suite
    python tests/lines.py tests/test_audit.py -k density

Arguments are passed to pytest.  A line counts as executable when a code
object compiled from its file maps an instruction to it, and as reached
when the tracer sees it run (or a frame start on it).  Lines that only a
child process runs, ``python -m robinaudit`` and the ``__main__`` guard of
cli.py, are listed apart under CHILD_PROCESS, by name.  The suite runs
about twice as slowly as without the tracer.  Prints the unreached lines
per file with their text, and exits 1 if any outside CHILD_PROCESS
remain, or with pytest's status if the tests fail.

pytest does not collect this file (its name does not start with test_).
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "robinaudit"

# file name -> the line texts that run only in a child process
CHILD_PROCESS = {
    "__main__.py": None,  # every line
    "cli.py": ('if __name__ == "__main__":', "sys.exit(main())"),
}


def executable_lines(path: Path) -> set[int]:
    """Line numbers of every instruction compiled from ``path``."""
    out: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        out.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return out


def trace_suite(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest on ``args`` under the tracer: (exit status, reached
    lines per src file name)."""
    import pytest

    prefix = str(SRC) + "/"
    reached: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        reached.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(SRC.parent))
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
    return int(status), {Path(k).name: v for k, v in reached.items()}


def main(argv: list[str]) -> int:
    status, reached = trace_suite(argv or [str(ROOT / "tests")])
    missed = child = 0
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text().splitlines()
        gone = sorted(executable_lines(path) - reached.get(path.name, set()))
        spared = CHILD_PROCESS.get(path.name, ())
        for n in gone:
            text = lines[n - 1].strip()
            if spared is None or text in spared:
                child += 1
                print(f"child  {path.name}:{n}: {text}")
            else:
                missed += 1
                print(f"missed {path.name}:{n}: {text}")
    print(f"{missed} src lines never run, {child} run only in a child process")
    if status:
        return status
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
