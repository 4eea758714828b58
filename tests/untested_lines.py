"""List every executable line of ``src/ropforge`` that no Tier-1 test runs.

Runs the Tier-1 suite in this process under ``sys.settrace``, recording the
lines executed in ``src/ropforge`` only, and compares them with the lines each
module's code objects name in ``co_lines()``.  Prints each line no test
reached as ``path:line: text`` and exits 1 if there is any, or with pytest's
own code if a test fails.  The one allowed line is ``cli.py``'s ``__main__``
call, which only ``test_console_script_installed`` reaches, in a subprocess.

Run from the repository root (it takes a few times as long as Tier-1)::

    python tests/untested_lines.py
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ropforge"
ALLOWED = {("cli.py", "sys.exit(main())")}


def executable_lines(path: Path) -> set[int]:
    """The lines that the code objects compiled from ``path`` run."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main() -> int:
    prefix = str(SRC) + "/"
    reached: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        reached.setdefault(filename, set()).add(frame.f_lineno)  # the def line
        return local

    import pytest  # ropforge itself is imported under the trace, by the tests

    # as the Tier-1 command sets it, for this process and the tests' subprocesses
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, src)
    args = ["-q", "-p", "no:cacheprovider", f"--rootdir={ROOT}", str(ROOT / "tests")]
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if code != 0:
        print(f"Tier-1 failed (pytest exit {code}); no line report", file=sys.stderr)
        return int(code)

    failed = False
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - reached.get(str(path), set())):
            allowed = (path.name, text[line - 1].strip()) in ALLOWED
            failed |= not allowed
            note = "  (allowed: a subprocess test runs it)" if allowed else ""
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}{note}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
