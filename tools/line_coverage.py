"""python3 tools/line_coverage.py [PYTEST ARGS...]: run a pytest selection
under a stdlib ``sys.settrace`` line tracer and print every line of
``src/homavg`` that it never executes, one module a line, as
``src/homavg/flows.py: 12, 40-44`` (a range joins consecutive executable
lines).  With no arguments it runs the whole suite.

A line is executable if the module's compiled code, its functions and
classes included, carries an instruction there.  The tracer is installed
before pytest imports the package, so import-time lines count, and again
before each test, because a RecursionError inside a test (the deeply
nested configs of tests/test_cli.py raise one) unsets ``sys.settrace``:
without the reinstall, every module tested after it would read as never
executed.  The rest of that one test goes unseen.  Threads started by the run are traced through
``threading.settrace``; lines run in child processes are not seen.  The
tool only observes: it changes no output byte of the program.  Exit status
is pytest's.
"""

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "homavg"


def executable_lines(path: Path) -> set[int]:
    """Lines of ``path`` that carry an instruction of its compiled code."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(lines: list[int], executable: list[int]) -> str:
    """``lines`` as comma-separated runs of consecutive entries of ``executable``."""
    position = {line: k for k, line in enumerate(executable)}
    runs: list[list[int]] = []
    for line in lines:
        if runs and position[line] == position[runs[-1][-1]] + 1:
            runs[-1].append(line)
        else:
            runs.append([line])
    return ", ".join(str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}" for r in runs)


def main(argv: list[str]) -> int:
    files = {str(p): executable_lines(p) for p in sorted(PACKAGE.glob("*.py"))}
    hit: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in hit else None

    class Reinstall:
        """Puts the tracer back before each test, whatever the last one did to it."""

        def pytest_runtest_setup(self, item):
            sys.settrace(tracer)

        pytest_runtest_call = pytest_runtest_teardown = pytest_runtest_setup

    sys.path.insert(0, str(ROOT / "src"))    # the package by the paths traced
    threading.settrace(tracer)
    sys.settrace(tracer)
    import pytest
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv], plugins=[Reinstall()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = missed = 0
    for name, executable in files.items():
        never = sorted(executable - hit[name])
        total, missed = total + len(executable), missed + len(never)
        if never:
            print(f"{Path(name).relative_to(ROOT)}: {ranges(never, sorted(executable))}")
    print(f"{missed} of {total} executable lines of src/homavg never executed")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
