"""``tools/line_coverage.py``: its line sets and ranges, and one traced run
of a small pytest selection in a child process."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("line_coverage", ROOT / "tools" / "line_coverage.py")
line_coverage = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_coverage)


def test_executable_lines_and_ranges(tmp_path):
    path = tmp_path / "m.py"
    path.write_text('"""doc"""\n\n\ndef f(x):\n    # note\n    y = x + 1\n    return y\n\n'
                    'class C:\n    z = 2\n')
    executable = sorted(line_coverage.executable_lines(path))
    assert {4, 6, 7, 9, 10} <= set(executable) and not {2, 3, 5, 8} & set(executable)
    assert line_coverage.ranges([6, 7, 9], executable) == "6-9"   # 8 carries no code
    assert line_coverage.ranges([4, 7, 10], executable) == "4, 7, 10"


def never_executed(report: str, module: str) -> set[int]:
    for line in report.splitlines():
        if line.startswith(f"src/homavg/{module}: "):
            runs = line.split(": ", 1)[1].split(", ")
            executable = sorted(line_coverage.executable_lines(ROOT / "src" / "homavg" / module))
            out = set()
            for run in runs:
                lo, _, hi = run.partition("-")
                out |= {n for n in executable if int(lo) <= n <= int(hi or lo)}
            return out
    return set()


def line_of(module: str, text: str) -> int:
    lines = (ROOT / "src" / "homavg" / module).read_text().splitlines()
    (number,) = [k for k, line in enumerate(lines, 1) if text in line]
    return number


def test_traced_selection_survives_a_recursion_error():
    """The deeply nested config raises a RecursionError, which unsets the
    tracer; the flows test after it must still be seen."""
    done = subprocess.run(
        [sys.executable, "tools/line_coverage.py",
         "tests/test_cli.py::test_deeply_nested_config_exit_2",
         "tests/test_flows.py::test_rigidity_times_golden_are_fibonacci"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    report = done.stdout
    assert "3 passed" in report
    last = report.rstrip().splitlines()[-1]
    assert last.endswith("executable lines of src/homavg never executed")
    never = never_executed(report, "flows.py")
    assert line_of("flows.py", "return [q for _, q in slope.convergents(count)]") not in never
    assert line_of("flows.py", "a, num, den = den // num, den % num, num") in never
