"""Line coverage of src/ltvcontrol/ by tier-1 and by the toy benchmark calls.

    python tools/linecov.py

Standard library and pytest only (coverage.py is not needed). A sys.settrace hook that
records line events in frames whose code lives under src/ltvcontrol/ is set
before the package is imported; the package's modules are then imported, and
two sets of lines are recorded after that:

* tier-1, run in this interpreter by pytest.main with -p no:cacheprovider and
  Hypothesis derandomized with no example database, so that the lines a
  property test reaches are the same on every run;
* the TOY calls of tools/bytediff.py's call set (seeds 1 and 2, every
  workload, and `check` on each of their specs), each run through
  ltvcontrol.cli.main in this interpreter.

For each module it prints the executable lines (those the compiled code maps
to) that nothing reached, and the lines that only tier-1 reached. Lines run by
the imports count as reached by both. Tests that start a fresh interpreter
(subprocess calls of `ltvctl`) are not traced: a line that only they reach is
listed as unreached. Every spec, report and pytest temporary file is written
under one temporary directory, the working directory while they run, which
is removed afterwards; no bytecode is written. Exits with pytest's exit code.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import pkgutil
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ltvcontrol"


def executable_lines(path: Path) -> set[int]:
    """Line numbers the compiled module and its nested code objects map to."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: module RESUME
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _ranges(lines) -> str:
    out, lines = [], sorted(lines)
    for i, line in enumerate(lines):
        if i and line == lines[i - 1] + 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


class LineTracer:
    """sys.settrace hook: records (file, line) events of package frames into the set
    of the current phase."""

    def __init__(self):
        self.prefix = str(PACKAGE) + "/"
        self.phases: dict[str, set[tuple[str, int]]] = {}
        self.current: set[tuple[str, int]] = set()

    def phase(self, name: str) -> None:
        self.current = self.phases.setdefault(name, set())

    def __call__(self, frame, event, arg):
        return self._local if frame.f_code.co_filename.startswith(self.prefix) else None

    def _local(self, frame, event, arg):
        if event == "line":
            self.current.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local


def run_toy_calls(tmp: Path) -> None:
    from bytediff import _calls  # this script's directory is sys.path[0]
    from ltvcontrol import cli

    specs = tmp / "specs"
    specs.mkdir()
    calls = [(label, argv) for label, argv in _calls(ROOT, specs) if label.startswith("toy/")]
    codes = []
    for i, (_, argv) in enumerate(calls):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(cli.main([*argv, "-o", str(tmp / "calls" / str(i))]))
    print(f"toy benchmark calls: {len(calls)}, exit codes {sorted(set(codes))}")


def main() -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PACKAGE.parent))
    tracer = LineTracer()
    sys.settrace(tracer)
    tracer.phase("import")
    for info in pkgutil.walk_packages([str(PACKAGE)], "ltvcontrol."):
        importlib.import_module(info.name)
    settings.register_profile("linecov", derandomize=True, database=None)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            tracer.phase("tests")
            status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                                  "--hypothesis-profile", "linecov",
                                  "--basetemp", str(Path(tmp) / "pytest"), str(ROOT / "tests")])
            tracer.phase("bench")
            run_toy_calls(Path(tmp))
        finally:
            os.chdir(cwd)
    sys.settrace(None)

    print("\nfile: executable lines nothing reached | lines only tier-1 reached")
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        hit = {name: {line for f, line in events if f == str(path)}
               for name, events in tracer.phases.items()}
        unreached = lines - hit["import"] - hit["tests"] - hit["bench"]
        only_tests = lines & hit["tests"] - hit["import"] - hit["bench"]
        print(f"{path.name}: {len(lines)} lines; unreached {len(unreached)}: "
              f"{_ranges(unreached) or '-'} | tests only {len(only_tests)}: "
              f"{_ranges(only_tests) or '-'}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
