import os

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# The same examples on every run, and no deadline: a slow phase of a small host
# would trip the 200 ms default.  No example database; hypothesis still caches
# the constants it reads from local modules under its home directory, so that
# points at a path that cannot be made and no .hypothesis/ is written.
settings.register_profile("qflag", derandomize=True, deadline=None, database=None)
settings.load_profile("qflag")
set_hypothesis_home_dir(os.path.join(os.devnull, "hypothesis"))

ACCEPTANCE_LINES = []


def record_criterion(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append((num, line))
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for _, line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
