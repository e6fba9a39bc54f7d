"""Shared pytest wiring: a deterministic hypothesis profile, and one summary
line per acceptance criterion."""

from hypothesis import settings

# Property tests draw the same examples on every run and have no deadline,
# so a slow or busy host cannot make them flaky.
settings.register_profile("crowdsim", derandomize=True, deadline=None)
settings.load_profile("crowdsim")

_CRITERIA: dict[str, tuple[int, str]] = {}
_RESULTS: dict[str, str] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "acceptance(number, title): marks a test as one numbered acceptance criterion")


def pytest_collection_modifyitems(items):
    for item in items:
        mark = item.get_closest_marker("acceptance")
        if mark is not None:
            _CRITERIA[item.nodeid] = (mark.kwargs["number"], mark.kwargs["title"])


def pytest_runtest_logreport(report):
    if report.nodeid not in _CRITERIA:
        return
    if report.when == "call" or (report.when == "setup" and report.skipped):
        if report.skipped:
            _RESULTS[report.nodeid] = "SKIP"
        elif report.passed:
            _RESULTS[report.nodeid] = "PASS"
        else:
            _RESULTS[report.nodeid] = "FAIL"
    elif report.when in ("setup", "teardown") and report.failed:
        _RESULTS[report.nodeid] = "FAIL"


def pytest_terminal_summary(terminalreporter):
    ran = {k: v for k, v in _CRITERIA.items() if k in _RESULTS}
    if not ran:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid, (number, title) in sorted(ran.items(), key=lambda kv: kv[1][0]):
        terminalreporter.write_line(
            f"criterion {number:2d} [{_RESULTS[nodeid]}] {title}")
