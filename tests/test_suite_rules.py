from __future__ import annotations

from pathlib import Path

import pytest

HOOK = f"""
import importlib.util

spec = importlib.util.spec_from_file_location("tier1_rules", {str(Path(__file__).with_name("conftest.py"))!r})
rules = importlib.util.module_from_spec(spec)
spec.loader.exec_module(rules)
pytest_sessionfinish = rules.pytest_sessionfinish
"""


@pytest.mark.parametrize(
    "body",
    [
        "import pytest\n\ndef test_a():\n    pytest.skip('no')\n",
        "import pytest\n\n@pytest.mark.xfail\ndef test_a():\n    assert False\n",
        "import pytest\n\n@pytest.mark.xfail\ndef test_a():\n    pass\n",
    ],
    ids=["skipped", "xfailed", "xpassed"],
)
def test_a_test_that_does_not_run_plainly_fails_the_session(pytester, body):
    pytester.makeconftest(HOOK)
    pytester.makepyfile(test_rule=body + "\ndef test_b():\n    pass\n")
    result = pytester.runpytest()
    assert result.ret == pytest.ExitCode.TESTS_FAILED
    result.stdout.fnmatch_lines(["*tier-1 runs every test*"])


def test_a_session_of_passing_tests_still_passes(pytester):
    pytester.makeconftest(HOOK)
    pytester.makepyfile(test_rule="def test_b():\n    pass\n")
    assert pytester.runpytest().ret == pytest.ExitCode.OK
