"""The per-test deadline of the root conftest.py, shown firing on a stalled test."""

import pathlib

ROOT_CONFTEST = pathlib.Path(__file__).resolve().parent.parent / "conftest.py"


def test_a_stalled_test_fails_at_its_deadline_with_its_traceback(pytester):
    # the root conftest with a 1 s deadline, in a pytest run of its own
    src = ROOT_CONFTEST.read_text()
    assert "TEST_DEADLINE_S = 300\n" in src
    pytester.makeconftest(src.replace("TEST_DEADLINE_S = 300\n", "TEST_DEADLINE_S = 1\n"))
    pytester.makepyfile(test_stall="""
        import time


        def test_stalls():
            time.sleep(60)


        def test_finishes():
            time.sleep(0.1)
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(passed=1, failed=1)
    result.stdout.fnmatch_lines(["*time.sleep(60)*", "*ran past its 1 s deadline*"])
    assert result.duration < 30
