"""The README's Python example, run as a doctest, so that it names only
exports the library still has, and its command lines that state a result,
run through the ``randcurve`` entry point."""

import doctest
import io
import re
import shlex
from contextlib import redirect_stdout
from pathlib import Path

from randcurve.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_block_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    test = doctest.DocTestParser().get_doctest(block, {}, "README", str(README), 0)
    report = []
    failed, attempted = doctest.DocTestRunner().run(test, out=report.append)
    assert attempted == 6 and failed == 0, "".join(report)


def test_readme_command_results_hold():
    block = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)[-1]
    claims = re.findall(r"^randcurve (.*?)\s+# -> (\S+)$", block, re.M)
    assert len(claims) == 5
    for argv, expected in claims:
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(shlex.split(argv))
        assert (code, out.getvalue()) == (0, f"{expected}\n"), argv
