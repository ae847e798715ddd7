"""The README's Python example, run as a doctest, so that it names only
exports the library still has."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_block_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    test = doctest.DocTestParser().get_doctest(block, {}, "README", str(README), 0)
    report = []
    failed, attempted = doctest.DocTestRunner().run(test, out=report.append)
    assert attempted == 6 and failed == 0, "".join(report)
