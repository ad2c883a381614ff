"""The demo scripts and the README quickstart must run clean; they double
as living documentation."""

import doctest
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def test_demos_exist():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script):
    result = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout


def test_readme_quickstart():
    # Only the fenced block: over the whole file, doctest would read the
    # closing fence as expected output.
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    test = doctest.DocTestParser().get_doctest(block, {}, "README quickstart", str(README), 0)
    report: list[str] = []
    failed, attempted = doctest.DocTestRunner().run(test, out=report.append)
    assert attempted and not failed, "".join(report)
