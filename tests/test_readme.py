"""The README's Library example, run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The python block under the README's "## Library" heading."""
    section = README.read_text(encoding="utf-8").partition("\n## Library\n")[2]
    match = re.match(r"\s*```python\n(.*?)\n```\n", section, re.DOTALL)
    assert match, "README ## Library opens with no python block"
    return match.group(1)


def test_readme_library_example_runs(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].endswith(", 1)")  # decode gives the logical bit back
    assert "max_tv=0/1 pass=true" in lines
