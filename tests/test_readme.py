"""The README's Library example, run as written, and its command forms."""

import re
from pathlib import Path

import pytest

from dynls.aem import AemSyntaxError, parse

README = Path(__file__).resolve().parent.parent / "README.md"


def code_block(heading: str, language: str) -> str:
    """The first `language` block under the README's `## heading`."""
    text = README.read_text(encoding="utf-8")
    section = text.partition(f"\n## {heading}\n")[2].partition("\n## ")[0]
    match = re.search(rf"```{language}\n(.*?)\n```\n", section, re.DOTALL)
    assert match, f"README ## {heading} holds no {language} block"
    return match.group(1)


def test_readme_library_example_runs(capsys):
    exec(compile(code_block("Library", "python"), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].endswith(", 1)")  # decode gives the logical bit back
    assert "max_tv=0/1 pass=true" in lines


def test_readme_command_forms_match_the_parser():
    # each form, comment cut, is the usage `parse` states for a bare command
    lines = code_block("Command language", "text").splitlines()
    forms = {line.split("#", 1)[0].strip() for line in lines} - {"}"}
    assert {form.split()[0] for form in forms} == {"E", "C", "F", "MC", "ME"}
    for form in forms:
        with pytest.raises(AemSyntaxError) as err:
            parse(form.split()[0] + "\n")
        assert str(err.value) == f"line 1: expected: {form}"
