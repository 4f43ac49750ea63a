"""The README quickstarts run as written: the library block, then each
``pianofinger`` line of the command-line block through ``cli.main``, from
a directory that holds the repo's ``data/`` as the README assumes."""

import re
import shlex
from pathlib import Path

import pytest

from pianofinger.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _block(section: str, language: str) -> str:
    """The first ``language`` code block under the README heading ``section``."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", body, re.S).group(1)


# the library quickstart reads its file with a bare open(), as a script may
@pytest.mark.filterwarnings("ignore::ResourceWarning")
def test_readme_quickstarts_run(tmp_path, monkeypatch, capsys):
    (tmp_path / "data").symlink_to(ROOT / "data")
    monkeypatch.chdir(tmp_path)
    exec(_block("Quickstart (library)", "python"), {})
    commands = [
        shlex.split(line, comments=True)
        for line in _block("Quickstart (command line)", "sh").splitlines()
    ]
    assert len(commands) >= 7 and all(argv[0] == "pianofinger" for argv in commands)
    for argv in commands:
        assert main(argv[1:]) == 0, " ".join(argv)
    capsys.readouterr()
