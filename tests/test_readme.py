"""The README quickstarts run as written: the library block, then each
``pianofinger`` line of the command-line block through ``cli.main``, from
a directory that holds the repo's ``data/`` as the README assumes.  And
every module name the README cites is one the package has, and its
package table has one row for each module."""

import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pianofinger
from pianofinger.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _section(section: str) -> str:
    """The README text under the heading ``section``, up to the next one."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]


def _block(section: str, language: str) -> str:
    """The first ``language`` code block under the README heading ``section``."""
    return re.search(rf"```{language}\n(.*?)```", _section(section), re.S).group(1)


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


def test_readme_cites_only_names_the_package_has():
    # every backticked `pianofinger.<module>` or `<module>.<name>` resolves,
    # so a rewrite that drops a helper the README names shows up here
    modules = {info.name for info in pkgutil.iter_modules(pianofinger.__path__)}
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    checked = set()
    for cited in set(re.findall(r"`(\w+(?:\.\w+)+)`", text)):
        first, *rest = cited.removeprefix("pianofinger.").split(".")
        if first not in modules:
            continue  # `float.__repr__`, or a class's attribute
        obj = importlib.import_module(f"pianofinger.{first}")
        for name in rest:
            assert hasattr(obj, name), f"README cites `{cited}`, which the package lacks"
            obj = getattr(obj, name)
        checked.add(cited)
    assert {"_tables.LOCKSTEP", "chord_hmm._keeps", "pitch_space.index_table",
            "pianofinger.note_hmm"} <= checked


def test_the_package_table_has_one_row_per_module():
    modules = sorted(info.name for info in pkgutil.iter_modules(pianofinger.__path__))
    rows = re.findall(r"^\| `pianofinger\.(\w+)` \|", _section("Package layout"), re.M)
    assert sorted(rows) == modules
