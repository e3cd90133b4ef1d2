"""The README's "Library use" block runs as written and does what its
comments say; the usage lines and the help text name the parser's flags."""

import inspect
import re
from pathlib import Path

from bquiver import cli
from bquiver.cli import _parse_args

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_use_block():
    namespace: dict = {}
    exec(compile(library_use_block(), str(README), "exec"), namespace)
    assert namespace["space"].dim == 2
    assert namespace["image"].dim == 1
    assert namespace["diagonal"] is True
    report = namespace["report"]
    assert set(report["statuses"]) == {"pass", "fail", "unknown"}
    assert report["ok"]


# a flag as the usage lines and the help text spell it
FLAG = re.compile(r"(?<![\w-])--?[a-z][a-z-]*")


def _accepts(flag: str) -> bool:
    """Does the command-line parser take this flag, bare or with a value?"""
    for argv in (["gamma", "x", flag], ["gamma", "x", f"{flag}=v"]):
        try:
            _parse_args(argv)
        except SystemExit as exited:
            if exited.code == 0:  # the help flags print the help and exit 0
                return True
        else:
            return True
    return False


def test_usage_and_help_name_exactly_the_flags_the_parser_takes(capsys):
    readme_usage = re.search(r"^bquiver <command> <file>.*$", README.read_text(encoding="utf-8"), re.M).group(0)
    named = {"README usage": readme_usage, "cli._USAGE": cli._USAGE, "cli._HELP": cli._HELP}
    named = {surface: set(FLAG.findall(text)) for surface, text in named.items()}
    # every flag the documents or the parser's own strings spell
    candidates = set().union(*named.values()) | set(re.findall(r"\"(--?[a-z][a-z-]*)\"", inspect.getsource(cli)))
    accepted = {flag for flag in candidates if _accepts(flag)}
    capsys.readouterr()
    assert accepted >= {"--ideal", "--base", "--json", "-h", "--help"}
    # the usage lines leave the help flags to the help text
    assert named == {
        "README usage": accepted - {"-h", "--help"},
        "cli._USAGE": accepted - {"-h", "--help"},
        "cli._HELP": accepted,
    }
