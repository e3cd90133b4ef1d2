"""The README's "Library use" block runs as written and does what its
comments say."""

import re
from pathlib import Path

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
