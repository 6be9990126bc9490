"""The README's "Library surface" example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_surface_block() -> str:
    section = README.read_text().split("## Library surface", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_surface_block_runs(capsys):
    exec(compile(library_surface_block(), f"{README}:Library surface", "exec"),
         {})
    # the closed loop passes its dissipation check, and the certificate
    # still verifies on the plant built with dataclasses.replace
    assert capsys.readouterr().out == "True\nTrue\n"
