import dataclasses
import re
from pathlib import Path

import walkrank

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_api_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("\n## Python API\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def _resolves(name: str) -> bool:
    head, *attrs = name.split(".")
    if head not in walkrank.__all__:
        return False
    obj = getattr(walkrank, head)
    for attr in attrs:
        fields = ({f.name for f in dataclasses.fields(obj)}
                  if dataclasses.is_dataclass(obj) else set())
        if not (hasattr(obj, attr) or attr in fields):
            return False
        obj = getattr(obj, attr, None)
    return True


def test_every_name_in_the_python_api_section_is_exported():
    section = _python_api_section()
    names = set(re.findall(r"`([A-Za-z_][\w.]*)`", section))
    names |= set(re.findall(r"\bwr\.(\w+)", section))
    assert len(names) > 20
    assert sorted(n for n in names if not _resolves(n)) == []
