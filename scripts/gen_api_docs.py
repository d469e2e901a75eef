#!/usr/bin/env python3
"""Generate docs/API.md from the package's docstrings.

Walks every ``repro`` module, emitting a markdown reference with module
summaries, public class/function signatures, and their first docstring
paragraphs.  Run after API changes:

    python scripts/gen_api_docs.py           # rewrite docs/API.md
    python scripts/gen_api_docs.py --check   # exit 1 if it is stale
"""

from __future__ import annotations

import argparse
import difflib
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path
from typing import Sequence

import repro

OUT = Path(__file__).resolve().parent.parent / "docs" / "API.md"


def first_paragraph(doc: str | None) -> str:
    if not doc:
        return ""
    para = doc.strip().split("\n\n")[0]
    return " ".join(line.strip() for line in para.splitlines())


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def document_module(modname: str, lines: list[str]) -> None:
    mod = importlib.import_module(modname)
    lines.append(f"## `{modname}`\n")
    summary = first_paragraph(mod.__doc__)
    if summary:
        lines.append(summary + "\n")
    public = getattr(mod, "__all__", None)
    members = []
    for name, obj in sorted(vars(mod).items()):
        if name.startswith("_"):
            continue
        if public is not None and name not in public:
            continue
        if inspect.ismodule(obj):
            continue
        if getattr(obj, "__module__", modname) != modname:
            continue
        members.append((name, obj))
    for name, obj in members:
        if inspect.isclass(obj):
            lines.append(f"### class `{name}{signature_of(obj)}`\n")
            doc = first_paragraph(obj.__doc__)
            if doc:
                lines.append(doc + "\n")
            for mname, meth in sorted(vars(obj).items()):
                if mname.startswith("_") or not callable(meth):
                    continue
                mdoc = first_paragraph(getattr(meth, "__doc__", None))
                lines.append(f"- `{mname}{signature_of(meth)}`"
                             + (f" — {mdoc}" if mdoc else ""))
            lines.append("")
        elif inspect.isfunction(obj):
            lines.append(f"### `{name}{signature_of(obj)}`\n")
            doc = first_paragraph(obj.__doc__)
            if doc:
                lines.append(doc + "\n")


def render() -> str:
    lines = [
        "# API reference",
        "",
        "_Generated by `scripts/gen_api_docs.py`; do not edit by hand._",
        "",
    ]
    names = ["repro"]
    for m in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        names.append(m.name)
    for name in sorted(set(names)):
        if ".__main__" in name or name.endswith("__main__"):
            continue
        document_module(name, lines)
    return "\n".join(lines) + "\n"


def main(argv: Sequence[str] = ()) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="do not write; exit 1 if docs/API.md differs")
    args = ap.parse_args(list(argv))
    text = render()
    if args.check:
        old = OUT.read_text() if OUT.exists() else ""
        if old == text:
            print(f"{OUT} is up to date")
            return 0
        diff = difflib.unified_diff(old.splitlines(), text.splitlines(),
                                    "docs/API.md", "generated", lineterm="")
        print("\n".join(list(diff)[:40]))
        print(f"{OUT} is stale: run python scripts/gen_api_docs.py")
        return 1
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(text)
    print(f"wrote {OUT} ({len(text.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
