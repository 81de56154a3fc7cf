#!/usr/bin/env python
"""Generate ``docs/API.md`` from the package's docstrings.

The public surface of ``repro`` is whatever its packages export in
``__all__``; this script walks that surface and renders one reference
section per package — module overview (first paragraph of the module
docstring), then one entry per exported symbol with its signature and
the first paragraph of its docstring.  Documentation lives *in the
code*; this file turns it into a browsable page and the docs CI job
(``tools/docs_ci.py``) fails the build when an export has no docstring
or the generated page has drifted from the source.

Usage::

    PYTHONPATH=src python tools/gen_api_docs.py            # rewrite docs/API.md
    PYTHONPATH=src python tools/gen_api_docs.py --check    # exit 1 on drift
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import re
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

#: The packages whose ``__all__`` constitutes the public API, bottom-up
#: (the same order as the architecture layering).
PUBLIC_MODULES = [
    "repro.simnet",
    "repro.tcp",
    "repro.pcap",
    "repro.http",
    "repro.workloads",
    "repro.streaming",
    "repro.analysis",
    "repro.stats",
    "repro.model",
    "repro.runner",
    "repro.experiments",
    "repro.obs",
]

HEADER = """\
# API reference

*Generated from docstrings by `tools/gen_api_docs.py` — do not edit by
hand.  Regenerate with `PYTHONPATH=src python tools/gen_api_docs.py`;
the docs CI job fails when this file drifts from the source.*

The public surface of `repro` is what its packages export in
`__all__`.  Packages are listed bottom-up, matching the layer diagram
in [ARCHITECTURE.md](ARCHITECTURE.md).  Anything not listed here is
internal and may change without notice.
"""


def first_paragraph(doc: str) -> str:
    """The docstring's first paragraph, joined onto single lines."""
    doc = inspect.cleandoc(doc)
    para = doc.split("\n\n", 1)[0]
    return " ".join(line.strip() for line in para.splitlines())


def iter_exports(module) -> Iterator[Tuple[str, object]]:
    """Yield ``(name, object)`` for every name in ``module.__all__``."""
    for name in getattr(module, "__all__", ()):
        yield name, getattr(module, name)


def describe_export(name: str, obj: object) -> Tuple[str, str]:
    """``(signature-ish title, summary)`` for one exported object."""
    if inspect.isclass(obj):
        kind = "exception" if issubclass(obj, BaseException) else "class"
        title = f"{kind} `{name}`"
        doc = inspect.getdoc(obj) or ""
    elif inspect.isroutine(obj):
        try:
            sig = str(inspect.signature(obj))
        except (TypeError, ValueError):
            sig = "(...)"
        # default-value reprs can embed memory addresses, which would make
        # the generated page differ run to run; strip them
        sig = re.sub(r" at 0x[0-9a-fA-F]+", "", sig)
        title = f"`{name}{sig}`"
        doc = inspect.getdoc(obj) or ""
    elif inspect.ismodule(obj):
        title = f"module `{name}`"
        doc = inspect.getdoc(obj) or ""
    else:
        # constants and ready-made instances (profiles, scales, policies):
        # typed by their class; described by an adjacent docstring only if
        # the class carries one.
        title = f"`{name}` — `{type(obj).__name__}` instance"
        doc = ""
    summary = first_paragraph(doc) if doc else ""
    return title, summary


def render_module(dotted: str) -> List[str]:
    module = importlib.import_module(dotted)
    lines = [f"## `{dotted}`", ""]
    doc = inspect.getdoc(module)
    if doc:
        lines += [first_paragraph(doc), ""]
    exports = list(iter_exports(module))
    if not exports:
        lines += ["*(no public exports)*", ""]
        return lines
    for name, obj in exports:
        title, summary = describe_export(name, obj)
        lines.append(f"- **{title}**" + (f" — {summary}" if summary else ""))
    lines.append("")
    return lines


def generate() -> str:
    """The full markdown document as a string."""
    lines = [HEADER]
    for dotted in PUBLIC_MODULES:
        lines += render_module(dotted)
    return "\n".join(lines).rstrip() + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="verify docs/API.md is current; do not write")
    parser.add_argument("--output", default=None,
                        help="target file (default: docs/API.md next to src)")
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    target = Path(args.output) if args.output else root / "docs" / "API.md"
    content = generate()
    if args.check:
        current = target.read_text() if target.exists() else ""
        if current != content:
            print(f"{target} is stale; regenerate with "
                  f"`PYTHONPATH=src python tools/gen_api_docs.py`",
                  file=sys.stderr)
            return 1
        print(f"{target} is up to date")
        return 0
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(content)
    print(f"wrote {target} ({len(content.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
