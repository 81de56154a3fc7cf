#!/usr/bin/env python
"""Reachability audit: list the ``repro`` functions that only tests call.

The audit runs what ships, under a ``sys.setprofile`` collector:

* every CI step in ``.github/workflows/ci.yml`` that drives ``repro``
  (a ``python -m repro`` command, an inline ``from repro`` script or a
  ``tools/*.py`` gate), job by job, in a scratch directory;
* every ``examples/*.py``;
* every other ``tools/*.py`` (with the arguments in :data:`TOOL_ARGS`).

The collector reaches every Python process those runs start: a
generated ``sitecustomize`` module arms it at interpreter start-up,
``os.register_at_fork`` re-arms it in forked children (the supervised
pool and the fabric lanes), and ``os._exit`` is wrapped so that a
child flushes what it reached before it exits.

A function defined under ``src/repro`` is *listed* when no run reached
it **and** no Python file outside ``tests/`` names it: an ``ast.Name``,
an attribute, or an identifier string such as a ``getattr`` target
(imports and ``__all__`` entries do not count).  So code reached only at
``--scale full``, by a fault kind the small campaign never draws, or
only through the frozen ``bench/`` harness is never listed.  Dunder
methods are never listed: the interpreter calls them, not a name.

A listed function is either deleted or kept in ``tools/reach_allow.txt``
as ``<module>:<qualname>  <kind>: <reason>``, where ``<kind>`` is one of
:data:`KINDS`.  ``--check`` exits 1 when a listed function is missing
from the allow-list, when an allow-list entry is stale (reached, named
outside ``tests/`` or gone), or when an entry gives no valid kind.

Functions are matched by file, first line and name (a code object's
``co_firstlineno`` is its first decorator's line, as in the AST), which
every supported Python records.

Usage::

    python tools/reach.py           # run everything, print the listing
    python tools/reach.py --check   # ... and gate it on the allow-list
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: The valid reasons to keep a test-only function.
KINDS = {
    "equation": "a paper equation a claim will check, or a later "
                "experiment reuses",
    "reference": "a reference implementation tests compare the shipped "
                 "path against",
    "pcap": "the byte-exact pcap/pcapng writer/reader contract",
}

#: Arguments for the tools CI does not already run: none may write into
#: the repository.
TOOL_ARGS = {"gen_api_docs.py": ["--check"]}

#: A CI step is run when its script drives ``repro`` or a tool.
_DRIVES_REPRO = re.compile(
    r"-m repro\b|\bfrom repro\b|\bimport repro\b|tools/\w+\.py")


# -- the collector (runs inside every audited process) ------------------------

def start_collector(out_dir: str, package: str) -> None:
    """Record every code object this process (and its forks) calls, and
    write the ``<file>\\t<first line>\\t<name>`` of those under
    ``package`` to a fresh file in ``out_dir`` at exit."""
    import atexit
    import threading

    seen: Set[object] = set()
    add = seen.add
    prefix = os.path.realpath(package) + os.sep
    real_exit = os._exit

    def hook(frame, event, arg):
        if event == "call":
            add(frame.f_code)

    def arm():
        sys.setprofile(hook)
        threading.setprofile(hook)

    def flush():
        if not seen:
            return
        real = {}
        lines = set()
        for code in list(seen):
            name = code.co_filename
            if name not in real:
                real[name] = os.path.realpath(name)
            if real[name].startswith(prefix):
                lines.add(f"{real[name][len(prefix):]}\t"
                          f"{code.co_firstlineno}\t{code.co_name}")
        seen.clear()
        path = os.path.join(out_dir, f"{os.getpid()}-{time.time_ns()}.txt")
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(line + "\n" for line in sorted(lines))

    def exit_now(code):
        flush()
        real_exit(code)

    def in_child():
        # the parent flushes what it reached before the fork
        seen.clear()
        arm()

    os._exit = exit_now
    atexit.register(flush)
    os.register_at_fork(after_in_child=in_child)
    arm()


_SITECUSTOMIZE = """\
import importlib.util as _util
_spec = _util.spec_from_file_location("_reach_collector", {tool!r})
_module = _util.module_from_spec(_spec)
_spec.loader.exec_module(_module)
_module.start_collector({out!r}, {package!r})
"""


# -- what to run --------------------------------------------------------------

def ci_steps(text: str) -> List[Tuple[str, str, Dict[str, str], str]]:
    """``(job, step name, env, script)`` for each ``run:`` step of a
    GitHub Actions workflow (the subset of YAML ``ci.yml`` uses)."""
    steps: List[Tuple[str, str, Dict[str, str], str]] = []
    job = ""
    step: Optional[dict] = None
    block: Optional[List[str]] = None   # the ``run: |`` lines being read
    block_key_indent = 0
    in_env, env_indent = False, 0
    in_jobs = False

    def close():
        if step is not None and step.get("run"):
            steps.append((job, step.get("name", ""), step["env"],
                          step["run"]))

    for line in text.splitlines():
        stripped = line.strip()
        indent = len(line) - len(line.lstrip())
        if block is not None:
            if not stripped or indent > block_key_indent:
                block.append(line)
                continue
            step["run"] = _dedent(block)
            block = None
        if not stripped or stripped.startswith("#"):
            continue
        if indent == 0:
            in_jobs = stripped == "jobs:"
            continue
        if not in_jobs:
            continue
        if indent == 2 and stripped.endswith(":"):
            close()
            job, step, in_env = stripped[:-1], None, False
            continue
        if stripped.startswith("- "):
            close()
            step = {"env": {}}
            in_env = False
            stripped = stripped[2:]
            indent += 2
        if step is None:
            continue
        key, _, value = stripped.partition(":")
        value = value.strip()
        if in_env and indent > env_indent:
            step["env"][key] = value.strip("'\"")
            continue
        in_env = False
        if key == "env" and not value:
            in_env, env_indent = True, indent
        elif key == "name":
            step["name"] = value
        elif key == "run":
            if value in ("|", ">"):
                block, block_key_indent = [], indent
            else:
                step["run"] = value
    if block is not None:
        step["run"] = _dedent(block)
    close()
    return steps


def _dedent(lines: List[str]) -> str:
    body = [line for line in lines if line.strip()]
    cut = min(len(line) - len(line.lstrip()) for line in body) if body else 0
    return "\n".join(line[cut:] for line in lines).strip("\n") + "\n"


def commands(root: Path
             ) -> Iterator[Tuple[str, str, List[str], Dict[str, str]]]:
    """``(group, label, argv, env)`` for every audited run under ``root``.
    The runs of one group (the steps of one CI job) share a directory."""
    python = sys.executable
    this = Path(__file__).name
    ci = root / ".github" / "workflows" / "ci.yml"
    run_by_ci: Set[str] = set()
    if ci.exists():
        for job, name, env, script in ci_steps(ci.read_text()):
            tools = re.findall(r"tools/(\w+\.py)", script)
            if not _DRIVES_REPRO.search(script) or this in tools:
                continue
            run_by_ci.update(tools)
            yield f"ci-{job}", f"{job}: {name}", ["bash", "-c", script], env
    for path in sorted((root / "examples").glob("*.py")):
        rel = f"examples/{path.name}"
        yield "examples", rel, [python, rel], {"PYTHONPATH": "src"}
    for path in sorted((root / "tools").glob("*.py")):
        if path.name in run_by_ci or path.name == this:
            continue
        rel = f"tools/{path.name}"
        yield ("tools", rel, [python, rel, *TOOL_ARGS.get(path.name, [])],
               {"PYTHONPATH": "src"})


def collect(root: Path) -> Set[str]:
    """Run every audited command under the collector; return the reached
    ``<path under the package>\\t<first line>\\t<name>`` set."""
    root = root.resolve()
    package = root / "src" / "repro"
    scratch = Path(tempfile.mkdtemp(prefix="repro-reach-"))
    try:
        hooks, out = scratch / "hook", scratch / "reached"
        hooks.mkdir()
        out.mkdir()
        (hooks / "sitecustomize.py").write_text(_SITECUSTOMIZE.format(
            tool=str(Path(__file__).resolve()), out=str(out),
            package=str(package)))
        # ``python`` in a CI script is this interpreter
        (hooks / "python").symlink_to(sys.executable)
        base = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        for group, label, argv, env in commands(root):
            work = scratch / "work" / group
            if not work.exists():
                work.mkdir(parents=True)
                for entry in root.iterdir():
                    if not entry.name.startswith("."):
                        (work / entry.name).symlink_to(entry)
            paths = [str(hooks)] + [str(work / p) for p in
                                    env.get("PYTHONPATH", "").split(":") if p]
            full = {**base, **env, "HOME": str(work),
                    "PYTHONPATH": os.pathsep.join(paths),
                    "PATH": str(hooks) + os.pathsep + base.get("PATH", "")}
            started = time.perf_counter()
            done = subprocess.run(argv, cwd=work, env=full, text=True,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT)
            lines = [f"{time.perf_counter() - started:7.1f}s  exit "
                     f"{done.returncode:<3d} {label}"]
            if done.returncode:
                # a run that stops early reaches less: show where it did
                lines += [f"           | {line}"
                          for line in done.stdout.splitlines()[-3:]]
            print("\n".join(lines), file=sys.stderr, flush=True)
        reached: Set[str] = set()
        for path in out.iterdir():
            reached.update(path.read_text().splitlines())
        return reached
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


# -- what is listed -----------------------------------------------------------

def definitions(package: Path) -> Dict[str, Tuple[str, str, int]]:
    """``<module>:<qualname>`` -> ``(reached key, name, lines)`` for every
    function defined under ``package`` (dunders excluded); the reached
    key is the one :func:`start_collector` records for its code."""
    found: Dict[str, Tuple[str, str, int]] = {}
    base = package.name
    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(package).as_posix()
        module = ".".join([base, *rel[:-3].split("/")])
        module = module[:-len(".__init__")] if module.endswith(
            ".__init__") else module

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    first = min([child.lineno] + [
                        d.lineno for d in child.decorator_list])
                    if not (child.name.startswith("__")
                            and child.name.endswith("__")):
                        found[f"{module}:{qualname}"] = (
                            f"{rel}\t{first}\t{child.name}", child.name,
                            child.end_lineno - child.lineno + 1)
                    walk(child, f"{qualname}.<locals>.")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text(), str(path)), "")
    return found


def references(root: Path) -> Set[str]:
    """Every name the Python files under ``root`` outside ``tests/`` use:
    names, attributes and identifier strings, minus ``__all__`` lists."""
    names: Set[str] = set()
    for path in root.rglob("*.py"):
        parts = path.relative_to(root).parts
        if parts[0] == "tests" or any(p.startswith(".") or p == "__pycache__"
                                      for p in parts):
            continue
        tree = ast.parse(path.read_text(), str(path))
        skip = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                if any(isinstance(t, ast.Name) and t.id == "__all__"
                       for t in targets):
                    skip.update(id(n) for n in ast.walk(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and node.value.isidentifier() and id(node) not in skip):
                names.add(node.value)
    return names


def listing(root: Path, reached: Set[str]) -> Dict[str, int]:
    """The listed functions, ``<module>:<qualname>`` -> line count."""
    defs = definitions(root / "src" / "repro")
    named = references(root)
    return {key: lines for key, (code, name, lines) in sorted(defs.items())
            if code not in reached and name not in named}


def read_allow(path: Path) -> Dict[str, str]:
    """The allow-list: ``<module>:<qualname>`` -> ``<kind>: <reason>``."""
    allow: Dict[str, str] = {}
    if path.exists():
        for line in path.read_text().splitlines():
            if line.strip() and not line.startswith("#"):
                key, _, reason = line.strip().partition(" ")
                allow[key] = reason.strip()
    return allow


def check(listed: Dict[str, int], allow: Dict[str, str]) -> List[str]:
    """Every mismatch between the listing and the allow-list."""
    problems = []
    for key in sorted(listed.keys() - allow.keys()):
        problems.append(f"{key}: only tests reach it; delete it, or allow "
                        f"it with a reason")
    for key in sorted(allow.keys() - listed.keys()):
        problems.append(f"{key}: stale allow-list entry (reached, named "
                        f"outside tests/, or gone)")
    for key, reason in sorted(allow.items()):
        kind = reason.partition(":")[0]
        if kind not in KINDS or not reason.partition(":")[2].strip():
            problems.append(f"{key}: reason must be '<kind>: <why>', kind "
                            f"one of {', '.join(KINDS)}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless the listing matches "
                             "tools/reach_allow.txt")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    reached = collect(ROOT)
    print(f"collected in {time.perf_counter() - started:.1f}s",
          file=sys.stderr)
    listed = listing(ROOT, reached)
    allow = read_allow(ROOT / "tools" / "reach_allow.txt")
    for key, lines in listed.items():
        mark = "  (allowed)" if key in allow else ""
        print(f"{key}  {lines} lines{mark}")
    print(f"{len(listed)} test-only functions, "
          f"{sum(listed.values())} lines", file=sys.stderr)
    if not args.check:
        return 0
    problems = check(listed, allow)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
