"""Tests for the reachability audit (``tools/reach.py``).

A fixture repository under ``tmp_path`` holds a four-function ``repro``
package, an example that calls one function in the parent process and
one in a forked child, and a test that names a third.  The example
calls through ``getattr`` on dashed names, so the functions it reaches
are reached, not merely named.
"""

import os
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import reach  # noqa: E402

MODULE = '''\
def reached_in_parent():
    return 1


def reached_in_child():
    return 2


def never_reached():
    return 3


def named_by_test():
    return 4
'''

EXAMPLE = '''\
import os

import repro.mod as mod


def call(name):
    return getattr(mod, name.replace("-", "_"))()


call("reached-in-parent")
pid = os.fork()
if pid == 0:
    call("reached-in-child")
    os._exit(0)
os.waitpid(pid, 0)
'''

TEST = '''\
from repro.mod import named_by_test


def test_named():
    assert named_by_test() == 4
'''


@pytest.fixture(scope="module")
def fixture_repo(tmp_path_factory):
    """``(root, reached set)`` of the audited fixture repository."""
    root = tmp_path_factory.mktemp("repo")
    files = {"src/repro/__init__.py": "", "src/repro/mod.py": MODULE,
             "examples/demo.py": EXAMPLE, "tests/test_mod.py": TEST}
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)
    return root, reach.collect(root)


def _problems(fixture_repo, allow_lines):
    """What ``--check`` fails on (it exits 1 on any) for this allow-list."""
    root, reached = fixture_repo
    path = root / "reach_allow.txt"
    path.write_text("".join(line + "\n" for line in allow_lines))
    return reach.check(reach.listing(root, reached), reach.read_allow(path))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestReach:
    def test_forked_child_is_followed(self, fixture_repo):
        _, reached = fixture_repo
        names = {line.rsplit("\t", 1)[-1] for line in reached
                 if line.startswith("mod.py\t")}
        assert {"reached_in_parent", "reached_in_child"} <= names
        assert "never_reached" not in names

    def test_lists_uncalled_and_test_only(self, fixture_repo):
        listed = reach.listing(*fixture_repo)
        assert set(listed) == {"repro.mod:never_reached",
                               "repro.mod:named_by_test"}

    def test_check_passes_on_a_matching_allow_list(self, fixture_repo):
        assert _problems(fixture_repo, [
            "repro.mod:never_reached  equation: Eq. (9)",
            "repro.mod:named_by_test  reference: the scalar path"]) == []

    def test_check_fails_on_a_listed_function_not_allowed(self,
                                                         fixture_repo):
        assert _problems(fixture_repo, [
            "repro.mod:never_reached  equation: Eq. (9)"]) == [
            "repro.mod:named_by_test: only tests reach it; delete it, or "
            "allow it with a reason"]

    @pytest.mark.parametrize("stale", ["repro.mod:reached_in_child",
                                       "repro.mod:gone"])
    def test_check_fails_on_a_stale_entry(self, fixture_repo, stale):
        assert _problems(fixture_repo, [
            "repro.mod:never_reached  equation: Eq. (9)",
            "repro.mod:named_by_test  reference: the scalar path",
            f"{stale}  pcap: the writer contract"]) == [
            f"{stale}: stale allow-list entry (reached, named outside "
            f"tests/, or gone)"]

    def test_check_fails_on_an_invalid_reason(self, fixture_repo):
        problems = _problems(fixture_repo, [
            "repro.mod:never_reached  equation: Eq. (9)",
            "repro.mod:named_by_test  handy: keeps a test short"])
        assert len(problems) == 1
        assert problems[0].startswith("repro.mod:named_by_test: reason")


def test_ci_steps_are_audited_but_not_the_audit_itself():
    """Every repro-driving CI step is a run, with its step env; the CI
    step that runs the audit is not (it would audit itself)."""
    runs = {label: (argv, env)
            for _, label, argv, env in reach.commands(ROOT)}
    scripts = [argv[-1] for argv, _ in runs.values()]
    assert any("-m repro experiment all --scale small" in script
               for script in scripts)
    assert any(env.get("REPRO_CHAOS") == "poison:1.0"
               for _, env in runs.values())
    assert not any("tools/reach.py" in script for script in scripts)
