"""`scripts/bench.py` names the tree it measured in each BENCH file."""

import hashlib
import importlib.util
import os
import subprocess

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bench():
    spec = importlib.util.spec_from_file_location(
        "bench", os.path.join(ROOT, "scripts", "bench.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def git(repo, *args):
    return subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.invalid",
         *args], cwd=repo, capture_output=True, check=True).stdout


def test_commit_names_an_uncommitted_tree_by_the_hash_of_its_diff(tmp_path):
    bench = load_bench()
    assert bench.commit(str(tmp_path)) is None  # not a checkout
    git(tmp_path, "init", "-q")
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("x = 1\n")
    (tmp_path / "notes.md").write_text("notes\n")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-q", "-m", "start")
    head = git(tmp_path, "rev-parse", "HEAD").decode().strip()
    assert bench.commit(str(tmp_path)) == head
    # a change outside src/ and tcpbench/ does not touch what is measured
    (tmp_path / "notes.md").write_text("more notes\n")
    assert bench.commit(str(tmp_path)) == head
    # two different uncommitted trees get two different names
    names = []
    for value in (2, 3):
        (tmp_path / "src" / "a.py").write_text(f"x = {value}\n")
        diff = git(tmp_path, "diff", "HEAD", "--", "src", "tcpbench")
        names.append(bench.commit(str(tmp_path)))
        assert names[-1] == (f"{head}+dirty."
                             f"{hashlib.sha256(diff).hexdigest()[:12]}")
    assert names[0] != names[1]


def test_commit_counts_untracked_files_under_the_measured_dirs(tmp_path):
    bench = load_bench()
    git(tmp_path, "init", "-q")
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("x = 1\n")
    (tmp_path / ".gitignore").write_text("*.pyc\n")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-q", "-m", "start")
    head = git(tmp_path, "rev-parse", "HEAD").decode().strip()
    # ignored build output and untracked files elsewhere name no change
    (tmp_path / "src" / "a.pyc").write_bytes(b"\0")
    (tmp_path / "notes.md").write_text("notes\n")
    assert bench.commit(str(tmp_path)) == head
    # a new module is a change, and its contents are part of the name
    names = []
    for body in ("y = 1\n", "y = 2\n"):
        (tmp_path / "tcpbench").mkdir(exist_ok=True)
        (tmp_path / "tcpbench" / "b.py").write_text(body)
        names.append(bench.commit(str(tmp_path)))
        assert names[-1].startswith(f"{head}+dirty.")
    assert names[0] != names[1]
    # with a tracked edit too, the name differs from either alone
    (tmp_path / "src" / "a.py").write_text("x = 2\n")
    both = bench.commit(str(tmp_path))
    (tmp_path / "tcpbench" / "b.py").unlink()
    assert len({both, bench.commit(str(tmp_path)), *names}) == 4
