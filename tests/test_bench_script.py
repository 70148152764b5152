"""`scripts/bench.py` names the tree it measured in each BENCH file, pairs
the runs of two trees, compares the committed BENCH files and times the
collective alone."""

import glob
import hashlib
import importlib.util
import json
import os
import subprocess
import sys

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
    # not a checkout, and no file under src/ or tcpbench/ yet
    empty = hashlib.sha256().hexdigest()[:12]
    assert bench.commit(str(tmp_path)) == f"tree.{empty}"
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


def test_commit_names_a_tree_outside_git_by_its_measured_files(tmp_path):
    # an archive of a checkout has no HEAD: its name hashes the paths and
    # contents of its files under src/ and tcpbench/, and run outputs
    # (__pycache__/ and tcpbench/out/) leave it as it was
    bench = load_bench()
    names = []
    for value in "12":
        tree = tmp_path / value
        (tree / "src" / "pkg").mkdir(parents=True)
        (tree / "src" / "pkg" / "a.py").write_text(f"x = {value}\n")
        (tree / "tcpbench").mkdir()
        (tree / "tcpbench" / "run.py").write_text("y = 1\n")
        names.append(bench.commit(str(tree)))
        assert names[-1].startswith("tree.") and len(names[-1]) == 17
    assert names[0] != names[1]  # one byte apart under src/
    tree = tmp_path / "1"
    (tree / "src" / "pkg" / "__pycache__").mkdir()
    (tree / "src" / "pkg" / "__pycache__" / "a.cpython-311.pyc").write_bytes(b"\0")
    (tree / "tcpbench" / "out").mkdir()
    (tree / "tcpbench" / "out" / "trace.json").write_text("{}\n")
    (tree / "notes.md").write_text("notes\n")
    assert bench.commit(str(tree)) == names[0]


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


def bench_file(env, runs):
    """A BENCH dict of one workload from {metric: [value per run]}."""
    count = len(next(iter(runs.values())))
    return {"environment": env, "workloads": {"w": {
        "median": {m: sorted(v)[count // 2] for m, v in runs.items()},
        "runs": [{"seed": i + 1,
                  "metrics": {m: {"value": v[i]} for m, v in runs.items()}}
                 for i in range(count)]}}}


def test_compare_pairs_the_runs_of_one_against_run():
    bench = load_bench()
    env = {"wall_s": 1.0}
    old = bench_file(env, {"t": [10.0, 11, 12, 13, 14, 15, 16, 17, 18, 19],
                           "bytes": [440.0] * 10,
                           "rate": [1.0, 2, 3, 4, 5, 6, 7, 8, 9, 10]})
    # t: lower is better, won 9 of 10 (the last pair lost) and the median
    # 5 below the old one, which is more than its 4.5 interquartile range
    new = bench_file(env, {"t": [5.0, 6, 7, 8, 9, 10, 11, 12, 13, 20],
                           "bytes": [440.0] * 10,
                           "rate": [2.0, 3, 4, 5, 6, 7, 8, 9, 10, 11]})
    rows = {r["metric"]: r for r in
            bench.paired(old, new, {"t": "lower", "rate": "higher"})}
    t = rows["t"]
    assert t["old"] == (12.25, 14.5, 16.75)
    assert t["new"][1] == 9.5
    assert (t["won"], t["pairs"], t["gain"]) == (9, 10, True)
    # ties count for neither side, and equal medians are no gain
    assert (rows["bytes"]["won"], rows["bytes"]["gain"]) == (0, False)
    # higher is better: 10 of 10 won, but a median 1 apart is inside the
    # old interquartile range of 4.5
    assert (rows["rate"]["won"], rows["rate"]["gain"]) == (10, False)
    # 8 of 10 is below the 9-in-10 rule, however far the medians move
    worse = bench_file(env, {"t": [1.0] * 8 + [30.0, 30.0],
                             "bytes": [440.0] * 10, "rate": [1.0] * 10})
    [t] = [r for r in bench.paired(old, worse, {}) if r["metric"] == "t"]
    assert (t["won"], t["gain"]) == (8, False)
    # files of two different runs are not paired, even on the same seeds
    other = bench_file({"wall_s": 2.0}, {"t": [5.0] * 10, "bytes": [440.0] * 10,
                                         "rate": [1.0] * 10})
    [t] = [r for r in bench.paired(old, other, {}) if r["metric"] == "t"]
    assert (t["pairs"], t["won"], t["gain"]) == (None, None, False)
    assert t["new"] == (5.0, 5.0, 5.0)


def test_compare_checks_each_bounded_metric_against_its_bound(capsys):
    # hand-built runs against a bound of 10% of the median
    bench = load_bench()
    env = {"wall_s": 1.0}
    spread = [8.0, 9, 10, 10, 10, 10, 10, 10, 11, 12]  # quartiles 10 +- 0
    old = bench_file(env, {"slower": [10.0] * 10, "level": [10.0] * 10,
                           "wide": [6.0, 7, 8, 9, 10, 10, 11, 12, 13, 14],
                           "beaten": [6.0, 7, 8, 9, 10, 10, 11, 12, 13, 14],
                           "rate": [10.0] * 10, "spread": spread,
                           "free": [10.0] * 10})
    new = bench_file(env, {"slower": [11.5] * 10, "level": [10.5] * 10,
                           "wide": [10.0] * 10,
                           "beaten": [1.0, 1.5, 2, 2.5, 3, 3.5, 4, 4.5, 5, 5.5],
                           "rate": [8.5] * 10, "spread": spread,
                           "free": [20.0] * 10})
    better = {"rate": "higher"}
    bounds = {m: 0.1 for m in ("slower", "level", "wide", "beaten", "rate",
                               "spread")}
    checks = {r["metric"]: r["check"]
              for r in bench.paired(old, new, better, bounds)}
    assert checks == {
        "slower": "worse",      # 15% above the old median
        "level": "ok",          # 5% above it, no spread on either side
        "wide": "unresolved",   # old interquartile range 3.5 > 1.0
        "beaten": "ok",         # as wide, but every new run beats every old
        "rate": "worse",        # higher is better: 15% below
        "spread": "ok",         # an outlier each way leaves the range at 0
        "free": None,           # no bound, no check
    }
    bench.compare(old, new, better, bounds)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("check previews the acceptance rule")
    assert lines[1].split()[-1] == "check"
    assert {line.split()[1]: line.split()[-1] for line in lines[2:]} == {
        m: c or "-" for m, c in checks.items()}


def test_compare_reads_the_two_latest_committed_bench_files():
    # the check that every change is read against: `--compare` on the
    # last two BENCH files, as a command, has a row with a check value
    # for every end-to-end metric on every workload of BENCHMARK.json
    names = glob.glob(os.path.join(ROOT, "BENCH_*.json"))
    # BENCH_<n>.json, by n
    old, new = sorted(names, key=lambda n: int(os.path.basename(n)[6:-5]))[-2:]
    out = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "bench.py"),
                          "--compare", old, new], capture_output=True,
                         text=True, check=True).stdout
    checks = {tuple(line.split()[:2]): line.split()[-1]
              for line in out.splitlines()[2:]}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"]:
            key = (workload["name"], metric["name"])
            assert checks.get(key) in ("ok", "worse", "unresolved"), key


def test_allreduce_bench_times_both_transports(capsys):
    bench = load_bench()
    bench.allreduce_bench({"this": ROOT}, runs=1, sizes=(2,), payloads=(23,))
    lines = capsys.readouterr().out.splitlines()
    assert "GIL-bound" in lines[0]
    rows = [line.split() for line in lines[2:]]
    assert [row[:3] for row in rows] == [["in-process,", "2,", "23"],
                                         ["tcp,", "2,", "23"]]
    for row in rows:
        assert float(row[3]) > 0.0 and row[-1] == "-"
