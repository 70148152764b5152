import ast
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import didnmf
from didnmf import cli
from didnmf.cli import main
from didnmf.harness import (
    RunConfig,
    RunMetrics,
    read_metrics_csv,
    synth_data,
    synth_lowrank,
)
from didnmf.matrix import read_csv_matrix, read_dmat


def test_synth_writes_deterministic_dmat(tmp_path, capsys):
    out = tmp_path / "x.dmat"
    assert main(["synth", "--m", "6", "--n", "9", "--seed", "4",
                 "--out", str(out)]) == 0
    assert "6x9" in capsys.readouterr().out
    assert np.array_equal(read_dmat(out), synth_data(6, 9, 4))


def test_synth_rank_flag_switches_generator(tmp_path):
    out = tmp_path / "x.csv"
    main(["synth", "--m", "5", "--n", "8", "--seed", "4", "--rank", "2",
          "--out", str(out)])
    got = read_csv_matrix(out)
    assert np.allclose(got, synth_lowrank(5, 8, 2, 4), rtol=1e-15)


def test_convert_roundtrip_preserves_bits(tmp_path):
    src = tmp_path / "a.dmat"
    mid = tmp_path / "b.csv"
    back = tmp_path / "c.dmat"
    main(["synth", "--m", "4", "--n", "7", "--seed", "1", "--out", str(src)])
    main(["convert", str(src), str(mid)])
    main(["convert", str(mid), str(back)])
    # CSV text uses %.17g, enough digits to round-trip float64 exactly
    assert np.array_equal(read_dmat(src), read_dmat(back))


def test_run_end_to_end_with_metrics_file(tmp_path, capsys):
    data = tmp_path / "x.dmat"
    out = tmp_path / "metrics.csv"
    main(["synth", "--m", "5", "--n", "60", "--seed", "2", "--rank", "3",
          "--out", str(data)])
    code = main(["run", "--alg", "dbcd", "--k", "3", "--seed", "2",
                 "--input", str(data), "--max-iters", "400",
                 "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "dbcd: iterations=" in text
    assert f"metrics written to {out}" in text
    rows = read_metrics_csv(out)
    assert rows, "run produced no iterations"
    assert rows[-1]["objective"] <= rows[0]["objective"]


@pytest.fixture
def run_spy(monkeypatch):
    """Replace cli.run; the returned list gets each config it is given."""
    configs = []

    def spy(config):
        configs.append(config)
        return RunMetrics()

    monkeypatch.setattr(cli, "run", spy)
    return configs


def test_run_flags_leave_every_default_to_runconfig(run_spy, capsys):
    assert main(["run", "--alg", "dbcd", "--m", "4", "--n", "9",
                 "--k", "2"]) == 0
    assert run_spy == [RunConfig(algorithm="dbcd", m=4, n=9, k=2)]


@pytest.mark.parametrize("flag,text,name,value", [
    ("--p", "3", "p", 3),
    ("--eps", "0.25", "epsilon", 0.25),
    ("--max-iters", "7", "max_iters", 7),
    ("--max-time", "9.5", "max_time", 9.5),
    ("--rho", "2.5", "rho", 2.5),
    ("--seed", "11", "seed", 11),
    ("--transport", "tcp", "transport", "tcp"),
    ("--input", "x.dmat", "input_path", "x.dmat"),
    ("--out", "m.csv", "out_path", "m.csv"),
])
def test_each_run_flag_reaches_its_own_field(run_spy, capsys, monkeypatch,
                                             flag, text, name, value):
    monkeypatch.delenv("NMF_RANK", raising=False)
    assert main(["run", "--alg", "did", flag, text]) == 0
    assert run_spy == [RunConfig(algorithm="did", **{name: value})]


def test_run_distributed_in_process(tmp_path, capsys):
    code = main(["run", "--alg", "did", "--m", "4", "--n", "32", "--k", "2",
                 "--p", "2", "--max-iters", "20", "--eps", "1e-30"])
    assert code == 0
    assert "did: iterations=20" in capsys.readouterr().out


def test_run_rejects_bad_flag_combinations():
    with pytest.raises(SystemExit):
        main(["run", "--alg", "sgd", "--m", "4", "--n", "4"])
    # deleted solvers, and bcd, once a second name of dbcd, are gone
    for alg in ("admm", "bcd"):
        with pytest.raises(SystemExit):
            main(["run", "--alg", alg, "--m", "4", "--n", "4"])


@pytest.mark.parametrize("flag,alg", [("--eps", "did"), ("--max-time", "did"),
                                      ("--rho", "dadmm")])
@pytest.mark.parametrize("value", ["nan", "0", "-1"])
def test_run_rejects_a_setting_that_is_not_positive(flag, alg, value, capsys):
    # NaN compares False both ways, so it is refused like 0 and -1
    # instead of running to the iteration cap, dropping the time cap or
    # failing inside dadmm
    with pytest.raises(SystemExit) as exc:
        main(["run", "--alg", alg, "--m", "5", "--n", "50", flag, value])
    assert exc.value.code == 2
    assert "must be positive" in capsys.readouterr().err
    field = {"--eps": "epsilon", "--max-time": "max_time",
             "--rho": "rho"}[flag]
    config = RunConfig(alg, m=5, n=50, **{field: float(value)})
    with pytest.raises(ValueError, match="must be positive"):
        config.validate()


def test_nmf_run_refuses_a_csv_input_in_one_line(tmp_path):
    # the user's path: a refused configuration prints argparse's one-line
    # error and exit status, not a traceback
    data = tmp_path / "s.csv"
    main(["synth", "--m", "4", "--n", "6", "--out", str(data)])
    src = str(pathlib.Path(didnmf.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-m", "didnmf", "run", "--alg", "dbcd", "--k", "2",
         "--input", str(data)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60)
    assert out.returncode == 2
    assert out.stderr.startswith("nmf: error: ")
    assert "nmf convert" in out.stderr
    assert len(out.stderr.splitlines()) == 1
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("argv", [
    ["run", "--alg", "dbcd", "--k", "2", "--input", "missing.dmat"],
    ["convert", "missing.csv", "x.dmat"],
], ids=["run", "convert"])
def test_nmf_refuses_a_missing_file_in_one_line(tmp_path, argv):
    # a file that cannot be read is refused input too: one line naming
    # it and exit status 2, not a FileNotFoundError traceback
    src = str(pathlib.Path(didnmf.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-m", "didnmf", *argv], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60)
    assert out.returncode == 2
    assert out.stderr.startswith("nmf: error: ")
    assert "missing." in out.stderr
    assert len(out.stderr.splitlines()) == 1
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "x.dmat").exists()


def test_parser_requires_a_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_no_module_under_src_imports_scipy():
    # the package depends on numpy alone; scipy is not a dependency
    src = pathlib.Path(didnmf.__file__).parent
    importers = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                importers.append(path.name)
    assert importers == []
