import json

import numpy as np
import pytest

from dgcl import cli, trainer
from dgcl.cli import main
from dgcl.datasets import save_tensor_file

GRID = """\
stream.tasks = 3
stream.classes_per_task = 2
stream.d_in = 8
stream.train_per_class = 30
stream.test_per_class = 20
trainer.methods = finetune,er
trainer.lr = 50
seeds = 0,1
output_dir = {out}
"""


def _failure_lines(tmp_path, monkeypatch, capsys, threads):
    monkeypatch.setenv("DGCL_THREADS", threads)
    config = tmp_path / f"grid{threads}.cfg"
    config.write_text(GRID.format(out=tmp_path / f"out{threads}"))
    assert main(["run", str(config)]) == 1
    return [line for line in capsys.readouterr().err.splitlines()
            if line.startswith("cell ")]


def test_serial_and_parallel_failures_print_alike(tmp_path, monkeypatch,
                                                  capsys):
    serial = _failure_lines(tmp_path, monkeypatch, capsys, "1")
    parallel = _failure_lines(tmp_path, monkeypatch, capsys, "2")
    assert serial
    assert all(" failed: DivergenceError: non-finite " in line
               for line in serial)
    assert parallel == serial


def _summary_bytes(tmp_path, threads):
    (run_dir,) = (tmp_path / f"out{threads}").iterdir()
    return (run_dir / "summary.json").read_bytes()


def test_failed_cells_are_recorded_in_summary(tmp_path, monkeypatch, capsys):
    lines = _failure_lines(tmp_path, monkeypatch, capsys, "1")
    _failure_lines(tmp_path, monkeypatch, capsys, "2")
    serial = _summary_bytes(tmp_path, "1")
    assert _summary_bytes(tmp_path, "2") == serial
    summary = json.loads(serial)
    assert summary["cells"] == []
    assert [(f["method"], f["lambda"], f["M"], f["seed"])
            for f in summary["failures"]] == [
        ("finetune", 0.0, 20, 0), ("finetune", 0.0, 20, 1),
        ("er", 0.0, 20, 0), ("er", 0.0, 20, 1)]
    # the same cell name and Type: message text as the stderr line
    assert [f"cell {f['cell']} failed: {f['error']}"
            for f in summary["failures"]] == lines


def test_successful_grid_has_no_failures_key(tmp_path):
    config = tmp_path / "ok.cfg"
    config.write_text(GRID.replace("trainer.lr = 50", "trainer.lr = 0.05")
                      .replace("seeds = 0,1", "seeds = 0")
                      .format(out=tmp_path / "ok"))
    assert main(["run", str(config)]) == 0
    (run_dir,) = (tmp_path / "ok").iterdir()
    summary = json.loads((run_dir / "summary.json").read_text())
    assert "failures" not in summary and len(summary["cells"]) == 2


def _grid_config(tmp_path, name, methods, lams="1", seeds="0,1"):
    config = tmp_path / f"{name}.cfg"
    config.write_text(GRID.replace("trainer.lr = 50", "trainer.lr = 0.05")
                      .replace("trainer.methods = finetune,er",
                               f"trainer.methods = {methods}\n"
                               f"trainer.lambda = {lams}")
                      .replace("seeds = 0,1", f"seeds = {seeds}")
                      .format(out=tmp_path / name))
    return config


def _run_files(tmp_path, name):
    (run_dir,) = (tmp_path / name).glob("run-*")
    return {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())}


def test_successful_grid_is_identical_serial_and_parallel(tmp_path,
                                                           monkeypatch):
    files = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("DGCL_THREADS", threads)
        config = _grid_config(tmp_path, f"t{threads}", "finetune,er,kisp")
        assert main(["run", str(config)]) == 0
        files[threads] = _run_files(tmp_path, f"t{threads}")
    # 3 methods x 2 seeds, three files each, plus the aggregate summary
    assert len(files["1"]) == 6 * 3 + 1 and "summary.json" in files["1"]
    assert files["2"] == files["1"]


def test_each_seed_stream_is_built_once(tmp_path, monkeypatch):
    monkeypatch.delenv("DGCL_THREADS", raising=False)
    built, ran, writable = [], [], []

    def build(cfg, seed):
        built.append(seed)
        return real_build(cfg, seed)

    def run(config, tasks):
        ran.append((config.method, config.seed))
        writable.append(any(a.flags.writeable for t in tasks for a in (
            t.train_x, t.train_y, t.test_x, t.test_y)))
        return real_run(config, tasks)

    real_build, real_run = cli.build_tasks, cli.run_stream
    monkeypatch.setattr(cli, "build_tasks", build)
    monkeypatch.setattr(cli, "run_stream", run)
    config = _grid_config(tmp_path, "once", "finetune,er,kisp", seeds="1,0")
    assert main(["run", str(config)]) == 0
    # seed-major in the listed seed order; one build per seed
    assert built == [1, 0]
    assert ran == [(m, s) for s in (1, 0) for m in ("finetune", "er", "kisp")]
    assert writable == [False] * 6  # every cell reads the shared arrays
    assert cli._STREAM == {}  # nothing is held after the run
    # a fresh build per cell writes the same files
    monkeypatch.setattr(cli, "_stream", build)
    assert main(["run", str(_grid_config(tmp_path, "each", "finetune,er,kisp",
                                         seeds="1,0"))]) == 0
    assert built == [1, 0] + [1] * 3 + [0] * 3
    assert _run_files(tmp_path, "each") == _run_files(tmp_path, "once")


@pytest.mark.parametrize("raw", ["abc", "0", "-2", ""])
def test_bad_thread_count_is_a_config_error(tmp_path, monkeypatch, capsys,
                                            raw):
    monkeypatch.setenv("DGCL_THREADS", raw)
    config = _grid_config(tmp_path, "bad", "er")
    assert main(["run", str(config)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: DGCL_THREADS must be a positive integer, got {raw!r}"]
    assert not (tmp_path / "bad").exists()  # no cell ran


def _csv_column(data: bytes, index: int) -> list[bytes]:
    return [line.split(b",")[index] for line in data.splitlines()[1:]]


def test_drift_pairs_zero_with_first_nonzero_lambda(tmp_path):
    config = _grid_config(tmp_path, "drift", "kisp", lams="0,1", seeds="0")
    assert main(["drift", str(config)]) == 0
    (drift_dir,) = (tmp_path / "drift").glob("drift-*")
    paired = (drift_dir / "drift_paired.csv").read_bytes()
    assert (paired.splitlines()[0]
            == b"update_index,task_id,drift_lam0,drift_lam1")
    # the drift report and a dgcl run cell of the same lambda agree exactly
    assert main(["run", str(config)]) == 0
    cells = _run_files(tmp_path, "drift")
    for lam, column in (("0", 2), ("1", 3)):
        cell = f"kisp_lam{lam}_M20_seed0"
        assert (_csv_column(paired, column)
                == _csv_column(cells[f"{cell}.drift.csv"], 2))
        assert ((drift_dir / f"accuracy_evolution_lam{lam}.csv").read_bytes()
                == cells[f"{cell}.matrix.csv"])


def test_drift_needs_a_nonzero_lambda(tmp_path, capsys):
    config = _grid_config(tmp_path, "zero", "kisp", lams="0", seeds="0")
    assert main(["drift", str(config)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "zero").exists()


def test_test_file_missing_a_task_fails_each_cell_before_training(
        tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(0)
    train, test = tmp_path / "train.dgds", tmp_path / "test.dgds"
    save_tensor_file(train, rng.standard_normal((60, 4)),
                     np.repeat(np.arange(6), 10), class_count=6)
    # classes 3, 4 and 5 have no test rows: task 3 (classes 4, 5) has none
    save_tensor_file(test, rng.standard_normal((15, 4)),
                     np.repeat(np.arange(3), 5), class_count=6)
    config = tmp_path / "file.cfg"
    config.write_text(f"stream.kind = file\nstream.train_path = {train}\n"
                      f"stream.test_path = {test}\n"
                      "stream.classes_per_task = 2\n"
                      "trainer.methods = finetune,er\nseeds = 0,1\n"
                      f"output_dir = {tmp_path / 'out'}\n")
    steps = []
    monkeypatch.setattr(trainer, "train_step",
                        lambda *args: steps.append(args))
    monkeypatch.delenv("DGCL_THREADS", raising=False)
    assert main(["run", str(config)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"cell {method}_lam0_M20_seed{seed} failed: LabelRangeError: test "
        "data has no examples of task 3's classes [4, 5]"
        for method in ("finetune", "er") for seed in (0, 1)]
    assert steps == []


def test_indivisible_file_stream_is_one_config_error_per_cell(
        tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(1)
    train, test = tmp_path / "train.dgds", tmp_path / "test.dgds"
    for path in (train, test):
        save_tensor_file(path, rng.standard_normal((50, 4)),
                         np.repeat(np.arange(5), 10), class_count=5)
    config = tmp_path / "file.cfg"
    config.write_text(f"stream.kind = file\nstream.train_path = {train}\n"
                      f"stream.test_path = {test}\n"
                      "stream.classes_per_task = 2\n"
                      "trainer.methods = finetune,er\nseeds = 0,1\n"
                      f"output_dir = {tmp_path / 'out'}\n")
    monkeypatch.delenv("DGCL_THREADS", raising=False)
    assert main(["run", str(config)]) == 1
    # one line per cell and no traceback
    assert capsys.readouterr().err.splitlines() == [
        f"cell {method}_lam0_M20_seed{seed} failed: ConfigError: 5 classes "
        "not divisible by 2 per task"
        for method in ("finetune", "er") for seed in (0, 1)]


def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--instances", "10"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "PASS"


@pytest.mark.parametrize("instances", ["0", "-5"])
def test_gradcheck_needs_an_instance(instances, capsys):
    # no instance would check nothing and print PASS
    with pytest.raises(SystemExit) as exit_info:
        main(["gradcheck", "--instances", instances])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--instances must be >= 1" in captured.err
