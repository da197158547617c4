import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dgcl import cli, gradcheck, losses, trainer
from dgcl.cli import main
from dgcl.config import parse_config, parse_config_file
from dgcl.datasets import save_tensor_file
from dgcl.errors import DivergenceError

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


def test_a_bug_shows_its_traceback_and_a_run_fault_one_line(
        tmp_path, monkeypatch, capsys):
    # a failure that is not a run fault is a bug: where it was raised
    # follows its line; a run fault is its line alone
    def fail(cell, tasks):
        if cell.method == "finetune":
            raise RuntimeError("a bug")
        raise DivergenceError(3, 1, "drift")

    monkeypatch.setattr(cli, "run_stream", fail)
    monkeypatch.delenv("DGCL_THREADS", raising=False)
    config = _grid_config(tmp_path, "bug", "finetune,er")
    assert main(["run", str(config)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "cell finetune_lam0_M20_seed0 failed: RuntimeError: a bug"
    assert err[1] == "Traceback (most recent call last):"
    bug = err.index("cell finetune_lam0_M20_seed1 failed: RuntimeError: a bug")
    assert err[bug + 1] == "Traceback (most recent call last):"
    # the last two lines, one per run fault
    assert err[-2:] == [
        f"cell er_lam0_M20_seed{seed} failed: DivergenceError: non-finite "
        "drift at update 3 of task 1" for seed in (0, 1)]
    summary = json.loads(_run_files(tmp_path, "bug")["summary.json"])
    assert [(f["method"], f["seed"]) for f in summary["failures"]] == [
        ("finetune", 0), ("finetune", 1), ("er", 0), ("er", 1)]


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


def test_serial_run_loads_no_process_pool(tmp_path):
    # the pool and its multiprocessing import are paid only by a parallel
    # run; a fresh process shows what a serial one loads
    config = _grid_config(tmp_path, "serial", "er", seeds="0")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("DGCL_THREADS", None)
    script = ("import sys\n"
              "from dgcl.cli import main\n"
              f"assert main(['run', {str(config)!r}]) == 0\n"
              "print(sorted(m for m in ('concurrent.futures.process',\n"
              "                         'multiprocessing')\n"
              "             if m in sys.modules))\n")
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


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
    # a fresh build per cell, after the one that checks the stream, writes
    # the same files
    monkeypatch.setattr(cli, "_stream", build)
    assert main(["run", str(_grid_config(tmp_path, "each", "finetune,er,kisp",
                                         seeds="1,0"))]) == 0
    assert built == [1, 0] + [1] + [1] * 3 + [0] * 3
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


def test_drift_pairs_zero_with_first_nonzero_lambda(tmp_path, monkeypatch):
    monkeypatch.delenv("DGCL_THREADS", raising=False)
    config = _grid_config(tmp_path, "drift", "er,kisp", lams="0,1,10")
    assert main(["drift", str(config)]) == 0
    drift = _run_files(tmp_path, "drift")
    paired = drift.pop("drift_paired.csv")
    assert (paired.splitlines()[0]
            == b"update_index,task_id,drift_lam0,drift_lam1")
    # the rest is what dgcl run writes for the two cells, in the same place
    pair = _grid_config(tmp_path, "pair", "kisp", lams="0,1", seeds="0")
    assert main(["run", str(pair)]) == 0
    assert ([p.name for p in (tmp_path / "drift").iterdir()]
            == [p.name for p in (tmp_path / "pair").iterdir()])
    assert drift == _run_files(tmp_path, "pair")
    for lam, column in (("0", 2), ("1", 3)):
        cell = drift[f"kisp_lam{lam}_M20_seed0.drift.csv"]
        assert _csv_column(paired, column) == _csv_column(cell, 2)
        for key in (0, 1):  # update_index, task_id
            assert _csv_column(paired, key) == _csv_column(cell, key)


def test_drift_is_identical_serial_and_parallel(tmp_path, monkeypatch):
    files = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("DGCL_THREADS", threads)
        config = _grid_config(tmp_path, f"d{threads}", "kisp", lams="0,1")
        assert main(["drift", str(config)]) == 0
        files[threads] = _run_files(tmp_path, f"d{threads}")
    assert len(files["1"]) == 2 * 3 + 2 and "drift_paired.csv" in files["1"]
    assert files["2"] == files["1"]


def test_diverging_drift_fails_like_run(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("DGCL_THREADS", raising=False)
    config = _grid_config(tmp_path, "lr50", "kisp", lams="0,1", seeds="0")
    config.write_text(config.read_text().replace("trainer.lr = 0.05",
                                                 "trainer.lr = 50"))
    assert main(["drift", str(config)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert [line.partition(": ")[0] for line in err] == [
        f"cell kisp_lam{lam}_M20_seed0 failed" for lam in ("0", "1")]
    assert all(" failed: DivergenceError: non-finite " in line
               for line in err)
    # the failures are recorded as dgcl run records them; no paired file
    (run_dir,) = (tmp_path / "lr50").iterdir()
    assert "drift_paired.csv" not in {p.name for p in run_dir.iterdir()}
    assert len(json.loads((run_dir / "summary.json").read_text())
               ["failures"]) == 2
    assert main(["run", str(config)]) == 1
    assert capsys.readouterr().err.splitlines() == err


@pytest.mark.parametrize("raw", ["abc", "0"])
def test_drift_bad_thread_count_is_a_config_error(tmp_path, monkeypatch,
                                                  capsys, raw):
    monkeypatch.setenv("DGCL_THREADS", raw)
    config = _grid_config(tmp_path, "bad", "kisp", lams="0,1")
    assert main(["drift", str(config)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: DGCL_THREADS must be a positive integer, got {raw!r}"]
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("command", ["run", "drift"])
def test_unwritable_output_dir_is_one_line(tmp_path, monkeypatch, capsys,
                                           command):
    monkeypatch.delenv("DGCL_THREADS", raising=False)
    (tmp_path / "file").write_text("")
    config = _grid_config(tmp_path, "x", "kisp", lams="0,1", seeds="0")
    config.write_text(config.read_text().replace(
        str(tmp_path / "x"), str(tmp_path / "file" / "out")))
    assert main([command, str(config)]) == 1
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()  # no traceback
    assert line.startswith(f"cannot write {tmp_path / 'file' / 'out'}/run-")
    assert ": NotADirectoryError: " in line
    assert captured.out == ""
    assert cli._STREAM == {}  # released on this path too


@pytest.mark.parametrize("command", ["run", "drift"])
def test_unwritable_summary_is_one_line(tmp_path, monkeypatch, capsys,
                                        command):
    monkeypatch.delenv("DGCL_THREADS", raising=False)
    config = _grid_config(tmp_path, "s", "kisp", lams="0,1", seeds="0")
    run_dir = cli._cell_dir(parse_config_file(config))
    (run_dir / "summary.json").mkdir(parents=True)
    assert main([command, str(config)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"cannot write {run_dir / 'summary.json'}: "
                           "IsADirectoryError: ")
    # the cells ran and wrote their files; the paired file needs the summary
    assert len(list(run_dir.iterdir())) == 2 * 3 + 1


def test_unwritable_drift_pairing_is_one_line(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("DGCL_THREADS", raising=False)
    config = _grid_config(tmp_path, "p", "kisp", lams="0,1", seeds="0")
    run_dir = cli._cell_dir(parse_config_file(config))
    (run_dir / "drift_paired.csv").mkdir(parents=True)
    assert main(["drift", str(config)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"cannot write {run_dir / 'drift_paired.csv'}: "
                           "IsADirectoryError: ")
    # both cells and the summary were written before the join
    assert len(list(run_dir.iterdir())) == 2 * 3 + 2


def test_drift_needs_a_nonzero_lambda(tmp_path, capsys):
    config = _grid_config(tmp_path, "zero", "kisp", lams="0", seeds="0")
    assert main(["drift", str(config)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "zero").exists()


def _file_config(path, train, test, out, methods="kisp"):
    path.write_text(f"stream.kind = file\nstream.train_path = {train}\n"
                    f"stream.test_path = {test}\n"
                    "stream.classes_per_task = 2\n"
                    f"trainer.methods = {methods}\nseeds = 0\n"
                    f"output_dir = {out}\n")
    return path


@pytest.mark.parametrize("command", ["run", "drift"])
@pytest.mark.parametrize("missing", ["train", "test"])
def test_missing_stream_file_is_a_config_error(tmp_path, monkeypatch, capsys,
                                               command, missing):
    paths = {name: tmp_path / f"{name}.dgds" for name in ("train", "test")}
    rng = np.random.default_rng(3)
    for name, path in paths.items():
        if name != missing:
            save_tensor_file(path, rng.standard_normal((8, 4)),
                             np.repeat(np.arange(2), 4), class_count=2)
    config = _file_config(tmp_path / "file.cfg", paths["train"],
                          paths["test"], tmp_path / "out")
    monkeypatch.delenv("DGCL_THREADS", raising=False)
    assert main([command, str(config)]) == 2
    assert capsys.readouterr().err == (
        f"config error: no stream file at {paths[missing]}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("labels", [[1, 2, 3, 4], [0, 1, 5, 6]])
def test_native_file_labels_run_as_0_to_k(tmp_path, monkeypatch, labels):
    # a 1-based or gapped file stream writes the bytes the same data
    # labelled 0..3 writes; the relative paths keep the config hash
    rng = np.random.default_rng(2)
    x, tx = rng.standard_normal((40, 4)), rng.standard_normal((16, 4))
    y, ty = np.repeat(np.arange(4), 10), np.tile(np.arange(4), 4)
    monkeypatch.delenv("DGCL_THREADS", raising=False)
    outputs = []
    for name, native in (("plain", np.arange(4)),
                         ("native", np.array(labels))):
        root = tmp_path / name
        root.mkdir()
        monkeypatch.chdir(root)
        save_tensor_file("train.dgds", x, native[y], class_count=7)
        save_tensor_file("test.dgds", tx, native[ty], class_count=7)
        config = _file_config(root / "file.cfg", "train.dgds", "test.dgds",
                              "out", methods="finetune,er,kisp")
        assert main(["run", str(config)]) == 0
        (run_dir,) = (root / "out").iterdir()
        outputs.append({f.name: f.read_bytes() for f in run_dir.iterdir()})
    assert len(outputs[0]) == 3 * 3 + 1
    assert outputs[1] == outputs[0]


def _header(n, d):
    """A tensor file's magic and header, claiming n rows of width d."""
    return b"DGDS" + struct.pack("<IIII", 1, n, d, 6)


# case -> (train file, test file, the config error): a file is raw bytes,
# (rows, width, classes) of a tensor file with labels 0..classes-1 in turn,
# or None for no file; a file's format fault names that file
BAD_STREAMS = {
    "missing": (None, (8, 4, 2), "no stream file at {train}"),
    "bad-magic": (b"WHAT" + bytes(20), (8, 4, 2),
                  "{train}: bad magic b'WHAT', expected b'DGDS'"),
    "test-bad-magic": ((8, 4, 2), b"WHAT" + bytes(20),
                       "{test}: bad magic b'WHAT', expected b'DGDS'"),
    "truncated": (_header(8, 4) + bytes(248), (8, 4, 2),
                  "{train}: payload truncated: wanted 256 bytes, got 248"),
    # read buffers of these claimed sizes raised OverflowError and
    # MemoryError
    "index-overflow": (_header(2**32 - 1, 2**32 - 1), (8, 4, 2),
                       f"{{train}}: payload truncated: wanted "
                       f"{(2**32 - 1)**2 * 8} bytes, got 0"),
    "32GiB": (_header(2**20, 2**12), (8, 4, 2),
              "{train}: payload truncated: wanted 34359738368 bytes, got 0"),
    # a valid file with 9 bytes appended loaded silently
    "trailing": (_header(8, 4) + bytes(8 * 4 * 8 + 8 * 4 + 9), (8, 4, 2),
                 "{train}: 9 trailing bytes after the label block"),
    "test-version": ((8, 4, 2), b"DGDS" + struct.pack("<IIII", 2, 8, 4, 6),
                     "{test}: tensor file version 2, reader supports 1"),
    # one row of width 1 whose label 9 lies past the declared 6 classes
    "test-label-range": ((8, 4, 2), _header(1, 1) + bytes(8)
                         + struct.pack("<I", 9),
                         "{test}: label 9 outside declared range [0, 6)"),
    "indivisible": ((50, 4, 5), (50, 4, 5),
                    "5 classes not divisible by 2 per task"),
    "no-rows": ((0, 4, 2), (10, 4, 2), "the train stream has no rows"),
    "no-features": ((10, 0, 2), (10, 0, 2),
                    "the stream's rows have no features"),
    "widths": ((10, 4, 2), (10, 3, 2),
               "train rows have 4 features, test rows 3"),
    # classes 3, 4 and 5 have no test rows: task 3 (classes 4, 5) has none
    "no-test-rows": ((60, 4, 6), (15, 4, 3),
                     "test data has no examples of task 3's classes [4, 5]"),
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("command", ["run", "drift"])
@pytest.mark.parametrize("case", BAD_STREAMS)
def test_bad_file_stream_is_one_config_error(tmp_path, monkeypatch, capsys,
                                             case, command, threads):
    paths = {name: tmp_path / f"{name}.dgds" for name in ("train", "test")}
    *files, message = BAD_STREAMS[case]
    for path, spec in zip(paths.values(), files):
        if isinstance(spec, bytes):
            path.write_bytes(spec)
        elif spec is not None:
            rows, width, classes = spec
            rng = np.random.default_rng(rows)
            save_tensor_file(path, rng.standard_normal((rows, width)),
                             np.arange(rows) % classes, class_count=6)
    config = _file_config(tmp_path / "file.cfg", paths["train"],
                          paths["test"], tmp_path / "out",
                          methods="finetune,er,kisp")
    config.write_text(config.read_text().replace("seeds = 0", "seeds = 0,1"))
    steps = []
    monkeypatch.setattr(trainer, "train_step",
                        lambda *args: steps.append(args))
    monkeypatch.setenv("DGCL_THREADS", threads)
    assert main([command, str(config)]) == 2
    # one line for the whole grid, found before anything is created
    captured = capsys.readouterr()
    assert captured.err == (
        f"config error: {message.format_map(paths)}\n")
    assert captured.out == ""
    assert not (tmp_path / "out").exists()
    assert steps == []
    assert cli._STREAM == {}


def test_pooled_grid_holds_no_stream(tmp_path, monkeypatch):
    monkeypatch.setenv("DGCL_THREADS", "2")
    assert main(["run", str(_grid_config(tmp_path, "pool", "er"))]) == 0
    assert len(_run_files(tmp_path, "pool")) == 2 * 3 + 1
    assert cli._STREAM == {}


def test_grid_axes_follow_each_method():
    cfg = parse_config("trainer.methods = finetune,er,lfc,rld,kisp\n"
                       "trainer.lambda = 0,1\ntrainer.memory = 5,10\n"
                       "seeds = 0,1\n")
    # lambda varies only with a regularizer; finetune keeps no memory, so
    # it runs at the first M only
    names = []
    for seed in (0, 1):
        names += [f"finetune_lam0_M5_seed{seed}", f"er_lam0_M5_seed{seed}",
                  f"er_lam0_M10_seed{seed}"]
        names += [f"{method}_lam{lam}_M{memory}_seed{seed}"
                  for method in ("lfc", "rld", "kisp") for lam in (0, 1)
                  for memory in (5, 10)]
    assert [cell.name for cell in cli.expand_cells(cfg)] == names


def test_one_table_entry_adds_a_method(tmp_path, monkeypatch):
    # a regularizer added to losses.METHODS and nowhere else: a squared
    # distance to the snapshot over unit rows, with a knob it reads
    calls, seen = [], set()

    def forward(vals, aux):
        calls.append("forward")
        seen.add((frozenset(aux), aux["lr"]))
        d = vals[0] - aux["pre"]
        return np.array([[0.5 * (d * d).sum()]])

    def grad(vals, out, aux, g):
        calls.append("gradient")
        return [(vals[0] - aux["pre"]) * g[0, 0]]

    before = gradcheck.run_gradcheck(instances=5)
    monkeypatch.setitem(losses.METHODS, "pull", losses.Method(
        True, forward, grad, unit_rows=True, knobs=("lr",)))
    after = gradcheck.run_gradcheck(instances=5)
    # its own lines after the others, whose values do not move: the
    # regularizer's, then the whole update's with it
    assert list(after) == [*before, "pull", "total:pull"]
    assert {name: after[name] for name in before} == before
    assert after["pull"] < gradcheck.TOLERANCE
    assert after["total:pull"] < gradcheck.TOLERANCE
    calls.clear()
    seen.clear()
    monkeypatch.delenv("DGCL_THREADS", raising=False)
    config = _grid_config(tmp_path, "pull", "er,pull", lams="0,1", seeds="0")
    config.write_text(config.read_text().replace("trainer.lr = 0.05",
                                                 "trainer.lr = 0.03"))
    assert [cell.name for cell in cli.expand_cells(
        parse_config_file(config))] == [
        "er_lam0_M20_seed0", "pull_lam0_M20_seed0", "pull_lam1_M20_seed0"]
    assert main(["run", str(config)]) == 0
    assert len(_run_files(tmp_path, "pull")) == 3 * 3 + 1
    # lambda = 0 evaluates the value only; lambda = 1 also the gradient
    assert 0 < calls.count("gradient") < calls.count("forward")
    # the cell's knob value reaches the forward, with no edit to update
    assert seen == {(frozenset({"pre", "lr"}), 0.03)}


GRADCHECK_OUT = """\
gradcheck seed=0 instances=100 tolerance=0.0001
  ce     max_rel_err=7.473e-11  ok
  kisp   max_rel_err=3.629e-08  ok
  lfc    max_rel_err=1.461e-09  ok
  rld    max_rel_err=4.790e-11  ok
  total  max_rel_err=1.046e-08  ok
PASS
"""


def test_gradcheck_output_is_pinned(capsys):
    assert main(["gradcheck"]) == 0
    assert capsys.readouterr().out == GRADCHECK_OUT


def test_gradcheck_fails_a_nan_gradient(monkeypatch, capsys):
    # a NaN error is the worst error: its line and the summary both fail
    def forward(vals, aux):
        return np.array([[(vals[0] * aux["pre"]).sum()]])

    def grad(vals, out, aux, g):
        return [np.full_like(vals[0], np.nan)]

    monkeypatch.setitem(losses.METHODS, "broken",
                        losses.Method(True, forward, grad))
    errors = gradcheck.run_gradcheck(instances=2)
    assert math.isnan(errors["broken"])
    assert math.isnan(errors["total:broken"])
    assert main(["gradcheck", "--instances", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    # the regularizer's line, then the whole update's through it
    assert lines[-3] == "  broken max_rel_err=nan  FAIL"
    assert lines[-2] == "  total:broken max_rel_err=nan  FAIL"
    assert lines[-1] == "FAIL: broken, total:broken exceeded 0.0001"


# a KISP cell at replay size m=300 whose drift CSV two OpenBLAS threads
# would change: a multi-threaded GEMM sums in another order
WIDE_KISP = """\
stream.tasks = 2
stream.classes_per_task = 2
stream.train_per_class = 1500
trainer.methods = kisp
trainer.lambda = 1
trainer.tau = 0.1
trainer.memory = 100
trainer.batch_size = 300
trainer.iterations = 3
seeds = 11
output_dir = {out}
"""


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # each run is a fresh process, so OpenBLAS reads the variable as it
    # loads; dgcl must still run the GEMMs on one thread
    src = str(Path(cli.__file__).resolve().parents[1])
    files = {}
    for threads in ("1", "2"):
        config = tmp_path / f"blas{threads}.cfg"
        config.write_text(WIDE_KISP.format(out=tmp_path / f"blas{threads}"))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env.pop("DGCL_THREADS", None)
        done = subprocess.run(
            [sys.executable, "-m", "dgcl.cli", "run", str(config)], env=env,
            capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        files[threads] = _run_files(tmp_path, f"blas{threads}")
    assert len(files["1"]) == 3 + 1
    assert files["2"] == files["1"]


def test_a_blas_without_a_thread_setter_fails_every_cell(tmp_path,
                                                         monkeypatch, capsys):
    # outputs must never silently depend on the core count
    monkeypatch.delenv("DGCL_THREADS", raising=False)
    monkeypatch.setattr(trainer, "_BLAS_SET_THREADS", "no_such_symbol")
    monkeypatch.setattr(trainer, "_one_blas_thread",
                        trainer._one_blas_thread.__wrapped__)
    config = _grid_config(tmp_path, "noblas", "er", seeds="0")
    assert main(["run", str(config)]) == 1
    (line,) = [line for line in capsys.readouterr().err.splitlines()
               if line.startswith("cell ")]
    assert line.startswith("cell er_lam0_M20_seed0 failed: BlasThreadsError: "
                           "numpy's BLAS is not the OpenBLAS numpy bundles")


def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--instances", "10"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "PASS"


def test_module_entry_runs_the_console_command():
    # the path pyproject.toml's dgcl script takes: entry() exits with main()
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "dgcl.cli", "gradcheck", "--instances", "1"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "PASS"


@pytest.mark.parametrize("instances", ["0", "-5"])
def test_gradcheck_needs_an_instance(instances, capsys):
    # no instance would check nothing and print PASS
    with pytest.raises(SystemExit) as exit_info:
        main(["gradcheck", "--instances", instances])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--instances must be >= 1" in captured.err


def test_gradcheck_needs_a_nonnegative_seed(capsys):
    # numpy seeds no generator from a negative seed
    with pytest.raises(SystemExit) as exit_info:
        main(["gradcheck", "--seed", "-1", "--instances", "1"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seed must be >= 0" in captured.err
