import json

from dgcl.cli import main

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
