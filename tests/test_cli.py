import pytest

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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_serial_and_parallel_failures_print_alike(tmp_path, monkeypatch,
                                                  capsys):
    serial = _failure_lines(tmp_path, monkeypatch, capsys, "1")
    parallel = _failure_lines(tmp_path, monkeypatch, capsys, "2")
    assert serial
    assert all(" failed: DivergenceError: non-finite " in line
               for line in serial)
    assert parallel == serial
