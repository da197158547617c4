import pytest

from dgcl.cli import expand_cells, main
from dgcl.config import config_hash, parse_config
from dgcl.errors import ConfigError

GRID = """\
stream.tasks = 2
stream.train_per_class = 10
stream.test_per_class = 5
trainer.methods = {methods}
trainer.lambda = {lams}
trainer.memory = {memories}
seeds = {seeds}
output_dir = {out}
"""


def grid(out="out", methods="er,kisp", lams="0,1", memories="5,10",
         seeds="0,1"):
    return GRID.format(methods=methods, lams=lams, memories=memories,
                       seeds=seeds, out=out)


def test_distinct_lists_parse():
    cfg = parse_config(grid())
    assert cfg.methods == ["er", "kisp"]
    assert cfg.lams == [0.0, 1.0]
    assert cfg.memories == [5, 10]
    assert cfg.seeds == [0, 1]


@pytest.mark.parametrize("key,override,repeat", [
    ("trainer.methods", {"methods": "er,kisp,er"}, "'er'"),
    ("trainer.lambda", {"lams": "1,1.0"}, "'1.0'"),
    ("trainer.lambda", {"lams": "0.5,2,5e-1"}, "'5e-1'"),
    ("trainer.memory", {"memories": "10,5,10"}, "'10'"),
    ("seeds", {"seeds": "3,3"}, "'3'"),
])
def test_repeated_value_is_a_config_error(key, override, repeat):
    with pytest.raises(ConfigError) as exc:
        parse_config(grid(**override))
    assert str(exc.value) == f"{key}: {repeat} repeats an earlier value"


def test_lambda_no_cell_takes_is_still_checked():
    # ER cells run at lambda 0 only, yet the listed lambda meets the bounds
    assert [c.lam for c in expand_cells(parse_config(grid(methods="er")))] \
        == [0.0] * 4
    with pytest.raises(ConfigError, match="^trainer: lam must be >= 0$"):
        parse_config(grid(methods="er", lams="-1"))


def test_repeated_cells_exit_2_before_running(tmp_path, capsys):
    config = tmp_path / "twice.cfg"
    config.write_text(grid(out=tmp_path / "out", methods="er,er",
                           seeds="3,3"))
    assert main(["run", str(config)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: trainer.methods: 'er' repeats an earlier value"]
    assert not (tmp_path / "out").exists()


def test_negative_zero_lambda_is_zero():
    # -0 parsed as -0.0 named its cells lam-0 and hashed apart from 0
    zero, negative = (parse_config(grid(lams=lams))
                      for lams in ("0,1", "-0,1"))
    assert str(negative.lams[0]) == "0.0"
    assert config_hash(negative) == config_hash(zero)
    assert ([cell.name for cell in expand_cells(negative)]
            == [cell.name for cell in expand_cells(zero)])
    assert (config_hash(parse_config("trainer.lambda = -0\n"))
            == config_hash(parse_config("trainer.lambda = 0\n"))
            == "623a7328d56c")


def test_config_that_is_not_utf8_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the default output_dir is relative
    config = tmp_path / "latin.cfg"
    config.write_bytes(b"seeds = 0\n\xff\xfe\n")
    assert main(["run", str(config)]) == 2
    (line,) = capsys.readouterr().err.splitlines()  # no traceback
    assert line.startswith(f"config error: cannot read config {config}: "
                           "'utf-8' codec can't decode byte 0xff")
    assert list(tmp_path.iterdir()) == [config]


def with_key(text, key, value):
    """``text`` with ``key`` set to ``value``, replacing any earlier line."""
    lines = [line for line in text.splitlines()
             if line.partition("=")[0].strip() != key]
    return "\n".join(lines + [f"{key} = {value}"]) + "\n"


@pytest.mark.parametrize("key,value,error", [
    ("trainer.lambda", "nan", "trainer.lambda: expected a finite number, "
                              "got 'nan'"),
    ("trainer.lambda", "nan,nan", "trainer.lambda: expected a finite number, "
                                  "got 'nan'"),
    # distinct values whose cells would share one set of output files
    ("trainer.lambda", "0.1234567,0.1234568",
     "trainer.lambda: '0.1234568' and '0.1234567' are both written "
     "'0.123457' in cell names"),
    ("trainer.tau", "nan", "trainer.tau: expected a finite number, got 'nan'"),
    ("trainer.lr", "inf", "trainer.lr: expected a finite number, got 'inf'"),
    ("stream.noise", "nan", "stream.noise: expected a finite number, "
                            "got 'nan'"),
    ("stream.separation", "inf", "stream.separation: expected a finite "
                                 "number, got 'inf'"),
    ("stream.d_in", "0", "stream: d_in must be >= 1"),
    ("stream.train_per_class", "0", "stream: train_per_class must be >= 1"),
    ("stream.test_per_class", "0", "stream: test_per_class must be >= 1"),
    ("seeds", "-1", "trainer: seed must be >= 0"),
    ("trainer.memory", "0", "trainer: memory must be >= 1"),
    ("trainer.tau", "0", "trainer: tau must be > 0"),
    # keys a synth stream never reads would only change the run hash
    ("stream.train_path", "data/train.dgds",
     "stream.train_path: synth streams ignore it"),
    ("stream.test_path", "data/test.dgds",
     "stream.test_path: synth streams ignore it"),
    ("trainer.lamda", "1", "unknown key 'trainer.lamda'"),
    ("stream.tasks", "2.5", "stream.tasks: expected an integer, got '2.5'"),
    ("trainer.tau", "abc", "trainer.tau: expected a finite number, "
                           "got 'abc'"),
    ("trainer.methods", ",", "trainer.methods: list must not be empty"),
    ("stream.kind", "csv", "stream.kind must be synth or file, got 'csv'"),
])
def test_bad_value_exits_2_before_running(tmp_path, capsys, key, value,
                                          error):
    config = tmp_path / "bad.cfg"
    config.write_text(with_key(grid(out=tmp_path / "out"), key, value))
    assert main(["run", str(config)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {error}"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text,error", [
    # grid()'s first line is stream.tasks
    ("stream.tasks = 3\n" + grid(), "line 2: duplicate key 'stream.tasks'"),
    ("seeds 2\n" + grid(), "line 1: expected key=value, got 'seeds 2'"),
    ("stream.kind = file\nstream.train_path = data/train.dgds\n",
     "file streams need stream.train_path and stream.test_path"),
], ids=["duplicate-key", "no-equals", "file-without-test-path"])
def test_bad_text_exits_2_before_running(tmp_path, capsys, text, error):
    config = tmp_path / "bad.cfg"
    config.write_text(with_key(text, "output_dir", tmp_path / "out"))
    assert main(["run", str(config)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {error}"]
    assert not (tmp_path / "out").exists()


def test_comments_and_blank_lines_do_not_change_the_hash():
    lines = grid().splitlines()
    commented = "\n".join(["# a grid", ""] + lines[:3] + ["", "  # seeds:"]
                          + lines[3:]) + "\n\n"
    assert parse_config(commented) == parse_config(grid())
    assert config_hash(parse_config(commented)) == config_hash(
        parse_config(grid()))


FILE_STREAM = """\
stream.kind = file
stream.train_path = data/train.dgds
stream.test_path = data/test.dgds
stream.classes_per_task = 5
trainer.methods = er,kisp
seeds = 0,1,2
"""


@pytest.mark.parametrize("key,value", [
    ("stream.tasks", "7"), ("stream.d_in", "16"),
    ("stream.train_per_class", "10"), ("stream.test_per_class", "5"),
    ("stream.separation", "3"), ("stream.noise", "2"),
])
def test_synth_key_on_a_file_stream_exits_2_before_running(tmp_path, capsys,
                                                          key, value):
    # a file stream reads none of these: each would only change the run hash
    config = tmp_path / "bad.cfg"
    config.write_text(with_key(with_key(FILE_STREAM, "output_dir",
                                        tmp_path / "out"), key, value))
    assert main(["run", str(config)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: {key}: file streams ignore it"]
    assert not (tmp_path / "out").exists()


def bench_grid(tasks, per_class, methods, memory, batch, iterations, seeds):
    """A benchmark workload's grid; method-grid's stream lines restate the
    defaults, which that workload leaves unset."""
    return (f"stream.tasks = {tasks}\nstream.classes_per_task = 2\n"
            f"stream.train_per_class = {per_class}\n"
            f"trainer.methods = {methods}\ntrainer.lambda = 1\n"
            f"trainer.tau = 0.1\ntrainer.memory = {memory}\n"
            f"trainer.batch_size = {batch}\n"
            f"trainer.iterations = {iterations}\nseeds = {seeds}\n")


# run directories are named after the hash: a change to it moves every
# existing grid's outputs
@pytest.mark.parametrize("text,expected", [
    ("", "67795583808f"),
    # wide-replay, method-grid and long-stream at workload seed 11
    (bench_grid(10, 1500, "kisp", 100, 300, 3, "11"), "22cec946d4f6"),
    (bench_grid(5, 200, "finetune,er,lfc,rld,kisp", 20, 10, 1,
                "55,56,57,58,59"), "5604ada27828"),
    (bench_grid(10, 500, "kisp", 200, 10, 1, "11"), "e1476a0de84a"),
    (FILE_STREAM, "7a48a2c5f1f0"),
])
def test_config_hash_is_pinned(text, expected):
    assert config_hash(parse_config(text)) == expected
    moved = parse_config(with_key(text, "output_dir", "elsewhere"))
    assert config_hash(moved) == expected
