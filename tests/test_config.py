import pytest

from dgcl.cli import main
from dgcl.config import parse_config
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


def test_repeated_cells_exit_2_before_running(tmp_path, capsys):
    config = tmp_path / "twice.cfg"
    config.write_text(grid(out=tmp_path / "out", methods="er,er",
                           seeds="3,3"))
    assert main(["run", str(config)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: trainer.methods: 'er' repeats an earlier value"]
    assert not (tmp_path / "out").exists()
