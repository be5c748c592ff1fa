"""Config defaults, key application, file loading, and dump round-trips."""
from __future__ import annotations

import contextlib

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from tracelink.cli import main
from tracelink.config import CONFIG_KEYS, RunConfig, apply_key, dump_config, load_config_file
from tracelink.errors import ConfigError, TracelinkError


def test_defaults_validate():
    cfg = RunConfig()
    cfg.validate()
    assert cfg.window_size == 100
    assert (cfg.t_train, cfg.t_max) == (7_000, 10_000)
    assert cfg.model.hidden == 64
    assert cfg.model.snapshot_epochs == (0, 49, 99, 149, 199)
    assert cfg.sampling.kind == "auto"
    assert cfg.sampling.eval_kind == "advanced"


def test_apply_key_each_section():
    cfg = RunConfig()
    apply_key(cfg, "window_size", "50")
    apply_key(cfg, "model.lr", "0.005")
    apply_key(cfg, "sampling.kind", "simple")
    apply_key(cfg, "synth.duration", "2000")
    apply_key(cfg, "trace_format.columns", "timestamp, caller, callee")
    apply_key(cfg, "model.snapshot_epochs", "0,5,10")
    assert cfg.window_size == 50
    assert cfg.model.lr == 0.005
    assert cfg.sampling.kind == "simple"
    assert cfg.synth.duration == 2000
    assert cfg.trace_format.columns == ("timestamp", "caller", "callee")
    assert cfg.model.snapshot_epochs == (0, 5, 10)


def test_apply_key_bool_spellings():
    cfg = RunConfig()
    for text, expected in [("true", True), ("0", False), ("YES", True), ("off", False)]:
        apply_key(cfg, "temporal", text)
        assert cfg.temporal is expected
    with pytest.raises(ConfigError):
        apply_key(cfg, "temporal", "maybe")


def test_apply_key_unknown_key():
    with pytest.raises(ConfigError, match="unknown config key"):
        apply_key(RunConfig(), "model.dropout", "0.5")


def test_apply_key_synth_seed_is_not_exposed():
    # the synthetic seed always derives from the master seed; a separate key
    # would silently desynchronize reruns
    with pytest.raises(ConfigError):
        apply_key(RunConfig(), "synth.seed", "3")


def test_apply_key_bad_value():
    with pytest.raises(ConfigError, match="bad value"):
        apply_key(RunConfig(), "window_size", "tiny")


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment\n"
        "\n"
        "window_size = 200\n"
        "model.hidden=16\n"
        "sampling.eval_kind = simple\n"
    )
    cfg = RunConfig()
    load_config_file(cfg, path)
    assert cfg.window_size == 200
    assert cfg.model.hidden == 16
    assert cfg.sampling.eval_kind == "simple"


def test_load_config_file_rejects_bad_lines(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("just some words\n")
    with pytest.raises(ConfigError, match="key=value"):
        load_config_file(RunConfig(), path)
    with pytest.raises(ConfigError, match="not found"):
        load_config_file(RunConfig(), tmp_path / "missing.cfg")


def test_dump_round_trips(tmp_path):
    cfg = RunConfig()
    apply_key(cfg, "model.lr", "0.123")
    apply_key(cfg, "synth.events_per_window_mean", "1.75")
    apply_key(cfg, "temporal", "false")
    text = dump_config(cfg)

    path = tmp_path / "dumped.cfg"
    path.write_text(text)
    reloaded = RunConfig()
    load_config_file(reloaded, path)
    assert dump_config(reloaded) == text
    assert reloaded.model.lr == 0.123
    assert reloaded.synth.events_per_window_mean == 1.75
    assert reloaded.temporal is False


def test_tab_delimited_dump_loads_back(tmp_path):
    cfg = RunConfig()
    apply_key(cfg, "trace_format.delimiter", "\t")
    text = dump_config(cfg)
    assert 'trace_format.delimiter="\\t"\n' in text

    path = tmp_path / "run_config.txt"
    path.write_text(text)
    reloaded = RunConfig()
    load_config_file(reloaded, path)
    reloaded.validate()
    assert reloaded.trace_format.delimiter == "\t"
    assert dump_config(reloaded) == text


def test_unset_trace_round_trips(tmp_path):
    text = dump_config(RunConfig())
    assert "\ntrace=\n" in text
    (tmp_path / "dumped.cfg").write_text(text, encoding="utf-8")
    reloaded = RunConfig(trace="elsewhere.csv")
    load_config_file(reloaded, tmp_path / "dumped.cfg")
    assert reloaded == RunConfig()


@pytest.mark.parametrize(
    "key, value",
    [
        ("trace_format.delimiter", " "),
        ("trace_format.delimiter", '"'),
        ("out_dir", " run dir "),
        ("out_dir", "a\nb"),
        ("out_dir", "x\u2028y"),
        ("trace", '"quoted".csv'),
        ("trace_format.caller", "caller "),
        ("trace_format.columns", '"a","b"'),
    ],
)
def test_dump_round_trips_awkward_text(tmp_path, key, value):
    cfg = RunConfig(trace="trace.csv")
    apply_key(cfg, key, value)
    text = dump_config(cfg)
    path = tmp_path / "dumped.cfg"
    path.write_text(text, encoding="utf-8")
    reloaded = RunConfig()
    load_config_file(reloaded, path)
    assert dump_config(reloaded) == text
    assert reloaded == cfg


def test_bad_quoted_value_is_a_config_error(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text('trace_format.delimiter="\\q"\n')
    with pytest.raises(ConfigError, match="bad.cfg:1: bad quoted value"):
        load_config_file(RunConfig(), path)


def test_dump_is_sorted_and_complete():
    lines = dump_config(RunConfig()).splitlines()
    keys = [line.split("=", 1)[0] for line in lines]
    assert keys == sorted(CONFIG_KEYS)
    assert len(keys) == 23
    assert "model.hidden" in keys and "sampling.kind" in keys
    assert "synth.seed" not in keys


FIXED_SETTINGS = [
    "sampling.retry_factor", "sampling.balanced_threshold", "sampling.moderate_threshold",
    "synth.window_hint", "synth.hub_exponent", "synth.tree_depth_mean", "synth.period",
    "attention.lo", "attention.hi",
    "model.heads", "model.tau", "sampling.alpha",
]


@pytest.mark.parametrize("key", FIXED_SETTINGS)
def test_fixed_settings_are_unknown_keys(key, tmp_path, capsys):
    # the sampler's attempt cap, `auto` cut-offs and degree exponent, the
    # generator's fleet shape, the attention export's span, the head count
    # and the threshold are module constants; `--set` or a config file that
    # still names one is refused like any unknown key
    trace = tmp_path / "t.csv"
    path = tmp_path / "old.cfg"
    path.write_text(f"model.lr=0.2\n{key}=1\n")
    for source in (["--set", key, "1"], ["--config", str(path)]):
        assert main(["generate", "--out", str(trace), *source]) == 1
        assert capsys.readouterr().err == f"error: unknown config key '{key}'\n"
    assert not trace.exists()


def test_validate_rejects_misaligned_split():
    cfg = RunConfig()
    cfg.t_train = 750
    with pytest.raises(ConfigError):
        cfg.validate()
    cfg.temporal = False  # a single static span has no alignment constraint
    cfg.validate()


def test_validate_rejects_bad_fields():
    bad_settings = [
        ("window_size", "0"),
        ("t_max", "500"),  # below t_train
        ("model.epochs", "0"),
        ("model.lr", "-0.1"),
        ("model.snapshot_epochs", "-1,0"),
        ("sampling.kind", "fancy"),
        ("sampling.eval_kind", "auto"),  # eval must be concrete
        ("sampling.eval_kind", "none"),  # AUC needs negatives
        ("model.lr", "nan"),
        ("model.lr", "inf"),
        ("trace_format.delimiter", ""),
        ("trace_format.delimiter", "ab"),
    ]
    for key, value in bad_settings:
        cfg = RunConfig()
        apply_key(cfg, key, value)
        with pytest.raises(ConfigError):
            cfg.validate()


def test_tab_delimiter_in_a_config_file_is_rejected(tmp_path):
    # the file loader strips values, so a tab arrives as "" and must not
    # reach the csv module
    path = tmp_path / "tsv.cfg"
    path.write_text("trace_format.delimiter=\t\n")
    cfg = RunConfig()
    load_config_file(cfg, path)
    with pytest.raises(ConfigError, match="delimiter"):
        cfg.validate()


config_lines = st.text(max_size=30) | st.tuples(
    st.sampled_from(sorted(CONFIG_KEYS)) | st.text(max_size=8), st.sampled_from(["=", " = ", ""]),
    st.text(max_size=12) | st.sampled_from(['"', '""', '"\\q"', '"\\ud800"', "1,x", "nan", "-0", "9" * 5000]),
).map("".join)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example("model.hidden=caf\xe9\n".encode("latin-1"))  # not UTF-8
@given(st.lists(config_lines, max_size=6).map("\n".join).map(str.encode) | st.binary(max_size=80))
def test_config_file_ends_in_a_config_or_a_typed_error(tmp_path, data):
    (tmp_path / "fuzz.cfg").write_bytes(data)
    with contextlib.suppress(TracelinkError):
        cfg = RunConfig()
        load_config_file(cfg, tmp_path / "fuzz.cfg")
        cfg.validate()
