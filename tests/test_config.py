"""Run-configuration parsing, serialization, and derived objects."""

from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

from sgen import (
    ConfigError,
    RunConfig,
    degraded_dataset,
    load_config,
    make_synthetic_corpus,
    parse_config,
    serialize_config,
)
from sgen.config import Kind
from sgen.data import EVAL_SCALES
from sgen.model import discriminator_sites, generator_sites


def test_defaults_round_trip_through_text():
    cfg = RunConfig()
    again = parse_config(serialize_config(cfg))
    assert again == cfg


def test_modified_config_round_trips():
    cfg = RunConfig(
        n_levels=4,
        merge_mode="concat",
        gan_loss="none",
        scales=((32, 32), (64, 48)),
        disc_channels=(8, 16, 32, 64),
        synthetic_size=(64, 48),
        noise_sigma=12.5,
        data_root="/tmp/corpus",
        checkpoint_out="model.ckpt",
    )
    assert parse_config(serialize_config(cfg)) == cfg


@pytest.mark.parametrize("text", ["4,8,16", "4,8,16,32,64"])
def test_a_critic_of_any_depth_parses_and_round_trips(text):
    """The critic's depth is the length of its width list."""
    cfg = parse_config(f"disc_channels = {text}\n")
    assert cfg.disc_channels == tuple(int(v) for v in text.split(","))
    assert cfg.disc_divisor == 1 << len(cfg.disc_channels)
    assert f"disc_channels = {text}\n" in serialize_config(cfg)
    assert parse_config(serialize_config(cfg)) == cfg


def test_parse_basic_fields():
    cfg = parse_config(
        """
        # training setup
        n_levels = 2
        merge_mode = max
        steps = 250          # inline comment
        learning_rate = 0.001
        noise_sigma = 0
        scales = 32x32, 64x48
        synthetic_size = 48x32
        disc_channels = 4, 8, 16, 32
        """
    )
    assert cfg.n_levels == 2
    assert cfg.merge_mode == "max"
    assert cfg.steps == 250
    assert cfg.learning_rate == 0.001
    assert cfg.noise_sigma == 0.0
    assert cfg.scales == ((32, 32), (64, 48))
    assert cfg.synthetic_size == (48, 32)
    assert cfg.disc_channels == (4, 8, 16, 32)


def test_blank_lines_and_comments_are_ignored():
    assert parse_config("\n\n# only comments\n   \n") == RunConfig()


def test_unknown_key_reports_line_number():
    with pytest.raises(ConfigError, match="line 3: unknown config key 'n_level'"):
        parse_config("seed = 1\n\nn_level = 3\n")


def test_missing_equals_sign_is_rejected():
    with pytest.raises(ConfigError, match="line 1: expected key=value"):
        parse_config("just some words\n")


def test_bad_scalar_value_reports_line_and_key():
    with pytest.raises(ConfigError, match="line 2: bad value 'many' for key 'steps'"):
        parse_config("seed = 1\nsteps = many\n")


@pytest.mark.parametrize(
    "line, key",
    [
        ("merge_mode = blend", "merge_mode"),
        ("n_levels = 1", "n_levels"),
        ("gan_loss = wasserstein", "gan_loss"),
        ("lambda_mse = -1", "lambda_mse"),
        ("down_factor = 0", "down_factor"),
        ("noise_sigma = -1", "noise_sigma"),
        ("scales = 30x30", "scales"),
        ("batch_size = 0", "batch_size"),
        ("steps = -5", "steps"),
        ("eval_every = -1", "eval_every"),
        ("learning_rate = -1", "learning_rate"),
        ("learning_rate = nan", "learning_rate"),
        ("learning_rate = inf", "learning_rate"),
        ("lambda_mse = nan", "lambda_mse"),
        ("lambda_mse = inf", "lambda_mse"),
        ("noise_sigma = nan", "noise_sigma"),
        ("noise_sigma = inf", "noise_sigma"),
        ("seed = -1", "seed"),
        ("synthetic_count = -3", "synthetic_count"),
        ("synthetic_size = 0x0", "synthetic_size"),
        ("scales = 0x0", "scales"),
        ("disc_channels = 0,0,0,0", "disc_channels"),
        ("disc_channels = -8,16,32,64", "disc_channels"),
        ("steps = 1\nsteps = 2", "steps"),
    ],
)
def test_invalid_values_fail_at_parse_time(line, key):
    with pytest.raises(ConfigError, match=key):
        parse_config(f"report_out = out\n{line}\n")


# the config-file keys, in file order, from the field table
KEYS = [f.name for f in fields(RunConfig)]
# the architecture keys, the degradation keys and all of them, labelled
# with the names of the types that once declared them (the test ids keep
# those names)
PARTS = {"SgenConfig": KEYS[:5], "DegradeSpec": KEYS[5:9], "RunConfig": KEYS}


@pytest.mark.parametrize(
    "part, values, key",
    [
        ("DegradeSpec", dict(seed=-1), "seed"),
        ("RunConfig", dict(seed=-1), "seed"),
        ("RunConfig", dict(synthetic_count=-3), "synthetic_count"),
        ("RunConfig", dict(synthetic_size=(0, 0)), "synthetic_size"),
        ("DegradeSpec", dict(scales=((0, 0),)), "scales"),
        ("SgenConfig", dict(disc_channels=(0, 0, 0, 0)), "disc_channels"),
        ("SgenConfig", dict(disc_channels=(-8, 16, 32, 64)), "disc_channels"),
        ("SgenConfig", dict(bottleneck_channels=0), "bottleneck_channels"),
        ("SgenConfig", dict(n_levels="3"), "n_levels"),
        ("SgenConfig", dict(disc_channels=32), "disc_channels"),
        ("DegradeSpec", dict(scales=(128, 96)), "scales"),
    ],
)
def test_invalid_values_fail_at_construction(part, values, key):
    assert key in PARTS[part]
    with pytest.raises(ConfigError, match=key):
        RunConfig(**values)


def test_duplicated_scales_are_rejected_with_the_key():
    """Evaluation would merge two equal scales into one row and batching
    keep them apart, so a scale may be listed once."""
    with pytest.raises(ConfigError, match="key 'scales': scales must .*distinct"):
        parse_config("scales = 32x32,48x32,32x32\n")
    with pytest.raises(ConfigError, match="scales must .*distinct"):
        RunConfig(scales=((32, 32), (32, 32)))
    assert parse_config("scales = 32x32,48x32\n").scales == ((32, 32), (48, 32))


@pytest.mark.parametrize("part", PARTS)
def test_configs_are_frozen(part):
    cfg = RunConfig()
    for key in PARTS[part]:
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, key, getattr(cfg, key))
# boundary texts (negative, zero, nan, inf, empty, a "#" that cuts the
# line) and malformed sizes and width lists
BOUNDARY = ("-1", "0", "nan", "inf", "", "#1", "0x0", "-8x8", "8x8,0x8", "0,0,0,0", "-8,16,32,64")
# per key, the boundary texts its domain admits
ADMITTED = {
    "n_levels": (),
    "base_channels": (),
    "bottleneck_channels": (),
    "merge_mode": (),
    "disc_channels": (),
    "scales": (),
    "down_factor": (),
    "noise_sigma": ("0",),
    "seed": ("0",),
    "gan_loss": (),
    "lambda_mse": ("0",),
    "learning_rate": (),
    "batch_size": (),
    "steps": ("0",),
    "eval_every": ("0",),
    "data_root": BOUNDARY,
    "synthetic_count": ("0",),
    "synthetic_size": (),
    "checkpoint_out": BOUNDARY,
    "report_out": BOUNDARY,
    "log_out": BOUNDARY,
}


def test_every_field_declares_a_kind_and_every_key_a_domain():
    assert all(isinstance(f.metadata.get("kind"), Kind) for f in fields(RunConfig))
    assert list(ADMITTED) == KEYS


@pytest.mark.parametrize("key", KEYS)
def test_boundary_values_outside_the_domain_are_rejected(key):
    kind = next(f.metadata["kind"] for f in fields(RunConfig) if f.name == key)
    for text in BOUNDARY:
        if text in ADMITTED[key]:
            parse_config(f"{key} = {text}\n")
            continue
        with pytest.raises(ConfigError, match=key):
            parse_config(f"{key} = {text}\n")
        # a value that parses but lies outside the domain is refused by
        # the constructor too
        try:
            value = kind.parse(text.split("#")[0])
        except ValueError:
            continue
        with pytest.raises(ConfigError, match=key):
            RunConfig(**{key: value})


# every int and float field, by its default, and every field of sizes or
# widths, whose items are ints
NUMBER_KEYS = [k for k in KEYS if isinstance(getattr(RunConfig(), k), (int, float))]
BOOL_ITEMS = {
    "synthetic_size": lambda b: (b, 96),
    "scales": lambda b: ((b, 96),),
    "disc_channels": lambda b: (32, b),
}


@pytest.mark.parametrize("key", NUMBER_KEYS + list(BOOL_ITEMS))
@pytest.mark.parametrize("flag", [True, False])
def test_number_and_size_settings_refuse_bools(key, flag):
    """A bool is an int to Python but no setting's value: a config that
    held one would be written as text that does not read back."""
    assert len(NUMBER_KEYS) == 12
    value = BOOL_ITEMS[key](flag) if key in BOOL_ITEMS else flag
    with pytest.raises(ConfigError, match=f"^{key} must"):
        RunConfig(**{key: value})


def test_duplicate_key_names_both_lines():
    message = "line 4: duplicate config key 'steps', first set on line 2"
    with pytest.raises(ConfigError, match=message):
        parse_config("seed = 1\nsteps = 1\n\nsteps = 2\n")


def test_default_config_text_is_pinned():
    assert serialize_config(RunConfig()) == (
        "n_levels = 3\n"
        "base_channels = 32\n"
        "bottleneck_channels = 64\n"
        "merge_mode = sgu\n"
        "disc_channels = 32,64,128,256\n"
        "scales = 128x96,144x112,160x128,176x144,192x160,208x176\n"
        "down_factor = 4\n"
        "noise_sigma = 30.0\n"
        "seed = 0\n"
        "gan_loss = minimax\n"
        "lambda_mse = 0.1\n"
        "learning_rate = 0.0002\n"
        "batch_size = 64\n"
        "steps = 0\n"
        "eval_every = 0\n"
        "data_root = \n"
        "synthetic_count = 0\n"
        "synthetic_size = 128x96\n"
        "checkpoint_out = sgen.ckpt\n"
        "report_out = report\n"
        "log_out = \n"
    )


def test_the_config_text_states_the_whole_network():
    """Every architecture field is a config-file key, so a config's text
    rebuilds both site tables of the config it was written from."""
    cfg = RunConfig(n_levels=4, base_channels=5, bottleneck_channels=7, merge_mode="concat", disc_channels=(3, 4, 5, 6))
    again = parse_config(serialize_config(cfg))
    assert generator_sites(cfg) != generator_sites(RunConfig())
    assert discriminator_sites(cfg) != discriminator_sites(RunConfig())
    assert generator_sites(again) == generator_sites(cfg)
    assert discriminator_sites(again) == discriminator_sites(cfg)


def test_lrelu_slope_is_not_a_config_key():
    with pytest.raises(ConfigError, match="unknown config key 'lrelu_slope'"):
        parse_config("lrelu_slope = 0.2\n")


@pytest.mark.parametrize(
    "key, value",
    [
        ("checkpoint_out", "run#1.ckpt"),
        ("data_root", "faces\nsteps = 5"),
        ("report_out", " report"),
        ("log_out", "loss.csv\t"),
    ],
)
def test_serialize_refuses_strings_that_would_not_read_back(key, value):
    with pytest.raises(ValueError, match=key):
        serialize_config(RunConfig(**{key: value}))


def test_bad_size_value_is_rejected():
    with pytest.raises(ConfigError, match="expected HxW"):
        parse_config("synthetic_size = 128by96\n")
    with pytest.raises(ConfigError, match="expected HxW"):
        parse_config("scales = 128x96, 144+112\n")


def test_bad_int_list_is_rejected():
    with pytest.raises(ConfigError, match="bad integer list"):
        parse_config("disc_channels = 8, sixteen\n")


@pytest.mark.parametrize(
    "key, value, noun, index",
    [
        ("disc_channels", "32,,64", "integer", 2),
        ("disc_channels", ",32", "integer", 1),
        ("scales", "128x96,", "size", 2),
        ("scales", "128x96, ,144x112", "size", 2),
    ],
)
def test_an_empty_list_item_is_rejected_with_line_and_key(key, value, noun, index):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(f"seed = 1\n{key} = {value}\n")
    assert str(excinfo.value) == f"line 2: bad value {value!r} for key {key!r}: bad {noun} list: item {index} is empty"


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 7\nbatch_size = 2\n", encoding="utf-8")
    cfg = load_config(path)
    assert cfg.seed == 7
    assert cfg.batch_size == 2


def test_adversarial_flag_tracks_gan_loss():
    assert RunConfig(gan_loss="minimax").adversarial
    assert RunConfig(gan_loss="nonsaturating").adversarial
    assert not RunConfig(gan_loss="none").adversarial


def test_sgen_config_mapping():
    # the architecture config is the run config itself
    cfg = RunConfig(n_levels=2, base_channels=8, merge_mode="max", gan_loss="none")
    assert cfg.sgen_config() is cfg
    assert cfg.divisor == 8


def test_degrade_spec_mapping():
    # the degradation protocol is the run config itself
    cfg = RunConfig(scales=((64, 48),), down_factor=4, noise_sigma=5.0, seed=9)
    assert cfg.degrade_spec() is cfg
    assert cfg.label == "down4 sigma5 nearest"


def test_run_config_degrades_like_the_spec_of_its_values():
    """The pairs read only the degradation keys: the same four values
    under another architecture and training give the same bytes."""
    images = make_synthetic_corpus(2, seed=4, size=(48, 32))
    values = dict(scales=((32, 32), (48, 32)), down_factor=2, noise_sigma=12.5, seed=6)
    from_cfg = degraded_dataset(images, RunConfig(**values))
    from_spec = degraded_dataset(images, RunConfig(**values, n_levels=4, merge_mode="max", gan_loss="none", steps=9))
    assert len(from_cfg) == len(from_spec) == 4
    for a, b in zip(from_cfg, from_spec):
        assert a.clean.shape == b.clean.shape
        assert a.clean.data.tobytes() == b.clean.data.tobytes()
        assert a.corrupted.data.tobytes() == b.corrupted.data.tobytes()


def test_default_scales_are_the_evaluation_set():
    assert RunConfig().scales == EVAL_SCALES
