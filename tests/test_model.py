"""Network assembly tests: naming, shapes, initial behavior, validation."""

from dataclasses import replace

import numpy as np
import pytest

from sgen import (
    ParamStore,
    RunConfig,
    Tape,
    Tensor,
    backward,
    build_discriminator,
    build_generator,
    discriminator_forward,
    generator_forward,
)
from sgen.autodiff import sum_all
from sgen.data import EVAL_SCALES
from sgen.model import Site, discriminator_sites, generator_sites, shape_mismatches, site_outputs
from sgen.nn import conv2d, draw


def small_cfg(**kw):
    base = dict(n_levels=2, base_channels=4, bottleneck_channels=4)
    base.update(kw)
    return RunConfig(**base)


def _built_names(cfg):
    return list(build_generator(cfg, np.random.default_rng(0)))


def _norm_input(rng, shape, dtype=np.float32):
    return Tensor(rng.uniform(-1.0, 1.0, size=shape).astype(dtype))


# ---------------------------------------------------------------------------
# configuration validation


def test_config_rejects_bad_values():
    with pytest.raises(ValueError, match="n_levels"):
        RunConfig(n_levels=1)
    with pytest.raises(ValueError, match="positive"):
        RunConfig(base_channels=0)
    with pytest.raises(ValueError, match="merge_mode"):
        RunConfig(merge_mode="blend")
    with pytest.raises(ValueError, match="one or more widths"):
        RunConfig(disc_channels=())
    with pytest.raises(ValueError, match="one or more widths"):
        RunConfig(disc_channels=(8, 0, 32))
    with pytest.raises(ValueError, match="gan_loss"):
        RunConfig(gan_loss="wasserstein")
    with pytest.raises(ValueError, match="lambda_mse"):
        RunConfig(lambda_mse=-0.1)


def test_config_divisor_and_trunk_widths():
    cfg = RunConfig(n_levels=3, base_channels=32)
    assert cfg.divisor == 16
    sites = generator_sites(cfg)
    assert [sites[f"enc.trunk.{k}"].c_out for k in (0, 1, 2, 3)] == [32, 32, 64, 128]
    assert RunConfig(n_levels=4).divisor == 32


def test_config_fits_needs_both_dims_divisible():
    cfg = RunConfig(n_levels=2)  # divisor 8
    assert cfg.fits(32, 24)
    assert not cfg.fits(36, 24)
    assert not cfg.fits(32, 20)


# ---------------------------------------------------------------------------
# parameter store


def test_param_store_basic_api():
    t = Tensor(np.zeros((1, 1, 1, 1), dtype=np.float32))
    store = ParamStore(a=t, b=Tensor(np.zeros((1, 2, 1, 1), dtype=np.float32)))
    assert "a" in store and "missing" not in store
    assert len(store) == 2
    assert list(store) == ["a", "b"]
    assert store["a"] is t
    assert store.count_values() == 3


def test_param_store_zero_grad():
    t = Tensor(np.zeros((1, 1, 1, 1), dtype=np.float32), requires_grad=True)
    t.grad = np.ones((1, 1, 1, 1), dtype=np.float32)
    store = ParamStore(t=t)
    store.zero_grad()
    assert t.grad is None


def test_frozen_store_passes_input_gradient_but_takes_none():
    rng = np.random.default_rng(14)
    cfg = small_cfg(disc_channels=(4, 4, 8, 8))
    store = build_discriminator(cfg, rng)
    x_arr = rng.uniform(-1.0, 1.0, size=(2, 3, 16, 16)).astype(np.float32)

    def input_grad():
        store.zero_grad()
        x = Tensor(x_arr.copy(), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(discriminator_forward(x, store, cfg))
        backward(tape, loss)
        return x.grad.tobytes()

    free = input_grad()
    assert all(t.grad is not None for t in store.values())
    with store.frozen():
        assert input_grad() == free
        assert all(t.grad is None for t in store.values())
    assert all(t.requires_grad for t in store.values())
    with pytest.raises(RuntimeError), store.frozen():
        raise RuntimeError("flags come back on the way out")
    assert all(t.requires_grad for t in store.values())


# ---------------------------------------------------------------------------
# naming layout


def test_param_names_exact_for_two_level_sgu():
    cfg = small_cfg(merge_mode="sgu")
    expected = []
    for stem in ["enc.trunk.0", "enc.trunk.1", "enc.trunk.2", "enc.base.1", "enc.base.2"]:
        expected += [f"{stem}.weight", f"{stem}.bias"]
    for stem in ["sgu.enc.2.gate_a", "sgu.enc.2.gate_p"]:
        expected += [f"{stem}.weight", f"{stem}.bias"]
    for stem in ["dec.base.1", "dec.base.2"]:
        expected += [f"{stem}.weight", f"{stem}.bias"]
    for stem in ["sgu.dec.2.gate_a", "sgu.dec.2.gate_p"]:
        expected += [f"{stem}.weight", f"{stem}.bias"]
    for stem in ["dec.up.1", "dec.up.2", "out.conv"]:
        expected += [f"{stem}.weight", f"{stem}.bias"]
    assert _built_names(cfg) == expected


def _declared_names(n, mode):
    """The naming layout spelled out independently of build_generator."""

    def merge_sites(stage):
        for k in range(2, n + 1):
            if mode == "sgu":
                yield from (f"sgu.{stage}.{k}.gate_a", f"sgu.{stage}.{k}.gate_p")
            elif mode == "concat":
                yield f"merge.{stage}.{k}.proj"

    stems = [f"enc.trunk.{k}" for k in range(n + 1)]
    stems += [f"enc.base.{k}" for k in range(1, n + 1)]
    stems += merge_sites("enc")
    stems += [f"dec.base.{k}" for k in range(1, n + 1)]
    stems += merge_sites("dec")
    stems += [f"dec.up.{k}" for k in range(1, n + 1)]
    stems += ["out.conv"]
    return [f"{stem}.{part}" for stem in stems for part in ("weight", "bias")]


@pytest.mark.parametrize("mode", ["sgu", "max", "average", "concat"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_built_stores_match_declared_names(mode, n):
    cfg = small_cfg(n_levels=n, merge_mode=mode)
    store = build_generator(cfg, np.random.default_rng(0))
    assert list(store) == _declared_names(n, mode)
    assert all(t.requires_grad for t in store.values())


def _assert_rows_match_store(sites, store):
    assert list(store) == [f"{site}.{part}" for site in sites for part in ("weight", "bias")]
    assert shape_mismatches(store, sites) == []


def test_shape_mismatches_name_a_wrong_a_missing_and_an_unexpected_parameter():
    cfg = small_cfg()
    built = build_generator(cfg, np.random.default_rng(0))
    store = ParamStore()
    for name, t in built.items():
        if name == "enc.trunk.2.weight":
            t = Tensor(t.data.transpose(1, 0, 2, 3).copy())  # the deconv layout of a conv site
        if name != "out.conv.bias":
            store[name] = t
    store["out.conv.scale"] = Tensor(np.ones((1, 3, 1, 1), dtype=np.float32))
    assert shape_mismatches(store, generator_sites(cfg)) == [
        "'enc.trunk.2.weight' is stored as (4, 8, 4, 4) where the site table gives (8, 4, 4, 4)",
        "'out.conv.bias' is stored as nothing where the site table gives (1, 3, 1, 1)",
        "'out.conv.scale' is stored as (1, 3, 1, 1) where the site table gives nothing",
    ]


def test_a_site_with_a_misspelt_op_is_rejected():
    """A row's op is "conv" or "deconv"; any other is rejected, not read as a deconv."""
    with pytest.raises(ValueError, match="unknown op 'dconv'"):
        shape_mismatches(ParamStore(), {"dec.up.1": Site("dconv", 4, 4, 4, "relu")})


@pytest.mark.parametrize("base_channels", [1, 3])
@pytest.mark.parametrize("mode", ["sgu", "max", "average", "concat"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_generator_site_rows_give_the_built_shapes(mode, n, base_channels):
    cfg = small_cfg(n_levels=n, merge_mode=mode, base_channels=base_channels, bottleneck_channels=5)
    _assert_rows_match_store(generator_sites(cfg), build_generator(cfg, np.random.default_rng(0)))


def test_generator_site_rows_state_ops_and_activations():
    """Merge convs carry no activation of their own (the merge applies it);
    every other site's op applies its own."""
    rows = generator_sites(small_cfg(n_levels=3, merge_mode="sgu"))
    assert rows["enc.trunk.0"] == ("conv", 3, 4, 3, "lrelu", None)
    assert rows["enc.base.1"].kernel == 16 and rows["enc.base.3"].kernel == 4
    assert rows["dec.base.1"] == ("deconv", 4, 4, 4, "relu", None)
    assert rows["dec.base.3"].kernel == 16
    assert rows["sgu.dec.2.gate_a"] == ("conv", 4, 4, 3, None, 0.0)
    assert rows["out.conv"] == ("conv", 4, 3, 3, "tanh", None)
    assert generator_sites(small_cfg(merge_mode="concat"))["merge.enc.2.proj"] == ("conv", 8, 4, 1, None, None)


@pytest.mark.parametrize("widths", [(2, 3, 4, 5), (2, 2, 2)])
def test_discriminator_site_rows_give_the_built_shapes(widths):
    cfg = small_cfg(disc_channels=widths)
    sites = discriminator_sites(cfg)
    assert list(sites) == [f"disc.conv.{i}" for i in range(1, len(widths) + 1)] + ["disc.head"]
    assert {row.act for name, row in sites.items() if name != "disc.head"} == {"lrelu"}
    assert sites["disc.head"].act is None
    _assert_rows_match_store(sites, build_discriminator(cfg, np.random.default_rng(0)))


def test_merge_mode_changes_only_merge_site_names():
    stores = {
        mode: set(_built_names(small_cfg(n_levels=3, merge_mode=mode)))
        for mode in ["sgu", "max", "average", "concat"]
    }
    assert stores["max"] == stores["average"]
    assert stores["max"] <= stores["sgu"]
    assert stores["max"] <= stores["concat"]
    assert all(n.startswith("sgu.") for n in stores["sgu"] - stores["max"])
    assert all(n.startswith("merge.") for n in stores["concat"] - stores["max"])


def test_param_count_grows_with_depth():
    counts = [
        build_generator(small_cfg(n_levels=n), np.random.default_rng(0)).count_values()
        for n in (2, 3, 4)
    ]
    assert counts[0] < counts[1] < counts[2]


def test_gate_convs_start_at_zero():
    cfg = small_cfg(merge_mode="sgu")
    store = build_generator(cfg, np.random.default_rng(0))
    for name in store:
        if name.startswith("sgu."):
            np.testing.assert_array_equal(store[name].data, 0.0)
        elif name.endswith(".bias"):
            np.testing.assert_array_equal(store[name].data, 0.0)
        else:
            assert np.abs(store[name].data).sum() > 0  # he-initialized


def test_no_parameter_sharing_between_sites():
    store = build_generator(small_cfg(n_levels=3), np.random.default_rng(0))
    seen = {id(t) for t in store.values()}
    assert len(seen) == len(store)


# ---------------------------------------------------------------------------
# generator forward geometry


def test_generator_preserves_input_shape_and_bounds():
    rng = np.random.default_rng(1)
    cfg = small_cfg(n_levels=3)
    store = build_generator(cfg, rng)
    x = _norm_input(rng, (2, 3, 128, 96))
    out = generator_forward(x, store, cfg)
    assert out.shape == (2, 3, 128, 96)
    assert np.all(out.data > -1.0) and np.all(out.data < 1.0)


def test_generator_internal_shapes_line_up():
    """Every base encoder lands on the shared bottleneck grid."""
    rng = np.random.default_rng(2)
    cfg = small_cfg(n_levels=3, base_channels=4, bottleneck_channels=5)
    store = build_generator(cfg, rng)
    x = _norm_input(rng, (1, 3, 128, 96))
    with Tape() as tape:
        generator_forward(x, store, cfg)
    shape = {name: t.shape for name, t in site_outputs(tape, store, generator_sites(cfg)).items()}

    for k in (1, 2, 3):
        assert shape[f"enc.trunk.{k}"] == (1, 4 << (k - 1), 128 >> k, 96 >> k)
        assert shape[f"enc.base.{k}"] == (1, 5, 8, 6)
    # gated_sum holds both gates to the shape of the fusion they gate
    for k in (2, 3):
        assert shape[f"sgu.enc.{k}.gate_a"] == shape[f"sgu.enc.{k}.gate_p"] == (1, 5, 8, 6)
    for k in (1, 2, 3):
        assert shape[f"dec.base.{k}"] == (1, 5, 16 << (k - 1), 12 << (k - 1))
    assert shape["dec.up.1"] == (1, 5, 32, 24)
    assert shape["dec.up.2"] == (1, 5, 64, 48)
    assert shape["dec.up.3"] == (1, 5, 128, 96)


def test_site_outputs_name_every_site_of_a_taped_paper_forward():
    """At the paper config a taped forward records all 22 generator sites,
    the last of them the returned tensor, and taping moves no output bit."""
    rng = np.random.default_rng(4)
    cfg = RunConfig(n_levels=3, base_channels=32, bottleneck_channels=64)
    store = build_generator(cfg, rng)
    x = _norm_input(rng, (1, 3, 128, 96))
    with Tape() as tape:
        y = generator_forward(x, store, cfg)
    sites = generator_sites(cfg)
    out = site_outputs(tape, store, sites)
    assert len(sites) == 22 and out.keys() == sites.keys()
    assert out["out.conv"] is y
    assert generator_forward(x, store, cfg).data.tobytes() == y.data.tobytes()


def test_site_outputs_take_a_sites_last_record_and_skip_the_rest():
    rng = np.random.default_rng(6)
    p = draw("conv", 3, 3, 3, rng)
    store = ParamStore({"a.weight": p.weight, "a.bias": p.bias})
    x = _norm_input(rng, (1, 3, 8, 8))
    with Tape() as tape:
        conv2d(x, p)
        second = conv2d(x, p)
    assert site_outputs(tape, store, ["a"]) == {"a": second}
    assert site_outputs(tape, store, []) == {}


def test_each_decoder_level_reads_its_fusion():
    """Bottom-up fusion, then top-down restore: decoder level k reads the
    fusion of the first n - k + 1 encoder levels, so the deepest level
    reads the first base encoder's output alone and level 1 reads more."""
    rng = np.random.default_rng(5)
    cfg = small_cfg(n_levels=3)
    store = build_generator(cfg, rng)
    with Tape() as tape:
        generator_forward(_norm_input(rng, (1, 3, 64, 48)), store, cfg)
    read = {id(inputs[1]): inputs[0] for inputs, _ in tape.records() if len(inputs) > 1}
    first = site_outputs(tape, store, ["enc.base.1"])["enc.base.1"]
    assert read[id(store["dec.base.3.weight"])] is first
    assert read[id(store["dec.base.1.weight"])] is not first


@pytest.mark.parametrize("scale", EVAL_SCALES)
def test_generator_handles_every_eval_scale(scale):
    h, w = scale
    rng = np.random.default_rng(3)
    cfg = small_cfg(n_levels=3, base_channels=2, bottleneck_channels=2)
    store = build_generator(cfg, rng)
    out = generator_forward(_norm_input(rng, (1, 3, h, w)), store, cfg)
    assert out.shape == (1, 3, h, w)


def test_all_zero_params_give_zero_output():
    rng = np.random.default_rng(4)
    cfg = small_cfg()
    store = build_generator(cfg, rng)
    for t in store.values():
        t.data[:] = 0.0
    out = generator_forward(_norm_input(rng, (1, 3, 32, 32)), store, cfg)
    np.testing.assert_array_equal(out.data, 0.0)


@pytest.mark.parametrize("mode", ["sgu", "max", "average", "concat"])
def test_generator_runs_in_every_merge_mode(mode):
    rng = np.random.default_rng(5)
    cfg = small_cfg(merge_mode=mode)
    store = build_generator(cfg, rng)
    out = generator_forward(_norm_input(rng, (1, 3, 24, 16)), store, cfg)
    assert out.shape == (1, 3, 24, 16)


def test_zero_gate_sgu_equals_average_mode_network():
    """Freshly built sgu gates are zero, so the whole net matches average mode."""
    rng = np.random.default_rng(6)
    cfg_sgu = small_cfg(merge_mode="sgu")
    cfg_avg = replace(cfg_sgu, merge_mode="average")
    gen = build_generator(cfg_sgu, np.random.default_rng(7))
    avg_store = ParamStore()
    for name in _built_names(cfg_avg):
        avg_store[name] = gen[name]
    x = _norm_input(rng, (1, 3, 32, 32))
    out_sgu = generator_forward(x, gen, cfg_sgu)
    out_avg = generator_forward(x, avg_store, cfg_avg)
    np.testing.assert_array_equal(out_sgu.data, out_avg.data)


def test_taped_generator_records_one_node_per_conv_site():
    """Every activation runs inside its conv's node and each SGU gates in
    one node, so a 2-level sgu generator records 16 nodes: 3 trunk and 2
    base-encoder convs, 2 base decoder and 2 up deconvs, the output conv,
    and per SGU (one per stage) two gate convs and one gated sum.  With
    the gating as two muls and an add it recorded 20; with its 14
    activations as nodes of their own as well, 34."""
    rng = np.random.default_rng(9)
    cfg = small_cfg()
    store = build_generator(cfg, rng)
    with Tape() as tape:
        generator_forward(_norm_input(rng, (1, 3, 32, 32)), store, cfg)
    assert len(tape) == 16


def test_generator_forward_is_deterministic():
    rng = np.random.default_rng(8)
    cfg = small_cfg()
    store = build_generator(cfg, rng)
    x = _norm_input(rng, (1, 3, 32, 32))
    a = generator_forward(x, store, cfg).data.tobytes()
    b = generator_forward(x, store, cfg).data.tobytes()
    assert a == b


# ---------------------------------------------------------------------------
# generator input validation


def test_generator_rejects_indivisible_input():
    rng = np.random.default_rng(9)
    cfg = small_cfg(n_levels=3)  # divisor 16
    store = build_generator(cfg, rng)
    with pytest.raises(ValueError, match=r"\(100, 96\) must be divisible by 16"):
        generator_forward(_norm_input(rng, (1, 3, 100, 96)), store, cfg)
    with pytest.raises(ValueError, match="nearest valid heights 96/112, widths 96/96"):
        generator_forward(_norm_input(rng, (1, 3, 100, 96)), store, cfg)


def test_generator_rejects_unnormalized_input():
    rng = np.random.default_rng(10)
    cfg = small_cfg()
    store = build_generator(cfg, rng)
    raw = Tensor(np.full((1, 3, 32, 32), 128.0, dtype=np.float32))
    with pytest.raises(ValueError, match="normalized"):
        generator_forward(raw, store, cfg)
    # exactly the boundary is fine
    edge = Tensor(np.full((1, 3, 32, 32), 1.0, dtype=np.float32))
    generator_forward(edge, store, cfg)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_generator_rejects_a_non_finite_input_as_unnormalized(bad):
    """A NaN pixel fails the range check, naming it, rather than deep inside
    the network."""
    rng = np.random.default_rng(10)
    cfg = small_cfg()
    store = build_generator(cfg, rng)
    x = _norm_input(rng, (1, 3, 32, 32))
    x.data[0, 1, 5, 7] = bad
    with pytest.raises(ValueError, match=f"normalized to \\[-1, 1\\], max \\|value\\| = {bad}"):
        generator_forward(x, store, cfg)


def test_generator_rejects_wrong_channel_count():
    rng = np.random.default_rng(11)
    cfg = small_cfg()
    store = build_generator(cfg, rng)
    with pytest.raises(ValueError, match=r"1 channels, expected 3 \(RGB\)"):
        generator_forward(_norm_input(rng, (1, 1, 32, 32)), store, cfg)


def test_generator_rejects_a_stored_kernel_that_pools_by_no_factor():
    """A foreign checkpoint's 6x6 trunk kernel fails when its layer is built."""
    rng = np.random.default_rng(12)
    cfg = small_cfg()
    foreign = ParamStore()
    for name, t in build_generator(cfg, rng).items():
        if name == "enc.trunk.1.weight":
            t = Tensor(np.zeros(t.shape[:2] + (6, 6), dtype=t.dtype))
        foreign[name] = t
    with pytest.raises(ValueError, match="kernel 6 pools by no factor"):
        generator_forward(_norm_input(rng, (1, 3, 32, 32)), foreign, cfg)


# ---------------------------------------------------------------------------
# discriminator


def test_discriminator_output_shape_and_range():
    rng = np.random.default_rng(12)
    cfg = small_cfg(disc_channels=(4, 4, 8, 8))
    store = build_discriminator(cfg, rng)
    assert list(store) == [
        "disc.conv.1.weight",
        "disc.conv.1.bias",
        "disc.conv.2.weight",
        "disc.conv.2.bias",
        "disc.conv.3.weight",
        "disc.conv.3.bias",
        "disc.conv.4.weight",
        "disc.conv.4.bias",
        "disc.head.weight",
        "disc.head.bias",
    ]
    for shape in [(3, 3, 16, 16), (1, 3, 32, 48)]:
        out = discriminator_forward(_norm_input(rng, shape), store, cfg)
        assert out.shape == (shape[0], 1, 1, 1)
        assert np.all(out.data > 0.0) and np.all(out.data < 1.0)


def test_zero_weight_discriminator_scores_half():
    rng = np.random.default_rng(13)
    cfg = small_cfg(disc_channels=(2, 2, 2, 2))
    store = build_discriminator(cfg, rng)
    for t in store.values():
        t.data[:] = 0.0
    out = discriminator_forward(_norm_input(rng, (2, 3, 16, 16)), store, cfg)
    np.testing.assert_array_equal(out.data, 0.5)


def test_discriminator_rejects_small_or_indivisible_input():
    rng = np.random.default_rng(14)
    cfg = small_cfg(disc_channels=(2, 2, 2, 2))
    store = build_discriminator(cfg, rng)
    for h, w in [(8, 16), (24, 16), (16, 40)]:
        with pytest.raises(ValueError, match="divisible by 16"):
            discriminator_forward(_norm_input(rng, (1, 3, h, w)), store, cfg)


def test_discriminator_depth_is_read_from_its_widths():
    """The forward runs the convs the build made: a three-width critic
    needs inputs divisible by 8 and runs disc.conv.1-3."""
    rng = np.random.default_rng(15)
    cfg = small_cfg(disc_channels=(2, 2, 2))
    store = build_discriminator(cfg, rng)
    assert "disc.conv.4.weight" not in store
    assert discriminator_forward(_norm_input(rng, (1, 3, 8, 24)), store, cfg).shape == (1, 1, 1, 1)
    with pytest.raises(ValueError, match=r"\(8, 12\) must be >= 8 and divisible by 8"):
        discriminator_forward(_norm_input(rng, (1, 3, 8, 12)), store, cfg)
