"""The benchmark's tracer must keep finding what it wraps in sgen.

perfbench names each conv and deconv by the weight tensor it receives and
times its backward through the ``record`` that ``sgen.nn`` calls.  A
change that renames or retypes any of that would otherwise show up only as
null or ``?`` per-layer metrics in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import sgen
from sgen.autodiff import mean_all

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_names_every_conv_site_forward_and_backward():
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    cfg = sgen.RunConfig(n_levels=2, base_channels=4, bottleneck_channels=4, disc_channels=(2, 2, 2, 2))
    rng = np.random.default_rng(0)
    with tracer.installed():
        gen = sgen.build_generator(cfg, rng)
        disc = sgen.build_discriminator(cfg, rng)
        x = sgen.Tensor(rng.uniform(-1.0, 1.0, size=(1, 3, 32, 32)).astype(np.float32))
        with sgen.Tape() as tape:
            loss = mean_all(sgen.discriminator_forward(sgen.generator_forward(x, gen, cfg), disc, cfg))
        sgen.backward(tape, loss)

    assert tracer.missing == []
    kinds = ("nn.conv2d", "nn.deconv2d", "nn.conv2d.bwd", "nn.deconv2d.bwd")
    spans = [span for span in tracer.spans if span[tracer_module.NAME] in kinds]
    sites = [span[tracer_module.ATTRS]["site"] for span in spans]
    assert all(site not in (None, "?") for site in sites), sites
    expected = {
        name[: -len(".weight")] for store in (gen, disc) for name in store if name.endswith(".weight")
    }
    assert len(expected) == 19  # 14 generator sites at two levels, 5 discriminator sites
    forward = {s[tracer_module.ATTRS]["site"] for s in spans if not s[tracer_module.NAME].endswith(".bwd")}
    backward = {s[tracer_module.ATTRS]["site"] for s in spans if s[tracer_module.NAME].endswith(".bwd")}
    assert forward == backward == expected


@pytest.mark.parametrize("mode", sgen.MERGE_MODES)
def test_tracer_sees_one_merge_span_per_merge_site(mode):
    """The ``ensemble.*`` metrics come from wrapping ``sgen.ensemble.merge``:
    a generator that fused its features without calling it would leave
    them at zero while ``tracer.missing`` stayed empty."""
    tracer_module = _load_tracer()
    name, parent, attrs = tracer_module.NAME, tracer_module.PARENT, tracer_module.ATTRS
    tracer = tracer_module.Tracer()
    cfg = sgen.RunConfig(n_levels=3, base_channels=2, bottleneck_channels=2, merge_mode=mode)
    rng = np.random.default_rng(1)
    with tracer.installed():
        gen = sgen.build_generator(cfg, rng)
        x = sgen.Tensor(rng.uniform(-1.0, 1.0, size=(1, 3, 16, 16)).astype(np.float32))
        sgen.generator_forward(x, gen, cfg)
        with sgen.Tape():
            sgen.generator_forward(x, gen, cfg)

    assert tracer.missing == []
    spans = tracer.spans
    forwards = [i for i, s in enumerate(spans) if s[name] == "model.generator_forward"]
    merges = [s[parent] for s in spans if s[name] == "ensemble.merge"]
    assert len(forwards) == 2
    assert merges == [i for i in forwards for _ in range(2 * (cfg.n_levels - 1))]
    # the gate convs run inside their merge, so they feed ensemble.gate_conv_ms
    gates = [s for s in spans if s[name] == "nn.conv2d" and ".gate_" in s[attrs]["site"]]
    assert len(gates) == (2 * len(merges) if mode == "sgu" else 0)
    assert all(spans[s[parent]][name] == "ensemble.merge" for s in gates)


def test_tracer_records_one_yielded_batch_span_per_training_step(tmp_path):
    """``train.data_wait`` sums the ``data.batch`` spans that yielded a
    batch: an N-step run must record exactly N of them, whatever batch
    ``batch_iter`` yields, and the epoch ends in between must not count."""
    tracer_module = _load_tracer()
    name, attrs = tracer_module.NAME, tracer_module.ATTRS
    tracer = tracer_module.Tracer()
    cfg = sgen.RunConfig(
        n_levels=2, base_channels=2, bottleneck_channels=2, scales=((32, 32), (48, 32)),
        synthetic_count=3, synthetic_size=(48, 32), batch_size=2, steps=5, eval_every=0,
        checkpoint_out=str(tmp_path / "model.ckpt"),
    )
    with tracer.installed():
        result = sgen.run_training(cfg)

    assert tracer.missing == []
    assert len(result.log_lines) == 6
    batches = [s[attrs]["yielded"] for s in tracer.spans if s[name] == "data.batch"]
    assert batches.count(True) == 5
    assert batches.count(False) == 1  # the end of epoch 0: 4 batches, 2 per size
