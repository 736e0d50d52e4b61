"""The benchmark's tracer must keep finding what it wraps in sgen.

perfbench names each conv and deconv by the weight tensor it receives and
times its backward through the ``record`` that ``sgen.nn`` calls.  A
change that renames or retypes any of that would otherwise show up only as
null or ``?`` per-layer metrics in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np

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
    cfg = sgen.SgenConfig(n_levels=2, base_channels=4, bottleneck_channels=4, disc_channels=(2, 2, 2, 2))
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
        name[: -len(".weight")] for store in (gen, disc) for name in store.names() if name.endswith(".weight")
    }
    assert len(expected) == 19  # 14 generator sites at two levels, 5 discriminator sites
    forward = {s[tracer_module.ATTRS]["site"] for s in spans if not s[tracer_module.NAME].endswith(".bwd")}
    backward = {s[tracer_module.ATTRS]["site"] for s in spans if s[tracer_module.NAME].endswith(".bwd")}
    assert forward == backward == expected
