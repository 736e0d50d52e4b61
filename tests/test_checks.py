"""The gradient battery's probe streams: a check's data depends on its own
group alone.  Acceptance criterion 1 runs the battery itself."""

import sgen.checks as checks
from sgen import Tensor


def _fingerprints(monkeypatch):
    """Every check's (name, value), where the value stands in for the
    gradient error: the probe's bytes and the loss's forward value there,
    which depends on every array the check's closure holds."""

    def forward(build, x, eps):
        return x.data.tobytes() + build(Tensor(x.data.copy())).data.tobytes()

    monkeypatch.setattr(checks, "grad_check", forward)
    return [(r.name, r.error) for r in checks.run_gradient_battery()]


def test_a_checks_probes_do_not_depend_on_other_checks(monkeypatch):
    full = _fingerprints(monkeypatch)
    assert len(full) == 119
    for table, dropped, gone in (("_BINARY_OPS", "add", 6), ("_ACTIVATIONS", "relu", 3)):
        kept = {k: v for k, v in getattr(checks, table).items() if k != dropped}
        with monkeypatch.context() as patch:
            patch.setattr(checks, table, kept)
            fewer = _fingerprints(patch)
        names = {name for name, _ in fewer}
        assert len(fewer) == len(full) - gone
        assert fewer == [pair for pair in full if pair[0] in names], f"dropping {dropped} moved a probe"
