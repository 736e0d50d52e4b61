"""Outside-in tracing of the sgen package.

The tracer wraps public functions of each sgen module in this process only
and records one span per call: name, start, end, parent span and a few
attributes (the parameter site of a convolution, its computed FLOPs and
bytes, the tape length at ``backward``).  Spans stay in memory until the
run ends.  Backward time of the convolutions is taken by wrapping the
``record`` that ``sgen.nn`` calls, so each backward closure gets its own
span under ``autodiff.backward``.

A function that no longer exists is skipped, and the metrics that depend
on it are reported as missing (``None``) instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

NAME, START, END, PARENT, ATTRS = range(5)

ELEMENTWISE_OPS = (
    "add", "sub", "mul", "add_const", "mul_const", "const_minus", "relu", "lrelu",
    "sigmoid", "tanh", "log", "clamp", "sum_all", "mean_all", "concat_channels", "maximum",
)
NN_FORWARD = ("nn.conv2d", "nn.deconv2d", "nn.global_avg_pool")
NN_BACKWARD = tuple(f"{name}.bwd" for name in NN_FORWARD)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.sites: dict[int, str] = {}
        self._stores: list = []  # registered stores stay alive so their ids stay unique
        self.missing: list[str] = []
        self.missing_prefixes: list[str] = []
        self._patched: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, attrs: dict | None = None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, attrs])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = perf_counter()
        top = self._stack.pop()
        if top != index:
            raise RuntimeError(f"span {self.spans[index][NAME]!r} closed out of order")

    def close_open_spans(self) -> None:
        while self._stack:
            self.close(self._stack[-1])

    def register_store(self, store) -> None:
        """Name each weight tensor of a ParamStore by its parameter site."""
        self._stores.append(store)
        for name, tensor in store.items():
            if name.endswith(".weight"):
                self.sites[id(tensor)] = name[: -len(".weight")]

    # -- wrappers ------------------------------------------------------------

    def _timed(self, fn, name, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = before(args) if before is not None else None
            index = self.open(name, attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(self.spans[index], args, result)
            return result

        return wrapper

    def _timed_generator(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                index = self.open(name, {"yielded": False})
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.close(index)
                self.spans[index][ATTRS]["yielded"] = True
                yield item

        return wrapper

    def _conv_attrs(self, kind):
        def before(args):
            x, p = args[0], args[1]
            return {"site": self.sites.get(id(p.weight), "?"),
                    **_nn_cost(kind, x.shape, p.weight.shape, p.stride, p.padding, x.dtype.itemsize)}

        return before

    def _nn_record(self, record):
        """Wrap the backward closure each nn op records, timing it as `<op>.bwd`."""
        tracer = self

        @functools.wraps(record)
        def wrapper(inputs, output, backward_fn):
            parent = tracer.spans[tracer._stack[-1]] if tracer._stack else None
            name = f"{parent[NAME]}.bwd" if parent and parent[NAME] in NN_FORWARD else "nn.other.bwd"
            fwd = (parent[ATTRS] if parent else None) or {}
            grads = sum(1 for t in inputs[:2] if t.requires_grad)
            attrs = {"site": fwd.get("site"),
                     "flop": fwd.get("flop", 0.0) * grads,
                     "bytes": fwd.get("bytes", 0.0) * grads}

            def timed_backward(g):
                index = tracer.open(name, attrs)
                try:
                    return backward_fn(g)
                finally:
                    tracer.close(index)

            return record(inputs, output, timed_backward)

        return wrapper

    def _targets(self):
        """(module, attribute, wrapper factory, metric prefixes it feeds)."""
        t = self._timed

        def note_store(span, args, store):
            self.register_store(store)

        def note_file_size(span, args, result):
            span[ATTRS] = {"bytes": os.path.getsize(args[1] if len(args) > 1 else args[0])}

        def note_taped(span, args, result):
            span[ATTRS] = {"taped": bool(result.requires_grad), "hw": tuple(args[0].shape[2:])}

        targets = [
            ("sgen.nn", "conv2d", lambda f: t(f, "nn.conv2d", self._conv_attrs("conv2d")),
             ("nn.conv2d.", "nn.site.", "nn.calls", "nn.g", "ensemble.")),
            ("sgen.nn", "deconv2d", lambda f: t(f, "nn.deconv2d", self._conv_attrs("deconv2d")),
             ("nn.deconv2d.", "nn.site.", "nn.calls", "nn.g")),
            ("sgen.nn", "global_avg_pool", lambda f: t(f, "nn.global_avg_pool"), ("nn.calls",)),
            ("sgen.nn", "record", self._nn_record,
             ("nn.conv2d.bwd", "nn.deconv2d.bwd", "nn.site.", "nn.g", "autodiff.backward_self")),
            ("sgen.model", "generator_forward", lambda f: t(f, "model.generator_forward", after=note_taped),
             ("train.gen_fwd", "model.gen_forward_calls", "metrics.restore_ms.")),
            ("sgen.model", "discriminator_forward", lambda f: t(f, "model.discriminator_forward"),
             ("train.disc_fwd", "model.disc_forward_calls")),
            ("sgen.model", "build_generator", lambda f: t(f, "model.build_generator", after=note_store),
             ("nn.site.",)),
            ("sgen.model", "build_discriminator", lambda f: t(f, "model.build_discriminator", after=note_store),
             ()),
            ("sgen.ensemble", "merge", lambda f: t(f, "ensemble.merge"), ("ensemble.",)),
            ("sgen.autodiff", "backward",
             lambda f: t(f, "autodiff.backward", lambda a: {"nodes": len(a[0])}),
             ("train.backward", "autodiff.backward_self", "autodiff.tape_nodes")),
            ("sgen.losses", "mse_loss", lambda f: t(f, "losses"), ("losses.", "train.loss")),
            ("sgen.losses", "d_loss", lambda f: t(f, "losses"), ()),
            ("sgen.losses", "g_loss", lambda f: t(f, "losses"), ()),
            ("sgen.optim", "adam_step",
             lambda f: t(f, "optim.adam", lambda a: {"values": a[0].count_values()}),
             ("optim.", "train.optim")),
            ("sgen.optim", "init_adam", lambda f: t(f, "optim.init"), ()),
            ("sgen.data", "batch_iter", lambda f: self._timed_generator(f, "data.batch"),
             ("data.batch", "train.data_wait")),
            ("sgen.data", "degraded_dataset", lambda f: t(f, "data.degrade"), ("data.degrade",)),
            ("sgen.train", "load_corpus", lambda f: t(f, "data.corpus_load"), ("data.corpus_load",)),
            ("sgen.ppm", "load_image", lambda f: t(f, "ppm.load"), ("ppm.",)),
            ("sgen.metrics", "psnr", lambda f: t(f, "metrics.psnr"), ("metrics.psnr",)),
            ("sgen.metrics", "ssim", lambda f: t(f, "metrics.ssim"), ("metrics.ssim",)),
            ("sgen.checkpoint", "save_checkpoint",
             lambda f: t(f, "checkpoint.save", after=note_file_size), ("checkpoint.save", "checkpoint.mb")),
            ("sgen.checkpoint", "load_checkpoint",
             lambda f: t(f, "checkpoint.load", after=lambda s, a, r: (note_store(s, a, r), note_file_size(s, a, r))),
             ("checkpoint.load",)),
        ]
        for op in ELEMENTWISE_OPS:
            targets.append(("sgen.autodiff", op, lambda f: t(f, "autodiff.elementwise"), ()))
        return targets

    @contextlib.contextmanager
    def installed(self):
        """Wrap the targets in every loaded sgen module; undo on exit."""
        modules = [m for name, m in list(sys.modules.items()) if name == "sgen" or name.startswith("sgen.")]
        try:
            for module_name, attr, factory, feeds in self._targets():
                try:
                    home = importlib.import_module(module_name)
                except ImportError:
                    home = None
                original = getattr(home, attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    self.missing_prefixes.extend(feeds)
                    continue
                wrapper = factory(original)
                # the nn backward hook must not wrap the record of elementwise ops
                scope = [home] if attr == "record" else modules
                for module in scope:
                    names = [k for k, v in vars(module).items() if v is original]
                    for k in names:
                        setattr(module, k, wrapper)
                        self._patched.append((module, k, original))
            yield self
        finally:
            for module, k, original in reversed(self._patched):
                setattr(module, k, original)
            self._patched.clear()

    def write_spans(self, path) -> None:
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, attrs in self.spans:
                record = {"name": name, "start": start - origin, "end": end - origin, "parent": parent}
                if attrs:
                    record["attrs"] = {k: list(v) if isinstance(v, tuple) else v for k, v in attrs.items()}
                f.write(json.dumps(record) + "\n")


def _nn_cost(kind, x_shape, w_shape, stride, padding, itemsize) -> dict:
    """FLOPs and bytes of one forward pass, computed from the shapes.

    Both ops are one GEMM over an im2col buffer: the bytes count the input,
    the weights, the output, and the buffer once written and once read.
    Each backward GEMM (input or weight gradient) costs the same again.
    """
    n, c, h, w = x_shape
    k = w_shape[2]
    if kind == "conv2d":
        out_c = w_shape[0]
        oh = (h + 2 * padding - k) // stride + 1
        ow = (w + 2 * padding - k) // stride + 1
        cols = n * c * k * k * oh * ow
        out = n * out_c * oh * ow
        flop = 2.0 * out * c * k * k
    else:
        out_c = w_shape[1]
        cols = n * out_c * k * k * h * w
        out = n * out_c * h * stride * w * stride
        flop = 2.0 * cols * c
    weights = w_shape[0] * w_shape[1] * k * k
    return {"flop": flop, "bytes": float(itemsize * (n * c * h * w + weights + out + 2 * cols))}


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def per_layer_metrics(tracer: Tracer, training: bool, expected) -> dict[str, float | None]:
    """Per-layer metrics from the spans; per-op values are means over op spans.

    Every name in ``expected`` is present: 0.0 where the layer did no work,
    None where a function it needs could not be wrapped.
    """
    spans = tracer.spans
    count = len(spans)
    op_of = [-1] * count
    for i, span in enumerate(spans):
        if span[NAME] == "op":
            op_of[i] = i
        elif span[PARENT] >= 0:
            op_of[i] = op_of[span[PARENT]]

    def has_ancestor(i, name):
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] == name:
                return True
            p = spans[p][PARENT]
        return False

    ops = [i for i in range(count) if spans[i][NAME] == "op"]
    n_ops = len(ops) or 1
    op_time = sum(spans[i][END] - spans[i][START] for i in ops)
    per_op = defaultdict(float)  # summed over ops, divided by n_ops at the end
    per_call = defaultdict(list)  # one sample per call
    direct = 0.0
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        if name == "op":
            continue
        dur = end - start
        in_op = op_of[i] >= 0
        if in_op and parent == op_of[i]:
            direct += dur
            if training:
                per_op[_TRAIN_CHILD.get(name, "train.other")] += dur
                if name == "model.generator_forward" and not attrs["taped"]:
                    per_op["train.gen_fwd"] -= dur
                    per_op["train.gen_fwd_untaped"] += dur
        if name in NN_FORWARD or name in NN_BACKWARD:
            fwd = name in NN_FORWARD
            if in_op:
                base = name if fwd else name[: -len(".bwd")]
                per_op[f"{base}.{'fwd' if fwd else 'bwd'}"] += dur
                per_op["nn.time"] += dur
                if attrs:
                    per_op["nn.flop"] += attrs["flop"]
                    per_op["nn.bytes"] += attrs["bytes"]
                    if attrs["site"] is not None:  # pooling has no parameter site
                        per_op[f"site.{attrs['site']}.{'fwd' if fwd else 'bwd'}"] += dur
                if fwd:
                    per_op["nn.calls"] += 1
                    if has_ancestor(i, "ensemble.merge"):
                        per_op["ensemble.gate_conv"] += dur
                elif has_ancestor(i, "autodiff.backward"):
                    per_op["autodiff.backward_nn"] += dur
        elif name == "model.generator_forward":
            per_op["model.gen_forward_calls"] += in_op
            if in_op and not training:
                h, w = attrs["hw"]
                per_call[f"metrics.restore_ms.{h}x{w}"].append(dur)
        elif name == "model.discriminator_forward":
            per_op["model.disc_forward_calls"] += in_op
        elif name == "autodiff.backward":
            per_op["autodiff.backward"] += dur
            per_op["autodiff.tape_nodes"] += attrs["nodes"]
        elif name == "autodiff.elementwise":
            per_op["autodiff.elementwise"] += dur
        elif name == "ensemble.merge":
            per_op["ensemble.merge"] += dur
        elif name == "losses":
            if not has_ancestor(i, "losses"):
                per_op["losses"] += dur
        elif name == "optim.adam":
            per_op["optim.adam"] += dur
            per_op["optim.values"] += attrs["values"]
        elif name == "data.batch":
            if attrs["yielded"]:
                per_call["data.batch_ms"].append(dur)
        elif name in _PER_CALL:
            per_call[_PER_CALL[name]].append(dur)
            if name.startswith("checkpoint.") and attrs:
                per_call["checkpoint.mb"].append(attrs["bytes"] / 1e6)

    ms = 1000.0 / n_ops
    m: dict[str, float | None] = {}
    for key in ("data_wait", "gen_fwd", "gen_fwd_untaped", "disc_fwd", "loss", "backward", "optim"):
        m[f"train.{key}_ms"] = per_op[f"train.{key}"] * ms if training else 0.0
    m["train.untraced_ms"] = (op_time - direct) / n_ops * 1000.0 if training else 0.0
    m["model.gen_forward_calls"] = per_op["model.gen_forward_calls"] / n_ops
    m["model.disc_forward_calls"] = per_op["model.disc_forward_calls"] / n_ops
    m["autodiff.tape_nodes"] = per_op["autodiff.tape_nodes"] / n_ops
    m["autodiff.backward_self_ms"] = (per_op["autodiff.backward"] - per_op["autodiff.backward_nn"]) * ms
    m["autodiff.elementwise_fwd_ms"] = per_op["autodiff.elementwise"] * ms
    for op in ("conv2d", "deconv2d"):
        m[f"nn.{op}.fwd_ms"] = per_op[f"nn.{op}.fwd"] * ms
        m[f"nn.{op}.bwd_ms"] = per_op[f"nn.{op}.bwd"] * ms
    m["nn.calls"] = per_op["nn.calls"] / n_ops
    m["nn.gflop"] = per_op["nn.flop"] / n_ops / 1e9
    m["nn.gb_moved"] = per_op["nn.bytes"] / n_ops / 1e9
    m["nn.gflops_achieved"] = per_op["nn.flop"] / per_op["nn.time"] / 1e9 if per_op["nn.time"] else 0.0
    for site in sorted({key[len("site."): key.rindex(".")] for key in per_op if key.startswith("site.")}):
        m[f"nn.site.{site}.fwd_ms"] = per_op[f"site.{site}.fwd"] * ms
        m[f"nn.site.{site}.bwd_ms"] = per_op[f"site.{site}.bwd"] * ms
    m["ensemble.merge_self_ms"] = (per_op["ensemble.merge"] - per_op["ensemble.gate_conv"]) * ms
    m["ensemble.gate_conv_ms"] = per_op["ensemble.gate_conv"] * ms
    m["losses.ms"] = per_op["losses"] * ms
    m["optim.adam_ms"] = per_op["optim.adam"] * ms
    m["optim.values_updated"] = per_op["optim.values"] / n_ops
    for key in ("data.corpus_load_ms", "ppm.load_ms", "data.degrade_ms", "data.batch_ms",
                "metrics.ssim_ms", "metrics.psnr_ms", "checkpoint.save_ms", "checkpoint.load_ms"):
        m[key] = _mean(per_call[key]) * 1000.0
    m["checkpoint.mb"] = max(per_call["checkpoint.mb"], default=0.0)
    for key, values in per_call.items():
        if key.startswith("metrics.restore_ms."):
            m[key] = _mean(values) * 1000.0
    m["trace.coverage"] = direct / op_time if op_time else 0.0
    for key in expected:
        m.setdefault(key, 0.0)
    for key in list(m):
        if any(key.startswith(prefix) for prefix in tracer.missing_prefixes):
            m[key] = None
    return m


_TRAIN_CHILD = {
    "data.batch": "train.data_wait",
    "model.generator_forward": "train.gen_fwd",
    "model.discriminator_forward": "train.disc_fwd",
    "losses": "train.loss",
    "autodiff.backward": "train.backward",
    "optim.adam": "train.optim",
}
_PER_CALL = {
    "data.corpus_load": "data.corpus_load_ms",
    "ppm.load": "ppm.load_ms",
    "data.degrade": "data.degrade_ms",
    "metrics.ssim": "metrics.ssim_ms",
    "metrics.psnr": "metrics.psnr_ms",
    "checkpoint.save": "checkpoint.save_ms",
    "checkpoint.load": "checkpoint.load_ms",
}


def site_table(metrics: dict, op_ms: float) -> str:
    """Per-site forward/backward table, largest forward plus backward first."""
    rows = []
    for key, value in metrics.items():
        if key.startswith("nn.site.") and key.endswith(".fwd_ms"):
            site = key[len("nn.site."): -len(".fwd_ms")]
            fwd = value or 0.0
            bwd = metrics.get(f"nn.site.{site}.bwd_ms") or 0.0
            if fwd or bwd:
                rows.append((fwd + bwd, site, fwd, bwd))
    rows.sort(reverse=True)
    lines = [f"{'site':<22} {'fwd_ms':>9} {'bwd_ms':>9} {'total_ms':>9} {'of_op':>6}"]
    for total, site, fwd, bwd in rows:
        share = f"{100.0 * total / op_ms:5.1f}%" if op_ms else "    -"
        lines.append(f"{site:<22} {fwd:9.2f} {bwd:9.2f} {total:9.2f} {share:>6}")
    return "\n".join(lines)
