"""Spans around calls into compresslab's modules, recorded from outside.

``Tracer.install`` replaces every public function of every module with a
wrapper that records a span (name, start, end, parent), then rebinds every
other name the program calls through that still points at an original: names
bound at import time such as ``cli.prune_and_finetune`` and the values of
``sweep.DATASET_LOADERS``.  Calls inside a module go through its globals, so
``nncore.train`` reaching ``loss_and_grad`` and ``evaluate_accuracy`` is
traced too.  Nothing in ``src/`` changes; ``uninstall`` puts the originals
back.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from types import ModuleType

MODULES = ("cli", "sweep", "nncore", "pruning", "quantization", "sizing", "datasets",
           "metrics")

# bytes counted per span: the input of a gzip call, the output of serialize
_GZIP = ("sizing.gzip_compress", "sizing.gzipped_size")
_SERIALIZE = "sizing.serialize_model"
_TRAINING = ("nncore.train", "pruning.prune_and_finetune")


class Tracer:
    def __init__(self, package: ModuleType):
        self.package = package
        self.spans: list[list] = []  # [name, start, end, parent index or -1, bytes]
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if name in _GZIP:
                span[4] = len(args[0])
            elif name == _SERIALIZE:
                span[4] = len(result)
            return result
        return traced

    def install(self) -> None:
        """Wrap and rebind; spans from here on go to a fresh ``self.spans``."""
        self.spans = []
        modules = [getattr(self.package, m) for m in MODULES]
        wrappers = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ \
                        and not attr.startswith("_"):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for module in [self.package, *modules]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, value in obj.items():
                        if inspect.isfunction(value) and value in wrappers:
                            self._restore.append((obj, key, value))
                            obj[key] = wrappers[value]

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore.clear()


UNITS = {
    "nncore.train_s": "s", "nncore.loss_and_grad_s": "s",
    "nncore.loss_and_grad_calls": "count", "nncore.loss_and_grad_ms": "ms",
    "nncore.evaluate_s": "s", "nncore.evaluate_in_training_s": "s",
    "nncore.forward_calls": "count", "nncore.forward_ms": "ms",
    "pruning.prune_and_finetune_s": "s", "pruning.magnitude_threshold_s": "s",
    "pruning.magnitude_threshold_calls": "count",
    "quantization.quantize_s": "s", "quantization.dequantize_s": "s",
    "sizing.serialize_s": "s", "sizing.gzip_s": "s", "sizing.gzip_calls": "count",
    "sizing.gzip_in_mb": "MB", "sizing.gzip_in_per_serialized": "ratio",
    "sizing.load_s": "s", "datasets.load_s": "s", "metrics.s": "s",
    **{f"{module}.self_s": "s" for module in MODULES},
}


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-module figures from one round's spans (see README.md for each)."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]

    def total(*names, where=lambda i: True):
        return sum(dur[i] for i, s in enumerate(spans) if s[0] in names and where(i))

    def per_call_ms(name):
        calls = [dur[i] * 1e3 for i, s in enumerate(spans) if s[0] == name]
        return statistics.median(calls) if calls else 0.0

    def count(*names):
        return sum(1 for s in spans if s[0] in names)

    def in_training(i):
        parent = spans[i][3]
        return parent >= 0 and spans[parent][0] in _TRAINING

    def module_of(i):
        return spans[i][0].split(".", 1)[0]

    gzip_in = sum(s[4] for s in spans if s[0] in _GZIP)
    serialized = sum(s[4] for s in spans if s[0] == _SERIALIZE)
    out = {
        "nncore.train_s": total("nncore.train"),
        "nncore.loss_and_grad_s": total("nncore.loss_and_grad"),
        "nncore.loss_and_grad_calls": count("nncore.loss_and_grad"),
        "nncore.loss_and_grad_ms": per_call_ms("nncore.loss_and_grad"),
        "nncore.evaluate_s": total("nncore.evaluate_accuracy",
                                   where=lambda i: not in_training(i)),
        "nncore.evaluate_in_training_s": total("nncore.evaluate_accuracy", where=in_training),
        "nncore.forward_calls": count("nncore.forward"),
        "nncore.forward_ms": per_call_ms("nncore.forward"),
        "pruning.prune_and_finetune_s": total("pruning.prune_and_finetune"),
        "pruning.magnitude_threshold_s": total("pruning.magnitude_threshold"),
        "pruning.magnitude_threshold_calls": count("pruning.magnitude_threshold"),
        "quantization.quantize_s": total("quantization.quantize_params"),
        "quantization.dequantize_s": total("quantization.dequantize_tensor"),
        "sizing.serialize_s": total(_SERIALIZE),
        "sizing.gzip_s": total(*_GZIP),
        "sizing.gzip_calls": count(*_GZIP),
        "sizing.gzip_in_mb": gzip_in / 2 ** 20,
        "sizing.gzip_in_per_serialized": gzip_in / serialized if serialized else 0.0,
        "sizing.load_s": total("sizing.load_artifact"),
        "datasets.load_s": total("datasets.load_mnist", "datasets.load_cifar10"),
        "metrics.s": sum(dur[i] for i in range(len(spans)) if module_of(i) == "metrics"
                         and (spans[i][3] < 0 or module_of(spans[i][3]) != "metrics")),
    }
    for module in MODULES:
        out[f"{module}.self_s"] = sum(dur[i] - child[i] for i in range(len(spans))
                                      if module_of(i) == module)
    return {name: float(value) for name, value in out.items()}
