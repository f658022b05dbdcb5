"""Outside-in tracing of exitlab: timing wrappers swapped in around its public API.

Nothing inside ``src/exitlab`` knows about these spans. :class:`Tracer`
replaces public module functions and methods (``exitlab.tensor.matmul``,
``MultiExitModel.forward_layer``, ``AdamW.step`` ...) with wrappers that
record a span per call and puts the originals back on :meth:`Tracer.uninstall`.
Per-op backward time comes from wrapping the ``node.backward`` closure of
every taped result a wrapped tensor op returns.

A span is ``[name, start, end, parent, request]`` with :func:`clock`
times; spans stay in memory until :meth:`Tracer.write`. A span's self time
is its duration minus the durations of its direct children (calls are
nested on one thread, so children never overlap).

:class:`Probe` is the light-weight variant used by untraced runs: it only
timestamps the end of each training step, once per step of 10 ms or more.

Every duration is CPU time of this process (``time.process_time``). The
benchmark is single-threaded and does no I/O while timing, so CPU time is
what the wall clock would read on an unshared CPU. On a shared virtual
machine the wall clock also counts time the host gives the vCPU to others
(steal): on a 2-vCPU Intel Xeon guest, 1-second windows of a fixed numpy
loop took up to 2.4x their CPU time, while the CPU time stayed within 5 %.
"""

from __future__ import annotations

import gzip
import statistics
from collections import Counter, defaultdict
from time import process_time as clock

import exitlab.harness as harness
import exitlab.model as model_mod
import exitlab.policies as policies
import exitlab.similarity as similarity
import exitlab.tensor as tensor
import exitlab.training as training
from exitlab.data import Vocab

TENSOR_OPS = ("matmul", "gelu", "layer_norm", "softmax", "sigmoid", "embedding_lookup")
INFER_OPS = ("matmul", "gelu", "layer_norm", "softmax")
MEASURES = ("kd", "rekd", "symkd", "jskd")
POLICIES = ("fpabee", "pabee", "entropy", "maxprob", "learned", "fixed")
MODEL_METHODS = ("embed", "forward_layer", "layer_confidence", "forward_batch",
                 "forward_early_exit", "forward_full")


class _Patches:
    """Attribute swaps that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def swap(self, owner, attr, make):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(getattr(owner, attr)))

    def undo(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Probe:
    """Step clock for untraced runs: ``step_ends`` gets one timestamp when each
    ``AdamW.step`` returns."""

    def __init__(self):
        self.step_ends: list[float] = []
        self._patches = _Patches()

    def __enter__(self):
        ends = self.step_ends

        def clock_step(step):
            def wrapped(self_, grads):
                step(self_, grads)
                ends.append(clock())
            return wrapped

        self._patches.swap(training.AdamW, "step", clock_step)
        return self

    def __exit__(self, *exc):
        self._patches.undo()


class Tracer:
    """Span recorder; :meth:`install` / :meth:`uninstall` swap the wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.harness_samples: set[bytes] = set()
        self.request = None
        self._stack: list[int] = []
        self._next_request = 0
        self._in_harness = 0
        self._patches = _Patches()
        self.installed = False

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, clock(), 0.0, parent, self.request])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = clock()
        self._stack.pop()

    def new_request(self) -> int:
        self._next_request += 1
        self.request = self._next_request
        return self.request

    def _wrap(self, fn, name: str):
        def wrapped(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return wrapped

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        self.installed = True
        p = self._patches
        for op in TENSOR_OPS:
            p.swap(tensor, op, lambda fn, op=op: self._tensor_op(fn, op))
        p.swap(tensor, "backward", self._backward)
        for method in MODEL_METHODS:
            p.swap(model_mod.MultiExitModel, method,
                   lambda fn, m=method: self._model_method(fn, m))
        p.swap(Vocab, "encode", lambda fn: self._wrap(fn, "data.encode"))
        p.swap(similarity.ProbDist, "__init__", lambda fn: self._wrap(fn, "similarity.probdist"))
        p.swap(similarity.SimilarityMeasure, "__call__", self._score)
        for cls in policies.ExitPolicy.__subclasses__():
            p.swap(cls, "step", lambda fn, name=cls.name: self._wrap(fn, f"policies.step.{name}"))
        p.swap(training, "train", lambda fn: self._wrap(fn, "training.train"))
        p.swap(training.AdamW, "step", lambda fn: self._wrap(fn, "training.adamw"))
        for fn in ("evaluate", "sweep", "compare_policies"):
            p.swap(harness, fn, lambda f, name=fn: self._harness(f, name))

    def uninstall(self) -> None:
        self._patches.undo()
        self.installed = False

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _tensor_op(self, fn, op):
        taped_name, untaped_name, bwd_name = f"tensor.{op}.fwd", f"tensor.{op}.infer", f"tensor.{op}.bwd"

        def wrapped(*args, **kwargs):
            idx = self.open(taped_name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if out.node is None:
                self.spans[idx][0] = untaped_name
            else:
                out.node.backward = self._wrap(out.node.backward, bwd_name)
            return out
        return wrapped

    def _backward(self, fn):
        def wrapped(loss, wrt=None):
            idx = self.open("trace.count_nodes")
            self.counts["tape_nodes"] += _count_nodes(loss)
            self.close(idx)
            idx = self.open("tensor.backward")
            try:
                return fn(loss, wrt)
            finally:
                self.close(idx)
        return wrapped

    def _model_method(self, fn, method):
        name = f"model.{method}"

        def wrapped(model, *args, **kwargs):
            if method == "forward_batch":
                mask = args[1]
                self.counts["pad_real"] += float(mask.sum())
                self.counts["pad_total"] += mask.size
            top = method in ("forward_early_exit", "forward_full") and self.request is None
            if top:
                self.new_request()
            if method in ("forward_early_exit", "forward_full") and self._in_harness:
                self.harness_samples.add(bytes(memoryview(args[0])))
            idx = self.open(name)
            try:
                return fn(model, *args, **kwargs)
            finally:
                self.close(idx)
                if top:
                    self.request = None
        return wrapped

    def _score(self, fn):
        def wrapped(measure, prev, cur):
            idx = self.open(f"similarity.score.{measure.variant}")
            try:
                return fn(measure, prev, cur)
            finally:
                self.close(idx)
        return wrapped

    def _harness(self, fn, name):
        def wrapped(*args, **kwargs):
            idx = self.open(f"harness.{name}")
            self._in_harness += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_harness -= 1
                self.close(idx)
        return wrapped

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        """All spans as gzipped ``name,start,end,parent,request`` lines."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name,start,end,parent,request\n")
            for name, start, end, parent, req in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{'' if req is None else req}\n")

    def self_time_by_request(self, name: str) -> dict[int, float]:
        """Self seconds of each ``name`` span, keyed by its request id."""
        own = {i: s[2] - s[1] for i, s in enumerate(self.spans) if s[0] == name}
        for s in self.spans:
            if s[3] in own:
                own[s[3]] -= s[2] - s[1]
        return {self.spans[i][4]: t for i, t in own.items()}

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as ``name -> (value, unit)``."""
        return per_layer_metrics(self)


def _count_nodes(loss) -> int:
    seen, stack = set(), [loss]
    while stack:
        t = stack.pop()
        if t.node is None or id(t) in seen:
            continue
        seen.add(id(t))
        stack.extend(t.node.parents)
    return len(seen)


def _quantile(values, q):
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    spans = tr.spans
    durations = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += durations[i]
    self_time: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for i, s in enumerate(spans):
        self_time[s[0]] += durations[i] - child[i]
        calls[s[0]] += 1

    def ancestor(i, names):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] in names:
                return True
            p = spans[p][3]
        return False

    def per_call_us(name):
        return 1e6 * self_time[name] / calls[name] if calls[name] else 0.0

    # training steps: each ends when AdamW.step returns; the first step of a
    # train() call starts when the call does
    steps, step_ms, adamw_s = 0, [], 0.0
    start = None
    for i, s in enumerate(spans):
        if s[0] == "training.train":
            start = s[1]
        elif s[0] == "training.adamw" and start is not None:
            step_ms.append(1e3 * (s[2] - start))
            start = s[2]
            steps += 1
            adamw_s += durations[i]
    fwd_batch_s = sum(d for s, d in zip(spans, durations) if s[0] == "model.forward_batch")
    backward_s = sum(d for s, d in zip(spans, durations) if s[0] == "tensor.backward")
    counting_s = self_time["trace.count_nodes"]

    def per_step_ms(seconds):
        return 1e3 * seconds / steps if steps else 0.0

    m: dict[str, tuple[float, str]] = {}
    for op in TENSOR_OPS:
        m[f"tensor.{op}.fwd_ms"] = (per_step_ms(self_time[f"tensor.{op}.fwd"]), "ms")
    for op in TENSOR_OPS:
        m[f"tensor.{op}.bwd_ms"] = (per_step_ms(self_time[f"tensor.{op}.bwd"]), "ms")
    m["tensor.backward_ms"] = (per_step_ms(self_time["tensor.backward"]), "ms")
    m["tensor.tape_nodes_per_step"] = (tr.counts["tape_nodes"] / steps if steps else 0.0, "count")
    for op in INFER_OPS:
        m[f"tensor.{op}.fwd_us"] = (per_call_us(f"tensor.{op}.infer"), "us")
    m["training.step_ms_p50"] = (_quantile(step_ms, 50), "ms")
    m["training.step_ms_p99"] = (_quantile(step_ms, 99), "ms")
    m["model.forward_batch_ms"] = (per_step_ms(fwd_batch_s), "ms")
    m["training.adamw_ms"] = (per_step_ms(adamw_s), "ms")
    m["training.loss_ms"] = (per_step_ms(sum(step_ms) / 1e3 - fwd_batch_s - backward_s - adamw_s - counting_s), "ms")
    pad_total = tr.counts["pad_total"]
    m["training.pad_useful_ratio"] = (tr.counts["pad_real"] / pad_total if pad_total else 0.0, "ratio")

    # served requests only: set-up's dev gate and harness calls are left out
    requests = calls["eval.request"]
    served_layers = sum(1 for i, s in enumerate(spans)
                        if s[0] == "model.forward_layer" and ancestor(i, ("eval.request",)))
    served = [i for i, s in enumerate(spans)
              if s[0] == "model.forward_early_exit" and s[3] >= 0
              and spans[s[3]][0] == "eval.request"]
    m["data.encode_us"] = (per_call_us("data.encode"), "us")
    m["model.embed_us"] = (per_call_us("model.embed"), "us")
    m["model.forward_layer_us"] = (per_call_us("model.forward_layer"), "us")
    m["model.layer_confidence_us"] = (per_call_us("model.layer_confidence"), "us")
    m["model.layers_per_sample"] = (served_layers / requests if requests else 0.0, "count")
    computed = calls["model.layer_confidence"]
    m["model.confidence_useful_ratio"] = (
        calls["policies.step.learned"] / computed if computed else 0.0, "ratio")
    m["similarity.probdist_us"] = (per_call_us("similarity.probdist"), "us")
    for v in MEASURES:
        m[f"similarity.score_us.{v}"] = (per_call_us(f"similarity.score.{v}"), "us")
    for name in POLICIES:
        m[f"policies.step_us.{name}"] = (per_call_us(f"policies.step.{name}"), "us")
    m["eval.overhead_us_per_sample"] = (
        1e6 * sum(durations[i] - child[i] for i in served) / len(served) if served else 0.0, "us")

    # harness counts are per sweep-and-compare round where there are rounds
    # (sweep_mlc), and totals elsewhere
    scope = ("harness.evaluate", "harness.sweep", "harness.compare_policies")
    rounds = max(1, calls["harness.sweep"])
    evaluate_idx = [i for i, s in enumerate(spans) if s[0] == "harness.evaluate"]
    harness_passes = sum(1 for i, s in enumerate(spans)
                         if s[0] in ("model.forward_early_exit", "model.forward_full")
                         and ancestor(i, scope))
    harness_layers = sum(1 for i, s in enumerate(spans)
                         if s[0] == "model.forward_layer" and ancestor(i, scope))
    m["harness.evaluate_calls"] = (len(evaluate_idx) / rounds, "count")
    m["harness.forward_passes"] = (harness_passes / rounds, "count")
    m["harness.layers_run"] = (harness_layers / rounds, "count")
    m["harness.pass_reuse_ratio"] = (
        len(tr.harness_samples) / harness_passes if harness_passes else 0.0, "ratio")
    m["harness.compare_probes"] = (
        sum(1 for i in evaluate_idx if ancestor(i, ("harness.compare_policies",))) / rounds, "count")
    m["harness.evaluate_self_ms"] = (
        1e3 * self_time["harness.evaluate"] / len(evaluate_idx) if evaluate_idx else 0.0, "ms")
    return m
