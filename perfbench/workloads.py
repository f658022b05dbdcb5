"""The three workloads: training, batch-1 serving, and repeated sweep/compare.

Every workload is a closed loop with one client: the next operation starts
when the previous one returns. Each has

* ``setup()`` -- work done before timing starts; it returns a fingerprint
  of what it built, and repeated set-ups must agree on it;
* ``loop(seconds)`` -- the timed part, callable more than once (the traced
  run times an untraced half and a traced half);
* ``finish(out_dir)`` -- correctness checks and the quality figures,
  outside the timed region and never traced.

Only the public API of exitlab is driven, through module attributes
(``harness.evaluate``, ``training.train``) so that the tracer's wrappers
see every call. Operations are timed in CPU seconds (see spantrace.py);
the wall clock only bounds how long a loop runs.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

import exitlab.harness as harness
import exitlab.training as training
from exitlab.data import Dataset, SyntheticSpec, build_vocab, generate_synthetic
from exitlab.harness import PolicySpec
from exitlab.model import ModelConfig, MultiExitModel
from spantrace import clock

VOCAB_SIZE = 500
SLC_SEED, MLC_SEED = 11, 21  # data seeds of the test-suite fixtures


@dataclass(frozen=True)
class TrainCfg:
    epochs: int
    learning_rate: float
    seed: int


@dataclass(frozen=True)
class Sizes:
    """Every size a workload depends on; ``FULL`` is the benchmark, ``TINY`` the smoke run."""

    slc_model: dict
    mlc_model: dict
    slc_train: TrainCfg
    mlc_train: TrainCfg
    job_train: TrainCfg
    n_train: int = 480
    n_dev: int = 40
    chunk: int = 1000
    exit_split: int = 60
    sweep_split: int = 8
    setup_repeats: int = 3
    replay_every: int = 20


# The test-suite fixture architectures (tests/conftest.py). Set-up training is
# cut from 18 (slc) / 10 (mlc) epochs over 3000 / 2000 examples to 3 epochs
# over 480 at a higher learning rate, so that one set-up takes seconds, not
# minutes. train_slc's jobs keep the fixture learning rate: at 5e-3 some
# seeds' losses stall and rise, at 1.5e-3 they fall on every seed tried.
FULL = Sizes(
    slc_model=dict(n_classes=4, task="slc", n_layers=6, d_model=64, n_heads=4, d_ff=256,
                   max_seq_len=24, seed=3),
    mlc_model=dict(n_classes=5, task="mlc", n_layers=6, d_model=48, n_heads=4, d_ff=192,
                   max_seq_len=32, seed=4),
    slc_train=TrainCfg(epochs=3, learning_rate=5e-3, seed=5),
    mlc_train=TrainCfg(epochs=3, learning_rate=5e-3, seed=6),
    job_train=TrainCfg(epochs=3, learning_rate=1.5e-3, seed=5),
)
TINY = replace(
    FULL,
    slc_model=dict(FULL.slc_model, n_layers=3, d_model=8, n_heads=2, d_ff=16),
    mlc_model=dict(FULL.mlc_model, n_layers=3, d_model=8, n_heads=2, d_ff=16),
    slc_train=TrainCfg(epochs=2, learning_rate=4e-3, seed=5),
    mlc_train=TrainCfg(epochs=2, learning_rate=4e-3, seed=6),
    job_train=TrainCfg(epochs=2, learning_rate=1.5e-3, seed=5),
    n_train=64, n_dev=8, chunk=50, exit_split=10, sweep_split=6, setup_repeats=2, replay_every=5,
)


def train_config(cfg: TrainCfg) -> training.TrainConfig:
    return training.TrainConfig(batch_size=32, learning_rate=cfg.learning_rate,
                                epochs=cfg.epochs, seed=cfg.seed)


def slc_policies(n: int) -> list[tuple[str, PolicySpec]]:
    """The serving mix; the last entry, fixed at layer n, is the full-depth reference.

    Knobs are chosen so that, on the set-up model, each policy's exits
    spread over at least three layers (learned excepted, see below).
    """
    return [
        ("fpabee/kd", PolicySpec("fpabee", "kd", thre=0.9, patience=1)),
        ("fpabee/rekd", PolicySpec("fpabee", "rekd", thre=0.9, patience=1)),
        ("fpabee/symkd", PolicySpec("fpabee", "symkd", thre=1.8, patience=1)),
        ("fpabee/jskd", PolicySpec("fpabee", "jskd", thre=0.75, patience=1)),
        ("pabee", PolicySpec("pabee", patience=2)),
        ("entropy", PolicySpec("entropy", thre=0.7)),
        ("maxprob", PolicySpec("maxprob", thre=0.7)),
        # the set-up model's confidence heads fire at layer 2 or not at all, so
        # no threshold spreads learned over more than layers 2 and n
        ("learned", PolicySpec("learned", thre=0.66)),
        (f"fixed@{n}", PolicySpec("fixed", fixed_layer=n)),
    ]


MLC_GRID = [PolicySpec("fpabee", m, thre=t, patience=p)
            for m, thres in (("kd", (2.5, 3.0)), ("rekd", (2.5, 3.0)),
                             ("symkd", (5.0, 6.0)), ("jskd", (2.5, 3.0)))
            for t in thres for p in (1, 2)]
COMPARE_TARGET = 0.3
# At the default tolerance of 0.02 an 8-sample split's bisection takes either
# about 40 or 65-90 probes, depending on the split, so the median round time
# jumps between two modes from seed to seed; at 0.05 it takes 31-46.
COMPARE_TOLERANCE = 0.05
REQUEST_WINDOW = 100  # requests per throughput window on eval_slc


def compare_specs(n: int) -> list[PolicySpec]:
    return [PolicySpec("fpabee", "jskd", patience=1), PolicySpec("pabee"),
            PolicySpec("entropy"), PolicySpec("maxprob"), PolicySpec("learned"),
            PolicySpec("fixed", fixed_layer=n)]


@dataclass
class LoopStats:
    """One timed loop: one latency per operation, and the work rate of each window
    of operations (a training step, 100 requests, the whole sweep-and-compare loop)."""

    latencies_ms: list[float] = field(default_factory=list)
    rates: list[float] = field(default_factory=list)

    @property
    def items_per_s(self) -> float:
        """Median window rate: a stall on a shared machine moves it less than the mean."""
        return statistics.median(self.rates)


@dataclass
class Finish:
    """Checks and quality figures: failures count against ``attempted``."""

    failed: int
    report: list[str]
    score: float = 0.0
    layer_speedup: float = 0.0
    wall_speedup: float = 0.0
    counts: dict = field(default_factory=dict)


def _exit_summary(fin: Finish, rows, overhead_us=None) -> list[str]:
    """Fill ``fin``'s exit figures from per-policy rows; return the per-policy table.

    ``rows`` holds ``(label, EvalResult, timed samples, seconds per sample)``,
    the last row being the fixed-at-n reference. Score and layer speedup
    come from the result; ``wall_speedup`` is 1 - the policy's time per
    sample / the reference's.
    """
    ref_per_sample = rows[-1][3]
    table = [f"  {'policy':<14}{'timed':>7}{'score':>9}{'layer_speedup':>15}{'wall_speedup':>14}"
             f"{'overhead_us':>13}"]
    for i, (label, res, timed, per_sample) in enumerate(rows):
        over = f"{overhead_us[i]:>13.2f}" if overhead_us else f"{'-':>13}"
        table.append(f"  {label:<14}{timed:>7}{res.score:>9.4f}{res.speedup:>15.4f}"
                     f"{1.0 - per_sample / ref_per_sample:>14.4f}{over}")
    policies = rows[:-1]
    fin.score = statistics.fmean(r[1].score for r in policies)
    fin.layer_speedup = statistics.fmean(r[1].speedup for r in policies)
    fin.wall_speedup = 1.0 - statistics.fmean(r[3] for r in policies) / ref_per_sample
    return table


def evaluate_exits(model, dataset, labelled_specs, vocab):
    """Time ``harness.evaluate`` once per ``(label, spec)`` on ``dataset``."""
    rows = []
    for label, spec in labelled_specs:
        t0 = clock()
        res = harness.evaluate(model, dataset, spec, vocab)
        rows.append((label, res, res.n_samples, (clock() - t0) / res.n_samples))
    return rows


def _train_fixture(task: str, sizes: Sizes):
    model_kw, cfg, seed = ((sizes.slc_model, sizes.slc_train, SLC_SEED) if task == "slc"
                           else (sizes.mlc_model, sizes.mlc_train, MLC_SEED))
    splits = generate_synthetic(SyntheticSpec(task=task, n_classes=model_kw["n_classes"],
                                              n_train=sizes.n_train, n_dev=sizes.n_dev,
                                              n_test=0, easy_fraction=0.7, seed=seed))
    vocab = build_vocab(splits.train, VOCAB_SIZE)
    model = MultiExitModel(ModelConfig(vocab_size=len(vocab), **model_kw))
    history = training.train(model, splits.train, train_config(cfg), vocab)
    return model, splits, vocab, history


# -- train_slc -------------------------------------------------------------------


class TrainSlc:
    """Training jobs on seed-generated SLC data: taped forward, backward, AdamW.

    A job trains a freshly initialised fixture-shaped model; every job is
    identical, so their loss histories must agree exactly.
    """

    name = "train_slc"

    def __init__(self, seed: int, sizes: Sizes, probe, tracer=None):
        self.seed, self.sizes, self.probe = seed, sizes, probe
        self.histories: list = []
        self.model = None

    def setup(self) -> str:
        kw = self.sizes.slc_model
        self.splits = generate_synthetic(SyntheticSpec(
            task="slc", n_classes=kw["n_classes"], n_train=self.sizes.n_train,
            n_dev=self.sizes.n_dev, n_test=0, easy_fraction=0.7, seed=self.seed))
        self.vocab = build_vocab(self.splits.train, VOCAB_SIZE)
        self.config = ModelConfig(vocab_size=len(self.vocab), **kw)
        return self.splits.train.data_hash() + MultiExitModel(self.config).param_hash()

    def loop(self, seconds: float) -> LoopStats:
        stats = LoopStats()
        cfg = train_config(self.sizes.job_train)
        start = perf_counter()
        n = len(self.splits.train)
        batches = [min(cfg.batch_size, n - i) for i in range(0, n, cfg.batch_size)] * cfg.epochs
        while not stats.latencies_ms or perf_counter() - start < seconds:
            model = MultiExitModel(self.config)
            first = len(self.probe.step_ends)
            job_start = clock()
            self.histories.append(training.train(model, self.splits.train, cfg, self.vocab))
            ends = [job_start] + self.probe.step_ends[first:]
            steps = [b - a for a, b in zip(ends, ends[1:])]
            stats.latencies_ms += [1e3 * t for t in steps]
            stats.rates += [size / t for size, t in zip(batches, steps)]
            self.model = model
        return stats

    def finish(self, out_dir) -> Finish:
        failed, report = 0, []
        for i, hist in enumerate(self.histories):
            totals = [h.total for h in hist]
            if not all(math.isfinite(t) for t in totals) or not totals[-1] < totals[0]:
                failed += 1
                report.append(f"FAIL job {i}: epoch losses {totals} not finite and falling")
            if [h.total for h in self.histories[0]] != totals:
                failed += 1
                report.append(f"FAIL job {i}: loss history differs from job 0 (determinism)")
        report.append("losses by epoch: " + " ".join(f"{h.total:.4f}" for h in self.histories[0]))
        fin = Finish(failed, report)
        rows = evaluate_exits(self.model, self.splits.dev,
                              slc_policies(self.model.config.n_layers), self.vocab)
        table = _exit_summary(fin, rows)
        report += [f"exits of the trained model on its {len(self.splits.dev)}-sample dev split:"] + table
        return fin


# -- eval_slc --------------------------------------------------------------------


class EvalSlc:
    """Batch-1 ``forward_early_exit`` requests, one per distinct seed-generated sample.

    Requests cycle through the serving policies; the fixed-at-n requests
    give the full-depth reference within the same run. How many requests a
    run serves depends on the CPU's speed, so score and layer speedup come
    from a fixed set instead: the first ``exit_split`` samples of the stream,
    evaluated per policy in ``finish``.
    """

    name = "eval_slc"

    def __init__(self, seed: int, sizes: Sizes, probe, tracer=None):
        self.seed, self.sizes, self.tracer = seed, sizes, tracer
        self.requests = 0
        self.pool: list = []
        self.chunks = 0
        self.first_chunk: list = []
        self.per_policy: list = []  # (seconds, requests) per policy
        self.kept: list = []  # (ids, policy index, exit layer, probs) for the replay check
        self.request_policy: dict[int, int] = {}  # traced request id -> policy index

    def setup(self) -> str:
        self.model, splits, self.vocab, _ = _train_fixture("slc", self.sizes)
        self.policies = [(label, spec.build()) for label, spec in
                         slc_policies(self.model.config.n_layers)]
        self.per_policy = [[0.0, 0] for _ in self.policies]
        gate = harness.evaluate(self.model, splits.dev, self.policies[-1][1], self.vocab)
        self.gate_accuracy = gate.accuracy
        return self.model.param_hash()

    def _next_example(self):
        if not self.pool:
            # a fresh chunk per refill keeps every request a distinct draw
            spec = SyntheticSpec(task="slc", n_classes=self.model.config.n_classes, n_train=0,
                                 n_dev=0, n_test=self.sizes.chunk, easy_fraction=0.7,
                                 seed=self.seed * 100_003 + self.chunks)
            self.chunks += 1
            examples = generate_synthetic(spec).test.examples
            self.first_chunk = self.first_chunk or examples
            self.pool = list(reversed(examples))
        return self.pool.pop()

    def loop(self, seconds: float) -> LoopStats:
        stats = LoopStats()
        model, vocab = self.model, self.vocab
        max_len = model.config.max_seq_len
        start = perf_counter()
        while perf_counter() - start < seconds:
            ex = self._next_example()
            k = self.requests % len(self.policies)
            policy = self.policies[k][1]
            traced = self.tracer is not None and self.tracer.installed
            if traced:
                self.request_policy[self.tracer.new_request()] = k
                span = self.tracer.open("eval.request")
            t0 = clock()
            ids = vocab.encode(ex.text, max_len=max_len)
            prob, layer, _ = model.forward_early_exit(ids, policy)
            dt = clock() - t0
            if traced:
                self.tracer.close(span)
                self.tracer.request = None
            self.per_policy[k][0] += dt
            self.per_policy[k][1] += 1
            if self.requests % self.sizes.replay_every == 0:
                self.kept.append((ids, k, layer, prob.probs))
            self.requests += 1
            stats.latencies_ms.append(1e3 * dt)
        window = REQUEST_WINDOW if len(stats.latencies_ms) >= REQUEST_WINDOW else 1
        lat = stats.latencies_ms
        stats.rates = [window / (sum(lat[i:i + window]) / 1e3)
                       for i in range(0, len(lat) - window + 1, window)]
        return stats

    def finish(self, out_dir) -> Finish:
        failed, report = 0, []
        n = self.model.config.n_layers
        if not self.gate_accuracy > 1.0 / self.model.config.n_classes:
            failed += 1
            report.append(f"FAIL served model is at chance on dev: accuracy {self.gate_accuracy}")
        # prefix equivalence: replaying the full stream through the policy
        # must exit at the same layer with bit-identical probabilities
        for ids, k, layer, probs in self.kept:
            policy = self.policies[k][1]
            stream = self.model.forward_full(ids)
            policy.reset()
            replay = n
            for j in range(1, n + 1):
                if policy.step(j, stream.probs[j - 1], stream.confidences[j - 1]).halt:
                    replay = j
                    break
            if replay != layer or not np.array_equal(stream.probs[replay - 1].probs, probs):
                failed += 1
                report.append(f"FAIL replay of a {self.policies[k][0]} request exits at "
                              f"{replay}, live request exited at {layer}")
        report.append(f"replay check: {len(self.kept)} requests replayed through forward_full")
        if any(c == 0 for _, c in self.per_policy):
            report.append("FAIL some policy received no requests")
            return Finish(failed + 1, report)
        fixed = Dataset("slc", self.model.config.n_classes,
                        self.first_chunk[:self.sizes.exit_split])
        rows = [(label, harness.evaluate(self.model, fixed, policy, self.vocab), c, s / c)
                for (label, policy), (s, c) in zip(self.policies, self.per_policy)]
        overhead = None
        if self.request_policy:
            # self time of forward_early_exit per request, by policy (traced half only)
            per_request = self.tracer.self_time_by_request("model.forward_early_exit")
            sums = [[0.0, 0] for _ in self.policies]
            for req, seconds in per_request.items():
                k = self.request_policy.get(req)
                if k is not None:
                    sums[k][0] += seconds
                    sums[k][1] += 1
            overhead = [1e6 * s / c if c else 0.0 for s, c in sums]
        fin = Finish(failed, report)
        report += [f"per policy: score and layer_speedup on the stream's first {len(fixed)} "
                   "samples; wall_speedup over the timed requests; overhead_us is "
                   "forward_early_exit self time, traced requests only"] + _exit_summary(
                       fin, rows, overhead)
        return fin


# -- sweep_mlc -------------------------------------------------------------------


def _row_key(row):
    spec = row.spec
    return (spec.policy, spec.measure, spec.knob_value(), spec.patience, row.accuracy,
            row.micro_f1, row.speedup, row.mean_exit_layer, tuple(row.histogram))


def frontier_auc(points: list[tuple[float, float]]) -> float:
    """Area under the best score reachable at each speedup from 0 up to the
    frontier's largest speedup; ``points`` is ``pareto_curve`` output, speedup
    ascending. A single point (s, y) gives s * y."""
    area, left = 0.0, 0.0
    for x, y in points:
        area += (x - left) * y
        left = x
    return area


class SweepMlc:
    """Rounds of ``harness.sweep`` over an fpabee grid, then ``compare_policies``
    over all six policies, on the same seed-generated MLC split.

    Every round gets a fresh split, so a run's median round averages over
    splits; within a round each sample is evaluated once per grid point and
    once per compare probe.
    """

    name = "sweep_mlc"

    def __init__(self, seed: int, sizes: Sizes, probe, tracer=None):
        self.seed, self.sizes = seed, sizes
        self.rounds: list = []  # (split, sweep result, compare results, sweep s, compare s)

    def _split(self, index: int):
        return generate_synthetic(SyntheticSpec(
            task="mlc", n_classes=self.model.config.n_classes, n_train=0, n_dev=0,
            n_test=self.sizes.sweep_split, easy_fraction=0.7,
            seed=self.seed * 100_003 + index)).test

    def setup(self) -> str:
        self.model, _, self.vocab, _ = _train_fixture("mlc", self.sizes)
        return self.model.param_hash() + self._split(0).data_hash()

    def loop(self, seconds: float) -> LoopStats:
        specs = compare_specs(self.model.config.n_layers)
        stats = LoopStats()
        start = perf_counter()
        while not stats.latencies_ms or perf_counter() - start < seconds:
            split = self._split(len(self.rounds))
            t0 = clock()
            result = harness.sweep(self.model, split, MLC_GRID, self.vocab, seed=self.seed)
            t1 = clock()
            compared = harness.compare_policies(self.model, split, COMPARE_TARGET, specs,
                                                self.vocab, tolerance=COMPARE_TOLERANCE)
            t2 = clock()
            self.rounds.append((split, result, compared, t1 - t0, t2 - t1))
            stats.latencies_ms.append(1e3 * (t2 - t0))
        # one window, the whole loop: rounds differ in work by design (each
        # split's bisection takes its own number of probes), so the run's
        # rate is its total work over its total time
        items = (len(MLC_GRID) + len(specs)) * len(stats.latencies_ms)
        stats.rates = [items / (sum(stats.latencies_ms) / 1e3)]
        return stats

    def finish(self, out_dir) -> Finish:
        failed, report = 0, []
        n = self.model.config.n_layers
        for split, result, compared, _, _ in self.rounds:
            for row in result.rows:
                if sum(row.histogram) != len(split):
                    failed += 1
                    report.append(f"FAIL histogram of {row.spec} sums to {sum(row.histogram)}, "
                                  f"not {len(split)}")
            speeds = [r.speedup for r in result.rows]
            if speeds != sorted(speeds):
                failed += 1
                report.append("FAIL sweep rows are not in ascending speedup order")
            if len(compared) != len(compare_specs(n)):
                failed += 1
                report.append(f"FAIL compare_policies returned {len(compared)} results")

        split, first, compared, _, _ = self.rounds[0]
        # the sweep must agree with evaluating each grid point on its own; the
        # timed evaluations also give the per-point wall speedup
        labelled = [(f"{s.measure}/{s.thre}/{s.patience}", s) for s in MLC_GRID]
        rows = evaluate_exits(self.model, split, labelled + [(f"fixed@{n}", PolicySpec(
            "fixed", fixed_layer=n))], self.vocab)
        if ({r.spec: _row_key(r) for r in first.rows}
                != {res.spec: _row_key(res) for _, res, _, _ in rows[:-1]}):
            failed += 1
            report.append("FAIL sweep rows differ from evaluating each grid point on its own")
        path = out_dir / f"sweep_mlc-{self.seed}.csv"
        harness.emit_csv(first, path)
        parsed = harness.parse_csv(path)
        if ([_row_key(r) for r in parsed.rows] != [_row_key(r) for r in first.rows]
                or (parsed.n_layers, parsed.seed, parsed.model_hash, parsed.data_hash)
                != (first.n_layers, first.seed, first.model_hash, first.data_hash)):
            failed += 1
            report.append("FAIL emit_csv -> parse_csv does not round-trip")

        at_bound = 0
        report.append(f"compare_policies of the first round at target speedup {COMPARE_TARGET}, "
                      f"tolerance {COMPARE_TOLERANCE}:")
        report.append(f"  {'policy':<10}{'knob':>12}{'attained':>10}{'at_bound':>10}"
                      f"{'speedup':>10}{'score':>9}")
        bounds = getattr(harness, "_knob_bounds", None)
        for c in compared:
            knob = c.spec.knob_value()
            edge = "-"
            if bounds is not None and c.spec.policy not in ("pabee", "fixed"):
                lo, hi, _ = bounds(c.spec.policy, n, self.model.config.n_classes)
                edge = knob in (lo, hi)
                at_bound += edge
            report.append(f"  {c.spec.policy:<10}{knob:>12.6g}{str(c.attained):>10}{str(edge):>10}"
                          f"{c.result.speedup:>10.4f}{c.result.score:>9.4f}")
        frontier = harness.pareto_curve(first)
        auc = frontier_auc(frontier)
        report.append(f"frontier_auc {auc:.6f} over {len(frontier)} pareto points")
        fin = Finish(failed, report)
        report += [f"exits of the first round's grid on its {len(split)}-sample split:"]
        report += _exit_summary(fin, rows)
        sweep_s = statistics.median(r[3] for r in self.rounds)
        compare_s = statistics.median(r[4] for r in self.rounds)
        report.append(f"sweep_evals_per_s {len(MLC_GRID) / sweep_s:.4f} 1/s  "
                      f"compare_s {compare_s:.4f} s  (medians over {len(self.rounds)} rounds)")
        fin.counts = {"compare_knob_at_bound": at_bound, "frontier_auc": auc,
                      "compare_s": compare_s, "sweep_evals_per_s": len(MLC_GRID) / sweep_s}
        return fin


WORKLOADS = {w.name: w for w in (TrainSlc, EvalSlc, SweepMlc)}
