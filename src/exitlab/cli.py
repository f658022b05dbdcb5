"""Command-line entry point: gen-data, train, eval, sweep, compare.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .data import (
    DataSplits,
    SyntheticSpec,
    Vocab,
    build_vocab,
    generate_synthetic,
    load_jsonl,
    save_jsonl,
)
from .errors import ConfigError, DataError
from .harness import (
    POLICY_NAMES,
    PolicySpec,
    SweepResult,
    compare_policies,
    emit_csv,
    emit_histogram,
    emit_svg,
    evaluate,
    pareto_curve,
    sweep,
)
from .model import ModelConfig, MultiExitModel, load_checkpoint, save_checkpoint
from .similarity import VARIANTS
from .training import TrainConfig, grid_search, load_train_config, make_grid, train


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v]


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v]


def _model_parser() -> argparse.ArgumentParser:
    """Flags shared by eval, sweep and compare: the model, its data and the measure."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--task", choices=("slc", "mlc"), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--measure", choices=VARIANTS, default="jskd",
                   help="similarity variant for fpabee (default jskd)")
    p.add_argument("--kl-mode", action="store_true",
                   help="subtract self-entropy so identical distributions score 0")
    return p


def _add_policy_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--policy", choices=POLICY_NAMES, required=True)
    p.add_argument("--thre", type=float, default=None,
                   help="scalar threshold knob (similarity score in nats for fpabee; "
                        "entropy / probability / confidence threshold otherwise)")
    p.add_argument("--patience", type=int, default=None, help="patience count for fpabee/pabee")
    p.add_argument("--fixed-layer", type=int, default=None, help="exit layer for the fixed policy")


def build_parser() -> _Parser:
    parser = _Parser(prog="exitlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    shared = [_model_parser()]

    g = sub.add_parser("gen-data", help="write synthetic train/dev/test JSONL files")
    g.add_argument("--task", choices=("slc", "mlc"), required=True)
    g.add_argument("--classes", type=int, required=True)
    g.add_argument("--n-train", type=int, default=2000)
    g.add_argument("--n-dev", type=int, default=200)
    g.add_argument("--n-test", type=int, default=500)
    g.add_argument("--easy-fraction", type=float, default=0.7)
    g.add_argument("--noise", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out-dir", required=True)

    t = sub.add_parser("train", help="train a multi-exit model on a JSONL dataset")
    t.add_argument("--data", required=True, help="training JSONL file")
    t.add_argument("--dev", default=None, help="dev JSONL file (required with a grid)")
    t.add_argument("--task", choices=("slc", "mlc"), required=True)
    t.add_argument("--classes", type=int, default=None)
    t.add_argument("--out", required=True, help="checkpoint path (.npz)")
    t.add_argument("--layers", type=int, default=6)
    t.add_argument("--d-model", type=int, default=64)
    t.add_argument("--heads", type=int, default=2)
    t.add_argument("--d-ff", type=int, default=256)
    t.add_argument("--max-seq-len", type=int, default=64)
    t.add_argument("--max-vocab", type=int, default=2000)
    t.add_argument("--share-layer-params", action="store_true")
    t.add_argument("--batch-size", type=int, default=32)
    t.add_argument("--lr", type=float, default=2e-3)
    t.add_argument("--epochs", type=int, default=10)
    t.add_argument("--weight-decay", type=float, default=0.01)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--grid-batch-sizes", type=_int_list, default=None,
                   help="comma list; with --grid-lrs runs a grid search")
    t.add_argument("--grid-lrs", type=_float_list, default=None)
    t.add_argument("--config", default=None,
                   help="key = value training-config file; overrides the training flags")

    e = sub.add_parser("eval", parents=shared, help="evaluate one policy configuration")
    _add_policy_flags(e)
    e.add_argument("--out-csv", default=None, help="write the result as a one-row sweep CSV")
    e.add_argument("--out-hist", default=None, help="write the exit-layer histogram CSV")

    s = sub.add_parser("sweep", parents=shared,
                       help="grid of policy configurations -> CSV (and optional SVG)")
    s.add_argument("--policy", choices=POLICY_NAMES, required=True)
    s.add_argument("--thre-grid", type=_float_list, default=None, help="comma list of thresholds")
    s.add_argument("--patience-grid", type=_int_list, default=None, help="comma list of patience values")
    s.add_argument("--layer-grid", type=_int_list, default=None, help="comma list for the fixed policy")
    s.add_argument("--out", required=True, help="CSV output path")
    s.add_argument("--svg", default=None, help="optional speedup-score curve SVG")

    c = sub.add_parser("compare", parents=shared, help="match every policy to one target speedup")
    c.add_argument("--target-speedup", type=float, required=True)
    c.add_argument("--policies", default="fpabee,pabee,entropy,maxprob,learned,fixed",
                   help="comma list of policies to include")
    c.add_argument("--patience", type=int, default=2, help="fixed patience for fpabee")
    c.add_argument("--out", default=None, help="optional CSV output path")
    return parser


def _spec_from_args(args) -> PolicySpec:
    if args.patience is not None and args.policy not in ("fpabee", "pabee"):
        raise ConfigError(f"--patience applies to fpabee and pabee only, not {args.policy}")
    if args.fixed_layer is not None and args.policy != "fixed":
        raise ConfigError(f"--fixed-layer applies to the fixed policy only, not {args.policy}")
    return PolicySpec(
        policy=args.policy,
        measure=args.measure,
        thre=args.thre,
        patience=args.patience,
        fixed_layer=args.fixed_layer,
        kl_mode=args.kl_mode,
    )


def _load_model_and_data(args):
    model, tokens = load_checkpoint(args.model)
    if tokens is None:
        raise DataError(f"{args.model}: checkpoint does not carry a vocabulary")
    if args.task != model.config.task:
        raise ConfigError(f"--task {args.task} does not match checkpoint task {model.config.task}")
    vocab = Vocab(tokens)
    dataset = load_jsonl(args.data, args.task, n_classes=model.config.n_classes)
    return model, dataset, vocab


def _cmd_gen_data(args) -> int:
    spec = SyntheticSpec(
        task=args.task,
        n_classes=args.classes,
        n_train=args.n_train,
        n_dev=args.n_dev,
        n_test=args.n_test,
        easy_fraction=args.easy_fraction,
        noise=args.noise,
        seed=args.seed,
    )
    splits = generate_synthetic(spec)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, ds in (("train", splits.train), ("dev", splits.dev), ("test", splits.test)):
        path = out / f"{name}.jsonl"
        save_jsonl(ds, path)
        print(f"wrote {path} ({len(ds)} examples, hash {ds.data_hash()})")
    return 0


def _cmd_train(args) -> int:
    dataset = load_jsonl(args.data, args.task, n_classes=args.classes)
    vocab = build_vocab(dataset, args.max_vocab)
    config = ModelConfig(
        vocab_size=len(vocab),
        n_classes=dataset.n_classes,
        task=args.task,
        n_layers=args.layers,
        d_model=args.d_model,
        n_heads=args.heads,
        d_ff=args.d_ff,
        max_seq_len=args.max_seq_len,
        seed=args.seed,
        share_layer_params=args.share_layer_params,
    )
    base = TrainConfig(
        batch_size=args.batch_size,
        learning_rate=args.lr,
        epochs=args.epochs,
        weight_decay=args.weight_decay,
        seed=args.seed,
    )
    if args.config is not None:
        base = load_train_config(args.config, base)
    if (args.grid_batch_sizes is None) != (args.grid_lrs is None):
        raise ConfigError("--grid-batch-sizes and --grid-lrs must be given together")
    if args.grid_batch_sizes is not None:
        if args.dev is None:
            raise ConfigError("grid search needs --dev for model selection")
        dev = load_jsonl(args.dev, args.task, n_classes=dataset.n_classes)
        splits = DataSplits(train=dataset, dev=dev, test=dev)
        grid = make_grid(args.grid_batch_sizes, args.grid_lrs, base)
        result = grid_search(lambda: MultiExitModel(config), splits, grid, vocab)
        print("batch_size,learning_rate,dev_accuracy,final_train_loss")
        for row in result.rows:
            print(f"{row['batch_size']},{row['learning_rate']},"
                  f"{row['dev_accuracy']:.4f},{row['final_train_loss']:.4f}")
        best = result.best_config
        print(f"best: batch_size={best.batch_size} lr={best.learning_rate}")
        model = result.best_model
    else:
        model = MultiExitModel(config)
        history = train(model, dataset, base, vocab)
        for report in history:
            accs = " ".join(f"{a:.3f}" for a in report.per_layer_accuracy)
            print(f"epoch {report.epoch}: loss {report.total:.4f} acc/layer [{accs}]")
    save_checkpoint(model, args.out, vocab=vocab.tokens)
    print(f"saved {args.out} (model hash {model.param_hash()})")
    return 0


def _print_result(r) -> None:
    print(
        f"policy={r.spec.policy} accuracy={r.accuracy:.4f} micro_f1={r.micro_f1:.4f} "
        f"speedup={r.speedup:.4f} mean_exit_layer={r.mean_exit_layer:.3f}"
    )


def _cmd_eval(args) -> int:
    model, dataset, vocab = _load_model_and_data(args)
    result = evaluate(model, dataset, _spec_from_args(args), vocab)
    _print_result(result)
    if args.out_csv:
        emit_csv(
            SweepResult([result], model.config.n_layers, args.seed,
                        model.param_hash(), dataset.data_hash()),
            args.out_csv,
        )
    if args.out_hist:
        emit_histogram(result, args.out_hist)
    return 0


def _grid_or_default(grid: list | None, default: list, flag: str) -> list:
    """An omitted grid takes its default; a given but empty one (``--flag ,``) is an error."""
    if grid is None:
        return default
    if not grid:
        raise ConfigError(f"{flag} is empty")
    return grid


def _build_sweep_specs(args, n_layers: int) -> list[PolicySpec]:
    if args.policy == "fixed":
        layers = _grid_or_default(args.layer_grid, list(range(1, n_layers + 1)), "--layer-grid")
        return [PolicySpec("fixed", fixed_layer=j) for j in layers]
    if args.policy == "pabee":
        patience = _grid_or_default(args.patience_grid, [1, 2, 3], "--patience-grid")
        return [PolicySpec("pabee", patience=p) for p in patience]
    if args.policy == "fpabee":
        if not args.thre_grid or not args.patience_grid:
            raise ConfigError("fpabee sweep needs --thre-grid and --patience-grid")
        return [
            PolicySpec("fpabee", measure=args.measure, thre=t, patience=p, kl_mode=args.kl_mode)
            for p in args.patience_grid
            for t in args.thre_grid
        ]
    if not args.thre_grid:
        raise ConfigError(f"{args.policy} sweep needs --thre-grid")
    return [PolicySpec(args.policy, thre=t) for t in args.thre_grid]


def _cmd_sweep(args) -> int:
    model, dataset, vocab = _load_model_and_data(args)
    specs = _build_sweep_specs(args, model.config.n_layers)
    result = sweep(model, dataset, specs, vocab, seed=args.seed)
    emit_csv(result, args.out)
    print(f"wrote {args.out} ({len(result.rows)} rows)")
    if args.svg:
        label = args.policy if args.policy != "fpabee" else f"fpabee-{args.measure}"
        emit_svg([(label, pareto_curve(result))], args.svg)
        print(f"wrote {args.svg}")
    return 0


def _cmd_compare(args) -> int:
    names = [p for p in args.policies.split(",") if p]
    if not names:
        raise ConfigError("--policies is empty")
    if args.patience < 1:
        raise ConfigError(f"--patience must be at least 1, got {args.patience}")
    specs = [PolicySpec("fpabee", measure=args.measure, patience=args.patience, kl_mode=args.kl_mode)
             if name == "fpabee" else PolicySpec(name) for name in names]
    model, dataset, vocab = _load_model_and_data(args)
    results = compare_policies(model, dataset, args.target_speedup, specs, vocab)
    print("policy,knob,speedup,score,attained")
    for res in results:
        r = res.result
        print(f"{r.spec.policy},{r.spec.knob_value()},{r.speedup:.4f},{r.score:.4f},{res.attained}")
    if args.out:
        emit_csv(
            SweepResult([res.result for res in results], model.config.n_layers, args.seed,
                        model.param_hash(), dataset.data_hash()),
            args.out,
        )
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"exitlab: config error: {e}", file=sys.stderr)
        return 1
    except DataError as e:
        print(f"exitlab: data error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"exitlab: i/o error: {e}", file=sys.stderr)
        return 3


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
