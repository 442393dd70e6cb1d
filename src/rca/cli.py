"""Command-line front end: CSV in, CSV artifacts out.

Every run writes its outputs plus a plain-text key=value manifest into the
output directory (flag -o/--outdir, default from RCA_OUTDIR or the current
directory). All numeric output uses 17 significant digits and no run
records wall-clock state, so identical inputs give byte-identical files.
"""

import argparse
import contextlib
import functools
import os
import sys

import numpy as np

from . import synth
from .cca import cca_fit
from .core import BlockDiagonal, Explicit, LowRankPlusNoise, ScaledIdentity, ppca_fit, rca_fit
from .diffexpr import TimeSeriesPair, residual_scores, roc_curve
from .io import atomic_write_text, format_manifest, load_csv, read_manifest, save_csv
from .itrca import SharedPrivateModel, iterative_rca, predict_view1, rms_error
from .kernels import ABSOLUTE, FRACTION, KernelSpec


SIGMA_FORMS = {"identity": "identity:VAR", "file": "file:PATH",
               "lowrank": "lowrank:PATH:VAR", "blocks": "blocks:PATH[,PATH...]"}


def parse_sigma_spec(text):
    """Parse a covariance selector of one of the SIGMA_FORMS (--sigma's help)."""
    kind, _, rest = text.partition(":")
    fields = {"lowrank": rest.rpartition(":")[::2],  # (PATH, VAR)
              "blocks": rest.split(",")}.get(kind, [rest])
    if kind not in SIGMA_FORMS or not all(fields):
        problem = "unknown" if kind not in SIGMA_FORMS else "incomplete"
        raise ValueError(f"{problem} covariance spec {text!r} (expected "
                         f"{SIGMA_FORMS.get(kind, ' | '.join(SIGMA_FORMS.values()))})")
    if kind == "identity":
        return ScaledIdentity(float(rest))
    if kind == "file":
        return Explicit(load_csv(rest)[0])
    if kind == "lowrank":
        return LowRankPlusNoise(load_csv(fields[0])[0], float(fields[1]))
    return BlockDiagonal(tuple(load_csv(p)[0] for p in fields))


def parse_times(text):
    """Times as a comma-separated list or a single-column CSV path."""
    if os.path.exists(text):
        values, _, _ = load_csv(text)
        return values.ravel()
    try:
        return np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError:
        raise ValueError(f"times {text!r} is neither a file nor a "
                         "comma-separated number list") from None


# ------------------------------------------------------------------ commands
# Each returns (artifacts, results) and writes nothing; main hands both to
# _commit, whose manifest is the run's arguments followed by the results.
# Artifacts map a file name to a str, an array, or (array, header[, row_labels])
# for save_csv; None or an empty array names a file this run does not produce.

def cmd_rca(args):
    gram, _, _ = load_csv(args.gram)
    fit = rca_fit(gram, parse_sigma_spec(args.sigma), n_obs=args.n_obs)
    return {"eigvals.csv": (fit.eig.values, ["eigenvalue"]),
            "loadings.csv": fit.loadings}, {
        "q": fit.q, "log_likelihood": fit.log_likelihood}


def cmd_ppca(args):
    y, _, _ = load_csv(args.data)
    fit = ppca_fit(y, args.sigma2)
    return {"eigvals.csv": (fit.eig.values, ["eigenvalue"]),
            "loadings.csv": fit.loadings, "mean.csv": fit.mean}, {
        "q": fit.q, "log_likelihood": fit.log_likelihood}


def cmd_cca(args):
    y1, _, _ = load_csv(args.y1)
    y2, _, _ = load_csv(args.y2)
    fit = cca_fit(y1, y2)
    return {"correlations.csv": (fit.correlations, ["correlation"]),
            "s1.csv": fit.s1, "s2.csv": fit.s2,
            "v1.csv": fit.v1, "v2.csv": fit.v2}, {
        "q": fit.correlations.size, "clamped": fit.clamped,
        "log_likelihood": fit.fit.log_likelihood}


def cmd_diffexpr(args):
    y1, header1, _ = load_csv(args.y1)
    y2, _, _ = load_csv(args.y2)
    pair = TimeSeriesPair(y1, y2, parse_times(args.t1), parse_times(args.t2))
    noise = (args.noise_fraction, FRACTION) if args.noise_variance is None else \
        (args.noise_variance, ABSOLUTE)
    spec = KernelSpec(args.lengthscale, *noise)
    ranking = residual_scores(pair, spec, standardize=not args.no_standardize)
    gene_ids = header1 or [f"g{j}" for j in range(y1.shape[1])]
    rank_of = np.empty(ranking.order.size)
    rank_of[ranking.order] = np.arange(1.0, ranking.order.size + 1)

    # two flags decide the kernel noise, so the manifest records the one used
    results = {"noise_mode": spec.noise_mode, "noise": spec.noise,
               "q_used": ranking.q_used}
    artifacts = {"scores.csv": (np.column_stack([ranking.scores, rank_of]),
                                ["gene_id", "score", "rank"], gene_ids),
                 "roc.csv": None}
    if args.labels:
        labels, _, _ = load_csv(args.labels)
        roc = roc_curve(ranking.scores, labels.ravel())
        artifacts["roc.csv"] = (np.column_stack([roc.thresholds, roc.points]),
                                ["threshold", "fpr", "tpr"])
        results["auc"] = roc.auc
    return artifacts, results


# each itrca model block and the manifest keys of its rows and columns; a
# block with no column key is a vector, saved as one column
MODEL_BLOCKS = {"w1": ("d1", "q1"), "w2": ("d2", "q2"), "v1": ("d1", "q_shared"),
                "v2": ("d2", "q_shared"), "mu1": ("d1", None), "mu2": ("d2", None)}


def cmd_itrca(args):
    y1, _, _ = load_csv(args.y1)
    y2, _, _ = load_csv(args.y2)
    model = iterative_rca(y1, y2, alpha=args.alpha, tol=args.tol,
                          max_iter=args.max_iter)
    iterations = [(i, ll, q1, q2, qs) for i, (ll, (qs, q1, q2)) in
                  enumerate(zip(model.history, model.rank_history), start=1)]
    qs, q1, q2 = model.ranks
    artifacts = {f"{name}.csv": getattr(model, name) for name in MODEL_BLOCKS}
    artifacts["iterations.csv"] = (np.array(iterations), ["iteration", "log_likelihood",
                                                          "q1", "q2", "q_shared"])
    return artifacts, {
        "sigma1_sq": model.sigma1_sq, "sigma2_sq": model.sigma2_sq,
        "d1": model.mu1.size, "d2": model.mu2.size,
        "q1": q1, "q2": q2, "q_shared": qs, "q_start": model.start_rank,
        "converged": model.converged, "n_iter": model.n_iter,
        "log_likelihood": float(model.history[-1]),
        "history_max_drop": float(np.max(np.diff(model.history[::-1]), initial=0.0)),
    }


def load_model(model_dir):
    """Rebuild a fitted shared/private model from an itrca output directory."""
    path = os.path.join(model_dir, "manifest.txt")
    manifest = read_manifest(path)

    def entry(key, kind=str):
        if key not in manifest:
            raise ValueError(f"{path} has no {key}= entry")
        text = manifest[key]
        try:
            return {"True": True, "False": False}[text] if kind is bool else kind(text)
        except (KeyError, ValueError):
            raise ValueError(f"{path} has a malformed {key}= entry: {text!r}") from None

    if entry("command") != "itrca":
        raise ValueError(f"{model_dir} is not an itrca output directory "
                         f"(its manifest names command {manifest['command']!r})")

    def block(name, rows, cols):
        shape = (entry(rows, int), entry(cols, int) if cols else 1)
        m = load_csv(os.path.join(model_dir, f"{name}.csv"))[0] if shape[1] else np.zeros(shape)
        if m.shape != shape:
            raise ValueError(f"{name}.csv has shape {m.shape}, the manifest gives {shape}")
        return m if cols else m.ravel()

    return SharedPrivateModel(
        **{name: block(name, *keys) for name, keys in MODEL_BLOCKS.items()},
        sigma1_sq=entry("sigma1_sq", float), sigma2_sq=entry("sigma2_sq", float),
        alpha=entry("alpha", float), history=np.array([]),
        converged=entry("converged", bool), n_iter=entry("n_iter", int))


def cmd_predict(args):
    model = load_model(args.model_dir)
    y2, _, _ = load_csv(args.y2)
    pred = predict_view1(model, y2, mode=args.mode)
    artifacts, results = {"predictions.csv": pred, "rms.txt": None}, {}
    if args.truth:
        truth, _, _ = load_csv(args.truth)
        rms = results["rms"] = rms_error(pred, truth)
        artifacts["rms.txt"] = format_manifest({"rms": rms})
    return artifacts, results


def cmd_synth_diffexpr(args):
    y1, y2, t1, t2, labels = synth.make_diffexpr_pair(
        args.seed, n_genes=args.genes, n_planted=args.planted,
        noise_sd=args.noise_sd)
    return {"y1.csv": y1, "y2.csv": y2, "t1.csv": t1, "t2.csv": t2,
            "labels.csv": labels.astype(float)}, {}


def cmd_synth_shared(args):
    y1, y2, truth = synth.make_shared_private(
        args.seed, n=args.n, d1=args.d1, d2=args.d2,
        q_shared=args.q_shared, q1=args.q1, q2=args.q2,
        noise_sd=args.noise_sd)
    truths = {f"{key}_true.csv": truth[key] for key in ("v1", "v2", "w1", "w2")}
    return {"y1.csv": y1, "y2.csv": y2, **truths}, {"sigma1_sq_true": truth["sigma1_sq"]}


def _commit(args, artifacts, results):
    """Write a command's artifacts into the output directory (-o, else
    $RCA_OUTDIR, else ., created if missing), then manifest.txt last: every
    argument given a value (the subcommand as command=), then the results.
    A file an earlier run left under a name this run does not produce is
    removed, so it cannot outlive that run beside the new manifest. The old
    manifest is removed first, so a directory that has a manifest holds one
    whole run even when a commit fails midway."""
    given = {key: value for key, value in vars(args).items()
             if key not in ("func", "outdir") and value is not None}
    text = format_manifest({**given, **results})  # raises before any file is touched
    out = args.outdir or os.environ.get("RCA_OUTDIR") or "."
    for name, value in {"manifest.txt": None, **artifacts}.items():
        path = os.path.join(out, name)
        value, *table = value if isinstance(value, tuple) else (value,)
        if isinstance(value, str):
            atomic_write_text(path, value)
        elif value is not None and value.size:
            save_csv(path, value, *table)
        else:  # no CSV form for an empty block, whose size is in the manifest
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
    atomic_write_text(os.path.join(out, "manifest.txt"), text)


# ------------------------------------------------------------------ wiring

def build_parser():
    parser = argparse.ArgumentParser(
        prog="rca",
        description="Residual component analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        """A subcommand running func, with the -o/--outdir that _commit reads."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("-o", "--outdir", default=None,
                       help="output directory (default $RCA_OUTDIR or .)")
        return p

    p = command("rca", cmd_rca, "generalized-eigenvalue residual fit")
    p.add_argument("--gram", required=True, help="CSV of the Gram/covariance matrix")
    p.add_argument("--sigma", required=True, help=" | ".join(SIGMA_FORMS.values()))
    p.add_argument("--n-obs", type=int, default=1,
                   help="vector count behind the Gram (scales the likelihood)")

    p = command("ppca", cmd_ppca, "probabilistic PCA fit")
    p.add_argument("--data", required=True)
    p.add_argument("--sigma2", type=float, required=True)

    p = command("cca", cmd_cca, "canonical correlation analysis")
    p.add_argument("--y1", required=True)
    p.add_argument("--y2", required=True)

    p = command("diffexpr", cmd_diffexpr, "residual differential scores for paired series")
    p.add_argument("--y1", required=True)
    p.add_argument("--y2", required=True)
    p.add_argument("--t1", required=True, help="times: CSV path or comma list")
    p.add_argument("--t2", required=True)
    p.add_argument("--lengthscale", type=float, default=20.0)
    p.add_argument("--noise-fraction", type=float, default=0.01,
                   help="kernel noise as a fraction of the data variance")
    p.add_argument("--noise-variance", type=float, default=None,
                   help="absolute kernel noise variance (overrides fraction)")
    p.add_argument("--no-standardize", action="store_true")
    p.add_argument("--labels", default=None,
                   help="binary labels CSV; enables ROC output")

    p = command("itrca", cmd_itrca, "alternating shared/private fit")
    p.add_argument("--y1", required=True)
    p.add_argument("--y2", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=200)

    p = command("predict", cmd_predict, "predict view 1 from view 2")
    p.add_argument("--model-dir", required=True,
                   help="directory produced by the itrca command")
    p.add_argument("--y2", required=True)
    p.add_argument("--mode", choices=["paper", "exact"], default="paper")
    p.add_argument("--truth", default=None, help="view-1 truth for an RMS report")

    p = command("synth-diffexpr", cmd_synth_diffexpr, "planted two-condition dataset")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--genes", type=int, default=200)
    p.add_argument("--planted", type=int, default=10)
    p.add_argument("--noise-sd", type=float, default=0.2)

    p = command("synth-shared", cmd_synth_shared, "planted shared/private dataset")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--d1", type=int, default=15)
    p.add_argument("--d2", type=int, default=12)
    p.add_argument("--q-shared", type=int, default=2)
    p.add_argument("--q1", type=int, default=1)
    p.add_argument("--q2", type=int, default=1)
    p.add_argument("--noise-sd", type=float, default=0.25)

    return parser


@functools.cache
def _parser():
    """build_parser(), built once per process: parse_args leaves it as it was."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        _commit(args, *args.func(args))
        return 0
    except Exception as exc:  # single-line machine-parsable failure
        message = " ".join(str(exc).split())
        print(f"error: {args.command}: {type(exc).__name__}: {message}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
