"""Command-line front end: CSV in, CSV artifacts out.

Every run writes its outputs plus a plain-text key=value manifest into the
output directory (flag -o/--outdir, default from RCA_OUTDIR or the current
directory). All numeric output uses 17 significant digits and no run
records wall-clock state, so identical inputs give byte-identical files.
"""

import argparse
import os
import sys

import numpy as np

from . import synth
from .cca import cca_fit
from .core import (
    BlockDiagonal,
    Explicit,
    LowRankPlusNoise,
    ScaledIdentity,
    ppca_fit,
    rca_fit,
)
from .diffexpr import TimeSeriesPair, residual_scores, roc_curve
from .io import (
    atomic_write_text,
    load_csv,
    read_manifest,
    save_csv,
    write_manifest,
)
from .itrca import SharedPrivateModel, iterative_rca, predict_view1, rms_error
from .kernels import ABSOLUTE, FRACTION, KernelSpec


def _outdir(args):
    out = args.outdir or os.environ.get("RCA_OUTDIR") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _path(out, name):
    return os.path.join(out, name)


def _remove_stale(out, name):
    # a file an earlier run left under a name this run does not produce must
    # not outlive it beside the new manifest
    try:
        os.remove(_path(out, name))
    except FileNotFoundError:
        pass


def _save_block(out, name, block):
    # zero-column blocks have no dense-CSV form; the manifest records the rank
    if block.shape[1] > 0:
        save_csv(_path(out, name), block)
    else:
        _remove_stale(out, name)


def parse_sigma_spec(text):
    """Parse a covariance selector.

    identity:VAR | file:PATH | lowrank:PATH:VAR | blocks:PATH[,PATH...]
    """
    kind, _, rest = text.partition(":")
    if kind == "identity":
        return ScaledIdentity(float(rest))
    if kind == "file":
        return Explicit(load_csv(rest)[0])
    if kind == "lowrank":
        path, _, var = rest.rpartition(":")
        return LowRankPlusNoise(load_csv(path)[0], float(var))
    if kind == "blocks":
        return BlockDiagonal(tuple(load_csv(p)[0] for p in rest.split(",")))
    raise ValueError(f"unknown covariance spec {text!r} "
                     "(expected identity:VAR, file:PATH, lowrank:PATH:VAR "
                     "or blocks:PATHS)")


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


def _kernel_spec(args):
    if args.noise_variance is not None:
        return KernelSpec(args.lengthscale, args.noise_variance, ABSOLUTE)
    return KernelSpec(args.lengthscale, args.noise_fraction, FRACTION)


# ------------------------------------------------------------------ commands

def cmd_rca(args):
    out = _outdir(args)
    gram, _, _ = load_csv(args.gram)
    fit = rca_fit(gram, parse_sigma_spec(args.sigma), n_obs=args.n_obs)
    save_csv(_path(out, "eigvals.csv"), fit.eig.values, header=["eigenvalue"])
    _save_block(out, "loadings.csv", fit.loadings)
    write_manifest(_path(out, "manifest.txt"), {
        "command": "rca", "gram": args.gram, "sigma": args.sigma,
        "n_obs": args.n_obs, "q": fit.q,
        "log_likelihood": fit.log_likelihood,
    })
    return 0


def cmd_ppca(args):
    out = _outdir(args)
    y, _, _ = load_csv(args.data)
    fit = ppca_fit(y, args.sigma2)
    save_csv(_path(out, "eigvals.csv"), fit.eig.values, header=["eigenvalue"])
    _save_block(out, "loadings.csv", fit.loadings)
    save_csv(_path(out, "mean.csv"), fit.mean)
    write_manifest(_path(out, "manifest.txt"), {
        "command": "ppca", "data": args.data, "sigma2": args.sigma2,
        "q": fit.q, "log_likelihood": fit.log_likelihood,
    })
    return 0


def cmd_cca(args):
    out = _outdir(args)
    y1, _, _ = load_csv(args.y1)
    y2, _, _ = load_csv(args.y2)
    fit = cca_fit(y1, y2)
    save_csv(_path(out, "correlations.csv"), fit.correlations,
             header=["correlation"])
    _save_block(out, "s1.csv", fit.s1)
    _save_block(out, "s2.csv", fit.s2)
    _save_block(out, "v1.csv", fit.v1)
    _save_block(out, "v2.csv", fit.v2)
    write_manifest(_path(out, "manifest.txt"), {
        "command": "cca", "y1": args.y1, "y2": args.y2,
        "q": fit.correlations.size, "clamped": fit.clamped,
        "log_likelihood": fit.fit.log_likelihood,
    })
    return 0


def cmd_diffexpr(args):
    out = _outdir(args)
    y1, header1, _ = load_csv(args.y1)
    y2, _, _ = load_csv(args.y2)
    pair = TimeSeriesPair(y1, y2, parse_times(args.t1), parse_times(args.t2))
    spec = _kernel_spec(args)
    ranking = residual_scores(pair, spec, standardize=not args.no_standardize)
    gene_ids = header1 if header1 and len(header1) == y1.shape[1] else \
        [f"g{j}" for j in range(y1.shape[1])]
    rank_of = np.empty(ranking.order.size, dtype=int)
    rank_of[ranking.order] = np.arange(1, ranking.order.size + 1)
    rows = "\n".join(map("%s,%.17g,%d".__mod__, zip(
        gene_ids, ranking.scores.tolist(), rank_of.tolist())))

    manifest = {
        "command": "diffexpr", "y1": args.y1, "y2": args.y2,
        "lengthscale": args.lengthscale,
        "noise_mode": ABSOLUTE if args.noise_variance is not None else FRACTION,
        "noise": (args.noise_variance if args.noise_variance is not None
                  else args.noise_fraction),
        "standardize": not args.no_standardize,
        "q_used": ranking.q_used,
    }
    roc_text = None
    if args.labels:
        labels, _, _ = load_csv(args.labels)
        roc = roc_curve(ranking.scores, labels.ravel().astype(int))
        lines = ["threshold,fpr,tpr"]
        for thr, (fpr, tpr) in zip(roc.thresholds, roc.points):
            lines.append(f"{thr:.17g},{fpr:.17g},{tpr:.17g}")
        lines.append(f"auc,{roc.auc:.17g},")
        roc_text = "\n".join(lines) + "\n"
        manifest["auc"] = roc.auc

    # everything computed; now emit
    atomic_write_text(_path(out, "scores.csv"),
                      "gene_id,score,rank\n" + rows + "\n")
    if roc_text is not None:
        atomic_write_text(_path(out, "roc.csv"), roc_text)
    else:
        _remove_stale(out, "roc.csv")
    write_manifest(_path(out, "manifest.txt"), manifest)
    return 0


def cmd_itrca(args):
    out = _outdir(args)
    y1, _, _ = load_csv(args.y1)
    y2, _, _ = load_csv(args.y2)
    model = iterative_rca(y1, y2, alpha=args.alpha, tol=args.tol,
                          max_iter=args.max_iter)
    for name, block in (("w1.csv", model.w1), ("w2.csv", model.w2),
                        ("v1.csv", model.v1), ("v2.csv", model.v2)):
        _save_block(out, name, block)
    save_csv(_path(out, "mu1.csv"), model.mu1)
    save_csv(_path(out, "mu2.csv"), model.mu2)
    lines = ["iteration,log_likelihood,q1,q2,q_shared"]
    for i, (ll, (qs, q1, q2)) in enumerate(zip(model.history,
                                               model.rank_history), start=1):
        lines.append(f"{i},{ll:.17g},{q1},{q2},{qs}")
    atomic_write_text(_path(out, "iterations.csv"), "\n".join(lines) + "\n")
    qs, q1, q2 = model.ranks
    write_manifest(_path(out, "manifest.txt"), {
        "command": "itrca", "y1": args.y1, "y2": args.y2,
        "alpha": model.alpha, "sigma1_sq": model.sigma1_sq,
        "sigma2_sq": model.sigma2_sq,
        "d1": model.mu1.size, "d2": model.mu2.size,
        "q1": q1, "q2": q2, "q_shared": qs,
        "converged": model.converged, "n_iter": model.n_iter,
        "log_likelihood": float(model.history[-1]),
    })
    return 0


def load_model(model_dir):
    """Rebuild a fitted shared/private model from an itrca output directory."""
    manifest = read_manifest(os.path.join(model_dir, "manifest.txt"))
    d1 = int(manifest["d1"])
    d2 = int(manifest["d2"])

    def block(name, rows, cols):
        path = os.path.join(model_dir, name)
        return load_csv(path)[0] if cols else np.zeros((rows, 0))

    return SharedPrivateModel(
        w1=block("w1.csv", d1, int(manifest["q1"])),
        w2=block("w2.csv", d2, int(manifest["q2"])),
        v1=block("v1.csv", d1, int(manifest["q_shared"])),
        v2=block("v2.csv", d2, int(manifest["q_shared"])),
        sigma1_sq=float(manifest["sigma1_sq"]),
        sigma2_sq=float(manifest["sigma2_sq"]),
        mu1=load_csv(os.path.join(model_dir, "mu1.csv"))[0].ravel(),
        mu2=load_csv(os.path.join(model_dir, "mu2.csv"))[0].ravel(),
        alpha=float(manifest["alpha"]),
        history=np.array([]),
        converged=manifest.get("converged", "True") == "True",
        n_iter=int(manifest.get("n_iter", "0")))


def cmd_predict(args):
    out = _outdir(args)
    model = load_model(args.model_dir)
    y2, _, _ = load_csv(args.y2)
    pred = predict_view1(model, y2, mode=args.mode)
    manifest = {"command": "predict", "model_dir": args.model_dir,
                "y2": args.y2, "mode": args.mode}
    rms_text = None
    if args.truth:
        truth, _, _ = load_csv(args.truth)
        rms = rms_error(pred, truth)
        rms_text = f"rms={rms:.17g}\n"
        manifest["rms"] = rms

    # everything computed; now emit
    save_csv(_path(out, "predictions.csv"), pred)
    if rms_text is not None:
        atomic_write_text(_path(out, "rms.txt"), rms_text)
    else:
        _remove_stale(out, "rms.txt")
    write_manifest(_path(out, "manifest.txt"), manifest)
    return 0


def cmd_synth_diffexpr(args):
    out = _outdir(args)
    y1, y2, t1, t2, labels = synth.make_diffexpr_pair(
        args.seed, n_genes=args.genes, n_planted=args.planted,
        noise_sd=args.noise_sd)
    save_csv(_path(out, "y1.csv"), y1)
    save_csv(_path(out, "y2.csv"), y2)
    save_csv(_path(out, "t1.csv"), t1)
    save_csv(_path(out, "t2.csv"), t2)
    save_csv(_path(out, "labels.csv"), labels.astype(float))
    write_manifest(_path(out, "manifest.txt"), {
        "command": "synth-diffexpr", "seed": args.seed, "genes": args.genes,
        "planted": args.planted, "noise_sd": args.noise_sd,
    })
    return 0


def cmd_synth_shared(args):
    out = _outdir(args)
    y1, y2, truth = synth.make_shared_private(
        args.seed, n=args.n, d1=args.d1, d2=args.d2,
        q_shared=args.q_shared, q1=args.q1, q2=args.q2,
        noise_sd=args.noise_sd)
    save_csv(_path(out, "y1.csv"), y1)
    save_csv(_path(out, "y2.csv"), y2)
    for key in ("v1", "v2", "w1", "w2"):
        save_csv(_path(out, f"{key}_true.csv"), truth[key])
    write_manifest(_path(out, "manifest.txt"), {
        "command": "synth-shared", "seed": args.seed, "n": args.n,
        "d1": args.d1, "d2": args.d2, "q_shared": args.q_shared,
        "q1": args.q1, "q2": args.q2, "noise_sd": args.noise_sd,
        "sigma1_sq_true": truth["sigma1_sq"],
    })
    return 0


# ------------------------------------------------------------------ wiring

def build_parser():
    parser = argparse.ArgumentParser(
        prog="rca",
        description="Residual component analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("-o", "--outdir", default=None,
                       help="output directory (default $RCA_OUTDIR or .)")

    p = sub.add_parser("rca", help="generalized-eigenvalue residual fit")
    p.add_argument("--gram", required=True, help="CSV of the Gram/covariance matrix")
    p.add_argument("--sigma", required=True,
                   help="identity:VAR | file:PATH | lowrank:PATH:VAR | blocks:P1,P2")
    p.add_argument("--n-obs", type=int, default=1,
                   help="vector count behind the Gram (scales the likelihood)")
    add_out(p)
    p.set_defaults(func=cmd_rca)

    p = sub.add_parser("ppca", help="probabilistic PCA fit")
    p.add_argument("--data", required=True)
    p.add_argument("--sigma2", type=float, required=True)
    add_out(p)
    p.set_defaults(func=cmd_ppca)

    p = sub.add_parser("cca", help="canonical correlation analysis")
    p.add_argument("--y1", required=True)
    p.add_argument("--y2", required=True)
    add_out(p)
    p.set_defaults(func=cmd_cca)

    p = sub.add_parser("diffexpr",
                       help="residual differential scores for paired series")
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
    add_out(p)
    p.set_defaults(func=cmd_diffexpr)

    p = sub.add_parser("itrca", help="alternating shared/private fit")
    p.add_argument("--y1", required=True)
    p.add_argument("--y2", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=200)
    add_out(p)
    p.set_defaults(func=cmd_itrca)

    p = sub.add_parser("predict", help="predict view 1 from view 2")
    p.add_argument("--model-dir", required=True,
                   help="directory produced by the itrca command")
    p.add_argument("--y2", required=True)
    p.add_argument("--mode", choices=["paper", "exact"], default="paper")
    p.add_argument("--truth", default=None, help="view-1 truth for an RMS report")
    add_out(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("synth-diffexpr", help="planted two-condition dataset")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--genes", type=int, default=200)
    p.add_argument("--planted", type=int, default=10)
    p.add_argument("--noise-sd", type=float, default=0.2)
    add_out(p)
    p.set_defaults(func=cmd_synth_diffexpr)

    p = sub.add_parser("synth-shared", help="planted shared/private dataset")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--d1", type=int, default=15)
    p.add_argument("--d2", type=int, default=12)
    p.add_argument("--q-shared", type=int, default=2)
    p.add_argument("--q1", type=int, default=1)
    p.add_argument("--q2", type=int, default=1)
    p.add_argument("--noise-sd", type=float, default=0.25)
    add_out(p)
    p.set_defaults(func=cmd_synth_shared)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # single-line machine-parsable failure
        message = " ".join(str(exc).split())
        print(f"error: {args.command}: {type(exc).__name__}: {message}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
