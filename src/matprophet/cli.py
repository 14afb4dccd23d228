"""Command line front end.

Subcommands: gen (random instance files), run (one algorithm on one
instance, exact or Monte Carlo), reduce (ex-ante vectors), orient (the
low-indegree orientation), verify (guarantee checks over a directory of
instances). Exit codes: 0 fine, 1 bad input, 2 an enumeration cap was hit,
3 a guarantee check failed.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .baselines import make_baseline
from .engine import expected_value_exact, monte_carlo_ratio, safe_ratio
from .errors import EnumerationCapError, VerificationError
from .generate import random_dists, random_graph
from .graphic import (GraphicDerandomizedCut, GraphicRandomCut,
                      blocking_probability, cut_bound_exact, cut_objective,
                      derandomize_cut, require_graphic)
from .io import load_instance, save_instance
from .matroids import (GraphicMatroid, PartitionMatroid, UniformMatroid,
                       POLYTOPE_CAP)
from .reduction import (ProphetInstance, ex_ante_reduce, prophet_value_exact,
                        worst_case_order)

GRAPHIC_ALGOS = ("graphic-random-cut", "graphic-derandomized")
BASELINE_ALGOS = ("samuel-cahn", "kuniform-prob", "kuniform-optfrac",
                  "partition", "partition-optfrac")
CSV_HEADER = ("trial,seed,order_tag,alg_value,prophet_value,ratio,"
              "accepted_edges,degenerate")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def make_algorithm(inst, name, mode="exact", trials=100_000, seed=0,
                   cap=None):
    """Reduce the instance with the run's settings and build the named
    algorithm on that reduction."""
    if name not in GRAPHIC_ALGOS + BASELINE_ALGOS:
        raise ValueError(f"unknown algorithm {name!r}")
    if name in GRAPHIC_ALGOS:
        require_graphic(inst)  # before the reduction enumerates anything
    red = ex_ante_reduce(inst, mode=mode, trials=trials, seed=seed, cap=cap)
    if name == "graphic-random-cut":
        return GraphicRandomCut(inst, red)
    if name == "graphic-derandomized":
        return GraphicDerandomizedCut(inst, red, cap)
    return make_baseline(inst, name, cap=cap, reduction=red)


def _fmt(x):
    return repr(float(x))


def _json_num(x):
    """Keep summaries valid JSON when a number is infinite (a threshold, or
    the polytope slack of an empty ground set); None stays null."""
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else repr(x)


def _level(text):
    """--level: a confidence level strictly between 0 and 1."""
    x = float(text)
    if not 0.0 < x < 1.0:
        raise argparse.ArgumentTypeError(
            f"level must lie in (0, 1), got {text}")
    return x


def _threshold_doc(ut):
    return {"threshold": _json_num(ut.threshold), "atom_pass": ut.atom_pass,
            "k": ut.k, "method": ut.method, "degenerate": ut.degenerate}


def cmd_gen(args):
    rng = np.random.default_rng(args.seed)
    if args.family == "graphic":
        m = random_graph(rng, args.vertices, args.edges,
                         allow_parallel=args.allow_parallel)
    elif args.family == "uniform":
        m = UniformMatroid(args.n, args.k)
    elif args.family == "partition":
        sizes = [int(s) for s in args.blocks.split(",")]
        caps = [int(c) for c in args.capacities.split(",")]
        blocks, start = [], 0
        for s in sizes:
            blocks.append(tuple(range(start, start + s)))
            start += s
        m = PartitionMatroid(blocks, caps)
    else:
        raise ValueError(f"unknown family {args.family!r}")
    dists = random_dists(rng, m.n, support_size=args.support_size,
                         value_max=args.value_max, iid=args.iid)
    inst = ProphetInstance(m, dists)
    save_instance(args.out, inst)
    print(f"wrote {args.out} ({type(m).__name__}, {m.n} items)")
    return 0


def _trial_rows(seed, order_tag, alg_vals, pro_vals, accepted):
    """CSV rows of a Monte Carlo run, built column-wise from the trial
    arrays and yielded one at a time; a trial whose prophet value is 0
    gets ratio 1 and the degenerate flag, as in `safe_ratio`."""
    degenerate = pro_vals == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(degenerate, 1.0, alg_vals / pro_vals)
    # row-major nonzeros: each trial's accepted items in ascending order
    trial_of, item = np.nonzero(accepted)
    bounds = np.searchsorted(trial_of, np.arange(len(accepted) + 1)).tolist()
    item = item.tolist()
    seed = str(seed)
    for tr, (a, p, r, dg) in enumerate(zip(
            alg_vals.tolist(), pro_vals.tolist(), ratio.tolist(),
            degenerate.tolist())):
        yield (str(tr), seed, order_tag, repr(a), repr(p), repr(r),
               ";".join(map(str, item[bounds[tr]:bounds[tr + 1]])),
               "1" if dg else "0")


def _write_csv(path, rows):
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def cmd_run(args):
    order_policy = "worst_case" if args.order == "worst-case" else "random"
    if args.mode == "exact" and order_policy == "random":
        raise ValueError("exact mode needs the worst-case order")
    loaded = load_instance(args.instance)
    inst = loaded.instance
    algo = make_algorithm(inst, args.algo, mode=args.mode,
                          trials=args.trials, seed=args.seed, cap=args.cap)
    out_prefix = Path(args.out)
    summary = {
        "instance": str(args.instance),
        "algo": args.algo,
        "mode": args.mode,
        "seed": args.seed,
        "order": args.order,
    }

    if args.mode == "exact":
        alg_value = expected_value_exact(inst, algo, cap=args.cap)
        # a second enumeration of the same outcomes (algo.reduction holds
        # this value): perfbench's host sampler cannot yet time an exact-run
        # operation shorter than its 50 ms period (ROADMAP item 2)
        opt = prophet_value_exact(inst, cap=args.cap)
        ratio, degenerate = safe_ratio(alg_value, opt)
        summary.update(alg_value=alg_value, prophet_value=opt, ratio=ratio,
                       degenerate=degenerate, trials=0, ci_half_width=0.0)
        rows = [("0", str(args.seed), "worst-case", _fmt(alg_value),
                 _fmt(opt), _fmt(ratio), "", "1" if degenerate else "0")]
    else:
        res, alg_vals, pro_vals, accepted = monte_carlo_ratio(
            inst, algo, trials=args.trials, seed=args.seed,
            order=order_policy, level=args.level, return_trials=True)
        order_tag = "worst-case" if order_policy == "worst_case" else "random"
        summary.update(alg_value=res.mean_alg, prophet_value=res.mean_prophet,
                       ratio=res.ratio, ci_half_width=res.ci_half_width,
                       level=res.level, degenerate=res.degenerate,
                       trials=res.trials,
                       low_sample_warning=res.low_sample_warning)
        rows = _trial_rows(args.seed, order_tag, alg_vals, pro_vals,
                           accepted)

    red = algo.reduction
    summary["p"] = red.p.tolist()
    summary["t"] = red.t.tolist()
    summary["priced_bound"] = red.bound()
    summary["feasibility_slack"] = _json_num(red.feasibility_slack)
    if args.algo in GRAPHIC_ALGOS:
        design = algo.design
        o = design.orientation
        summary["p_scaled"] = design.p_scaled.tolist()
        summary["orientation_heads"] = o.heads.tolist()
        summary["in_mass"] = o.in_mass(design.p_scaled).tolist()
        if args.algo == "graphic-derandomized":
            summary["cut_side_a"] = np.flatnonzero(algo.cut).tolist()
            summary["considered"] = np.flatnonzero(
                o.crossing(algo.cut)).tolist()
    else:
        info = algo.info
        if isinstance(info, list):
            summary["block_thresholds"] = [
                None if ut is None else _threshold_doc(ut) for ut in info]
        else:
            summary["threshold"] = _threshold_doc(info)

    csv_path = out_prefix.with_suffix(".csv")
    json_path = out_prefix.with_suffix(".summary.json")
    _write_csv(csv_path, rows)
    with open(json_path, "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(f"ratio {summary['ratio']:.6f}"
          + (f" +- {summary['ci_half_width']:.6f}" if args.mode == "mc"
             else " (exact)"))
    print(f"wrote {csv_path} and {json_path}")
    return 0


def cmd_reduce(args):
    loaded = load_instance(args.instance)
    inst = loaded.instance
    red = ex_ante_reduce(inst, mode=args.mode, trials=args.trials,
                         seed=args.seed, cap=args.cap)
    doc = {
        "mode": red.mode,
        "trials": red.trials,
        "p": red.p.tolist(),
        "t": red.t.tolist(),
        "priced_bound": red.bound(),
        "feasibility_slack": _json_num(red.feasibility_slack),
        "worst_case_order": worst_case_order(red.t).tolist(),
        "prophet_value": red.prophet_value,
    }
    if args.mode == "mc":
        doc["prophet_value_stderr"] = red.prophet_stderr
    _emit(doc, args.out)
    return 0


def cmd_orient(args):
    loaded = load_instance(args.instance)
    inst = loaded.instance
    if not isinstance(inst.matroid, GraphicMatroid):
        raise ValueError("orient needs a graphic instance")
    red = ex_ante_reduce(inst, mode=args.mode, trials=args.trials,
                         seed=args.seed, cap=args.cap)
    design = GraphicRandomCut(inst, red).design
    o = design.orientation
    in_mass = o.in_mass(design.p_scaled)
    doc = {
        "p": design.reduction.p.tolist(),
        "p_scaled": design.p_scaled.tolist(),
        "heads": o.heads.tolist(),
        "tails": o.tails.tolist(),
        "in_mass": in_mass.tolist(),
        "max_in_mass": float(in_mass.max()) if in_mass.size else 0.0,
    }
    _emit(doc, args.out)
    return 0


def _emit(doc, out):
    text = json.dumps(doc, indent=2) + "\n"
    if out and out != "-":
        Path(out).write_text(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def _verify_instance(loaded, cap):
    """Yield (check, status, slack, note) rows for one instance."""
    inst = loaded.instance
    n = inst.n
    tol = 1e-9
    mass_tol = 1e-12

    graphic = isinstance(inst.matroid, GraphicMatroid)
    red = ex_ante_reduce(inst, cap=cap)
    # one design serves the graphic checks and the online value
    algo = GraphicRandomCut(inst, red) if graphic else None
    opt = red.prophet_value

    if loaded.is_bernoulli:
        slack = inst.matroid.polytope_slack(loaded.declared_p) \
            if n <= POLYTOPE_CAP else None
    else:
        slack = red.feasibility_slack
    if slack is not None:
        yield ("polytope-membership", slack >= -tol, slack, "")

    bench_slack = red.bound() - opt
    yield ("benchmark-bound", bench_slack >= -tol, bench_slack, "")

    if graphic:
        g = inst.matroid
        p_scaled, o = algo.design.p_scaled, algo.design.orientation
        in_mass = o.in_mass(p_scaled)
        worst = float(in_mass.max()) if in_mass.size else 0.0
        yield ("orientation-mass", worst <= 0.5 + mass_tol, 0.5 - worst, "")

        if g.n <= 10:
            # blocking probability is monotone in the subset, so the
            # largest subset avoiding the head's outgoing edges is the
            # worst case for each edge
            worst_b = 0.0
            for i in range(g.n):
                out_v = set(o.outgoing(int(o.heads[i])))
                pool = [e for e in range(g.n) if e not in out_v]
                b = blocking_probability(g, p_scaled, pool, i, cap=cap)
                worst_b = max(worst_b, b)
            yield ("incoming-blocking", worst_b <= 0.5 + mass_tol,
                   0.5 - worst_b, "")

        bound = cut_bound_exact(g, p_scaled, red.t, o, cap=cap)
        target = float(p_scaled @ red.t) / 8.0
        yield ("random-cut-bound", bound >= target - tol, bound - target, "")

        best = derandomize_cut(g, p_scaled, red.t, o, cap=cap)
        best_obj = cut_objective(g, p_scaled, red.t, o, best)
        yield ("derandomized-cut", best_obj >= bound - tol, best_obj - bound,
               "")

        alg_value = expected_value_exact(inst, algo, cap=cap)
        target = opt / 32.0
        yield ("online-value", alg_value >= target - tol, alg_value - target,
               "")

    if isinstance(inst.matroid, (UniformMatroid, PartitionMatroid)):
        for algo_name in (("kuniform-prob", "kuniform-optfrac")
                          if isinstance(inst.matroid, UniformMatroid)
                          else ("partition", "partition-optfrac")):
            algo = make_baseline(inst, algo_name, cap=cap, reduction=red)
            val = expected_value_exact(inst, algo, cap=cap)
            slack = val - opt / 2.0
            yield (f"baseline-half[{algo_name}]", slack >= -tol, slack, "")


def cmd_verify(args):
    suite = Path(args.suite)
    files = sorted(suite.glob("*.json")) if suite.is_dir() else [suite]
    if not files:
        raise ValueError(f"no instance files under {suite}")
    failures = 0
    width = max(len(f.name) for f in files)
    for f in files:
        try:
            loaded = load_instance(f)
        except ValueError as exc:
            raise ValueError(f"{f}: {exc}") from exc
        for check, ok, slack, note in _verify_instance(loaded, args.cap):
            status = "pass" if ok else "FAIL"
            if not ok:
                failures += 1
            slack_txt = "" if slack is None else f"{slack:+.3e}"
            print(f"{f.name:<{width}}  {check:<28} {status:<4} {slack_txt}"
                  + (f"  {note}" if note else ""))
    if failures:
        print(f"{failures} check(s) failed")
        raise VerificationError(f"{failures} verification check(s) failed")
    print("all checks passed")
    return 0


def build_parser():
    parser = _Parser(prog="matprophet",
                     description="threshold rules for matroid prophet "
                                 "problems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a random instance file")
    p.add_argument("--family", choices=("graphic", "uniform", "partition"),
                   required=True)
    p.add_argument("--vertices", type=int, default=5)
    p.add_argument("--edges", type=int, default=6)
    p.add_argument("--allow-parallel", action="store_true")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--blocks", default="2,2")
    p.add_argument("--capacities", default="1,1")
    p.add_argument("--support-size", type=int, default=3)
    p.add_argument("--value-max", type=float, default=10.0)
    p.add_argument("--iid", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("run", help="run one algorithm on one instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--algo", required=True,
                   choices=GRAPHIC_ALGOS + BASELINE_ALGOS)
    p.add_argument("--mode", choices=("exact", "mc"), default="exact")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--order", choices=("worst-case", "random"),
                   default="worst-case")
    p.add_argument("--level", type=_level, default=0.99)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--out", required=True,
                   help="output prefix for .csv and .summary.json")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("reduce", help="ex-ante probabilities and prices")
    p.add_argument("--instance", required=True)
    p.add_argument("--mode", choices=("exact", "mc"), default="exact")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("orient", help="low-indegree edge orientation")
    p.add_argument("--instance", required=True)
    p.add_argument("--mode", choices=("exact", "mc"), default="exact")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_orient)

    p = sub.add_parser("verify", help="check the guarantees on a suite")
    p.add_argument("--suite", required=True,
                   help="instance file or directory of *.json instances")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError:
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
