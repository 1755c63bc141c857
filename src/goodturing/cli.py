"""Command-line front end.

Subcommands:

* ``gt``        empirical Good-Turing estimates from a counts table or a raw sample
* ``bnp``       exact model-based discovery probability under Pitman-Yor
* ``smooth``    smoothed frequency counts and the implied discovery estimate
* ``simulate``  seeded Monte Carlo moments next to their analytic values
* ``verify``    the self-check suites

Output is a tab-separated report on stdout: full-precision numbers
(17 significant digits) by default, 6 with ``--human``.  Identical inputs
and seeds produce byte-identical reports.  Exit status: 0 success, 1 a
requested check failed, 2 bad input, 3 estimate undefined at this l.

Only the count-based estimators are imported up front; each other
subcommand imports the modules it needs when it runs, so ``gt`` and
``smooth`` start without numpy.
"""

from __future__ import annotations

import argparse
import sys

from .counts import (
    FrequencyCounts,
    UndefinedEstimateError,
    good_turing_approx,
    good_turing_ratio,
    smoothed_count,
    smoothed_discovery,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_UNDEFINED = 3

#: gate for --check comparisons of the two bnp computation paths
CHECK_TOL = 1e-9

#: ``verify --level`` choices; the same as verify.LEVELS, without importing verify
LEVELS = ("fast", "full")


class InputError(Exception):
    pass


# -- report formatting ---------------------------------------------------


def _fmt(value, human: bool) -> str:
    if isinstance(value, float):
        return format(value, ".6g" if human else ".17g")
    return str(value)


class Report:
    """Rows of tab-separated cells; numbers formatted at render time."""

    def __init__(self):
        self._rows: list[tuple] = []

    def add(self, *cells):
        self._rows.append(cells)

    def render(self, human: bool) -> str:
        return "".join("\t".join(_fmt(c, human) for c in row) + "\n" for row in self._rows)

    def emit(self, args) -> None:
        sys.stdout.write(self.render(args.human))


# -- input files ---------------------------------------------------------


def _read_lines(path: str) -> list[str]:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().splitlines()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}")


def read_counts_file(path: str) -> FrequencyCounts:
    """Parse an `l,c_l` table; `#` starts a comment, blank lines are skipped."""
    counts: dict[int, int] = {}
    for lineno, raw in enumerate(_read_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 2:
            raise InputError(f"{path}:{lineno}: expected 'l,c_l', got {raw!r}")
        try:
            l, c = int(fields[0]), int(fields[1])
        except ValueError:
            raise InputError(f"{path}:{lineno}: counts must be integers, got {raw!r}")
        if l < 1 or c < 1:
            raise InputError(f"{path}:{lineno}: l and c_l must be positive, got {raw!r}")
        if l in counts:
            raise InputError(f"{path}:{lineno}: duplicate entry for l={l}")
        counts[l] = c
    if not counts:
        raise InputError(f"{path}: no counts found")
    return FrequencyCounts(counts)


def read_sample_file(path: str) -> FrequencyCounts:
    """One species label per line; whitespace-only lines are skipped."""
    labels = [line.strip() for line in _read_lines(path) if line.strip()]
    if not labels:
        raise InputError(f"{path}: sample file has no labels")
    return FrequencyCounts.from_sample(labels)


def _load_counts(args) -> FrequencyCounts:
    if (args.counts is None) == (args.sample is None):
        raise InputError("give exactly one of --counts FILE or --sample FILE")
    if args.counts is not None:
        return read_counts_file(args.counts)
    return read_sample_file(args.sample)


# -- library entry points, imported on first call -------------------------


def monte_carlo_moments(source, n, reps, seed, l_max=None):
    from .sampler import monte_carlo_moments

    return monte_carlo_moments(source, n, reps, seed, l_max=l_max)


def run_checks(level):
    from .verify import run_checks

    return run_checks(level)


# -- subcommands ---------------------------------------------------------


def cmd_gt(args) -> int:
    fc = _load_counts(args)
    rep = Report()
    rep.add("estimator", f"good-turing-{args.mode}")
    rep.add("n", fc.n)
    rep.add("k", fc.k)
    rep.add("l", args.l)
    if args.mode == "approx":
        if args.l < 0:
            raise InputError(f"approx mode needs l >= 0, got {args.l}")
        rep.add(f"c_{args.l + 1}", fc.count(args.l + 1))
        estimate = good_turing_approx(fc, args.l)
    else:
        if args.l < 1:
            raise InputError(f"ratio mode needs l >= 1, got {args.l}")
        rep.add(f"c_{args.l}", fc.count(args.l))
        rep.add(f"c_{args.l + 1}", fc.count(args.l + 1))
        estimate = good_turing_ratio(fc, args.l)  # UndefinedEstimateError -> exit 3
    rep.add("estimate", estimate)
    rep.emit(args)
    return EXIT_OK


def _model_parameters(args):
    from .closed import check_parameters

    if args.alpha is None:
        raise InputError("a Pitman-Yor model needs --alpha (plus --theta, or --s when alpha < 0)")
    return check_parameters(args.alpha, args.theta, args.s)


def _build_model(args):
    from .pitman_yor import PitmanYor

    return PitmanYor(*_model_parameters(args))


def cmd_bnp(args) -> int:
    from .closed import discovery

    alpha, theta, s = _model_parameters(args)
    l, n = args.l, args.n
    if not 1 <= l <= n:
        raise InputError(f"need 1 <= l <= n, got l={l}, n={n}")
    rep = Report()
    rep.add("estimator", "exact-good-turing")
    rep.add("alpha", alpha)
    rep.add("theta", theta)
    if s is not None:
        rep.add("s", s)
    rep.add("l", l)
    rep.add("n", n)
    status = EXIT_OK
    if args.check:
        closed = discovery(alpha, theta, l, n)
        stirling = _stirling_estimate(args, l, n)
        diff = abs(closed - stirling)
        rep.add("method", "both")
        rep.add("estimate_closed", closed)
        rep.add("estimate_stirling", stirling)
        rep.add("difference", diff)
        ok = diff <= CHECK_TOL
        rep.add("check", "pass" if ok else "fail")
        if not ok:
            status = EXIT_CHECK_FAILED
    else:
        rep.add("method", args.method)
        if args.method == "closed":
            estimate = discovery(alpha, theta, l, n)
        else:
            estimate = _stirling_estimate(args, l, n)
        rep.add("estimate", estimate)
    rep.emit(args)
    return status


def _stirling_estimate(args, l: int, n: int) -> float:
    """The generic Gibbs route, weighted Stirling sums, on the Pitman-Yor model."""
    from .gibbs import GibbsModel

    return GibbsModel.exact_good_turing(_build_model(args), l, n)


def cmd_smooth(args) -> int:
    fc = _load_counts(args)
    if args.l < 0:
        raise InputError(f"need l >= 0, got {args.l}")
    rep = Report()
    rep.add("estimator", "smoothed-good-turing")
    rep.add("alpha", args.alpha)
    rep.add("n", fc.n)
    rep.add("k", fc.k)
    rep.add("l", args.l)
    if args.l >= 1:
        rep.add("smoothed_count", smoothed_count(args.alpha, fc.k, args.l))
    rep.add("discovery", smoothed_discovery(args.alpha, fc.k, fc.n, args.l))
    rep.emit(args)
    return EXIT_OK


def _parse_pop(text: str):
    from .empirical import FinitePopulation

    try:
        probs = [float(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise InputError(f"--pop must be comma-separated probabilities, got {text!r}")
    if not probs:
        raise InputError("--pop is empty")
    return FinitePopulation(probs)


def cmd_simulate(args) -> int:
    from .sampler import SE_GATE

    rep = Report()
    if args.pop is not None:
        if args.alpha is not None or args.theta is not None or args.s is not None:
            raise InputError("give either --pop or a Pitman-Yor model, not both")
        source = _parse_pop(args.pop)
        rep.add("source", "population")
        rep.add("probs", ",".join(format(p, ".17g") for p in source.probs))
    else:
        source = _build_model(args)
        rep.add("source", "pitman-yor")
        rep.add("alpha", source.alpha)
        rep.add("theta", source.theta)
        if source.s is not None:
            rep.add("s", source.s)
    n, reps = args.n, args.reps
    l_max = args.l if args.l is not None else min(n, 10)
    if not 1 <= l_max <= n:
        raise InputError(f"need 1 <= l <= n for the table cutoff, got l={l_max}, n={n}")
    table = monte_carlo_moments(source, n, reps, args.seed, l_max=l_max)
    rep.add("n", n)
    rep.add("reps", reps)
    rep.add("seed", args.seed)
    rep.add("statistic", "simulated", "se", "analytic", "z", "flag")
    analytic = [source.expected_species(n)] + [source.expected_count(l, n) for l in range(1, l_max + 1)]
    n_off = 0
    for (label, mean, se), exact in zip(table.rows(), analytic):
        z = table.z(label, exact)
        flagged = not z <= SE_GATE  # a NaN z is flagged
        n_off += flagged
        rep.add(label, mean, se, exact, z, "off" if flagged else "ok")
    rep.add("flagged", n_off)
    rep.emit(args)
    if args.check and n_off:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_checks(args.level)
    rep = Report()
    failures = 0
    for r in results:
        failures += not r.passed
        rep.add("PASS" if r.passed else "FAIL", r.name, r.detail)
    rep.add("checks", len(results))
    rep.add("failures", failures)
    rep.emit(args)
    return EXIT_CHECK_FAILED if failures else EXIT_OK


# -- parser --------------------------------------------------------------


def _add_model_args(p, alpha_required: bool) -> None:
    # argparse takes "-1e-1" for an option, so an exponent form needs "--alpha=-1e-1"
    p.add_argument("--alpha", type=float, required=alpha_required,
                   help="discount parameter, alpha < 1 (a negative exponent form needs --alpha=-1e-1)")
    p.add_argument("--theta", type=float,
                   help="concentration; required when alpha >= 0 (a negative exponent form needs --theta=-1e-1)")
    p.add_argument("--s", type=int, help="species bound for alpha < 0 (theta = |alpha| s)")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--human", action="store_true", help="round output to 6 significant digits")

    parser = argparse.ArgumentParser(
        prog="goodturing",
        description="Species discovery probability: empirical, smoothed, and model-based estimators.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("gt", parents=[common], help="empirical Good-Turing from observed counts")
    p.add_argument("--counts", metavar="FILE", help="CSV of l,c_l rows (# comments allowed)")
    p.add_argument("--sample", metavar="FILE", help="raw sample, one species label per line")
    p.add_argument("--l", type=int, required=True, help="occurrence count of interest (0 = missing mass)")
    p.add_argument("--mode", choices=("approx", "ratio"), default="approx",
                   help="(l+1)c_{l+1}/n, or the ratio form dividing by c_l")
    p.set_defaults(func=cmd_gt)

    p = sub.add_parser("bnp", parents=[common], help="exact discovery probability under Pitman-Yor")
    _add_model_args(p, alpha_required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("closed", "stirling"), default="closed",
                   help="closed form (l-alpha)/(theta+n), or the weighted Stirling sums")
    p.add_argument("--check", action="store_true",
                   help="run both methods and fail (exit 1) if they differ by more than 1e-9")
    p.set_defaults(func=cmd_bnp)

    p = sub.add_parser("smooth", parents=[common], help="smoothed counts and discovery estimate")
    p.add_argument("--alpha", type=float, required=True, help="smoothing parameter in (0, 1)")
    p.add_argument("--counts", metavar="FILE")
    p.add_argument("--sample", metavar="FILE")
    p.add_argument("--l", type=int, required=True)
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("simulate", parents=[common], help="seeded Monte Carlo moments vs analytic values")
    _add_model_args(p, alpha_required=False)
    p.add_argument("--pop", metavar="P1,P2,...", help="simulate a fixed population instead of a model")
    p.add_argument("--n", type=int, required=True, help="sample size per replicate")
    p.add_argument("--reps", type=int, default=10_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--l", type=int, help="largest l in the table (default min(n, 10))")
    p.add_argument("--check", action="store_true",
                   help="exit 1 if any statistic sits more than 4 standard errors off")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", parents=[common], help="run the identity-check suites")
    p.add_argument("--level", choices=LEVELS, default="fast",
                   help="fast: exact enumeration to n=8 and smaller ranges; full: the acceptance "
                   "criteria's ranges, enumeration at n=30 and 100000-replicate Monte Carlo")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except UndefinedEstimateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
