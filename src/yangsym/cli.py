"""Batch command-line interface.

Subcommands:

* ``compute``: evaluate one object (series, polynomial, shifted polynomial)
  and print its canonical JSON; results are cached content-addressed when a
  cache directory is configured (flag or YANGSYM_CACHE_DIR).
* ``verify``: run one verification suite (or ``all``) and emit a report;
  exit status is nonzero iff any check failed.
* ``list-suites``: show the available suites.
"""

import argparse
import json
import random
import sys

from .symfun import BetheTwist, bethe_b, elem_e, h_minus, homog_h, power_p, schur_s
from .capelli import capelli_p, shifted_e_star, shifted_h_star, shifted_p_star
from .serialize import canonical_dumps, to_jsonable
from .cache import cache_get, cache_key, cache_put, resolve_cache_dir
from .suites import SUITES, SuiteConfig, run_suites

# Each object with the options without a default that it reads, all of
# which it needs; giving another is a usage error, not an ignored value.
_DEGREE = "--k/--m"
OPTIONS_READ = {
    **{obj: (_DEGREE, "--order") for obj in ("e", "h", "p", "b", "h_minus")},
    "schur": ("--lambda", "--order"),
    "capelli_p": (_DEGREE,),
    "e_star": (_DEGREE,),
    "h_star": (_DEGREE,),
    "p_star": (_DEGREE, "--mu"),
}
COMPUTE_OBJECTS = tuple(OPTIONS_READ)


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _parse_int_list(text, flag, parser):
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        parser.error(f"{flag} expects a comma-separated integer list")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="yangsym",
        description="exact symmetric-function calculus over the Yangian of gl_n")
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compute", help="compute one object and print canonical JSON")
    comp.add_argument("object", choices=COMPUTE_OBJECTS)
    comp.add_argument("--k", type=int, help="degree index")
    comp.add_argument("--m", type=int, help="degree index (alias of --k)")
    comp.add_argument("--n", type=_positive_int, required=True)
    comp.add_argument("--order", type=int, help="series truncation order")
    comp.add_argument("--sign", choices=["+", "-"], default="-",
                      help="sign of the shift direction for p")
    comp.add_argument("--lambda", dest="lam", help="partition, e.g. 2,1")
    comp.add_argument("--via", choices=["h", "e"], default="h")
    comp.add_argument("--mu", help="weight for p_star, e.g. 1,0")
    comp.add_argument("--z", choices=["identity", "random"], default="identity")
    comp.add_argument("--seed", type=int, default=20240811)
    comp.add_argument("--format", choices=["json", "text"], default="json")
    comp.add_argument("--cache-dir")
    comp.add_argument("--out")

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("suite", nargs="?", default="all",
                     help="suite name or 'all'")
    ver.add_argument("--n", type=_positive_int)
    ver.add_argument("--order", type=_positive_int)
    ver.add_argument("--max-m", dest="max_m", type=_positive_int)
    ver.add_argument("--max-k", dest="max_k", type=_positive_int)
    ver.add_argument("--tau-order", dest="tau_order", type=_positive_int)
    ver.add_argument("--seed", type=int, default=20240811)
    ver.add_argument("--format", choices=["json", "text"], default="text")
    ver.add_argument("--out")

    sub.add_parser("list-suites", help="list verification suites")
    return parser


def _request(args, parser):
    """(params, build) of the requested object: the validated parameters,
    which key the cache, and a function that computes the value."""
    obj = args.object
    deg = args.k if args.k is not None else args.m
    n, N = args.n, args.order

    def need(cond, msg):
        if not cond:
            parser.error(msg)

    need(args.k is None or args.m is None, "give the degree as --k or --m, not both")
    given = {_DEGREE: deg, "--order": N, "--lambda": args.lam, "--mu": args.mu}
    for flag, value in given.items():
        if flag in OPTIONS_READ[obj]:
            need(value is not None, f"compute {obj} needs {flag}")
        else:
            need(value is None, f"compute {obj} does not take {flag}")

    if obj == "e":
        return {"k": deg, "n": n, "order": N}, lambda: elem_e(deg, n, N)
    if obj == "h":
        return {"k": deg, "n": n, "order": N}, lambda: homog_h(deg, n, N)
    if obj == "p":
        sign = 1 if args.sign == "+" else -1
        return ({"k": deg, "n": n, "order": N, "sign": args.sign},
                lambda: power_p(deg, sign, n, N))
    if obj == "b":
        params = {"k": deg, "n": n, "order": N, "z": args.z}
        if args.z == "random":
            params["seed"] = args.seed

        def build_b():
            Z = (BetheTwist.identity(n) if args.z == "identity"
                 else BetheTwist.random(n, random.Random(args.seed)))
            return bethe_b(deg, Z, n, N)

        return params, build_b
    if obj == "h_minus":
        return {"m": deg, "n": n, "order": N}, lambda: h_minus(deg, n, N)
    if obj == "schur":
        lam = _parse_int_list(args.lam, "--lambda", parser)
        return ({"lambda": lam, "via": args.via, "n": n, "order": N},
                lambda: schur_s(lam, args.via, n, N))
    if obj == "capelli_p":
        return {"m": deg, "n": n}, lambda: capelli_p(deg, n)
    if obj == "e_star":
        return {"k": deg, "n": n}, lambda: shifted_e_star(deg, n)
    if obj == "h_star":
        return {"k": deg, "n": n}, lambda: shifted_h_star(deg, n)
    if obj == "p_star":
        mu = _parse_int_list(args.mu, "--mu", parser)
        need(len(mu) == n, "--mu must have n entries")
        return {"k": deg, "n": n, "mu": mu}, lambda: shifted_p_star(deg, mu)
    parser.error(f"unknown object {obj}")


def _compute_value(args, parser):
    """(value, params) of the requested object; library errors in the
    arguments are reported as usage errors."""
    params, build = _request(args, parser)
    try:
        return build(), params
    except ValueError as exc:
        parser.error(str(exc))


def cmd_compute(args, parser):
    cache_dir = resolve_cache_dir(args.cache_dir)
    if cache_dir:
        params, _ = _request(args, parser)
        key = cache_key(args.object, params)
        out_bytes = cache_get(cache_dir, key)
        if out_bytes is None:
            value, _ = _compute_value(args, parser)
            out_bytes = cache_put(cache_dir, key, args.object, params, to_jsonable(value))
            outcome = "miss"
        else:
            outcome = "hit"
        print(json.dumps({"cache": outcome, "key": key[:12]}), file=sys.stderr)
    else:
        value, _ = _compute_value(args, parser)
        out_bytes = canonical_dumps(to_jsonable(value)).encode("utf-8")
    text = out_bytes.decode("utf-8")
    if args.format == "text":
        text = json.dumps(json.loads(text), indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_verify(args, parser):
    if args.suite != "all" and args.suite not in SUITES:
        parser.error(f"unknown suite {args.suite!r}; see 'yangsym list-suites'")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    cfg = SuiteConfig(n=args.n, order=args.order, max_m=args.max_m,
                      max_k=args.max_k, tau_order=args.tau_order, seed=args.seed)
    records = run_suites(names, cfg)
    report = [r.jsonable() for r in records]
    failed = [r for r in records if r.status == "fail"]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(canonical_dumps(report) + "\n")
    if args.format == "json":
        print(canonical_dumps(report))
    else:
        for r in records:
            mark = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[r.status]
            params = json.dumps(r.params, sort_keys=True)
            line = f"[{mark}] {r.suite}: {r.name} {params}"
            if r.detail:
                line += f" detail={json.dumps(r.detail, sort_keys=True)}"
            if r.failure:
                line += f" failure={json.dumps(r.failure, sort_keys=True)}"
            print(line)
        n_pass = sum(1 for r in records if r.status == "pass")
        n_skip = sum(1 for r in records if r.status == "skipped")
        print(f"{n_pass} passed, {len(failed)} failed, {n_skip} skipped")
    return 1 if failed else 0


def cmd_list_suites(args, parser):
    for name, (_, desc) in SUITES.items():
        print(f"{name:20s} {desc}")
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "compute":
        return cmd_compute(args, parser)
    if args.command == "verify":
        return cmd_verify(args, parser)
    if args.command == "list-suites":
        return cmd_list_suites(args, parser)
    parser.error("unknown command")


if __name__ == "__main__":
    sys.exit(main())
