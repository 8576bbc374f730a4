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
import sys

from .cache import cache_get, cache_key, cache_put, canonical_dumps, resolve_cache_dir

# Each object with the options without a default that it reads, all of
# which it needs; giving another is a usage error, not an ignored value
# (as is --sign, --via, --z or --seed to an object that does not read it).
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

# A PBW word holds generator ids below pbw.ALPHABET, so a series of Y(gl_n)
# reaches order 256 // n^2 and capelli_p's U(gl_n), with 3 n^2 ids, n = 9.
# Checked before the cache without loading pbw; a test ties the two.
_ALPHABET = 256


def _int(text):
    """An integer flag value; its bound is checked where it is used
    (`pbw.as_size`, by `SuiteConfig` and the layer that builds)."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects an integer, got {text!r}")


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
    comp.add_argument("--n", type=_int, required=True)
    comp.add_argument("--order", type=int, help="series truncation order")
    comp.add_argument("--sign", choices=["+", "-"],
                      help="sign of the shift direction for p (default -)")
    comp.add_argument("--lambda", dest="lam", help="partition, e.g. 2,1")
    comp.add_argument("--via", choices=["h", "e"], help="schur route (default h)")
    comp.add_argument("--mu", help="weight for p_star, e.g. 1,0")
    comp.add_argument("--z", choices=["identity", "random"], help="b twist (default identity)")
    comp.add_argument("--seed", type=int, help="seed of --z random (default 20240811)")
    comp.add_argument("--format", choices=["json", "text"], default="json")
    comp.add_argument("--cache-dir")
    comp.add_argument("--out")

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("suite", nargs="?", default="all",
                     help="suite name or 'all'")
    ver.add_argument("--n", type=_int)
    ver.add_argument("--order", type=_int)
    ver.add_argument("--max-m", dest="max_m", type=_int)
    ver.add_argument("--max-k", dest="max_k", type=_int)
    ver.add_argument("--tau-order", dest="tau_order", type=_int)
    ver.add_argument("--seed", type=int, default=20240811)
    ver.add_argument("--format", choices=["json", "text"], default="text")
    ver.add_argument("--out")

    sub.add_parser("list-suites", help="list verification suites")
    return parser


def _params(args, parser):
    """The validated parameters of the requested object: they key the cache
    and are all that `_build` reads."""
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
    for flag, reader, value in (("--sign", "p", args.sign), ("--via", "schur", args.via),
                                ("--z", "b", args.z), ("--seed", "b", args.seed)):
        need(value is None or obj == reader, f"compute {obj} does not take {flag}")
    need(args.seed is None or args.z == "random",
         f"compute {obj} takes --seed only with --z random")

    if n >= 1:  # the layer that builds refuses any other n
        need(N is None or N * n * n <= _ALPHABET,
             f"compute {obj} --n {n} takes --order up to {_ALPHABET // (n * n)}: "
             f"a PBW word holds generator ids below {_ALPHABET}")
        need(obj != "capelli_p" or 3 * n * n <= _ALPHABET,
             f"compute capelli_p takes --n up to 9: a PBW word holds generator ids "
             f"below {_ALPHABET}, and U(gl_n) has 3 n^2 of them")

    params = {"n": n}
    if deg is not None:
        params["m" if obj in ("h_minus", "capelli_p") else "k"] = deg
    if N is not None:
        params["order"] = N
    if obj == "p":
        params["sign"] = args.sign or "-"
    elif obj == "b":
        params["z"] = args.z or "identity"
        if args.z == "random":
            params["seed"] = 20240811 if args.seed is None else args.seed
    elif obj == "schur":
        params["lambda"] = _parse_int_list(args.lam, "--lambda", parser)
        params["via"] = args.via or "h"
    elif obj == "p_star":
        params["mu"] = _parse_int_list(args.mu, "--mu", parser)
        need(len(params["mu"]) == n, "--mu must have n entries")
    return params


def _build(obj, params):
    """The value of the object; each object imports only the layer that
    builds it, so a cache hit loads none."""
    deg = params.get("k", params.get("m"))
    n, N = params["n"], params.get("order")
    if obj == "e":
        from .symfun import elem_e
        return elem_e(deg, n, N)
    if obj == "h":
        from .symfun import homog_h
        return homog_h(deg, n, N)
    if obj == "p":
        from .symfun import power_p
        return power_p(deg, 1 if params["sign"] == "+" else -1, n, N)
    if obj == "b":
        import random
        from .symfun import BetheTwist, bethe_b
        Z = (BetheTwist.identity(n) if params["z"] == "identity"
             else BetheTwist.random(n, random.Random(params["seed"])))
        return bethe_b(deg, Z, n, N)
    if obj == "h_minus":
        from .symfun import h_minus
        return h_minus(deg, n, N)
    if obj == "schur":
        from .symfun import schur_s
        return schur_s(params["lambda"], params["via"], n, N)
    if obj == "capelli_p":
        from .capelli import capelli_p
        return capelli_p(deg, n)
    if obj == "e_star":
        from .capelli import shifted_e_star
        return shifted_e_star(deg, n)
    if obj == "h_star":
        from .capelli import shifted_h_star
        return shifted_h_star(deg, n)
    from .capelli import shifted_p_star
    return shifted_p_star(deg, params["mu"])


def _compute_value(args, parser):
    """(value, params) of the requested object; library errors in the
    arguments are reported as usage errors."""
    params = _params(args, parser)
    try:
        return _build(args.object, params), params
    except ValueError as exc:
        parser.error(str(exc))


def _write_out(path, text, parser):
    """Write text and a newline to path; failing to is a usage error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        parser.error(f"cannot write --out {path}: {exc.strerror}")


def cmd_compute(args, parser):
    cache_dir = resolve_cache_dir(args.cache_dir)
    key = out_bytes = None
    if cache_dir:
        key = cache_key(args.object, _params(args, parser))
        out_bytes = cache_get(cache_dir, key)
        outcome = "miss" if out_bytes is None else "hit"
    if out_bytes is None:
        from .serialize import to_jsonable

        value, params = _compute_value(args, parser)
        if key is None:
            out_bytes = canonical_dumps(to_jsonable(value)).encode("utf-8")
        else:
            try:
                out_bytes = cache_put(cache_dir, key, args.object, params, to_jsonable(value))
            except OSError as exc:
                parser.error(f"cannot write to the cache directory {cache_dir}: "
                             f"{exc.filename2 or exc.filename}: {exc.strerror}")
    if key is not None:
        print(json.dumps({"cache": outcome, "key": key[:12]}), file=sys.stderr)
    text = out_bytes.decode("utf-8")
    if args.format == "text":
        text = json.dumps(json.loads(text), indent=2, sort_keys=True)
    if args.out:
        _write_out(args.out, text, parser)
    else:
        print(text)
    return 0


def cmd_verify(args, parser):
    from .suites import SUITES, SuiteConfig, run_suites

    if args.suite != "all" and args.suite not in SUITES:
        parser.error(f"unknown suite {args.suite!r}; see 'yangsym list-suites'")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    try:
        cfg = SuiteConfig(n=args.n, order=args.order, max_m=args.max_m,
                          max_k=args.max_k, tau_order=args.tau_order, seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    records = run_suites(names, cfg)
    report = [r.jsonable() for r in records]
    failed = [r for r in records if r.status == "fail"]
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
    if args.out:  # after the report is printed, so a bad path loses no run
        _write_out(args.out, canonical_dumps(report), parser)
    return 1 if failed else 0


def cmd_list_suites(args, parser):
    from .suites import SUITES

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
