"""One fresh yangsym process of the benchmark.

    python3 child.py META setup              import yangsym.cli and exit
    python3 child.py META cli ARGS...        run `yangsym ARGS...`
    python3 child.py META straighten WORDS   normal-order the words listed
                                             in the JSON file WORDS

The package is imported from the checkout's `src/`, never from an installed
copy.  The process writes the moment its import of yangsym.cli completed
(CLOCK_MONOTONIC, comparable with the parent's clock), its peak RSS and the
rational backend to the JSON file META, and the calibrations of the
machine's speed taken around its operations (Calibrator): between words,
between checks of an untraced verify run, and around any other command.  When BENCH_TRACE_PREFIX is set, the layers
are wrapped before the work starts and the spans are written to that prefix
when it ends.
"""

import gc
import json
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import yangsym.cli  # noqa: E402

T_IMPORTED = time.monotonic()


class Calibrator:
    """Follows the machine's speed between the operations of a process.

    Before an operation, if at least EVERY seconds have passed since the last
    calibration, the process times yardstick.py's short calibration task.
    An operation's calibration is the mean of the measurements just before
    and just after it: the machine's speed while it ran.
    """

    EVERY = 0.1

    def __init__(self):
        import yardstick
        self.task = lambda: yardstick.measure(yardstick.CALIBRATION_WORDS)
        self.seconds = []   # every calibration
        self.spent = 0.0    # wall time spent calibrating, warm-up included
        self.ops = []       # per operation, the index of the calibration before it
        self.last = None
        self.calibrate()
        self.seconds.clear()  # the first one only warmed up

    def calibrate(self):
        # A collection of the program's heap that falls due inside the task
        # would read as a slow machine (90 ms against 4 ms); it is left to
        # the program's next allocation.
        collecting = gc.isenabled()
        gc.disable()
        t = time.perf_counter()
        self.seconds.append(self.task())
        self.last = time.perf_counter()
        if collecting:
            gc.enable()
        self.spent += self.last - t

    def before_op(self):
        if time.perf_counter() - self.last >= self.EVERY or not self.seconds:
            self.calibrate()
        self.ops.append(len(self.seconds) - 1)

    def finish(self, meta):
        """Calibrate once more and write the calibrations to meta; returns
        each operation's calibration."""
        self.calibrate()
        meta["calibrations"] = self.seconds
        meta["calibration_s"] = self.spent
        return [(self.seconds[i] + self.seconds[i + 1]) / 2 for i in self.ops]


def straighten(path, cal):
    """Normal-order each word through the public AlgebraContext.normal_form.

    Returns [seconds, sha256 of the canonical normal form] per word; the
    digest is taken outside the timed call and without yangsym code.  The
    calibrator runs between words.
    """
    import hashlib
    from fractions import Fraction
    from yangsym.pbw import AlgebraContext
    from inputs import parse_word

    with open(path, encoding="utf-8") as fh:
        words = json.load(fh)
    contexts = {}
    out = []
    clock = time.perf_counter
    for text in words:
        kind, n, word = parse_word(text)
        ctx = contexts.get((kind, n))
        if ctx is None:
            ctx = contexts[kind, n] = AlgebraContext(kind, n)
        cal.before_op()
        t0 = clock()
        x = ctx.normal_form([(1, word)])
        dt = clock() - t0
        canon = json.dumps([[list(w), str(Fraction(c))] for w, c in sorted(x.terms.items())],
                           separators=(",", ":"))
        out.append([dt, hashlib.sha256(canon.encode()).hexdigest()])
    return out


def calibrate_checks(cal):
    """Run the calibrator before every check that `Reporter.run` times.

    Returns the list that collects [suite, check name] per check, to match
    the calibrations with the records of the report."""
    from yangsym.suites import Reporter
    run = Reporter.run
    checks = []

    def calibrated(self, name, *args, **kwargs):
        cal.before_op()
        checks.append([self.suite, name])
        return run(self, name, *args, **kwargs)

    Reporter.run = calibrated
    return checks


def peak_rss_kb():
    """Peak resident memory of this process since exec.

    ru_maxrss is not used: Linux carries the spawning parent's high-water
    mark into it, so every child would report at least the parent's size.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main():
    meta_path, mode, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    if not os.path.abspath(yangsym.cli.__file__).startswith(SRC + os.sep):
        print(f"yangsym imported from {yangsym.cli.__file__}, not {SRC}", file=sys.stderr)
        return 3
    prefix = os.environ.get("BENCH_TRACE_PREFIX")
    tracer = None
    if prefix:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    meta = {"t_imported": T_IMPORTED}
    code = 0
    # A verify run calibrates between checks, any other command around the
    # whole command.  A traced verify run does not calibrate, since the
    # calibrations would land inside the suite spans.
    verify = args[:1] == ["verify"]
    cal = checks = None
    if mode == "straighten" or (mode == "cli" and not (verify and prefix)):
        cal = Calibrator()
    if mode == "cli":
        if cal is not None and verify:
            checks = calibrate_checks(cal)
        elif cal is not None:
            cal.before_op()
        try:
            code = yangsym.cli.main(args) or 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        sys.stdout.flush()
    elif mode == "straighten":
        meta["words"] = straighten(args[0], cal)
    elif mode != "setup":
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    if cal is not None:
        per_op = cal.finish(meta)
        if checks is not None:
            meta["checks"] = [c + [s] for c, s in zip(checks, per_op)]
        elif mode == "straighten":
            meta["words"] = [w + [s] for w, s in zip(meta["words"], per_op)]
    if tracer is not None:
        tracing.record_readings(tracer)
        tracer.dump(prefix)
    from yangsym.rationals import Q
    meta["maxrss_kb"] = peak_rss_kb()
    meta["rational_backend"] = f"{Q.__module__}.{Q.__qualname__}"
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
