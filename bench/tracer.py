"""Spans and counts around the calls into each yangsym layer.

The program is not changed: `install` replaces the functions and methods at
each layer boundary of the `yangsym` modules with wrappers that record a span
(name, start, end, parent) per call and add counts at the same boundaries.  A name another
module bound with `from ... import` is replaced there too, for example
`symfun.tm_mul` and `suites.t_leg`.  Spans stay in memory, in flat arrays,
until `dump` writes them out when the process ends.

`summarize` and `layer_metrics` turn dumped spans into the per-layer metrics
listed in `LAYER_METRICS`.
"""

import functools
import json
import os
import sys
import time
from array import array
from collections import Counter, defaultdict

SUITE_NAMES = (
    "symmetrizers", "intertwining", "eb-traces", "newton", "composition",
    "determinants", "inverse-op", "schur", "commutativity", "lemma-constant",
    "capelli-bridge", "perelomov-popov", "shifted-identities", "engine-selfcheck",
)
BUILDERS = ("elem_e", "homog_h", "power_p", "bethe_b", "h_minus", "rdet",
            "schur_s", "newton_check", "composition_sum")
SHIFTED = ("shifted_e_star", "shifted_h_star", "shifted_p_star")

# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("rationals.nonint_coeffs", "count", "lower"),
    ("rationals.max_coeff_bits", "bit", "lower"),
    ("pbw.mul_terms.calls", "count", "lower"),
    ("pbw.mul_terms.self_s", "s", "lower"),
    ("pbw.mul_terms.term_pairs", "count", "lower"),
    ("pbw.normal_word.calls", "count", "lower"),
    ("pbw.normal_word.self_s", "s", "lower"),
    ("pbw.normal_word.memo_hit_ratio", "ratio", "higher"),
    ("pbw.memo_words", "count", "lower"),
    ("pbw.table_entries", "count", "lower"),
    ("pbw.drops", "count", "lower"),
    ("series.mul.calls", "count", "lower"),
    ("series.mul.self_s", "s", "lower"),
    ("series.shift.calls", "count", "lower"),
    ("series.shift.self_s", "s", "lower"),
    ("tau.mul.calls", "count", "lower"),
    ("tau.mul.self_s", "s", "lower"),
    ("tensor.tm_mul.calls", "count", "lower"),
    ("tensor.tm_mul.self_s", "s", "lower"),
    ("tensor.tm_mul.entry_products", "count", "lower"),
    ("tensor.t_leg.calls", "count", "lower"),
    ("tensor.trace_full.self_s", "s", "lower"),
    *((f"symfun.{b}.s", "s", "lower") for b in BUILDERS),
    ("symfun.rdet.calls", "count", "lower"),
    ("symfun.family_cache.hit_ratio", "ratio", "higher"),
    ("capelli.ev_hom.s", "s", "lower"),
    ("capelli.capelli_p.s", "s", "lower"),
    ("capelli.shifted.s", "s", "lower"),
    ("serialize.to_jsonable.s", "s", "lower"),
    ("serialize.canonical_dumps.s", "s", "lower"),
    ("serialize.bytes_out", "B", "lower"),
    ("cache.get.s", "s", "lower"),
    ("cache.put.s", "s", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.evictions", "count", "lower"),
    *((f"suites.{s}.s", "s", "lower") for s in SUITE_NAMES),
    ("suites.unattributed_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# Span names whose time is reported together; a span nested in another
# span of its group adds nothing to the group's inclusive time.
GROUPS = {f"capelli.{f}": "capelli.shifted" for f in SHIFTED}


class Tracer:
    """Records spans in flat arrays and counts in a Counter."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self.results = []
        self.missing = []
        self._stack = []

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn, before=None, after=None):
        """fn inside a span; before(counts, args) -> state and
        after(counts, args, state, result) add counts outside the span."""
        nid = self.name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(counts, args) if before else None
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after:
                after(counts, args, state, result)
            return result

        return traced

    def dump(self, prefix):
        """Write the header to prefix.json and the span arrays to prefix.bin."""
        with open(prefix + ".bin", "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": len(self.name),
                       "counts": dict(self.counts), "missing": self.missing}, fh)


def load(prefix):
    """(header, name, parent, start, end) as written by Tracer.dump."""
    with open(prefix + ".json", encoding="utf-8") as fh:
        header = json.load(fh)
    n = header["spans"]
    arrays = [array(code) for code in "iidd"]
    with open(prefix + ".bin", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    return (header, *arrays)


# ---------------------------------------------------------------------------
# installation inside a yangsym process

def _yangsym_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "yangsym" or k.startswith("yangsym."))]


def install(tracer):
    """Wrap the layer boundaries of the imported yangsym package.

    A boundary the package no longer has is listed in `tracer.missing` and
    skipped, so a traced run still completes after an internal rename.
    """
    import yangsym.cli  # noqa: F401  (imports every layer)
    from yangsym import cache, capelli, cli, pbw, serialize, series, suites, symfun, tau, tensor

    def method(cls, attr, name, **hooks):
        fn = cls.__dict__.get(attr)
        if fn is None:
            tracer.missing.append(f"{cls.__name__}.{attr}")
            return
        setattr(cls, attr, tracer.wrap(name, fn, **hooks))

    def function(mod, attr, name, **hooks):
        fn = getattr(mod, attr, None)
        if fn is None:
            tracer.missing.append(f"{mod.__name__}.{attr}")
            return
        wrapped = tracer.wrap(name, fn, **hooks)
        for m in _yangsym_modules():
            for key, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, key, wrapped)

    def memo_probe(c, args):
        rs, word = args[0], args[1]
        if word in getattr(rs, "nf_memo", ()):
            c["pbw.normal_word.memo_hits"] += 1

    def term_pairs(c, args):
        c["pbw.mul_terms.term_pairs"] += len(args[1]) * len(args[2])

    def drops_before(c, args):
        return args[0].drop_count

    def drops_after(c, args, before, result):
        c["pbw.drops"] += args[0].drop_count - before

    def entry_products(c, args):
        brows = args[1].rows
        c["tensor.tm_mul.entry_products"] += sum(
            len(brows.get(mid, ())) for row in args[0].rows.values() for mid in row)

    family = getattr(symfun, "_CACHE", {})

    def family_probe(c, args):
        if args[0] in family:
            c["symfun.family_cache.hits"] += 1

    def bytes_out(c, args, state, result):
        c["serialize.bytes_out"] += len(result.encode("utf-8"))

    def entry_exists(c, args):
        return os.path.exists(os.path.join(args[0], args[1] + ".json"))

    def cache_outcome(c, args, existed, result):
        if result is not None:
            c["cache.get.hits"] += 1
        elif existed and not os.path.exists(os.path.join(args[0], args[1] + ".json")):
            c["cache.evictions"] += 1

    def keep_value(c, args, state, result):
        tracer.results.append(result[0])

    method(pbw.RewriteSystem, "normal_word", "pbw.normal_word", before=memo_probe)
    method(pbw.AlgebraContext, "mul_terms", "pbw.mul_terms", before=term_pairs)
    method(pbw.AlgebraContext, "_apply_cap", "pbw.apply_cap",
           before=drops_before, after=drops_after)
    method(series.USeries, "__mul__", "series.mul")
    method(series.USeries, "shift", "series.shift")
    method(tau.TauOperator, "__mul__", "tau.mul")
    function(tensor, "tm_mul", "tensor.tm_mul", before=entry_products)
    function(tensor, "t_leg", "tensor.t_leg")
    function(tensor, "trace_full", "tensor.trace_full")
    for b in BUILDERS:
        function(symfun, b, f"symfun.{b}")
    function(symfun, "_cached", "symfun.family_cache", before=family_probe)
    for f in ("ev_hom", "capelli_p") + SHIFTED:
        function(capelli, f, f"capelli.{f}")
    function(serialize, "to_jsonable", "serialize.to_jsonable")
    function(serialize, "canonical_dumps", "serialize.canonical_dumps", after=bytes_out)
    function(cache, "cache_get", "cache.get", before=entry_exists, after=cache_outcome)
    function(cache, "cache_put", "cache.put")
    function(cli, "_compute_value", "cli.compute_value", after=keep_value)

    for name, (fn, desc) in list(getattr(suites, "SUITES", {}).items()):
        def attributed(c, args, state, records, name=name):
            c[f"suites.{name}.attributed_s"] += sum(r.wall_time for r in records)
        suites.SUITES[name] = (tracer.wrap(f"suites.{name}", fn, after=attributed), desc)


def _coefficients(obj):
    """Rational scalars inside a result: series, operators, polynomials, elements."""
    stack = [obj]
    while stack:
        x = stack.pop()
        if hasattr(x, "denominator"):
            yield x
        elif isinstance(x, dict):
            stack.extend(x.values())
        elif hasattr(x, "terms"):
            stack.append(x.terms)
        elif hasattr(x, "coeffs"):
            stack.append(x.coeffs)


def record_readings(tracer):
    """End-of-run readings of the normal-form memo, the exchange table, the
    family cache and the computed results."""
    from yangsym import pbw, symfun

    systems = list(getattr(pbw, "_SHARED", {}).values())
    c = tracer.counts
    c["pbw.memo_words"] = sum(len(rs.nf_memo) for rs in systems)
    c["pbw.table_entries"] = sum(len(rs.table) for rs in systems)

    def scalars():
        for rs in systems:
            for nf in rs.nf_memo.values():
                yield from nf.values()
            for exp in rs.table.values():
                for coeff, _ in exp:
                    yield coeff
        yield from _coefficients(list(getattr(symfun, "_CACHE", {}).values()))
        yield from _coefficients(tracer.results)

    nonint = bits = 0
    for q in scalars():
        den = q.denominator
        if den != 1:
            nonint += 1
        bits = max(bits, abs(q.numerator).bit_length(), den.bit_length())
    c["rationals.nonint_coeffs"] = nonint
    c["rationals.max_coeff_bits"] = bits


# ---------------------------------------------------------------------------
# analysis

def summarize(names, name, parent, start, end):
    """Per span name: calls, self time and inclusive time.

    Self time is a span's duration minus the time its direct children cover.
    Inclusive time adds up only spans with no enclosing span of the same
    group, so recursion (`pbw.normal_word`) is not counted twice.  Spans are
    stored in the order they opened, so a parent precedes its children.
    """
    n = len(name)
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    group = [GROUPS.get(x, x) for x in names]
    depth = Counter()
    open_spans = []
    out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
    for i in range(n):
        p = parent[i]
        while open_spans and open_spans[-1] != p:
            depth[group[name[open_spans.pop()]]] -= 1
        nid = name[i]
        dur = end[i] - start[i]
        st = out[names[nid]]
        st["calls"] += 1
        st["self_s"] += dur - child[i]
        g = group[nid]
        if depth[g] == 0:
            out[g]["incl_s"] += dur
        depth[g] += 1
        open_spans.append(i)
    return dict(out)


def merge(summaries):
    """Sum span summaries and counts of several processes; bit widths take the max."""
    spans = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
    counts = Counter()
    for span_summary, c in summaries:
        for k, st in span_summary.items():
            for f, v in st.items():
                spans[k][f] += v
        for k, v in c.items():
            if k == "rationals.max_coeff_bits":
                counts[k] = max(counts[k], v)
            else:
                counts[k] += v
    return dict(spans), counts


def summarize_dump(prefix):
    """(span summary, counts, missing boundaries) of one dumped process."""
    header, name, parent, start, end = load(prefix)
    counts = Counter(header["counts"])
    counts["trace.spans"] = header["spans"]
    return summarize(header["names"], name, parent, start, end), counts, header["missing"]


def layer_metrics(spans, counts):
    """The per-layer metrics (without trace.overhead_s) of merged summaries."""
    zero = {"calls": 0, "self_s": 0.0, "incl_s": 0.0}

    def span(name, field):
        return spans.get(name, zero)[field]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "rationals.nonint_coeffs": counts["rationals.nonint_coeffs"],
        "rationals.max_coeff_bits": counts["rationals.max_coeff_bits"],
        "pbw.mul_terms.term_pairs": counts["pbw.mul_terms.term_pairs"],
        "pbw.normal_word.memo_hit_ratio": ratio(counts["pbw.normal_word.memo_hits"],
                                                span("pbw.normal_word", "calls")),
        "pbw.memo_words": counts["pbw.memo_words"],
        "pbw.table_entries": counts["pbw.table_entries"],
        "pbw.drops": counts["pbw.drops"],
        "tensor.tm_mul.entry_products": counts["tensor.tm_mul.entry_products"],
        "symfun.family_cache.hit_ratio": ratio(counts["symfun.family_cache.hits"],
                                               span("symfun.family_cache", "calls")),
        "serialize.bytes_out": counts["serialize.bytes_out"],
        "cache.hit_ratio": ratio(counts["cache.get.hits"], span("cache.get", "calls")),
        "cache.evictions": counts["cache.evictions"],
        "trace.spans": counts["trace.spans"],
    }
    unattributed = 0.0
    for s in SUITE_NAMES:
        unattributed += span(f"suites.{s}", "incl_s") - counts[f"suites.{s}.attributed_s"]
    m["suites.unattributed_s"] = unattributed
    for metric, _, _ in LAYER_METRICS:
        if metric in m or metric == "trace.overhead_s":
            continue
        base, field = metric.rsplit(".", 1)
        if field == "calls":
            m[metric] = span(base, "calls")
        elif field == "self_s":
            m[metric] = span(base, "self_s")
        else:
            m[metric] = span(base, "incl_s")
    return m
