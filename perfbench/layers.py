"""Per-layer metrics of the traced run, derived from its spans.

``PER_LAYER`` is the metric list ``BENCHMARK.json`` declares, in order.
Every traced run reports all of them; a layer the workload never enters
reads 0.  ``README.md`` says which end-to-end metric each one moves, on
which workload.
"""

import statistics

LETTERS = tuple("ABCDEFGHIJ")

CHECKS = ("collapse", "addr", "memdep", "recur", "value", "dae", "branch")

PER_LAYER = (
    [("workloads.trace_s", "s"),
     ("bpred.pass_ms", "ms"),
     ("addrpred.pass_ms", "ms"),
     ("vpred.pass_ms", "ms")]
    + [("core.us_per_instr.%s" % letter, "us/instr") for letter in LETTERS]
    + [("core.share", "fraction"),
       ("core.runs", "count"),
       ("core.dup_frac", "fraction"),
       ("collapse.events_per_kinstr", "1/kinstr"),
       ("memdep.squashed_per_kinstr", "1/kinstr"),
       ("vspec.replays_per_kinstr", "1/kinstr"),
       ("dae.enqueued_per_kinstr", "1/kinstr"),
       ("lint.passes_ms", "ms")]
    + [("lint.check_s.%s" % check, "s") for check in CHECKS]
    + [("lint.plans_ms", "ms"),
       ("lint.sanitize_ratio", "ratio"),
       ("analysis.depgraph_ms", "ms"),
       ("experiments.prefetch_s", "s"),
       ("experiments.exhibit_s.mdpt_sensitivity", "s"),
       ("experiments.exhibits_s", "s"),
       ("experiments.sections_s", "s"),
       ("cache.store_ms", "ms"),
       ("cache.load_ms", "ms"),
       ("cache.hit_frac", "fraction"),
       ("results.encode_us", "us"),
       ("results.decode_us", "us"),
       ("report.warm_s", "s"),
       ("trace.overhead", "ratio")]
)

#: Work counts read off each ``WindowScheduler.run`` result; only runs
#: of a machine that has the mechanism enter the denominator.
_COUNTS = (
    ("collapse.events_per_kinstr", "collapse_events",
     lambda span: span.attrs.get("collapsing")),
    ("memdep.squashed_per_kinstr", "memdep_squashed", None),
    ("vspec.replays_per_kinstr", "vspec_replays", None),
    ("dae.enqueued_per_kinstr", "dae_enqueued", None),
)


def _median(values, default=0.0):
    return statistics.median(values) if values else default


def derive(recorder, traced_wall, extra):
    """Per-layer metric values from the traced pass's spans.

    ``traced_wall`` is the traced pass's timed phase in host seconds,
    the clock the spans use; ``extra`` holds the values
    measured outside the spans (``trace.overhead``, ``report.warm_s``,
    ``lint.sanitize_ratio``).
    """
    rec = recorder
    kids = rec.children()
    values = {name: 0.0 for name, _ in PER_LAYER}
    values["workloads.trace_s"] = rec.layer_seconds("workloads.trace")
    values["bpred.pass_ms"] = 1e3 * rec.layer_seconds("bpred.pass")
    values["addrpred.pass_ms"] = 1e3 * rec.layer_seconds("addrpred.pass")
    values["vpred.pass_ms"] = 1e3 * rec.layer_seconds("vpred.pass")

    runs = rec.outermost("core.run")
    for letter in LETTERS:
        costs = [1e6 * span.duration / span.attrs["instructions"]
                 for span in runs if span.attrs["letter"] == letter]
        values["core.us_per_instr.%s" % letter] = _median(costs)
    core_self = sum(rec.self_time(span, kids) for span in runs)
    values["core.share"] = core_self / traced_wall
    values["core.runs"] = len(runs)
    if runs:
        values["core.dup_frac"] = (sum(span.attrs["duplicate"]
                                       for span in runs) / len(runs))
    for metric, key, applies in _COUNTS:
        counted = [span for span in runs if key in span.attrs
                   and (applies is None or applies(span))]
        instructions = sum(span.attrs["instructions"] for span in counted)
        if instructions:
            values[metric] = (1e3 * sum(span.attrs[key] for span in counted)
                              / instructions)

    values["lint.passes_ms"] = 1e3 * rec.layer_seconds("lint.passes")
    for check in CHECKS:
        values["lint.check_s.%s" % check] = sum(
            span.duration for span in rec.outermost("lint.check")
            if span.name == check)
    values["lint.plans_ms"] = 1e3 * rec.layer_seconds("lint.plans")
    values["analysis.depgraph_ms"] = 1e3 * rec.layer_seconds(
        "analysis.depgraph")

    values["experiments.prefetch_s"] = rec.layer_seconds(
        "experiments.prefetch")
    exhibits = rec.outermost("experiments.exhibit")
    values["experiments.exhibit_s.mdpt_sensitivity"] = sum(
        span.duration for span in exhibits
        if span.name == "mdpt_sensitivity")
    values["experiments.exhibits_s"] = sum(span.duration
                                           for span in exhibits)
    # The report's extension and static-lint sections are private
    # functions of ``generate``; their time is what the cold generate
    # span holds besides the grid prefetch, the registered exhibit
    # builds and the shape checks.
    named = ("experiments.prefetch", "experiments.exhibit",
             "experiments.shape_checks")
    for span in rec.spans:
        if span.layer == "report.generate" and span.name == "cold":
            values["experiments.sections_s"] = span.duration - sum(
                child.duration for child in kids.get(span.id, ())
                if child.layer in named)

    values["cache.store_ms"] = 1e3 * rec.layer_seconds("cache.store")
    warm_loads = [span for span in rec.outermost("cache.load")
                  if _inside(rec, span, "report.generate", "warm")]
    values["cache.load_ms"] = 1e3 * sum(span.duration
                                        for span in warm_loads)
    if warm_loads:
        values["cache.hit_frac"] = (sum(span.attrs["hit"]
                                        for span in warm_loads)
                                    / len(warm_loads))
    values["results.encode_us"] = 1e6 * _median(
        [span.duration for span in rec.outermost("results.encode")])
    values["results.decode_us"] = 1e6 * _median(
        [span.duration for span in rec.outermost("results.decode")])

    values.update(extra)
    return values


def _inside(rec, span, layer, name):
    parent = span.parent
    while parent is not None:
        up = rec.spans[parent]
        if up.layer == layer and up.name == name:
            return True
        parent = up.parent
    return False
