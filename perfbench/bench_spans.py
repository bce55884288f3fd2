"""Tracing from outside the program: wrap `lse`'s public functions where they
are bound, keep spans in memory, and turn them into per-layer self times.

A span is (span_id, parent_id, name, start, end, run_id). Its name is
"<layer>.<function>", where the layer is the module that defines the
function, whichever module calls it. Spans nest through one stack, so the
traced code must run on one thread (the benchmark passes no --threads).
"""

import importlib
import inspect
import json
import math
import time
from collections import defaultdict

LAYERS = ("cli", "training", "model", "sampling", "text", "retrieval", "qlm",
          "evaluation", "ltr")

# Called once per entity or document: a span each would cost more than the
# work it measures. qlm.score calls are counted as qlm.scored_pairs instead.
UNWRAPPED = {("qlm", "score"), ("text", "tokenize")}

METHODS = (("text", "Vocabulary", "load"), ("text", "Vocabulary", "save"),
           ("evaluation", "TopicSet", "load"), ("evaluation", "Qrels", "load"))


def _bound(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _count_written(fn, args, kwargs, _result):
    top_k = _bound(fn, args, kwargs, "top_k")
    return {"retrieval.written_entries":
            sum(min(top_k, len(r.entries)) for r in _bound(fn, args, kwargs,
                                                           "ranked_lists"))}


def _count_features(_fn, _args, _kwargs, table):
    # A topic whose query encodes to nothing gets an all-zero lexical column
    # and no qlm.score calls.
    col = table.feature_names.index("qlm")
    scored = sum(1 for m in table.matrices.values() if (m[:, col] != 0).any())
    return {"qlm.scored_pairs": scored * len(table.entity_ids)}


def _count_pairs(fn, args, kwargs, _result):
    config = _bound(fn, args, kwargs, "config")
    if config is None:
        config = importlib.import_module("lse.ltr").RankerConfig()
    return {"ltr.ranksvm_pairs": config.pair_samples}


# Counts taken at the same boundaries as the spans: (layer, function) ->
# hook(fn, args, kwargs, result) returning {counter: increment}.
COUNTERS = {
    ("text", "load_raw_docs"): lambda f, a, k, r: {"text.docs": len(r)},
    ("sampling", "sample_epoch"): lambda f, a, k, r: {"sampling.instances": len(r)},
    ("retrieval", "ranked_from_scores"):
        lambda f, a, k, r: {"retrieval.sorted_entries": len(r.entries)},
    ("retrieval", "write_run"): _count_written,
    ("qlm", "rank"): lambda f, a, k, r: {"qlm.scored_pairs": len(r.entries)},
    ("ltr", "build_features"): _count_features,
    ("ltr", "train_ranksvm"): _count_pairs,
}


class Tracer:
    """Span recorder. `install` rebinds every public lse function in every
    lse module that binds it; `uninstall` restores the originals."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = defaultdict(int)
        self.run_id = None
        self._stack = []
        self._patched = []

    def span(self, name, fn, args=(), kwargs=None, count=None):
        """Call fn inside a span named name; returns its result."""
        kwargs = kwargs or {}
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(span_id)
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans[span_id] = (span_id, parent, name, start, end, self.run_id)
        if count is not None:
            for key, value in count(fn, args, kwargs, result).items():
                self.counters[key] += value
        return result

    def _wrap(self, layer, name, fn):
        count = COUNTERS.get((layer, name))
        span_name = f"{layer}.{name}"

        def traced(*args, **kwargs):
            return self.span(span_name, fn, args, kwargs, count)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = {m: importlib.import_module(f"lse.{m}") for m in LAYERS}
        wrappers = {}
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or not value.__module__.startswith("lse.")):
                    continue
                layer = value.__module__.split(".", 1)[1]
                key = (layer, value.__name__)
                if key in UNWRAPPED or layer not in modules:
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(layer, value.__name__, value)
                self._patched.append((module, attr, value))
                setattr(module, attr, wrappers[value])
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            raw = vars(cls)[meth]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            traced = self._wrap(layer, f"{cls_name}.{meth}", fn)
            if isinstance(raw, classmethod):
                traced = classmethod(traced)
            self._patched.append((cls, meth, raw))
            setattr(cls, meth, traced)

    def uninstall(self):
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched = []

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "parent", "name", "start", "end", "run"), span))) + "\n")


def self_times(spans):
    """Per span id: duration minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    children = defaultdict(list)
    for span_id, parent, _name, start, end, _run in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for span_id, _parent, _name, start, end, _run in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children[span_id]):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[span_id] = (end - start) - covered
    return out


def _quantile(values, q):
    """Nearest-rank quantile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)]


def layer_metrics(spans, counters, walls):
    """Per-layer metrics averaged over the traced iterations whose wall
    times are walls, plus the mean traced wall time and the part of it no
    span accounts for."""
    iterations = len(walls)
    wall_s = sum(walls) / iterations
    selfs = self_times(spans)
    by_name = defaultdict(float)
    calls = defaultdict(int)
    durations = defaultdict(list)
    for span in spans:
        name = span[2]
        by_name[name] += selfs[span[0]]
        calls[name] += 1
        durations[name].append((span[4] - span[3]) * 1000.0)

    def self_of(*names):
        return sum(by_name[n] for n in names) / iterations

    def per_it(value):
        return value / iterations

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, value in by_name.items():
        layer_self[name.split(".", 1)[0]] += value
    commands = sum(n for name, n in calls.items() if name.startswith("cli."))
    written = counters.get("retrieval.written_entries", 0)
    sorted_entries = counters.get("retrieval.sorted_entries", 0)
    eval_names = [n for n in by_name if n.startswith("evaluation.")
                  and not n.endswith(".load")]
    m = {f"{layer}.self_s": per_it(v) for layer, v in layer_self.items()}
    m.update({
        "cli.commands": per_it(commands),
        "text.parse_s": self_of("text.load_raw_docs"),
        "text.encode_s": self_of("text.encode_corpus"),
        "text.vocab_s": self_of("text.build_vocabulary", "text.Vocabulary.load",
                                "text.Vocabulary.save"),
        "text.docs": per_it(counters.get("text.docs", 0)),
        "sampling.sample_s": layer_self["sampling"] / iterations,
        "sampling.instances": per_it(counters.get("sampling.instances", 0)),
        "model.step_s": self_of("model.batch_loss_and_gradients"),
        "model.steps": per_it(calls["model.batch_loss_and_gradients"]),
        "model.adam_s": self_of("model.adam_step"),
        "model.project_s": self_of("model.project"),
        "model.projections": per_it(calls["model.project"]),
        "model.io_s": self_of("model.save_model", "model.load_model"),
        "training.loop_self_s": self_of("training.train"),
        "retrieval.rank_s": self_of("retrieval.rank_entities",
                                    "retrieval.rank_by_vector",
                                    "retrieval.cosine_scores"),
        "retrieval.rank_ms_p50": _quantile(durations["retrieval.rank_entities"], 0.5),
        "retrieval.rank_ms_p90": _quantile(durations["retrieval.rank_entities"], 0.9),
        "retrieval.sort_s": self_of("retrieval.ranked_from_scores"),
        "retrieval.sorted_entries": per_it(sorted_entries),
        "retrieval.kept_ratio": written / sorted_entries if sorted_entries else 0.0,
        "retrieval.run_io_s": self_of("retrieval.write_run", "retrieval.read_run"),
        "qlm.estimate_s": self_of("qlm.estimate"),
        "qlm.rank_s": self_of("qlm.rank"),
        "qlm.rank_ms_p50": _quantile(durations["qlm.rank"], 0.5),
        "qlm.rank_ms_p90": _quantile(durations["qlm.rank"], 0.9),
        "qlm.scored_pairs": per_it(counters.get("qlm.scored_pairs", 0)),
        "evaluation.eval_s": self_of(*eval_names),
        "evaluation.topics": per_it(calls["evaluation.ndcg"]),
        "ltr.features_s": self_of("ltr.build_features", "ltr.qi_feature_matrix"),
        "ltr.ranksvm_s": self_of("ltr.train_ranksvm"),
        "ltr.ranksvm_fits": per_it(calls["ltr.train_ranksvm"]),
        "ltr.ranksvm_pairs": per_it(counters.get("ltr.ranksvm_pairs", 0)),
        "ltr.pagerank_s": self_of("ltr.pagerank"),
        "trace.wall_s": wall_s,
        "trace.remainder_s": wall_s - sum(layer_self.values()) / iterations,
    })
    return m
