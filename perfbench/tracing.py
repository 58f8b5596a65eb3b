"""Per-layer tracing from outside the program.

``Tracer.install(package)`` replaces the public functions of each
``composite_dna`` module by wrappers, under every name through which callers
find them: module globals of every module that imported the function (so
``cli.c2d_decode``, the ``vt_decode_one_deletion`` that the lambdas in
``codes_deletion`` read at call time, and the ``vt_syndrome`` that
``vt_core``'s loops read), and class attributes (``Word.rows``,
``ReceivedRows.__post_init__``).  ``restore()`` puts every original back.

A wrapper records nothing unless ``tracer.active`` is set, which the runner
does only around the library calls it times, so the benchmark's own input
building and checks stay out of the counts.  A timed wrapper opens a span;
a span's self time is its duration minus the durations of the spans opened
inside it, and is summed per bucket.  Spans stay in memory (the first
``SPAN_CAP`` of them) and are written out by ``dump``.  The innermost kernel,
``vt_syndrome``, is counted but gets no span: it runs millions of times in a
sweep and a span would cost more than the call.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (module, attribute, bucket or None for count-only, count key or None)
TARGETS = (
    ("alphabet", "Word.from_rows", "alphabet", "alphabet.words_built"),
    ("alphabet", "Word.from_ranks", "alphabet", "alphabet.words_built"),
    ("alphabet", "Word.from_letters", "alphabet", "alphabet.words_built"),
    ("alphabet", "Word.rows", "alphabet", "alphabet.row_views"),
    ("alphabet", "Word.ranks", "alphabet", "alphabet.row_views"),
    ("alphabet", "letter_unrank", "alphabet", None),
    ("alphabet", "word_from_text", "alphabet", None),
    ("alphabet", "word_to_text", "alphabet", None),
    ("vt_core", "vt_syndrome", None, "vt_core.syndrome_evals"),
    ("vt_core", "vt_decode_one_deletion", "vt_core", "vt_core.row_decodes"),
    ("vt_core", "qary_decode_one_deletion", "vt_core", "vt_core.row_decodes"),
    ("vt_core", "qary_decode_one_substitution", "vt_core", "vt_core.row_decodes"),
    ("vt_core", "lme_decode", "vt_core", "vt_core.row_decodes"),
    ("vt_core", "lme_encode", "vt_core", None),
    ("algebra", "next_prime_bertrand", "algebra", "algebra.prime_searches"),
    ("algebra", "smallest_prime_at_least", "algebra", "algebra.prime_searches"),
    ("algebra", "solve_mod_p", "algebra", "algebra.solves"),
    ("channel", "ReceivedRows.__post_init__", "channel", "channel.outputs_built"),
    ("channel", "raw_received_set", "channel", None),
    ("channel", "oracle_is_code", "channel", None),
    ("channel", "received_from_text", "channel", None),
    ("channel", "received_to_text", "channel", None),
    ("cli", "main", "cli", None),
    ("codes_deletion", "c1d_encode", "codes_deletion.encode", "codes_deletion.encodes"),
    ("codes_deletion", "c2d_encode", "codes_deletion.encode", "codes_deletion.encodes"),
    ("codes_deletion", "c3d_encode", "codes_deletion.encode", "codes_deletion.encodes"),
    ("codes_deletion", "c4d_encode", "codes_deletion.encode", "codes_deletion.encodes"),
    ("codes_deletion", "c1d_decode", "codes_deletion.decode", "codes_deletion.decodes"),
    ("codes_deletion", "c2d_decode", "codes_deletion.decode", "codes_deletion.decodes"),
    ("codes_deletion", "c3d_decode", "codes_deletion.decode", "codes_deletion.decodes"),
    ("codes_deletion", "c4d_decode", "codes_deletion.decode", "codes_deletion.decodes"),
    ("codes_deletion", "c1d_message", "codes_deletion.decode", None),
    ("codes_substitution", "enc_doll", "codes_substitution.encode", "codes_substitution.encodes"),
    ("codes_substitution", "cecc1_encode", "codes_substitution.encode", "codes_substitution.encodes"),
    ("codes_substitution", "c1s_encode", "codes_substitution.encode", "codes_substitution.encodes"),
    ("codes_substitution", "c2s_encode", "codes_substitution.encode", "codes_substitution.encodes"),
    ("codes_substitution", "dec_doll", "codes_substitution.decode", "codes_substitution.decodes"),
    ("codes_substitution", "cecc1_decode", "codes_substitution.decode", "codes_substitution.decodes"),
    ("codes_substitution", "c1s_decode", "codes_substitution.decode", "codes_substitution.decodes"),
    ("codes_substitution", "c2s_decode", "codes_substitution.decode", "codes_substitution.decodes"),
    ("codes_substitution", "cecc1_message", "codes_substitution.decode", None),
)

# spans kept in memory for ``dump``; later spans are timed but not stored
SPAN_CAP = 100_000

# count keys whose wrapped call raising is counted as a failure
FAILURE_KEYS = {
    "codes_deletion.decodes": "codes_deletion.decode_failures",
    "codes_substitution.decodes": "codes_substitution.decode_failures",
}


class Tracer:
    def __init__(self):
        self.active = False
        self.counts: Counter = Counter()
        self.self_s: Counter = Counter()
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.opened = 0
        self._stack: list[list] = []  # open spans: [span id, child seconds]
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _counting(self, func, key):
        tracer, counts = self, self.counts

        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[key] += 1
            return func(*args, **kwargs)

        return wrapper

    def _timed(self, func, name, bucket, key):
        tracer, counts, self_s = self, self.counts, self.self_s
        stack, spans = self._stack, self.spans
        fail_key = FAILURE_KEYS.get(key)
        distinct = name == "channel.raw_received_set"
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            if key:
                counts[key] += 1
            span_id = tracer.opened
            tracer.opened += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = func(*args, **kwargs)
            except Exception:
                if fail_key:
                    counts[fail_key] += 1
                raise
            finally:
                end = perf()
                stack.pop()
                elapsed = end - start
                self_s[bucket] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, parent, name, start, end))
            if distinct:
                counts["channel.outputs_distinct"] += len(result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, package):
        prefix = package.__name__
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == prefix or name.startswith(prefix + "."))
        ]
        for module_name, attr, bucket, key in TARGETS:
            module = sys.modules[f"{prefix}.{module_name}"]
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                func = raw.__func__ if isinstance(raw, classmethod) else raw
                wrapped = self._timed(func, name, bucket, key)
                self._saved.append((cls, method, raw))
                setattr(cls, method, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
                continue
            func = getattr(module, attr)
            if bucket is None:
                wrapped = self._counting(func, key)
            else:
                wrapped = self._timed(func, name, bucket, key)
            for mod in modules:
                for global_name, value in list(vars(mod).items()):
                    if value is func:
                        self._saved.append((mod, global_name, value))
                        setattr(mod, global_name, wrapped)

    def restore(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics: name -> (value, unit)."""
        c, s = self.counts, self.self_s
        out = {
            "alphabet.words_built": c["alphabet.words_built"],
            "alphabet.row_views": c["alphabet.row_views"],
            "alphabet.self_s": s["alphabet"],
            "vt_core.row_decodes": c["vt_core.row_decodes"],
            "vt_core.syndrome_evals": c["vt_core.syndrome_evals"],
            "vt_core.syndrome_evals_per_row_decode": _ratio(
                c["vt_core.syndrome_evals"], c["vt_core.row_decodes"]
            ),
            "vt_core.self_s": s["vt_core"],
            "algebra.prime_searches": c["algebra.prime_searches"],
            "algebra.solves": c["algebra.solves"],
            "algebra.self_s": s["algebra"],
            "channel.outputs_built": c["channel.outputs_built"],
            "channel.outputs_distinct": c["channel.outputs_distinct"],
            "channel.distinct_ratio": _ratio(
                c["channel.outputs_distinct"], c["channel.outputs_built"]
            ),
            "channel.self_s": s["channel"],
        }
        for layer in ("codes_deletion", "codes_substitution"):
            out[f"{layer}.encodes"] = c[f"{layer}.encodes"]
            out[f"{layer}.decodes"] = c[f"{layer}.decodes"]
            out[f"{layer}.decode_failures"] = c[f"{layer}.decode_failures"]
            out[f"{layer}.encode_self_s"] = s[f"{layer}.encode"]
            out[f"{layer}.decode_self_s"] = s[f"{layer}.decode"]
        out["cli.self_s"] = s["cli"]
        return {name: (value, _unit(name)) for name, value in out.items()}

    def dump(self, path: str):
        """Write the stored spans as CSV: id, parent, name, start_s, end_s."""
        with open(path, "w", encoding="ascii") as handle:
            handle.write("id,parent,name,start_s,end_s\n")
            for span_id, parent, name, start, end in self.spans:
                handle.write(f"{span_id},{parent},{name},{start:.9f},{end:.9f}\n")


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_per_row_decode")):
        return "ratio"
    return "count"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
