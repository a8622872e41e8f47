"""Spans recorded around calls into minaff's public functions.

``install`` replaces each traced function by a timing wrapper at module or
class attribute level, so calls between minaff's own modules, which look
the name up at call time, are traced as well.  A span is a list
``[name, start, end, parent, case, attrs]``; ``parent`` is the index of the
enclosing span in the same process, or None.  Counts such as term numbers
are taken after the span's end, outside its timer.  A function missing from
the traced program is skipped and its metrics read 0; ``install`` returns the
names of the skipped ones, and the run reports how many as
``trace.unwrapped``.  A count that raises is kept in the span as
``measure_error`` and counted as ``trace.measure_errors``.
"""

import functools
import time
from collections import defaultdict

NAME, START, END, PARENT, CASE, ATTRS = range(6)

# (name, unit, better) of every per-layer metric, summed over one pass.
PER_LAYER = (
    ("cli.run_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("affinization.character_s", "s", "lower"),
    ("affinization.character_terms", "count", "lower"),
    ("affinization.lambda_sequence_s", "s", "lower"),
    ("polyring.sigma_pass_s", "s", "lower"),
    ("polyring.sigma_pass_terms_out", "count", "lower"),
    ("polyring.w0_pass_s", "s", "lower"),
    ("polyring.w0_pass_terms_in", "count", "lower"),
    ("polyring.w0_pass_terms_out", "count", "lower"),
    ("polyring.w0_expansion", "ratio", "lower"),
    ("polyring.demazure_steps", "count", "lower"),
    ("polyring.demazure_terms_out", "count", "lower"),
    ("polyring.demazure_s", "s", "lower"),
    ("polyring.specialize_s", "s", "lower"),
    ("polyring.specialize_terms_in", "count", "lower"),
    ("polyring.twist_s", "s", "lower"),
    ("polyring.twist_terms", "count", "lower"),
    ("weyl.reduce_word_calls", "count", "lower"),
    ("weyl.reduce_word_s", "s", "lower"),
    ("decomp.decompose_s", "s", "lower"),
    ("decomp.invariance_check_s", "s", "lower"),
    ("decomp.peel_s", "s", "lower"),
    ("decomp.irr_character_s", "s", "lower"),
    ("decomp.irr_character_calls", "count", "lower"),
    ("decomp.irreps", "count", "lower"),
    ("spbranch.sam_table_s", "s", "lower"),
    ("spbranch.schur_char_s", "s", "lower"),
    ("spbranch.schur_terms", "count", "lower"),
    ("spbranch.tableaux", "count", "lower"),
    ("spbranch.decompose_sp_s", "s", "lower"),
    ("spbranch.sp_irr_character_s", "s", "lower"),
    ("spbranch.sp_irreps", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unwrapped", "count", "lower"),
    ("trace.measure_errors", "count", "lower"),
)


class Tracer:
    """Collects spans in memory for one process."""

    def __init__(self):
        self.spans = []
        self.case = None
        self._open = []

    def wrap(self, owner, attr, name, measure=None):
        """Replace ``owner.attr`` by a timing wrapper; False if it is missing."""
        orig = vars(owner).get(attr)
        if orig is None:
            return False

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._open[-1] if self._open else None, self.case, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                span[START] = start
                self._open.pop()
            if measure is not None:
                try:
                    span[ATTRS] = measure(args, result)
                except Exception as e:  # an API change must not stop the run
                    span[ATTRS] = {"measure_error": repr(e)}
            return result

        setattr(owner, attr, traced)
        return True


def install(tracer):
    """Wrap the traced public functions of minaff; returns the names of the
    ones the program lacks."""
    from minaff import affinization, cli, decomp, polyring, spbranch, weyl

    # Without CharElem, its five wrappers are reported missing.
    elem = getattr(polyring, "CharElem", None) or type("MissingCharElem", (), {})

    def word_kind(w):
        if w == weyl.sigma_word(w.n):
            return "sigma"
        if w == weyl.longest_word(w.n):
            return "w0"
        return "other"

    targets = [
        (cli, "run", "cli.run", None),
        (affinization, "character", "affinization.character", lambda a, r: {"out": len(r)}),
        (affinization, "lambda_sequence", "affinization.lambda_sequence", None),
        (weyl, "reduce_word", "weyl.reduce_word", None),
        (decomp, "decompose", "decomp.decompose", lambda a, r: {"irreps": len(r.mults)}),
        (decomp, "irr_character", "decomp.irr_character", None),
        (spbranch, "sam_table", "spbranch.sam_table", None),
        (
            spbranch,
            "schur_char",
            "spbranch.schur_char",
            lambda a, r: {"out": len(r), "tableaux": r.mass()},
        ),
        (spbranch, "decompose_sp", "spbranch.decompose_sp", lambda a, r: {"irreps": len(r)}),
        (spbranch, "sp_irr_character", "spbranch.sp_irr_character", None),
        (
            elem,
            "demazure_word",
            "polyring.demazure_word",
            lambda a, r: {"kind": word_kind(a[1]), "in": len(a[0]), "out": len(r)},
        ),
        (elem, "demazure", "polyring.demazure", lambda a, r: {"out": len(r)}),
        (elem, "specialize", "polyring.specialize", lambda a, r: {"in": len(a[0])}),
        (elem, "twist", "polyring.twist", lambda a, r: {"out": len(r)}),
        (elem, "relabel_weyl", "polyring.relabel_weyl", None),
    ]
    return [name for owner, attr, name, measure in targets if not tracer.wrap(owner, attr, name, measure)]


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        clipped = sorted(
            (max(spans[c][START], s[START]), min(spans[c][END], s[END])) for c in children[i]
        )
        for a, b in clipped:
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append((s[END] - s[START]) - covered)
    return out


def layer_metrics(spans):
    """Per-layer metrics of one process's spans (all but the overhead)."""
    m = dict.fromkeys((name for name, _, _ in PER_LAYER), 0)
    own = self_times(spans)

    def attr(s, key):
        return (s[ATTRS] or {}).get(key, 0)

    def has_ancestor(s, name):
        p = s[PARENT]
        while p is not None:
            if spans[p][NAME] == name:
                return True
            p = spans[p][PARENT]
        return False

    for i, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        if "measure_error" in (s[ATTRS] or {}):
            m["trace.measure_errors"] += 1
        parent = spans[s[PARENT]][NAME] if s[PARENT] is not None else None
        if name == "cli.run":
            m["cli.run_s"] += dur
            m["cli.self_s"] += own[i]
        elif name == "affinization.character":
            if not has_ancestor(s, name):  # the fork twin recurses once
                m["affinization.character_s"] += dur
                m["affinization.character_terms"] += attr(s, "out")
        elif name == "affinization.lambda_sequence":
            m["affinization.lambda_sequence_s"] += dur
        elif name == "polyring.demazure_word":
            kind = attr(s, "kind")
            if kind == "sigma":
                m["polyring.sigma_pass_s"] += dur
                m["polyring.sigma_pass_terms_out"] += attr(s, "out")
            elif kind == "w0":
                m["polyring.w0_pass_s"] += dur
                m["polyring.w0_pass_terms_in"] += attr(s, "in")
                m["polyring.w0_pass_terms_out"] += attr(s, "out")
        elif name == "polyring.demazure":
            m["polyring.demazure_steps"] += 1
            m["polyring.demazure_terms_out"] += attr(s, "out")
            m["polyring.demazure_s"] += dur
        elif name == "polyring.specialize":
            m["polyring.specialize_s"] += dur
            m["polyring.specialize_terms_in"] += attr(s, "in")
        elif name == "polyring.twist":
            if parent != "polyring.demazure_word":  # not a word's prefix twist
                m["polyring.twist_s"] += dur
                m["polyring.twist_terms"] += attr(s, "out")
        elif name == "polyring.relabel_weyl":
            if parent == "decomp.decompose":
                m["decomp.invariance_check_s"] += dur
        elif name == "weyl.reduce_word":
            m["weyl.reduce_word_calls"] += 1
            m["weyl.reduce_word_s"] += dur
        elif name == "decomp.decompose":
            m["decomp.decompose_s"] += dur
            m["decomp.peel_s"] += own[i]
            m["decomp.irreps"] += attr(s, "irreps")
        elif name == "decomp.irr_character":
            m["decomp.irr_character_s"] += dur
            m["decomp.irr_character_calls"] += 1
        elif name == "spbranch.sam_table":
            m["spbranch.sam_table_s"] += dur
        elif name == "spbranch.schur_char":
            m["spbranch.schur_char_s"] += dur
            m["spbranch.schur_terms"] += attr(s, "out")
            m["spbranch.tableaux"] += attr(s, "tableaux")
        elif name == "spbranch.decompose_sp":
            m["spbranch.decompose_sp_s"] += dur
            m["spbranch.sp_irreps"] += attr(s, "irreps")
        elif name == "spbranch.sp_irr_character":
            m["spbranch.sp_irr_character_s"] += dur
    return m


def finish_pass(m):
    """Ratios of a pass, from its summed counts."""
    tin = m["polyring.w0_pass_terms_in"]
    m["polyring.w0_expansion"] = m["polyring.w0_pass_terms_out"] / tin if tin else 0
    return m

