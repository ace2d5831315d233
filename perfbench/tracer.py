"""Outside tracer: spans around calls into l1ax's public functions.

The program is not modified. `Tracer.install` rebinds each traced function
in every loaded l1ax namespace that holds it (modules import each other's
functions with `from .x import f`, so patching the defining module alone
would miss most calls), and patches `Substitution.apply` on the class.

A span records its layer, start and end (ns), parent span and op id. A
re-entrant call to a layer already open on the stack runs untraced, so
recursion (`semantics.evaluate`, `reports.jsonable`) collapses into its
outermost span. Spans stay in memory; `summary` turns them into per-layer
calls, self time (duration minus the time of direct child spans) and total
time, and `write_spans` writes them out at the end.

Work counts come from arguments and returned objects, and from the
`is_nontrivial_standard` lru_cache statistics, read after each op.
Private helpers (`_sweep`, `_shrink`, ...) are not traced.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time

# layer name -> (module, attribute); reports.render is every *_text function
LAYERS = {
    "cli.main": ("l1ax.cli", "main"),
    "corpus.load_corpus": ("l1ax.corpus", "load_corpus"),
    "syntax.parse_formula": ("l1ax.syntax", "parse_formula"),
    "formula.atoms": ("l1ax.formula", "atoms"),
    "substitution.Substitution.apply": ("l1ax.substitution", "Substitution.apply"),
    "semantics.truth_table": ("l1ax.semantics", "truth_table"),
    "semantics.are_equivalent": ("l1ax.semantics", "are_equivalent"),
    "semantics.entails": ("l1ax.semantics", "entails"),
    "semantics.evaluate": ("l1ax.semantics", "evaluate"),
    "decision.admissible_mask": ("l1ax.decision", "admissible_mask"),
    "decision.holds_in_all_admissible": ("l1ax.decision", "holds_in_all_admissible"),
    "criteria.triviality": ("l1ax.criteria", "triviality"),
    "criteria.quasi_triviality": ("l1ax.criteria", "quasi_triviality"),
    "characterize.recover_axioms": ("l1ax.characterize", "recover_axioms"),
    "characterize.characterize": ("l1ax.characterize", "characterize"),
    "proofs.check_proof": ("l1ax.proofs", "check_proof"),
    "proofs.derived_conclusions": ("l1ax.proofs", "derived_conclusions"),
    "verify.run_verification": ("l1ax.verify", "run_verification"),
    "verify.conjecture_report": ("l1ax.verify", "conjecture_report"),
    "reports.jsonable": ("l1ax.reports", "jsonable"),
    "reports.render": ("l1ax.reports", "*_text"),
}


class Tracer:
    def __init__(self) -> None:
        self.layers = list(LAYERS)
        self.spans: list[list[int]] = []  # [layer, start_ns, end_ns, parent, op]
        self.op = 0
        self._open: list[int] = []
        self._depth = [0] * len(self.layers)
        self.tally = dict.fromkeys(
            ("bits", "checks", "holds", "maps", "refutations", "hits", "misses", "lines"), 0
        )

    def _wrap(self, layer: int, fn, count=None):
        spans, open_, depth, clock = self.spans, self._open, self._depth, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if depth[layer]:
                return fn(*args, **kwargs)
            span = [layer, clock(), 0, open_[-1] if open_ else -1, self.op]
            open_.append(len(spans))
            spans.append(span)
            depth[layer] = 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                depth[layer] = 0
                open_.pop()
            if count is not None:
                count(args, kwargs, result)
            return result

        return traced

    def _counters(self) -> dict:
        t = self.tally

        def bits(args, kwargs, result):
            order = args[1] if len(args) > 1 else kwargs["atom_order"]
            t["bits"] += 1 << len(order)

        def equivalence(args, kwargs, result):
            t["checks"] += 1
            t["holds"] += bool(result.holds)

        def report(args, kwargs, result):
            t["maps"] += result.map_count
            t["refutations"] += len(result.refutations)

        def proof(args, kwargs, result):
            t["lines"] += len(result.lines)

        return {
            "semantics.truth_table": bits,
            "semantics.are_equivalent": equivalence,
            "criteria.triviality": report,
            "criteria.quasi_triviality": report,
            "proofs.check_proof": proof,
        }

    def install(self) -> None:
        """Rebind every traced function; call after l1ax.cli is imported."""
        namespaces = [m for name, m in sys.modules.items() if name == "l1ax" or name.startswith("l1ax.")]
        counters = self._counters()
        for index, (layer, (module_name, attr)) in enumerate(LAYERS.items()):
            module = importlib.import_module(module_name)
            if attr == "Substitution.apply":
                cls = module.Substitution
                cls.apply = self._wrap(index, cls.apply)
                continue
            if attr == "*_text":
                targets = [getattr(module, n) for n in dir(module) if n.endswith("_text")]
            else:
                targets = [getattr(module, attr)]
            for fn in targets:
                traced = self._wrap(index, fn, counters.get(layer))
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, name, traced)

    def end_op(self) -> None:
        """Close the current op: collect cache statistics, advance the op id.
        Call before anything clears the program's caches."""
        info = importlib.import_module("l1ax.criteria").is_nontrivial_standard.cache_info()
        self.tally["hits"] += info.hits
        self.tally["misses"] += info.misses
        self.op += 1

    def summary(self) -> dict:
        """Per-layer calls, self and total time (ns), and the raw tallies."""
        n = len(self.layers)
        calls, total, child, built = [0] * n, [0] * n, [0] * n, set()
        mask = self.layers.index("decision.admissible_mask")
        for layer, start, end, parent, _ in self.spans:
            calls[layer] += 1
            total[layer] += end - start
            if parent >= 0:
                p = self.spans[parent][0]
                child[p] += end - start
                # building a mask evaluates axiom instances; a cache hit calls nothing
                if p == mask:
                    built.add(parent)
        return {
            "layers": {
                name: {"calls": calls[i], "total_ns": total[i], "self_ns": total[i] - child[i]}
                for i, name in enumerate(self.layers)
            },
            "tally": {**self.tally, "mask_misses": len(built)},
        }

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("layer\tstart_ns\tend_ns\tparent\top\n")
            for layer, start, end, parent, op in self.spans:
                out.write(f"{self.layers[layer]}\t{start}\t{end}\t{parent}\t{op}\n")


def metrics(summaries: list[dict]) -> dict[str, tuple[float, str]]:
    """Sum worker summaries into per-layer metrics: name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        rows = [s["layers"][layer] for s in summaries]
        out[f"{layer}.calls"] = (sum(r["calls"] for r in rows), "count")
        out[f"{layer}.self_s"] = (sum(r["self_ns"] for r in rows) / 1e9, "s")
        out[f"{layer}.total_s"] = (sum(r["total_ns"] for r in rows) / 1e9, "s")
    t = {k: sum(s["tally"][k] for s in summaries) for k in summaries[0]["tally"]}
    out["semantics.truth_table.bits"] = (t["bits"], "count")
    out["semantics.are_equivalent.holds_ratio"] = (t["holds"] / t["checks"] if t["checks"] else 0.0, "ratio")
    out["decision.admissible_mask.misses"] = (t["mask_misses"], "count")
    out["criteria.maps_examined"] = (t["maps"], "count")
    out["criteria.refutations_built"] = (t["refutations"], "count")
    out["criteria.is_nontrivial_standard.hits"] = (t["hits"], "count")
    out["criteria.is_nontrivial_standard.misses"] = (t["misses"], "count")
    out["proofs.check_proof.lines"] = (t["lines"], "count")
    return out
