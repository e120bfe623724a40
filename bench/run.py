#!/usr/bin/env python3
"""Seeded benchmark of boxparse: the ``score``, ``convert`` and ``train`` paths.

Run from the repository root:

    python3 bench/run.py --workload score --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Each workload is a closed loop in one process with one document in
flight. With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it runs the same documents untraced and then with every
public ``boxparse`` function wrapped in a span, and prints per-layer
metrics per document plus the tracing overhead. ``--workload all`` runs
every workload both ways, one process each. The last line of standard
output is one JSON object; the full result, and the traced spans, are
written under ``bench/results/``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("score", "convert", "train")
SETUP_REPEATS = 5
# Median times of the reference tasks on the machine the README describes;
# document times are reported scaled to that speed (see ``Reference``).
PYTHON_NOMINAL_S = 0.001
NUMPY_NOMINAL_S = 0.0016

try:
    CORES = len(os.sched_getaffinity(0))
except AttributeError:
    CORES = os.cpu_count() or 1

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "docs_per_s": "1/s",
    "doc_p50_ms": "ms",
    "doc_tail_ms": "ms",
    "peak_rss_mib": "MiB",
}

# per-layer metric -> (kind, span names); self_ms and calls are per document
PER_LAYER = {
    "drs.parse_clause_document.self_ms": ("self", ["drs.parse_clause_document"]),
    "drs.validate.self_ms": ("self", ["drs.validate"]),
    "drs.merge_presuppositions.self_ms": ("self", ["drs.merge_presuppositions"]),
    "drs.strip_senses.self_ms": ("self", ["drs.strip_senses"]),
    "drs.format_clauses.self_ms": ("self", ["drs.format_clauses"]),
    "drs.validate.calls": ("calls", ["drs.validate"]),
    "drs.accessible_boxes.calls": ("calls", ["drs.accessible_boxes"]),
    "drs.Drs.box.calls": ("calls", ["drs.Drs.box"]),
    "tree.to_tree.self_ms": ("self", ["tree.to_tree"]),
    "tree.linearize.self_ms": ("self", ["tree.linearize"]),
    "tree.delinearize.self_ms": ("self", ["tree.delinearize"]),
    "tree.from_tree.self_ms": ("self", ["tree.from_tree"]),
    "tree.tokens": ("count", ["tree.tokens"]),
    "evaluate.to_clauses.self_ms": ("self", ["evaluate.to_clauses"]),
    "evaluate.best_alignment.self_ms": ("self", ["evaluate.best_alignment"]),
    "evaluate.category_breakdown.self_ms": ("self", ["evaluate.category_breakdown"]),
    "evaluate.rename_clause.calls": ("calls", ["evaluate.rename_clause"]),
    "evaluate.matched": ("count", ["evaluate.matched"]),
    "autodiff.matmul.self_ms": ("self", ["autodiff.matmul", "autodiff.dot"]),
    "autodiff.embedding_lookup.self_ms": ("self", ["autodiff.embedding_lookup"]),
    "autodiff.concat.self_ms": ("self", ["autodiff.concat"]),
    "autodiff.softmax.self_ms": ("self", ["autodiff.softmax"]),
    "autodiff.softmax_cross_entropy.self_ms": ("self", ["autodiff.softmax_cross_entropy"]),
    "autodiff.elementwise.self_ms": ("self", [
        "autodiff.add", "autodiff.sub", "autodiff.scale", "autodiff.mul", "autodiff.tanh",
        "autodiff.sigmoid", "autodiff.sum_over", "autodiff.reduce_sum"]),
    "autodiff.backward.self_ms": ("self", ["autodiff.backward", "autodiff.Tensor.backward"]),
    "autodiff.clip_grad_norm.self_ms": ("self", ["autodiff.clip_grad_norm"]),
    "autodiff.Adam.step.self_ms": ("self", ["autodiff.Adam.step", "autodiff.adam_step"]),
    "autodiff.graph_nodes": ("count", ["autodiff.graph_nodes"]),
    "drs.self_ms": ("layer", ["drs."]),
    "tree.self_ms": ("layer", ["tree."]),
    "evaluate.self_ms": ("layer", ["evaluate."]),
    "autodiff.self_ms": ("layer", ["autodiff."]),
}


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten of ``n`` documents
    beyond it."""
    return math.floor(100 * (1 - 10 / n))


def import_boxparse() -> dict:
    """(Re-)import the program's modules; returns layer name -> module."""
    for name in [m for m in sys.modules if m == "boxparse" or m.startswith("boxparse.")]:
        del sys.modules[name]
    return {layer: importlib.import_module(f"boxparse.{layer}")
            for layer in ("drs", "tree", "evaluate", "autodiff")}


# ---------------------------------------------------------------------------
# workloads: set up from a seed, run one document, check its output


class Workload:
    """Documents are pool indices, grouped in rounds of ``round_size``. A run
    makes whole passes over the first ``rounds`` rounds; a traced run over the
    first ``trace_rounds``."""

    round_size = 1
    rounds = 1
    trace_rounds = 1
    reference = "python"  # the Reference task that resembles the work

    def begin(self) -> None:
        """Called after set-up is timed, before the first document."""

    def probe(self) -> list[str] | None:
        """An extra operation at the start of every round, on a fixed input;
        returns its failures, or None when the workload has none."""
        return None

    def finish(self) -> list[str]:
        """Checks on the whole run, after the last document."""
        return []


class Score(Workload):
    """PMB-style gold/pred pairs: parse both, merge, strip senses, score."""

    long_every = 7
    round_size = long_every + 1  # seven short pairs, then one long pair
    rounds = 15
    trace_rounds = 3

    def __init__(self, bp: dict, seed: int):
        self.bp = bp
        self.pool = gen.score_pool(seed, self.rounds * self.long_every, self.long_every)
        self.brute: dict[int, int] = {}
        self.docs: list[tuple] = []
        self.reports: list = []
        for i in range(2):
            self.run(i)

    def run(self, i: int):
        drs, evaluate = self.bp["drs"], self.bp["evaluate"]
        pair = self.pool[i]
        gold = drs.strip_senses(drs.merge_presuppositions(drs.parse_clauses(pair.gold_text)))
        pred = drs.strip_senses(drs.merge_presuppositions(drs.parse_clauses(pair.pred_text)))
        return evaluate.score(pred, gold, lexical_labels=gen.LEXICAL_LABELS)

    def check(self, i: int, rep) -> list[str]:
        pair = self.pool[i]
        if i not in self.brute and checks.brute_force_applies(pair):
            self.brute[i] = checks.brute_force_matches(pair)
        cats = {c: (r.matched, r.n_predicted, r.n_gold) for c, r in rep.per_category.items()}
        self.docs.append((rep.matched, rep.n_predicted, rep.n_gold, cats))
        self.reports.append(rep)
        return checks.check_score(pair, rep.matched, rep.n_predicted, rep.n_gold, rep.f1,
                                  cats, self.brute.get(i))

    def finish(self) -> list[str]:
        micro = self.bp["evaluate"].micro_average(self.reports)
        cats = {c: (r.matched, r.n_predicted, r.n_gold) for c, r in micro.per_category.items()}
        return checks.check_micro(self.docs, (micro.matched, micro.n_predicted, micro.n_gold,
                                              cats))


# A discourse whose second constituent follows a box nested in the first.
# from_tree orders boxes b1 b2 b3 b4; parsing its formatted text orders them
# b1 b2 b4 b3, so formatting the re-parsed output writes other bytes.
FORMAT_PROBE = """\
b1 CONTINUATION b2 b4
b1 REF x1
b1 Name x1 "tom"
b2 NOT b3
b3 REF e1
b3 sleep.v.01 e1
b3 Agent e1 x1
b4 REF e2
b4 run.v.01 e2
b4 Agent e2 x1
"""


class Convert(Workload):
    """Large gold documents through the training-data round trip."""

    sizes = (200, 450, 700, 1000, 1400)  # clause lines, one document each per round
    round_size = len(sizes)
    rounds = 8

    def __init__(self, bp: dict, seed: int):
        self.bp = bp
        self.pool = gen.convert_pool(seed, self.sizes, self.rounds)
        self.run(0)

    def round_trip(self, text: str):
        drs, tree = self.bp["drs"], self.bp["tree"]
        merged = drs.strip_senses(drs.merge_presuppositions(drs.parse_clauses(text)))
        t = tree.to_tree(merged)
        seq = tree.linearize(t)
        back = tree.delinearize(seq)
        out = tree.from_tree(back)
        return t, seq, back, out, drs.format_clauses(out)

    def run(self, i: int):
        return self.round_trip(self.pool[i].text)

    def reformatted(self, text: str) -> str:
        drs = self.bp["drs"]
        return drs.format_clauses(drs.parse_clauses(text))

    def check(self, i: int, output) -> list[str]:
        t, seq, back, out, text = output
        return checks.check_convert(self.pool[i], back == t, out, len(seq.tokens), text,
                                    self.reformatted(text))

    def probe(self) -> list[str]:
        try:
            text = self.round_trip(FORMAT_PROBE)[-1]
        except Exception as e:  # counted as the probe's failure
            return [f"FORMAT_PROBE raised {type(e).__name__}: {e}"]
        if self.reformatted(text) != text:
            return ["format_clauses(parse_clauses(out)) != out for out = format_clauses("
                    "from_tree(...)) of FORMAT_PROBE"]
        return []


class Train(Workload):
    """Teacher-forced steps of an attention encoder-decoder, one example each:
    forward, backward, gradient clipping, Adam."""

    fixed_batch = 8
    round_size = fixed_batch
    rounds = 10
    reference = "numpy"
    d = 64

    def __init__(self, bp: dict, seed: int):
        import numpy as np

        drs, tree = bp["drs"], bp["tree"]
        self.ad = bp["autodiff"]
        pool = gen.train_pool(seed, self.rounds * self.round_size)
        targets = [tree.linearize(tree.to_tree(drs.strip_senses(drs.merge_presuppositions(
            drs.parse_clauses(text))))).tokens for _, text in pool]
        src_vocab = model.Vocab(words for words, _ in pool)
        tgt_vocab = model.Vocab(targets)
        self.data = [(src_vocab.ids(words), tgt_vocab.ids(t))
                     for (words, _), t in zip(pool, targets)]
        self.net = model.Seq2Seq(self.ad, len(src_vocab), len(tgt_vocab), self.d,
                                 np.random.default_rng(seed))
        self.opt = self.ad.Adam(list(self.net.params.values()), lr=3e-3)
        self.seed = seed
        self.run(0)
        self.before = float("nan")

    def begin(self) -> None:
        self.before = self.fixed_loss()

    def fixed_loss(self) -> float:
        return sum(float(self.net.loss(*self.data[i]).data)
                   for i in range(self.fixed_batch)) / self.fixed_batch

    def run(self, i: int) -> float:
        ad = self.ad
        loss = self.net.loss(*self.data[i])
        ad.backward(loss)
        ad.clip_grad_norm(self.opt.params, 5.0)
        self.opt.step()
        self.opt.zero_grad()
        return float(loss.data)

    def check(self, i: int, loss: float) -> list[str]:
        return checks.check_losses([loss])

    def finish(self) -> list[str]:
        import numpy as np

        out = checks.check_fixed_batch(self.before, self.fixed_loss())
        src, tgt = min(self.data, key=lambda ex: len(ex[0]) + len(ex[1]))
        params = self.net.params
        for p in params.values():
            p.zero_grad()
        self.ad.backward(self.net.loss(src, tgt))
        analytic = {k: p.grad.copy() for k, p in params.items()}
        for p in params.values():
            p.zero_grad()
        out += checks.central_difference(lambda: float(self.net.loss(src, tgt).data),
                                         params, analytic, np.random.default_rng(self.seed))
        return out


# ---------------------------------------------------------------------------
# measuring


class Reference:
    """A fixed task, timed around every document to read the machine's speed.

    The speed of a shared machine drifts by more than half over tens of
    seconds. A document's time multiplied by ``nominal_s`` over the time of
    the task around it cancels most of that drift, when the task slows down
    as the document's work does. So each workload names the task that
    resembles its work:

    * ``python``: dict updates with tuple keys, like the parsing and search
      code;
    * ``numpy``: the small matrix-vector products, ``tanh`` and outer products
      of a training step.

    ``nominal_s`` is close to the task's median time on the machine the README
    describes. The collector is off while the task runs, so the program's
    settings cannot change its cost.
    """

    def __init__(self, kind: str):
        if kind == "numpy":
            import numpy as np

            rng = np.random.default_rng(0)
            w, v = rng.uniform(-1, 1, (64, 192)), rng.uniform(-1, 1, 192)

            def task():
                for _ in range(40):
                    np.outer(np.tanh(w @ v), v).sum()

            self.nominal_s = NUMPY_NOMINAL_S
        else:
            keys = tuple(f"x{i}" for i in range(13))

            def task():
                counts: dict = {}
                for i in range(3000):
                    key = (i % 97, keys[i % 13])
                    counts[key] = counts.get(key, 0) + 1

            self.nominal_s = PYTHON_NOMINAL_S
        self.kind = kind
        self.task = task

    def seconds(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self.task()
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()

    def timed(self, fn) -> tuple[float, float, object, Exception | None]:
        """Run ``fn`` between two runs of the task. Returns its wall time,
        that time scaled to the nominal speed, its result, and the exception
        it raised, if any."""
        before = self.seconds()
        t0 = time.perf_counter()
        out, err = None, None
        try:
            out = fn()
        except Exception as e:  # reported by the caller
            err = e
        dt = time.perf_counter() - t0
        after = self.seconds()
        return dt, dt * self.nominal_s * 2 / (before + after), out, err


class Run:
    """Operations attempted, document timings and what failed.

    A run makes whole passes over a fixed set of documents. A document's
    time is the median over the passes of its scaled time (see ``Reference``).

    ``problems`` are failures of the program's output on the seeded inputs,
    which make the run incorrect; ``known`` are failures of the fixed-input
    probe, which fail on every round and are counted but expected.
    """

    def __init__(self, wl: Workload, ref: Reference, tracer=None):
        self.wl = wl
        self.ref = ref
        self.tracer = tracer
        self.times: dict[int, list[float]] = {}  # scaled, per document
        self.raw: dict[int, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.known: list[str] = []

    def _tracing(self, on: bool) -> None:
        if self.tracer is not None:
            self.tracer.enabled = on

    def doc(self, i: int) -> float:
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.doc = i
        dt, scaled, output, err = self.ref.timed(lambda: self.wl.run(i))
        self.raw.setdefault(i, []).append(dt)
        self.times.setdefault(i, []).append(scaled)
        if err is not None:  # a document that raises counts as failed
            self.failed += 1
            self.problems.append(f"doc {i}: {type(err).__name__}: {err}")
            return dt
        self._tracing(False)
        bad = self.wl.check(i, output)
        self._tracing(True)
        if bad:
            self.failed += 1
            self.problems.extend(f"doc {i}: {m}" for m in bad)
        return dt

    def per_doc(self, scaled: bool = True) -> list[float]:
        return [statistics.median(t) for t in (self.times if scaled else self.raw).values()]

    def passes(self, seconds: float, rounds: int) -> None:
        """Whole passes over the first ``rounds`` rounds until the documents'
        summed wall time reaches ``seconds``."""
        spent = 0.0
        while spent < seconds:
            for r in range(rounds):
                self._tracing(False)
                known = self.wl.probe()
                self._tracing(True)
                if known is not None:
                    self.attempted += 1
                    if known:
                        self.failed += 1
                        self.known = known
                for i in range(r * self.wl.round_size, (r + 1) * self.wl.round_size):
                    spent += self.doc(i)


def doc_metrics(t: list[float]) -> dict:
    pct = tail_percentile(len(t))
    return {"docs_per_s": len(t) / sum(t),
            "doc_p50_ms": statistics.median(t) * 1e3,
            "doc_tail_ms": statistics.quantiles(t, n=100, method="inclusive")[pct - 1] * 1e3}


def machine() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict mode
        blas = "unknown"
    return {"cores": CORES, "blas": blas, "blas_threads": CORES,
            "python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine()}


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    classes = {"score": Score, "convert": Convert, "train": Train}

    def set_up():
        bp = import_boxparse()
        return bp, classes[name](bp, seed)

    ref = Reference(classes[name].reference)
    setups = []
    for _ in range(1 if trace else SETUP_REPEATS):
        raw, scaled, out, err = ref.timed(set_up)
        if err is not None:
            raise err
        bp, wl = out
        setups.append((raw, scaled))
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": machine(), "reference": ref.kind,
              "reference_nominal_s": ref.nominal_s}
    wl.begin()
    if not trace:
        run = Run(wl, ref)
        run.passes(seconds, wl.rounds)
        run.problems += wl.finish()
        metrics = {"setup_s": statistics.median(s for _, s in setups),
                   **doc_metrics(run.per_doc()),
                   "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = END_TO_END
        result.update(docs=len(run.times), passes=len(next(iter(run.times.values()))),
                      tail_percentile=tail_percentile(len(run.times)),
                      unscaled={"setup_s": statistics.median(r for r, _ in setups),
                                **doc_metrics(run.per_doc(scaled=False))})
    else:
        run = Run(wl, ref)
        run.passes(seconds / 2, wl.trace_rounds)
        tracer = spans.Tracer()
        traced = Run(wl, ref, tracer)
        tracer.install(bp)
        try:
            traced.passes(seconds / 2, wl.trace_rounds)
        finally:
            tracer.uninstall()
        run.problems += traced.problems + wl.finish()
        run.attempted += traced.attempted
        run.failed += traced.failed
        n = sum(len(v) for v in traced.times.values())
        # span times are scaled like document times, by the traced run's
        # overall ratio of scaled to wall time
        k = sum(map(sum, traced.times.values())) / sum(map(sum, traced.raw.values())) / 1e6
        metrics = {}
        for metric, (kind, names) in PER_LAYER.items():
            if kind == "self":
                metrics[metric] = sum(tracer.self_ns[s] for s in names) / n * k
            elif kind == "calls":
                metrics[metric] = sum(tracer.calls[s] for s in names) / n
            elif kind == "count":
                metrics[metric] = sum(tracer.counts[s] for s in names) / n
            else:
                metrics[metric] = sum(v for s, v in tracer.self_ns.items()
                                      if s.startswith(names[0])) / n * k
        metrics["trace.overhead_pct"] = (sum(traced.per_doc()) / sum(run.per_doc()) - 1) * 100
        units = {m: ("ms" if m.endswith("_ms") else "count") for m in PER_LAYER}
        units["trace.overhead_pct"] = "%"
        result.update(docs_traced=n, spans={
            s: {"calls": tracer.calls[s], "self_ms_per_doc": tracer.self_ns[s] / n * k}
            for s in sorted(tracer.calls)})
        os.makedirs(RESULTS, exist_ok=True)
        tracer.write(os.path.join(RESULTS, f"{name}-seed{seed}-spans.jsonl"))
    result.update(
        correct=not run.problems, attempted=run.attempted, failed=run.failed,
        problems=run.problems[:50], known_failures=run.known,
        metrics={m: {"value": v, "unit": units[m]} for m, v in metrics.items()})
    return result


def run_all(args) -> int:
    """Every workload, untraced and traced, each in its own process."""
    summary = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(f"{name} --trace {trace} exited with {proc.returncode}", file=sys.stderr)
                return proc.returncode or 1
            summary[f"{name}/trace{trace}"] = json.loads(lines[-1])
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "boxparse", "drs.py")):
        print(f"boxparse sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(result, f, indent=1)
    print(f"{args.workload}: {result['attempted']} attempted, {result['failed']} failed, "
          f"correct={result['correct']}")
    for problem in result["problems"][:10]:
        print(f"  problem: {problem}")
    for known in result["known_failures"]:
        print(f"  known failure, every round: {known}")
    for m, v in result["metrics"].items():
        print(f"  {m:42s} {v['value']:14.6g} {v['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    # BLAS threads are capped at the core count before numpy is imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(CORES)
    sys.path[:0] = [SRC, HERE]
    import checks  # noqa: E402
    import gen  # noqa: E402
    import model  # noqa: E402
    import spans  # noqa: E402

    sys.exit(main())
