"""The benchmark loop, its output checks and its metrics.

Imported by run.py once the BLAS thread count is pinned and the checkout's
sources are on sys.path.  The library is called through module attributes
(`decode.generate_poem`, not a bound name) so that the traced run's
wrappers see every call.
"""

import hashlib
import json
import logging
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import layers
import workload
from acropoet import corpus, decode, embed, poemlm, rhymer
from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

SETUP_REPS = 7
WARMUP_OPS = 1
EVAL_EVERY = 2       # train-lm: score a test batch after every 2nd epoch
CHECK_OPS = {"generate-rhyme": 16, "generate-plain": 16, "train-lm": 3}
TAIL_BEYOND = 10     # the tail percentile leaves this many samples above it


@dataclass
class Step:
    """One loop iteration: the timed op plus any forward-only scoring."""

    op_s: float
    tokens: int
    ok: bool
    digest: str
    eval_s: float = 0.0
    eval_tokens: int = 0
    mix: Counter = field(default_factory=Counter)


def poem_targets(poem) -> int:
    """Tokens the LM predicts for a poem: every token plus a boundary per
    line (<eol>, or <eos> after the last)."""
    return sum(len(line) for line in poem.lines) + len(poem.lines)


class GenerateWorkload:
    """generate_poem over seeded acrostic words, rhyme flag on or off."""

    def __init__(self, files: Path, rhyme: bool):
        self.files = files
        self.rhyme = rhyme
        self.words = json.loads((files / "words.json").read_text())

    def setup(self):
        table = embed.load_embeddings(self.files / "vectors.txt",
                                      workload.DIM)
        lm = poemlm.load_lm(self.files / "lm.ckpt").model
        rh = rhymer.load_rhymer(self.files / "rhymer.ckpt")
        return SimpleNamespace(
            models=decode.ModelBundle(lm=lm, table=table, rhymer=rh),
            ok=True)

    def step(self, ctx, i: int) -> Step:
        word = self.words[i % len(self.words)]
        cfg = decode.GenerationConfig(rh=self.rhyme, rng_seed=i)
        t0 = time.perf_counter()
        result = decode.generate_poem(word, cfg, ctx.models)
        op_s = time.perf_counter() - t0
        lines = result.poem.lines
        slots = len(result.scheme.substitution_slots) if self.rhyme else 0
        ok = (len(lines) == len(word)
              and all(line and line[0][:1] == ch
                      for line, ch in zip(lines, word))
              and result.rhymer_calls == slots)
        step = Step(op_s=op_s, tokens=sum(map(len, lines)), ok=ok,
                    digest=json.dumps([word, lines]))
        step.mix.update(
            lines=len(lines), tokens=step.tokens,
            fed_tokens=poem_targets(result.poem),
            capped_lines=sum(len(l) >= cfg.max_tokens_per_line
                             for l in lines),
            knn_lines=result.first_word_paths.count("knn"),
            rhymer_calls=result.rhymer_calls,
            substitutions=len(result.substitutions))
        # score the poem just made: forward-only, one poem per batch
        t0 = time.perf_counter()
        ppl = ctx.models.lm.perplexity([result.poem], ctx.models.table)
        step.eval_s = time.perf_counter() - t0
        step.eval_tokens = step.mix["fed_tokens"]
        step.ok = step.ok and math.isfinite(ppl)
        return step

    def finish(self, ctx, out: Path) -> bool:
        return True


class TrainWorkload:
    """One early-stopped train_lm epoch per B=32 batch, then perplexity."""

    def __init__(self, files: Path):
        self.files = files

    def setup(self):
        table = embed.load_embeddings(self.files / "vectors.txt",
                                      workload.DIM)
        train = corpus.read_poems(self.files / "train.jsonl")
        dev = corpus.read_poems(self.files / "dev.jsonl")
        test = corpus.read_poems(self.files / "test.jsonl")
        vocab = corpus.build_vocabulary(train, max_size=workload.VOCAB - 5)
        lm = poemlm.load_lm(self.files / "lm.ckpt").model
        B = workload.BATCH
        return SimpleNamespace(
            lm=lm, table=table, dev=dev,
            batches=[train[j:j + B] for j in range(0, len(train), B)],
            tests=[test[j:j + B] for j in range(0, len(test), B)],
            ok=vocab.id_to_token == lm.vocab.id_to_token)

    def step(self, ctx, i: int) -> Step:
        batch = ctx.batches[i % len(ctx.batches)]
        t0 = time.perf_counter()
        history = poemlm.train_lm(ctx.lm, batch, ctx.dev, ctx.table,
                                  max_epochs=1)
        op_s = time.perf_counter() - t0
        losses = [(h["dev_ppl"], h["train_ppl"]) for h in history]
        ok = len(history) == 2 and all(
            x is None or math.isfinite(x) for pair in losses for x in pair)
        step = Step(op_s=op_s, tokens=sum(map(poem_targets, batch)), ok=ok,
                    digest=repr(losses))
        if i % EVAL_EVERY == EVAL_EVERY - 1:
            test = ctx.tests[i // EVAL_EVERY % len(ctx.tests)]
            t0 = time.perf_counter()
            ppl = ctx.lm.perplexity(test, ctx.table)
            step.eval_s = time.perf_counter() - t0
            step.eval_tokens = sum(map(poem_targets, test))
            step.ok = ok and math.isfinite(ppl)
            step.digest += repr(ppl)
        return step

    def finish(self, ctx, out: Path) -> bool:
        """Save the trained model, as `acropoet train lm` does."""
        path = out / "trained.ckpt"
        poemlm.save_lm(path, poemlm.TrainedLm(model=ctx.lm))
        return path.stat().st_size > 0


def make_workload(name: str, files: Path):
    if name == "train-lm":
        return TrainWorkload(files)
    return GenerateWorkload(files, rhyme=name == "generate-rhyme")


class WarningCounter(logging.Handler):
    """Counts warnings per logger; also keeps them off stderr."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.counts = Counter()

    def emit(self, record):
        self.counts[record.name] += 1


def environment(args, blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True).stdout.strip()
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": sha,
        "workload": args.workload,
        "seed": args.seed,
        "load": "closed loop, 1 caller",
        "sizes": {"vocab": workload.VOCAB, "dim": workload.DIM,
                  "hidden": workload.HIDDEN, "layers": workload.LAYERS,
                  "batch": workload.BATCH, "rhymer": "desk_scale"},
    }


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples above it; the maximum when there are too few samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(steps: list[Step], setup_s: list[float]) -> dict:
    lat = [s.op_s for s in steps]
    busy = sum(lat)
    eval_s = sum(s.eval_s for s in steps)
    return {
        "op_ms_p50": (statistics.median(lat) * 1e3, "ms"),
        "op_ms_tail": (tail(lat)[0] * 1e3, "ms"),
        "ops_per_s": (len(lat) / busy, "1/s"),
        "tok_per_s": (sum(s.tokens for s in steps) / busy, "tokens/s"),
        "eval_tok_per_s": (sum(s.eval_tokens for s in steps) / eval_s,
                           "tokens/s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def digest(steps: list[Step]) -> str:
    return hashlib.sha256(
        "\n".join(s.digest for s in steps).encode()).hexdigest()


def make_inputs(seed: int, out: Path) -> None:
    """Write the seed's inputs from a child process, so that generating
    them counts in neither the set-up time nor the peak RSS."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(BENCH / "workload.py"),
                    "--seed", str(seed), "--out", str(out)],
                   env=env, check=True)


def measure(args, work: Path, warnings: WarningCounter,
            blas_threads: int) -> dict:
    make_inputs(args.seed, work)
    bench = make_workload(args.workload, work)
    tracer = Tracer() if args.trace else None
    failures: list[str] = []
    attempted = 0

    if tracer:
        layers.install(tracer)
        tracer.op = "setup"
    setup_s = []
    ctx = None
    for _ in range(SETUP_REPS):
        ctx = None  # free the previous models before loading again
        t0 = time.perf_counter()
        ctx = bench.setup()
        setup_s.append(time.perf_counter() - t0)
        attempted += 1
        if not ctx.ok:
            failures.append("set-up built a vocabulary unlike the LM's")

    reference: list[Step] = []
    n_check = CHECK_OPS[args.workload]
    if tracer:
        # the same first ops untraced, on freshly loaded models
        tracer.uninstall()
        ref_ctx = bench.setup()
        reference = [bench.step(ref_ctx, i) for i in range(n_check)]
        del ref_ctx
        layers.install(tracer)

    steps: list[Step] = []
    i = 0
    deadline = math.inf

    def more() -> bool:
        # at least the warm-up, the checked ops and one scoring pass
        return (i < max(WARMUP_OPS, n_check if tracer else 0)
                or time.perf_counter() < deadline
                or not any(s.eval_tokens for s in steps[WARMUP_OPS:]))

    while more():
        if i == WARMUP_OPS:
            deadline = time.perf_counter() + args.seconds
        if tracer:
            tracer.op = i
        attempted += 1
        try:
            step = bench.step(ctx, i)
        except Exception:
            traceback.print_exc()
            failures.append(f"op {i} raised")
        else:
            steps.append(step)
            if not step.ok:
                failures.append(f"op {i} output check failed")
        i += 1

    if tracer:
        tracer.op = "finish"
    attempted += 1
    if not bench.finish(ctx, work):
        failures.append("finish step failed")

    measured = steps[WARMUP_OPS:]
    lat = [s.op_s for s in measured]
    info = {"ops_measured": len(measured),
            "tail_percentile": round(tail(lat)[1], 2),
            "setup_reps": SETUP_REPS, "warmup_ops": WARMUP_OPS,
            "seconds": args.seconds}

    if tracer:
        tracer.uninstall()
        attempted += 1
        info["digest"] = digest(steps[:n_check])
        if info["digest"] != digest(reference):
            failures.append("traced outputs differ from untraced outputs")
        mix = sum((s.mix for s in measured), Counter())
        ops = set(range(WARMUP_OPS, WARMUP_OPS + len(measured)))
        values = layers.layer_metrics(tracer.spans, ops, SETUP_REPS, mix,
                                      warnings.counts)
        values["trace.op_ms_p50"] = statistics.median(lat) * 1e3
        values["trace.tok_per_s"] = sum(s.tokens for s in measured) / sum(lat)
        # paired: the same ops, seconds apart, traced against untraced
        values["trace.overhead_share"] = sum(
            s.op_s for s in steps[WARMUP_OPS:n_check]) / sum(
            s.op_s for s in reference[WARMUP_OPS:]) - 1.0
        attempted += 1
        failures += layers.coverage_failures(args.workload, tracer.spans,
                                             values)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}.jsonl")
        metrics = {name: (values[name], unit)
                   for name, (unit, _) in layers.PER_LAYER.items()}
    else:
        metrics = end_to_end(measured, setup_s)

    for problem in failures:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"env": environment(args, blas_threads), "run": info}))
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(args, blas_threads: int) -> dict:
    """One run in a temporary directory of the checkout, removed after."""
    warnings = WarningCounter()
    logging.getLogger("acropoet").addHandler(warnings)
    parent = ROOT / ".bench_work"
    parent.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=parent))
    try:
        return measure(args, work, warnings, blas_threads)
    finally:
        shutil.rmtree(work, ignore_errors=True)
