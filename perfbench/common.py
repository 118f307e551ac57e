"""Shared machinery: spans, percentiles, timing loops and the result line.

Spans are recorded from the benchmark's side of each public call into
``repro`` (see :class:`Tracer`): the program under test is never edited to
be measured.  Every span is ``[name, start, end, parent, op]``; the spans
of one op share the op's id and nest under its root span, so a layer's
self time is its span's duration minus the time its child spans cover, and
the root's self time is the op's unattributed time.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Directory (inside the checkout) for files a run leaves behind: the
#: server's ready file and the span dump of a traced run.
WORK_DIR = Path(__file__).resolve().parent / ".work"


class Tracer:
    """In-memory span recorder with wrappers for public methods."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []
        self.op: Optional[int] = None
        self._restore: List[Callable[[], None]] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Record a ``name`` span around every call of ``owner.attr``."""
        original = owner.__dict__[attr]
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = tracer.begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end(index)

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, attr, traced)
        self._restore.append(lambda: setattr(owner, attr, original))

    def unwrap_all(self) -> None:
        while self._restore:
            self._restore.pop()()

    def self_times(self) -> Dict[int, Dict[str, float]]:
        """``{op: {span name: self seconds}}`` over the traced ops."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        result: Dict[int, Dict[str, float]] = {}
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            if op is None:
                continue
            per_op = result.setdefault(op, {})
            per_op[name] = per_op.get(name, 0.0) + (end - start) - covered[index]
        return result

    def mean_self_ms(self) -> Dict[str, float]:
        """Mean self time per traced op, in ms, by span name (``op`` is the
        unattributed rest)."""
        per_op = self.self_times()
        totals: Dict[str, float] = {}
        for times in per_op.values():
            for name, seconds in times.items():
                totals[name] = totals.get(name, 0.0) + seconds
        return {name: seconds / len(per_op) * 1e3 for name, seconds in totals.items()}

    def durations(self, name: str) -> Dict[int, float]:
        """``{op: summed inclusive seconds}`` of the ``name`` spans that the
        op calls directly (not those nested in another wrapped call)."""
        result: Dict[int, float] = {}
        for span_name, start, end, parent, op in self.spans:
            if span_name == name and op is not None and self.spans[parent][0] == "op":
                result[op] = result.get(op, 0.0) + end - start
        return result

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def install_wrappers(tracer: Tracer) -> None:
    """Wrap the public entry point of every layer the workloads cross."""
    from repro import IPG, Language, ParseOutcome
    from repro.service.dispatcher import Dispatcher

    tracer.wrap(Language, "lex", "lex")
    tracer.wrap(Language, "reparse", "reparse")
    tracer.wrap(Language, "parse_lexed", "parse")
    tracer.wrap(Language, "add_rule", "modify")
    tracer.wrap(Language, "delete_rule", "modify")
    # Service sessions edit through the IPG facade, which skips Language.
    tracer.wrap(IPG, "add_rule", "modify")
    tracer.wrap(IPG, "delete_rule", "modify")
    tracer.wrap(ParseOutcome, "to_payload", "render")
    tracer.wrap(Dispatcher, "handle", "handle")


class OpClock:
    """Times ops and, in a traced run, traces every other one.

    The parity flips each cycle of the workload's script, so a position
    of the cycle traced in one cycle runs untraced in the next; the
    tracing overhead compares the two per position, on identical work.
    Wrappers stay installed from a traced op's start until the next op
    starts, so work a workload does right after a traced op (outside its
    root span) is seen through the same wrappers.
    """

    def __init__(self, tracer: Tracer, trace: bool, cycle: int) -> None:
        self.tracer = tracer
        self.trace = trace
        self.cycle = cycle
        self.tracing = False
        self._op = 0
        # position -> [traced seconds, traced ops, plain seconds, plain ops]
        self._by_position: Dict[int, List[float]] = {}

    def start(self, op: int) -> None:
        self.tracer.unwrap_all()
        self._op = op
        self.tracing = self.trace and (op + op // self.cycle) % 2 == 0
        if self.tracing:
            install_wrappers(self.tracer)
            self.tracer.op = op
            self._root = self.tracer.begin("op")
        self._started = time.perf_counter()

    def stop(self) -> float:
        elapsed = time.perf_counter() - self._started
        if self.tracing:
            self.tracer.end(self._root)
            self.tracer.op = None
        totals = self._by_position.setdefault(self._op % self.cycle, [0.0, 0, 0.0, 0])
        offset = 0 if self.tracing else 2
        totals[offset] += elapsed
        totals[offset + 1] += 1
        return elapsed

    def close(self) -> None:
        self.tracer.unwrap_all()

    @property
    def traced_wall_ms(self) -> float:
        seconds = sum(totals[0] for totals in self._by_position.values())
        ops = sum(totals[1] for totals in self._by_position.values())
        return seconds / ops * 1e3

    @property
    def overhead(self) -> float:
        """Traced over untraced time of the same cycle positions, minus one."""
        traced = plain = 0.0
        for seconds, ops, plain_seconds, plain_ops in self._by_position.values():
            if ops and plain_ops:
                traced += seconds / ops
                plain += plain_seconds / plain_ops
        return traced / plain - 1.0 if plain else 0.0


# -- statistics -------------------------------------------------------------


def percentile(values: Sequence[float], pct: float) -> Tuple[float, int]:
    """Nearest-rank ``pct`` percentile and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def class_at(
    latencies: Sequence[float], classes: Sequence[str], pct: float, window: float = 0.02
) -> Tuple[str, float]:
    """The op class most common among the ranks within ``window`` of the
    ``pct`` rank on either side, and its share of them (1.0: the rank sits
    well inside one class; near 0.5: it sits on the boundary between two)."""
    order = sorted(range(len(latencies)), key=latencies.__getitem__)
    n = len(order)
    rank = min(n - 1, max(0, math.ceil(pct / 100.0 * n) - 1))
    half = max(1, int(window * n))
    near = [classes[order[i]] for i in range(max(0, rank - half), min(n, rank + half + 1))]
    label = max(sorted(set(near)), key=near.count)
    return label, near.count(label) / len(near)


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


class SetupClock:
    """Times a workload's set-up in a helper process, several times a run.

    The helper (``python -m perfbench.setup_worker``) imports the
    workload, calls its ``prepare(seed)`` once and one untimed
    ``setup()`` to warm up, and then, each time it is asked, times one
    ``setup(prepared)`` and closes what it built.  Samples are asked for
    between ops at even intervals over the measured seconds, so the
    reported median spans the run instead of one moment of it; set-ups
    the loop had no time for are taken when it ends.  The run waits while
    the helper builds, so the two never share the CPU, and the sampled
    instances never enter the run's own heap or peak RSS.
    """

    def __init__(self, workload: str, seed: int, samples: int, seconds: float) -> None:
        self._samples = samples
        self._interval = seconds / samples
        self.times: List[float] = []
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(root)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self._process = subprocess.Popen(
            [sys.executable, "-m", "perfbench.setup_worker", workload, str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=str(root), env=env,
        )
        try:
            self._read()  # "ready": imported, prepared and warmed up
        except BaseException:
            self.close()
            raise
        self._next_at = time.perf_counter() + self._interval

    def _read(self) -> str:
        line = self._process.stdout.readline()
        if not line:
            raise RuntimeError(f"the set-up helper exited with code {self._process.wait()}")
        return line.strip()

    def _sample(self) -> None:
        self._process.stdin.write("\n")
        self._process.stdin.flush()
        self.times.append(float(self._read()))

    def start(self) -> None:
        """Call right before the timed loop starts."""
        self._next_at = time.perf_counter() + self._interval

    def tick(self) -> None:
        """Call between ops: takes the next set-up sample when it is due."""
        if len(self.times) < self._samples and time.perf_counter() >= self._next_at:
            self._sample()
            self._next_at += self._interval

    def finish(self) -> float:
        """Takes any samples still missing, stops the helper and returns the
        median seconds."""
        while len(self.times) < self._samples:
            self._sample()
        self.close()
        return statistics.median(self.times)

    def close(self) -> None:
        """Stops the helper and waits until it has ended."""
        if self._process.stdin and not self._process.stdin.closed:
            try:
                self._process.stdin.close()
            except OSError:
                pass
        try:
            self._process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
        if self._process.stdout and not self._process.stdout.closed:
            self._process.stdout.close()


def language_counters(languages: Iterable[Any]) -> Dict[str, int]:
    """Summed ``Language.summary()`` counters over ``languages``."""
    totals: Dict[str, int] = {}
    for language in languages:
        for key, value in language.summary().items():
            totals[key] = totals.get(key, 0) + value
    return totals


def counter_deltas(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    return {key: after.get(key, 0) - before.get(key, 0) for key in after}


# -- results ----------------------------------------------------------------

#: Units of every metric, end-to-end and per-layer (see README.md).
UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
    "lexing.lex_ms": "ms",
    "lexing.chars_per_s": "1/s",
    "lexing.dfa_states": "count",
    "grammar.modify_ms": "ms",
    "core.regen_ms": "ms",
    "core.expansions_per_op": "count",
    "core.closure_items_per_op": "count",
    "core.states_removed_per_op": "count",
    "core.table_fraction": "frac",
    "lr.action_cache_hit_frac": "frac",
    "runtime.reparse_ms": "ms",
    "runtime.reparse_resumed_frac": "frac",
    "runtime.reparse_reused_frac": "frac",
    "runtime.engine_ms": "ms",
    "runtime.forks_per_op": "count",
    "runtime.shifts_per_op": "count",
    "api.render_ms": "ms",
    "api.render_trees_per_op": "count",
    "api.render_share_of_handle": "frac",
    "service.handle_ms": "ms",
    "service.decode_ms": "ms",
    "service.encode_ms": "ms",
    "service.net_overhead_ms": "ms",
    "service.cache_hit_frac": "frac",
    "unattributed_ms": "ms",
    "trace.overhead_frac": "frac",
}

END_TO_END = ("setup_s", "ops_per_s", "p50_ms", "tail_ms", "ok_frac", "peak_rss_mb")
PER_LAYER = tuple(name for name in UNITS if name not in END_TO_END)


#: Share of each cycle position's repeats that the timing metrics keep.
FAST_SHARE = 0.1


def fast_repeats(latencies: Sequence[float], cycle: int) -> List[int]:
    """Indices of the ops the timing metrics are taken over.

    Every cycle of a workload does the same work, so each position of the
    cycle is repeated once per complete cycle.  For each position this
    keeps the fastest tenth of its repeats, rounded down, and at least
    one, the way ``timeit`` keeps the best of its repeats: the host's
    speed drifts by up to a factor of two over spans of 5 to 30 seconds,
    and a run's share of slow spans would otherwise decide its figures.
    Every position keeps the same number of repeats, so the kept ops have
    exactly the cycle's mix.  With no complete cycle, every op is kept.
    """
    repeats = len(latencies) // cycle
    if repeats == 0:
        return list(range(len(latencies)))
    keep = max(1, int(FAST_SHARE * repeats))
    chosen: List[int] = []
    for position in range(cycle):
        ops = range(position, repeats * cycle, cycle)
        chosen += sorted(ops, key=latencies.__getitem__)[:keep]
    return sorted(chosen)


def end_to_end(
    setup_s: float,
    latencies: Sequence[float],
    classes: Sequence[str],
    cycle: int,
    failed: int,
    tail_pct: float,
    rss_mb: float,
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """The end-to-end metrics of one run, plus facts about their ranks.

    ``ok_frac`` counts every op attempted; the timings are taken over the
    ops :func:`fast_repeats` keeps.
    """
    attempted = len(latencies)
    kept = fast_repeats(latencies, cycle)
    timed = [latencies[i] for i in kept]
    timed_classes = [classes[i] for i in kept]
    tail, beyond = percentile(timed, tail_pct)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(timed) / sum(timed),
        "p50_ms": statistics.median(timed) * 1e3,
        "tail_ms": tail * 1e3,
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": rss_mb,
    }
    facts = {
        "tail_percentile": tail_pct,
        "samples": attempted,
        "cycle_ops": cycle,
        "repeats": attempted // cycle,
        "timed_samples": len(timed),
        "beyond_tail": beyond,
        "p50_class": class_at(timed, timed_classes, 50.0),
        "tail_class": class_at(timed, timed_classes, tail_pct),
        # The same figures over every op, for comparison.
        "all_ops_p50_ms": statistics.median(latencies) * 1e3,
        "all_ops_per_s": attempted / sum(latencies),
    }
    if beyond < 10:
        print(
            f"perfbench: only {beyond} samples beyond p{tail_pct}; the tail "
            f"is not resolved by this run",
            file=sys.stderr,
        )
    return metrics, facts


def layer_metrics(values: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric, 0.0 where the workload does not exercise or
    isolate that layer (README.md lists which layers each workload hits)."""
    missing = set(values) - set(PER_LAYER)
    if missing:
        raise KeyError(f"unknown per-layer metrics: {sorted(missing)}")
    return {name: float(values.get(name, 0.0)) for name in PER_LAYER}


def environment() -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
    }


def result_line(
    attempted: int, failed: int, checks_ok: bool, metrics: Dict[str, float]
) -> Dict[str, Any]:
    return {
        "correct": checks_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()
        },
    }


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)
