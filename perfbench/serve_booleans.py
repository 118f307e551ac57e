"""``serve-booleans``: one client in a closed loop against ``repro serve --tcp``.

The server is a child process with the default scheduler (one thread
shard).  The client opens 20 sessions on the booleans grammar and replays a
seeded, interleaved request stream: ``parse`` and ``recognize`` of
sentences from small per-session pools, so repeats hit the result cache,
and ``add-rule``/``delete-rule`` toggles (one request in eight) that bump
the session's grammar version.  The grammar is ambiguous: a sentence with
k operators has Catalan(k) derivations, and rendering them into the
response is where a parse request spends its time.  The ISG scanner is
not used (the service tokenizes on whitespace).

The stream's shape is fixed and only its words come from the seed: each
session works in epochs of eight requests, ``[toggle, parse a, recognize
r1, recognize r2, parse c, recognize r3, recognize r1, recognize r4]``.
Over the four epochs of a cycle it parses each of its 8 parse-pool
sentences exactly once on a fresh grammar version, and recognizes its 4
recognize-pool sentences on every version.  So every cycle renders the
same trees and hits the cache the same number of times, whatever the
seed.  The classes are apart in cost: cache hits and toggles are the
cheapest quarter of the requests, recognitions of 3- to 8-operator pool
sentences the middle half (which holds the p50 rank), and parses of 4 or
more operators the dearest quarter (whose 8-operator parses hold the
tail rank).  Each session's 8-operator parse asks for a different
``max_trees``, so the heavy parses render from 480 to all 1430 trees.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import random
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from . import common

INPUTS = Path(__file__).resolve().parent / "inputs"
SRC = Path(__file__).resolve().parent.parent / "src"

SESSIONS = 20
#: Operator counts of each session's 8 parse-pool sentences.  A parse that
#: renders Catalan(8) = 1430 trees is the heavy class (1 request in 32),
#: which holds the tail rank; rendering Catalan(9) or more trees takes
#: seconds per request and would leave too few requests in a run.
PARSE_OPERATORS = (4, 4, 5, 5, 6, 6, 6, 8)
#: ``max_trees`` of session i's 8-operator parse: 480 + 50 i, up to all
#: 1430.  Rendering is most of a heavy parse, so the heavy parses cost
#: from about 0.4 to 1 times the full rendering.  That range is wider
#: than the host's phase swings, so the tail rank moves with the share of
#: a run spent in slow phases instead of jumping from one phase's cost to
#: the other's (see RECOGNIZE_OPERATORS).
HEAVY_TREES = tuple(480 + 50 * i for i in range(SESSIONS))
#: Operator counts of the recognize-pool sentences, dealt round the
#: sessions' 4 pool slots in turn.  A recognize miss costs more than a
#: cache hit or a toggle and less than most parses.  The counts are spread
#: so the recognize misses around the p50 rank cover a range of costs
#: wider than the host's phase swings: then p50 moves with the share of a
#: run spent in slow phases, instead of jumping from one phase's cost to
#: the other's when that share crosses one half.
RECOGNIZE_OPERATORS = (3, 4, 5, 6, 7, 8)
RECOGNIZE_POOL = 4
EPOCH = ("modify", "parse-miss", "recognize-miss", "recognize-miss", "parse-miss",
         "recognize-miss", "recognize-hit", "recognize-miss")
EPOCHS = 4
RULE = "B ::= maybe"
#: Tail percentile of the timed requests (see common.fast_repeats): about
#: 5000 requests per 40 s run are 6 to 8 cycles of 640, of which 1 is kept
#: per position, and 640 timed requests leave 12 samples beyond it.
TAIL_PCT = 98.0
#: Set-up samples per run, each about 0.3 s (see common.SetupClock).
SETUP_REPEATS = 15
START_TIMEOUT_S = 60.0


def grammar_text() -> str:
    return (INPUTS / "booleans.bnf").read_text()


def generate(seed: int) -> List[Tuple[Dict[str, Any], str, int]]:
    """One cycle: ``(request, class, operator count or -1)`` in send order.

    Open requests are not part of the cycle (the client sends them at
    set-up).  Each session's toggles come in add/delete pairs, so the
    grammars are back where they began when a cycle ends.
    """
    rng = random.Random(seed)

    def sentence(operators: int) -> Tuple[str, int]:
        words = [rng.choice(("true", "false"))]
        for _ in range(operators):
            words += [rng.choice(("and", "or")), rng.choice(("true", "false"))]
        return " ".join(words), operators

    per_session: List[List[Tuple[Dict[str, Any], str, int]]] = []
    for index in range(SESSIONS):
        name = f"s{index:03d}"
        parse_pool = [sentence(operators) for operators in PARSE_OPERATORS]
        rng.shuffle(parse_pool)
        r1, r2, r3, r4 = (
            sentence(RECOGNIZE_OPERATORS[(RECOGNIZE_POOL * index + slot) % len(RECOGNIZE_OPERATORS)])
            for slot in range(RECOGNIZE_POOL)
        )
        requests = []
        for epoch in range(EPOCHS):
            a, c = parse_pool[2 * epoch], parse_pool[2 * epoch + 1]
            toggle = "add-rule" if epoch % 2 == 0 else "delete-rule"
            for label, (cmd, words) in zip(EPOCH, (
                (toggle, None), ("parse", a), ("recognize", r1), ("recognize", r2),
                ("parse", c), ("recognize", r3), ("recognize", r1), ("recognize", r4),
            )):
                request: Dict[str, Any] = {"cmd": cmd, "session": name}
                if words is None:
                    request["rule"] = RULE
                    operators = -1
                else:
                    request["tokens"], operators = words
                if cmd == "parse" and operators == max(PARSE_OPERATORS):
                    request["max_trees"] = HEAVY_TREES[index]
                requests.append((request, label, operators))
        per_session.append(requests)
    # Round-robin over sessions, in a seeded order each round.
    stream = []
    for position in range(len(EPOCH) * EPOCHS):
        order = list(range(SESSIONS))
        rng.shuffle(order)
        stream += [per_session[s][position] for s in order]
    return stream


def open_requests() -> List[Dict[str, Any]]:
    text = grammar_text()
    return [{"cmd": "open", "session": f"s{i:03d}", "grammar": text} for i in range(SESSIONS)]


def check(response: Dict[str, Any], request: Dict[str, Any], operators: int) -> bool:
    """Is ``response`` the right answer to ``request``?"""
    if "error" in response:
        return False
    cmd = request["cmd"]
    if cmd == "add-rule":
        return response.get("added") is True
    if cmd == "delete-rule":
        return response.get("deleted") is True
    if response.get("accepted") is not True:
        return False
    if cmd == "parse":
        trees = common.catalan(operators)
        rendered = min(trees, request.get("max_trees", trees))
        return response.get("tree_count") == trees and len(response.get("trees", ())) == rendered
    return True


class Server:
    """A ``repro serve --tcp`` child and one client connection to it."""

    def __init__(self, tag: str) -> None:
        common.WORK_DIR.mkdir(parents=True, exist_ok=True)
        self.ready = common.WORK_DIR / f"ready-{os.getpid()}-{tag}"
        if self.ready.exists():
            self.ready.unlink()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        self.log = open(common.WORK_DIR / f"server-{os.getpid()}-{tag}.log", "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--tcp", "127.0.0.1:0",
             "--ready-file", str(self.ready)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=self.log,
            cwd=str(SRC.parent), env=env,
        )
        self.sock: Optional[socket.socket] = None
        self.reader = None
        try:
            deadline = time.perf_counter() + START_TIMEOUT_S
            while not self.ready.exists():
                if self.process.poll() is not None or time.perf_counter() > deadline:
                    raise RuntimeError("the server did not start; see " + self.log.name)
                time.sleep(0.001)
            host, _, port = self.ready.read_text().strip().rpartition(":")
            self.sock = socket.create_connection((host, int(port)))
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.reader = self.sock.makefile("rb")
            for request in open_requests():
                response = self.call((json.dumps(request) + "\n").encode())
                if "error" in json.loads(response):
                    raise RuntimeError(f"open failed: {response[:200]!r}")
        except BaseException:
            self.close()
            raise

    def call(self, line: bytes) -> bytes:
        self.sock.sendall(line)
        response = self.reader.readline()
        if not response:
            raise ConnectionError("the server closed the connection")
        return response

    def close(self) -> None:
        if self.reader is not None:
            self.reader.close()
            self.reader = None
        if self.sock is not None:
            self.sock.close()
            self.sock = None
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()
        if self.process.returncode == 0:
            # Drained cleanly: the log holds nothing worth keeping.
            Path(self.log.name).unlink()
        if self.ready.exists():
            self.ready.unlink()


def prepare(seed: int) -> Iterator[int]:
    """The set-up helper's state (see common.SetupClock): a launch counter
    that names each server's ready file."""
    return itertools.count()


def setup(launches: Iterator[int]) -> Server:
    """What set-up times: launch the server, wait for its ready file,
    connect and open the 20 sessions."""
    return Server(f"setup-{next(launches)}")


def tcp_loop(
    server: Server,
    setups: common.SetupClock,
    stream: List[Tuple[Dict[str, Any], str, int]],
    seconds: float,
) -> Tuple[List[float], List[str], int, List[float]]:
    """Closed loop for ``seconds``; (latencies, classes, failures, and each
    request's latency minus the handle time the server reports for it)."""
    lines = [(json.dumps(request) + "\n").encode() for request, _c, _o in stream]
    latencies: List[float] = []
    classes: List[str] = []
    outside_handle: List[float] = []
    failed = 0
    gc.collect()
    setups.start()
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline:
        request, label, operators = stream[index % len(stream)]
        started = time.perf_counter()
        try:
            raw = server.call(lines[index % len(stream)])
        except OSError as error:
            print(f"perfbench: request {index} failed: {error!r}", file=sys.stderr)
            latencies.append(time.perf_counter() - started)
            classes.append(label)
            failed += 1
            break
        latencies.append(time.perf_counter() - started)
        classes.append(label)
        # Checked outside the latency: the client's think time.
        response = json.loads(raw)
        if not check(response, request, operators):
            failed += 1
        outside_handle.append(latencies[-1] - response.get("time", 0.0))
        index += 1
        setups.tick()
    return latencies, classes, failed, outside_handle


def replay(
    stream: List[Tuple[Dict[str, Any], str, int]], seconds: float
) -> Dict[str, Any]:
    """The same stream through an in-process Dispatcher, with spans.

    Every other request is traced (see :class:`common.OpClock`); the counts
    come from the first cycle, so they repeat exactly from run to run.
    """
    from repro.service import protocol
    from repro.service.dispatcher import Dispatcher
    from repro.service.server import decode_line

    dispatcher = Dispatcher()
    for request in open_requests():
        dispatcher.handle(request)
    languages = [dispatcher.workspace.get(r["session"]).language for r in open_requests()]
    lines = [json.dumps(request) for request, _c, _o in stream]
    tracer = common.Tracer()
    cycle = len(stream)
    clock = common.OpClock(tracer, True, cycle)
    result: Dict[str, Any] = {"failed": 0, "trees": 0, "parse_ops": set()}
    before = common.language_counters(languages)
    gc.collect()
    deadline = time.perf_counter() + seconds
    op = 0
    try:
        while op < cycle or time.perf_counter() < deadline:
            request, _label, operators = stream[op % cycle]
            clock.start(op)
            if clock.tracing:
                span = tracer.begin("decode")
            requests, _error = decode_line(lines[op % cycle])
            if clock.tracing:
                tracer.end(span)
            response = dispatcher.handle(requests[0])
            if clock.tracing:
                span = tracer.begin("encode")
            protocol.encode(response)
            if clock.tracing:
                tracer.end(span)
            clock.stop()
            if not check(response, request, operators):
                result["failed"] += 1
            if op < cycle and request["cmd"] == "parse":
                result["parse_ops"].add(op)
                if not response.get("cache"):
                    result["trees"] += len(response.get("trees", ()))
            op += 1
            if op == cycle:
                result["counts"] = common.counter_deltas(before, common.language_counters(languages))
                result["cache"] = dispatcher.handle({"cmd": "metrics"})["cache"]
    finally:
        clock.close()
    result["tracer"] = tracer
    result["clock"] = clock
    result["ops"] = op
    return result


def run(seed: int, seconds: float, trace: bool) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    stream = generate(seed)
    tcp_seconds = seconds / 2 if trace else seconds
    server = Server("run")
    setups = None
    try:
        setups = common.SetupClock("serve_booleans", seed, SETUP_REPEATS, tcp_seconds)
        latencies, classes, failed, outside_handle = tcp_loop(server, setups, stream, tcp_seconds)
        setup_s = setups.finish()
    finally:
        server.close()
        if setups is not None:
            setups.close()
    # The largest child that has ended: the run's server, which holds more
    # than the set-up helper or the servers it launched.
    rss = common.peak_rss_mb(children=True)

    metrics, facts = common.end_to_end(
        setup_s, latencies, classes, len(stream), failed, TAIL_PCT, rss
    )
    if not trace:
        return common.result_line(len(latencies), failed, True, metrics), facts

    replayed = replay(stream, seconds - tcp_seconds)
    tracer: common.Tracer = replayed["tracer"]
    cycle = len(stream)
    traced = tracer.self_times()
    n = len(traced)
    self_ms = tracer.mean_self_ms()
    handle = tracer.durations("handle")
    render_in_parse = sum(
        per_op.get("render", 0.0) for op, per_op in traced.items() if op % cycle in replayed["parse_ops"]
    )
    handle_in_parse = sum(value for op, value in handle.items() if op % cycle in replayed["parse_ops"])
    # Network and front-end overhead per request class: TCP latency minus
    # the server's own Dispatcher.handle time for that request (its
    # ``time`` field), so both halves come from the same request.
    by_class: Dict[str, List[float]] = {}
    for value, label in zip(outside_handle, classes):
        by_class.setdefault(label, []).append(value)
    facts["net_overhead_ms_by_class"] = {
        label: sum(values) / len(values) * 1e3 for label, values in by_class.items()
    }
    counts = replayed["counts"]
    cache = replayed["cache"]
    hits = counts.get("action_cache_hits", 0)
    misses = counts.get("action_cache_misses", 0)
    clock: common.OpClock = replayed["clock"]
    values = {
        "lexing.lex_ms": self_ms.get("lex", 0.0),
        "grammar.modify_ms": self_ms.get("modify", 0.0),
        "core.expansions_per_op": counts.get("expansions", 0) / cycle,
        "core.closure_items_per_op": counts.get("closure_items", 0) / cycle,
        "core.states_removed_per_op": counts.get("states_removed", 0) / cycle,
        "lr.action_cache_hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        "runtime.engine_ms": self_ms.get("parse", 0.0),
        "api.render_ms": self_ms.get("render", 0.0),
        "api.render_trees_per_op": replayed["trees"] / cycle,
        "api.render_share_of_handle": render_in_parse / handle_in_parse,
        "service.handle_ms": sum(handle.values()) / n * 1e3,
        "service.decode_ms": self_ms.get("decode", 0.0),
        "service.encode_ms": self_ms.get("encode", 0.0),
        "service.net_overhead_ms": sum(outside_handle) / len(outside_handle) * 1e3,
        "service.cache_hit_frac": cache["hits"] / (cache["hits"] + cache["misses"]),
        "unattributed_ms": self_ms.get("op", 0.0),
        "trace.overhead_frac": clock.overhead,
    }
    facts["layer_self_ms"] = self_ms
    facts["op_wall_ms"] = clock.traced_wall_ms
    facts["replayed_ops"] = replayed["ops"]
    tracer.dump(common.WORK_DIR / f"spans-serve-booleans-{seed}.jsonl")
    failed_all = failed + replayed["failed"]
    return (
        common.result_line(len(latencies) + replayed["ops"], failed_all, True, common.layer_metrics(values)),
        facts,
    )
